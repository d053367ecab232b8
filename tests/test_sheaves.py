from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbiflip import (
    A,
    B,
    EBAR,
    Character,
    TwistClass,
    UnsupportedWeights,
    WeightSequence,
    WrongSide,
    class_of_divisor,
    cohomology_table,
    degree,
    dualizing_class,
    euler_cotangent_complex,
    exceptional_koszul,
    hypercohomology_table,
    pullback,
    pushforward_rule,
    section_basis,
    serre_twist,
    total_cohomology,
    wps_cohomology_totals,
)
from orbiflip.exact import chain_reduce_homology
from orbiflip.functors import pull_complex
from orbiflip.linalg import characters_of_degree, single_twist_complex
from orbiflip.sheaves import (
    _cell_patterns,
    _term_pattern,
    _y_pattern_dims,
    character_cohomology,
    hypercohomology_bounds,
    hypercohomology_strand,
    hypercohomology_table_bounded,
)


def seq(text: str) -> WeightSequence:
    return WeightSequence.parse(text)


FLOP = seq("1,2;1,1,1")


class TestDivisorClasses:
    def test_ebar_class(self):
        assert class_of_divisor(FLOP, "Y", EBAR).k == (-1, -1)

    def test_a_divisor_each_space(self):
        assert class_of_divisor(FLOP, "minus", A(2)).k == 2
        assert class_of_divisor(FLOP, "plus", A(2)).k == -2
        assert class_of_divisor(FLOP, "Y", A(2)).k == (2, 0)

    def test_b_divisor(self):
        assert class_of_divisor(FLOP, "minus", B(1)).k == -1
        assert class_of_divisor(FLOP, "plus", B(1)).k == 1

    def test_wrong_side(self):
        with pytest.raises(WrongSide):
            class_of_divisor(FLOP, "minus", EBAR)

    def test_ebar_pullback_consistency(self):
        # class(A_i on Y) = pull-(class A_i^-) and
        # class(A_i on Y) + a_i class(Ebar) = pull+(class A_i^+).
        for s in [FLOP, seq("1,5;2,3"), seq("1,1;1,1")]:
            for i in range(1, s.m + 1):
                on_y = class_of_divisor(s, "Y", A(i)).k
                lift_minus = pullback(s, "minus", class_of_divisor(s, "minus", A(i)).k).k
                assert on_y == lift_minus
                ai = s.a[i - 1]
                ebar = class_of_divisor(s, "Y", EBAR).k
                shifted = (on_y[0] + ai * ebar[0], on_y[1] + ai * ebar[1])
                lift_plus = pullback(s, "plus", class_of_divisor(s, "plus", A(i)).k).k
                assert shifted == lift_plus


class TestDualizing:
    def test_flop_examples(self):
        assert dualizing_class(FLOP, "minus").k == 0
        assert dualizing_class(FLOP, "Y").k == (-2, -2)

    def test_flip_example(self):
        assert dualizing_class(seq("2,1;1,1"), "plus").k == 1

    def test_relative_classes(self):
        assert dualizing_class(FLOP, "Y", relative="plus").k == (-2, -2)
        assert dualizing_class(seq("1,5;2,3"), "Y", relative="minus").k == (-4, -4)


class TestPullbackPushforward:
    def test_pullback_examples(self):
        assert pullback(FLOP, "minus", 3).k == (3, 0)
        assert pullback(FLOP, "plus", -1).k == (0, -1)
        assert pullback(FLOP, "minus", 0).k == (0, 0)

    def test_pushforward_line_range(self):
        res = pushforward_rule(FLOP, "minus", (-2, -2))
        assert res.kind == "line" and res.twist == 0

    def test_pushforward_ideal(self):
        res = pushforward_rule(FLOP, "minus", (2, 2))
        assert res.kind == "ideal" and (res.ideal_index, res.twist) == (2, 0)

    def test_pushforward_not_closed_form(self):
        assert pushforward_rule(FLOP, "minus", (-3, -3)).kind == "not_closed_form"

    def test_projection_formula_sanity(self):
        for s in [FLOP, seq("1,1;1,1")]:
            for k in range(-6, 7):
                res = pushforward_rule(s, "minus", pullback(s, "minus", k).k)
                assert res.kind == "line" and res.twist == k


class TestSerreTwist:
    def test_flop_side_trivial(self):
        out = serre_twist(seq("1,1;1,1"), "minus", TwistClass("minus", 0))
        assert out.twist.k == 0 and out.shift == 3

    def test_weighted_projective_space(self):
        out = serre_twist(seq("1,1,2;"), "minus", 1)
        assert out.twist.k == -3 and out.shift == 2

    def test_flip_plus_side(self):
        out = serre_twist(seq("2,1;1,1"), "plus", 0)
        assert out.twist.k == 1 and out.shift == 3

    def test_complex_input(self):
        cx = exceptional_koszul(FLOP, "plus", 0)
        shifted = serre_twist(FLOP, "plus", cx)
        assert min(shifted.terms) == min(cx.terms) - 4


class TestCechOracle:
    def test_projective_line_negative_twist(self):
        table = cohomology_table(seq("1,1;"), "minus", -2, 4)
        assert total_cohomology(table) == {1: 1}

    def test_wps_sections_match_basis(self):
        table = cohomology_table(seq("1,1,2;"), "minus", 2, 6)
        assert total_cohomology(table) == {0: 4}
        assert len(section_basis(seq("1,1,2;"), "minus", 2, 6)) == 4

    def test_minus_side_nonnegative_twists_have_no_higher_cohomology(self):
        for k in range(0, 5):
            table = cohomology_table(FLOP, "minus", k, 5)
            assert all(set(dims) == {0} for dims in table.values())

    def test_mixed_sign_characters_vanish_on_wps(self):
        s = seq("1,1,2;")
        for k in range(-8, 3):
            for ch, dims in cohomology_table(s, "minus", k, 5).items():
                neg = [e < 0 for e in ch.alpha]
                assert all(neg) or not any(neg)

    def test_serre_duality_totals(self):
        for w in [(1, 1), (1, 2), (1, 1, 2), (1, 2, 3)]:
            for k in range(-10, 11):
                left = wps_cohomology_totals(w, k)
                right = wps_cohomology_totals(w, -sum(w) - k)
                assert left == right[::-1]

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(1, 5), min_size=1, max_size=3), st.integers(-12, 12))
    def test_wps_totals_match_per_character_sum(self, w, k):
        # For |k| <= 12 the box |alpha_i| <= 13 holds both regions: alpha_i <=
        # k / w_i on the nonnegative one, and alpha_i = -1 - mu_i >= -12 on
        # the negative one, mu of degree -k - sum(w) <= 11.
        s = WeightSequence(tuple(w), ())
        want = [0] * len(w)
        for ch in characters_of_degree(s, "minus", k, low=-13, high=13):
            for d, h in character_cohomology(s, "minus", k, ch).items():
                want[d] += h
        assert wps_cohomology_totals(w, k) == want

    def test_wps_totals_count_without_listing(self, monkeypatch):
        # The totals count monomials by coin change; none is listed, and the
        # package keeps no monomial lister.  The expected rows are those of
        # the listing implementation.
        from orbiflip import resolution, sheaves

        def listed(*args, **kwargs):
            raise AssertionError("monomials listed")

        monkeypatch.setattr(sheaves, "characters_of_degree", listed)
        assert not hasattr(resolution, "monomials_of_weighted_degree")
        assert not hasattr(sheaves, "monomials_of_weighted_degree")
        cases = {
            ((1, 1, 1, 1, 1), 40): [135751, 0, 0, 0, 0],
            ((1, 1, 1, 1, 1), -45): [0, 0, 0, 0, 135751],
            ((1, 2, 3), 11): [16, 0, 0],
            ((1, 2, 3), -17): [0, 0, 16],
            ((2, 3), 1): [0, 0],
            ((2, 3), -6): [0, 0],
            ((2, 3), -11): [0, 2],
            ((1, 1), 0): [1, 0],
            ((3,), -3): [1],
        }
        for (weights, k), want in cases.items():
            assert wps_cohomology_totals(weights, k) == want, (weights, k)

    def test_threshold_on_y_refused_before_any_work(self, monkeypatch):
        from orbiflip import Unsupported
        from orbiflip import sheaves

        def work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(sheaves, "cell_boxes", work)
        monkeypatch.setattr(sheaves, "single_twist_complex", work)
        for threshold in (1, 5):
            with pytest.raises(Unsupported, match="threshold"):
                cohomology_table(FLOP, "Y", (1, 1), 2, threshold=threshold)

    def test_threshold_ideal_table(self):
        # I_1^-(0) on the minus side: sections need weighted y-degree >= 1.
        table = cohomology_table(FLOP, "minus", 0, 4, threshold=1)
        assert all(
            sum(ch.beta) >= 1 for ch in table
        )
        unit = Character((0, 0), (0, 0, 0))
        assert unit not in table

    def test_chart_cover_limit(self):
        from orbiflip import Unsupported
        from orbiflip.sheaves import CHART_LIMIT, _pattern_subsets

        empty = frozenset()
        # Y is refused by its bicomplex cells, not its charts: 3 x 4 and 4 x 4
        # charts are formed, and 1 x 12 has exactly 2^12 - 1 cells.
        assert len(_pattern_subsets("Y", 3, 4, (empty, empty))) == 7 * 15 == 105
        assert len(_pattern_subsets("Y", 4, 4, (empty, empty))) == 15 * 15
        assert len(_pattern_subsets("Y", 1, 12, (empty, empty))) == 2**CHART_LIMIT - 1
        with pytest.raises(Unsupported):
            _pattern_subsets("minus", CHART_LIMIT + 1, 0, empty)
        with pytest.raises(Unsupported):
            _pattern_subsets("plus", 0, CHART_LIMIT + 1, frozenset({0}))

    def test_box_too_large_guard(self):
        from orbiflip import BoxTooLarge

        # 2001^2 > 4M: refused before the first character is formed.  And
        # 45^4 > 4M free points in the box, though each sign orthant alone
        # (at most 23^4) is under the limit.
        for box in (1000, 22):
            with pytest.raises(BoxTooLarge):
                cohomology_table(FLOP, "Y", (0, 0), box)

    def test_large_cover_refused_only_when_a_character_needs_it(self):
        from orbiflip import Unsupported

        # 7 x 7 charts on Y, 127^2 cells: no character of degree difference
        # 50 fits the box, so nothing is refused; at degree difference 3 one
        # does.
        s = seq("1,1,1,1,1,1,1;1,1,1,1,1,1,1")
        assert cohomology_table(s, "Y", (50, 0), 1) == {}
        with pytest.raises(Unsupported):
            cohomology_table(s, "Y", (3, 0), 1)


@st.composite
def _cech_cases(draw):
    """A small sequence, a space with its twist, a box <= 2 and a threshold
    (none on Y, which carries no ideal sheaf)."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4 - m))
    weights = st.integers(1, 3)
    s = WeightSequence(
        tuple(draw(weights) for _ in range(m)), tuple(draw(weights) for _ in range(n))
    )
    space = draw(st.sampled_from(["minus", "plus", "Y"]))
    k = st.integers(-4, 4)
    twist = (draw(k), draw(k)) if space == "Y" else draw(k)
    box = draw(st.integers(0, 2))
    threshold = None if space == "Y" else draw(st.one_of(st.none(), st.integers(1, 3)))
    return s, space, twist, box, threshold


def _on_degree(s, space, twist, ch):
    d = degree(s, space, ch)
    if space == "Y":
        return d[0] - d[1] == twist[0] - twist[1]
    return d == twist


class TestSharedCechPath:
    @settings(max_examples=60, deadline=None)
    @given(_cech_cases())
    def test_table_matches_per_character_reference(self, case):
        # cohomology_table reads dims off the sign pattern of each enumerated
        # character; the reference sweeps every character of the same box
        # through character_cohomology, degree test included.
        s, space, twist, box, threshold = case
        lows = {"minus": (-box, 0), "plus": (0, -box), "Y": (-box, -box)}[space]
        alpha = itertools.product(range(lows[0], box + 1), repeat=s.m)
        beta = list(itertools.product(range(lows[1], box + 1), repeat=s.n))
        brute = {}
        for a, b in itertools.product(alpha, beta):
            ch = Character(a, b)
            dims = character_cohomology(s, space, twist, ch, threshold)
            if not _on_degree(s, space, twist, ch):
                assert dims == {}, ch
            elif dims:
                brute[ch] = dims
        assert cohomology_table(s, space, twist, box, threshold=threshold) == brute


_HYPER_SEQS = ("1,2;1,1,1", "1,1;1,1", "1,3;1,1", "1,1;2,1")


@st.composite
def _hyper_cases(draw, images=("side", "Y", "dual", "Y dual")):
    """A Koszul or Euler cotangent complex on a side, as it is, pulled back to
    Y and tensored, or dualized, with bounds that cross the offset cuts."""
    s = seq(draw(st.sampled_from(_HYPER_SEQS)))
    d = draw(st.integers(-6, 3))
    if draw(st.booleans()):
        cx = exceptional_koszul(s, draw(st.sampled_from(["plus", "minus"])), d)
    else:
        cx = euler_cotangent_complex(s, "plus" if set(s.b) == {1} else "minus", d)
    image = draw(st.sampled_from(images))
    twist = st.integers(-3, 3)
    if image.startswith("Y"):
        cx = pull_complex(cx).tensor((draw(twist), draw(twist)))
    if image.endswith("dual"):
        cx = cx.dual_into((draw(twist), draw(twist)) if cx.space == "Y" else draw(twist))
    # Per coordinate, [near_lo, near_hi] spans the offsets and [far_lo,
    # far_hi] is the padded region hypercohomology_table sweeps with box 2.
    # The low bound falls below the top offset and the high bound above the
    # bottom one; the full padded region is the simplest draw.
    near = hypercohomology_bounds(cx, 0)
    far = hypercohomology_bounds(cx, 2)
    flat = lambda pair: pair[0] + pair[1]
    lows, highs = [], []
    for near_lo, near_hi, far_lo, far_hi in zip(*map(flat, near + far)):
        low = draw(st.integers(far_lo, near_hi))
        lows.append(low)
        highs.append(far_hi - draw(st.integers(0, far_hi - max(low, near_lo))))
    return cx, (tuple(lows[: s.m]), tuple(lows[s.m :])), (tuple(highs[: s.m]), tuple(highs[s.m :]))


def _box_characters(s, lows, highs):
    ranges = [range(lo, hi + 1) for lo, hi in zip(lows[0] + lows[1], highs[0] + highs[1])]
    for exps in itertools.product(*ranges):
        yield Character(exps[: s.m], exps[s.m :])


class TestChamberSweep:
    @settings(max_examples=80, deadline=None)
    @given(_hyper_cases())
    def test_table_matches_per_character_strands(self, case):
        # The table evaluates one character per chamber; the reference runs
        # hypercohomology_strand on every character of the box that has the
        # complex's reference degree.
        cx, lows, highs = case
        s = cx.seq
        brute = {}
        for ch in _box_characters(s, lows, highs):
            d = degree(s, cx.space, ch)
            if (d[0] - d[1] if cx.space == "Y" else d) != cx.reference_degree:
                continue
            dims = hypercohomology_strand(cx, cx.presence_tables.cell(ch))
            if dims:
                brute[ch] = dims
        assert hypercohomology_table_bounded(cx, lows, highs) == brute


class TestCellSweep:
    def test_criterion6_enumerates_only_cells_with_cohomology(self, monkeypatch):
        # example51_verify(range(-2, 4), box=5) sweeps about 112k characters
        # of degree; only the few on cells with cohomology are enumerated.
        from orbiflip import example51_verify, sheaves

        seen = []

        def counted(*args, **kwargs):
            for ch in characters_of_degree(*args, **kwargs):
                seen.append(ch)
                yield ch

        monkeypatch.setattr(sheaves, "characters_of_degree", counted)
        assert example51_verify(range(-2, 4), box=5).verdict
        assert len(seen) < 1000

    def test_both_tables_call_the_strand_by_module_attribute(self, monkeypatch):
        # perfbench/tracer.py wraps sheaves.hypercohomology_strand by
        # rebinding the module attribute; both sweeps must be seen through it.
        from orbiflip import sheaves

        calls = []
        original = sheaves.hypercohomology_strand

        def traced(cx, cell):
            calls.append(cx.term_count())
            return original(cx, cell)

        monkeypatch.setattr(sheaves, "hypercohomology_strand", traced)
        assert cohomology_table(FLOP, "minus", -4, 3)
        assert calls and set(calls) == {1}
        calls.clear()
        cx = exceptional_koszul(FLOP, "plus", -3)
        assert total_cohomology(hypercohomology_table(cx, 3)) == {2: 1}
        assert calls and set(calls) == {cx.term_count()}


class TestFirstPage:
    @pytest.mark.parametrize(
        "space, twist", [("minus", -4), ("minus", 1), ("plus", -6), ("Y", (1, 0)), ("Y", (-3, -1))]
    )
    def test_one_term_cells_need_no_reduction(self, monkeypatch, space, twist):
        # One term is one column of the first page: its Cech cohomology, the
        # per-pattern dims the reference computes (and caches) first, is the
        # answer, with no double complex reduced.
        from orbiflip import sheaves

        def forbidden(*args):
            raise AssertionError("a double complex was reduced")

        cx = single_twist_complex(FLOP, space, twist)
        value = twist[0] - twist[1] if space == "Y" else twist
        chars = list(characters_of_degree(FLOP, space, value, low=-5, high=4))
        want = [character_cohomology(FLOP, space, twist, ch) for ch in chars]
        assert any(want)
        monkeypatch.setattr(sheaves, "chain_reduce_homology", forbidden)
        for ch, dims in zip(chars, want):
            assert hypercohomology_strand(cx, cx.presence_tables.cell(ch)) == dims, ch


def _term_patterns(cx, ch):
    """Reference: every term's pattern by character arithmetic."""
    return tuple(
        ((d, i), _term_pattern(cx.seq, cx.space, t.twist, ch - t.offset))
        for d in sorted(cx.terms)
        for i, t in enumerate(cx.terms[d])
    )


def _chart_cover_complex(m, n, pattern, tag=(), shift=0):
    """Reference: the Cech complex of Y's cover by its m*n charts
    {x_i y_j != 0}.  A chart subset is allowed iff its first projections
    contain neg_x and its second projections neg_y; dropping the chart at
    position pos gives a face with sign (-1)^pos."""
    if pattern is None:
        return {}, {}
    neg_x, neg_y = pattern
    charts = [(i, j) for i in range(m) for j in range(n)]
    subsets = [
        sub
        for size in range(1, len(charts) + 1)
        for sub in itertools.combinations(charts, size)
        if neg_x <= {i for i, _ in sub} and neg_y <= {j for _, j in sub}
    ]
    cells = {tag + (sub,): shift + len(sub) - 1 for sub in subsets}
    entries = {}
    for sub in subsets:
        for pos in range(len(sub)):
            face = tag + (sub[:pos] + sub[pos + 1 :],)
            if face in cells:
                entries[(face, tag + (sub,))] = -1 if pos % 2 else 1
    return cells, entries


def _chart_cover_hypercohomology(cx, patterns):
    """Reference: the Cech double complex of a complex on Y over the m*n
    charts, for per-term patterns ((d, i), pattern), reduced in full."""
    m, n = cx.seq.m, cx.seq.n
    cells, entries = {}, {}
    families = {}
    for (d, i), pattern in patterns:
        term_cells, term_entries = _chart_cover_complex(m, n, pattern, (d, i), d)
        cells.update(term_cells)
        entries.update(term_entries)
        families[(d, i)] = [key[2] for key in term_cells]
    for d, i, j, coeff in cx.entries():
        for sub in families.get((d, i), ()):
            assert (d + 1, j, sub) in cells
            sign = -1 if (len(sub) - 1) % 2 else 1
            entries[((d, i, sub), (d + 1, j, sub))] = coeff * sign
    return chain_reduce_homology(cells, entries)


def _checked_complex(cells, entries):
    """Assert that (cells, entries) is a cochain complex: every entry raises
    the degree by one and d o d = 0.  Returns the pair unchanged."""
    outgoing = {}
    for (src, tgt), coeff in entries.items():
        assert cells[tgt] == cells[src] + 1, (src, tgt)
        outgoing.setdefault(src, []).append((tgt, coeff))
    for src, edges in outgoing.items():
        square = {}
        for mid, c1 in edges:
            for tgt, c2 in outgoing.get(mid, ()):
                square[tgt] = square.get(tgt, 0) + c1 * c2
        assert not any(square.values()), src
    return cells, entries


def _subsets(count):
    return [
        frozenset(sub)
        for size in range(count + 1)
        for sub in itertools.combinations(range(count), size)
    ]


class TestTwoCoverBicomplex:
    """The Cech bicomplex of the x- and y-chart covers of Y against the
    cover by its m*n charts {x_i y_j != 0}."""

    def test_pattern_dims_match_chart_cover(self):
        patterns = [
            (m, n, neg_x, neg_y)
            for m, n in itertools.product(range(1, 4), repeat=2)
            for neg_x in _subsets(m)
            for neg_y in _subsets(n)
        ]
        assert len(patterns) == 196
        for m, n, neg_x, neg_y in patterns:
            reference = chain_reduce_homology(*_chart_cover_complex(m, n, (neg_x, neg_y)))
            assert _y_pattern_dims(m, n, neg_x, neg_y) == reference, (m, n, neg_x, neg_y)

    def test_bicomplex_is_a_complex(self):
        # Dims alone do not see the signs: every face map here is a unit, so
        # a sign error still leaves a matching of the same size.
        from orbiflip.sheaves import _cech_complex, _pattern_subsets

        for m, n in itertools.product(range(1, 4), repeat=2):
            for neg_x in _subsets(m):
                for neg_y in _subsets(n):
                    _checked_complex(*_cech_complex(_pattern_subsets("Y", m, n, (neg_x, neg_y))))

    @settings(max_examples=25, deadline=None)
    @given(_hyper_cases(images=("Y", "Y dual")))
    def test_strand_matches_chart_cover_double_complex(self, case):
        # The reference is reduced once per distinct pattern tuple; every
        # character of the reference degree is compared.
        # Each double complex the strand reduces is checked to be a complex.
        from orbiflip import sheaves

        cx, lows, highs = case
        s = cx.seq
        references = {}
        checked = lambda cells, entries: chain_reduce_homology(
            *_checked_complex(cells, entries)
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sheaves, "chain_reduce_homology", checked)
            for ch in _box_characters(s, lows, highs):
                da, db = degree(s, "Y", ch)
                if da - db != cx.reference_degree:
                    continue
                patterns = _term_patterns(cx, ch)
                if patterns not in references:
                    references[patterns] = _chart_cover_hypercohomology(cx, patterns)
                cell = cx.presence_tables.cell(ch)
                assert hypercohomology_strand(cx, cell) == references[patterns], ch

    def test_y_cover_over_the_limit_refused_before_any_cell(self, monkeypatch):
        from orbiflip import Unsupported
        from orbiflip import sheaves

        def no_cells(*args):
            raise AssertionError("a cell was formed")

        monkeypatch.setattr(sheaves, "_supersets", no_cells)
        empty = frozenset()
        for m, n in ((1, 13), (2, 12), (6, 7), (7, 7)):
            cells = (2**m - 1) * (2**n - 1)
            with pytest.raises(Unsupported) as info:
                sheaves._pattern_subsets("Y", m, n, (empty, empty))
            assert str(info.value) == (
                f"a Cech bicomplex of {m} x {n} charts has {cells} cells, more than 2^12 - 1"
            )


class TestCellPatterns:
    @settings(max_examples=40, deadline=None)
    @given(_hyper_cases())
    def test_match_term_patterns(self, case):
        # The patterns read off a cell's masks equal the per-term patterns of
        # character - offset, on every character of the box.
        cx, lows, highs = case
        cell = cx.presence_tables.cell
        for ch in _box_characters(cx.seq, lows, highs):
            assert _cell_patterns(cx, cell(ch)) == _term_patterns(cx, ch), ch


class TestExceptionalKoszul:
    def test_twist_bookkeeping(self):
        cx = exceptional_koszul(FLOP, "plus", 0)
        assert cx.summary()["terms"] == {"-2": [3], "-1": [1, 2], "0": [0]}

    def test_twist_equivariance(self):
        base = exceptional_koszul(FLOP, "plus", 0)
        shifted = exceptional_koszul(FLOP, "plus", -1)
        for d in base.terms:
            assert [t.twist - 1 for t in base.terms[d]] == [
                t.twist for t in shifted.terms[d]
            ]

    def test_classical_koszul_on_two_variables(self):
        cx = exceptional_koszul(seq("1,1;1,1"), "plus", 0)
        assert cx.summary()["terms"] == {"-2": [2], "-1": [1, 1], "0": [0]}

    def test_strand_homology_is_exceptional_sheaf(self):
        # Hypercohomology of the Koszul complex = cohomology of O_{E+}(d),
        # i.e. of the weighted projective space P(b).
        for d in (0, -1, -3, 2):
            totals = total_cohomology(hypercohomology_table(
                exceptional_koszul(FLOP, "plus", d), 6
            ))
            wps = wps_cohomology_totals(FLOP.b, d)
            assert totals == {i: h for i, h in enumerate(wps) if h}, d


class TestEulerCotangent:
    def test_global_sections_pattern(self):
        # Bott: Omega^1_{P2}(d) has h^1 = 1 at d = 0, h^0 = 3 at d = 2,
        # nothing at d in {-1, 1}.
        expected = {-1: {}, 0: {1: 1}, 1: {}, 2: {0: 3}}
        for d, want in expected.items():
            cx = euler_cotangent_complex(FLOP, "plus", d)
            totals = total_cohomology(hypercohomology_table(cx, 6))
            assert totals == want, d

    def test_weighted_side_rejected(self):
        with pytest.raises(UnsupportedWeights):
            euler_cotangent_complex(seq("2,3;1,5"), "plus", 0)

    def test_minus_side_mirror(self):
        cx = euler_cotangent_complex(seq("1,1;1,2"), "minus", 0)
        totals = total_cohomology(hypercohomology_table(cx, 6))
        assert totals == {1: 1}  # Omega^1_{P1} = O(-2): h^1 = 1
