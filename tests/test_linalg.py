from __future__ import annotations

import functools
import itertools
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbiflip import (
    Character,
    MonomialComplex,
    PushforwardNotClosedForm,
    Term,
    Unsupported,
    WeightSequence,
    build_resolution,
    degree,
    is_section,
    section_basis,
    strand,
    strand_by_degree,
)
from orbiflip.exact import exact_rank, kernel_basis
from orbiflip.linalg import characters_of_degree, zero_character


def seq(text: str) -> WeightSequence:
    return WeightSequence.parse(text)


def naive_rank(rows, ncols):
    """Plain fraction Gaussian elimination, as an independent oracle."""
    work = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for i in range(len(work)):
            if i != rank and work[i][c]:
                f = work[i][c] / work[rank][c]
                work[i] = [v - f * w for v, w in zip(work[i], work[rank])]
        rank += 1
    return rank


class TestExactCore:
    def test_rank_against_naive_oracle(self):
        rng = random.Random(7)
        for _ in range(60):
            nr, nc = rng.randint(1, 6), rng.randint(1, 6)
            rows = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
            assert exact_rank(rows, nc) == naive_rank(rows, nc)

    def test_kernel_vectors_annihilate(self):
        rng = random.Random(11)
        for _ in range(40):
            nr, nc = rng.randint(1, 5), rng.randint(1, 6)
            rows = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)]
            basis = kernel_basis(rows, nc)
            assert len(basis) == nc - exact_rank(rows, nc)
            for vec in basis:
                for row in rows:
                    assert sum(r * v for r, v in zip(row, vec)) == 0

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(["1,1;1,1", "1,2;1,1,1", "1,1;2,1", "1,2;1,3"]),
        st.integers(0, 3),
        st.sampled_from(["minus", "plus", "module", "koszul", "roundtrip", "by_degree"]),
        st.data(),
    )
    def test_chain_reduce_matches_rank_formula(self, text, k, kind, data):
        # StrandComplex.homology reduces through chain_reduce_homology; the
        # rank formula dim - rank d_out - rank d_in uses Bareiss ranks.
        s = seq(text)
        if kind == "by_degree":
            cx = build_resolution(s, k, "module")
            st_ = strand_by_degree(cx, data.draw(st.integers(0, k + 4)))
        else:
            cx = _strand_source(s, k, kind)
            tables = cx.presence_tables
            chars = [
                ch
                for ch in characters_of_degree(s, cx.space, cx.reference_degree, low=0, high=k + 3)
                if any(tables.bases(tables.mask(ch)))
            ]
            st_ = strand(cx, tables.mask(data.draw(st.sampled_from(chars))))
        # Dense rows (indexed by targets) of each differential, from entries.
        mats = [[[0] * len(src) for _ in tgt] for src, tgt in zip(st_.bases, st_.bases[1:])]
        for ((d, c), (_, r)), v in st_.entries.items():
            mats[st_.degrees.index(d)][r][c] = v
        ranks = [exact_rank(m, len(b)) for m, b in zip(mats, st_.bases)] + [0]
        want = {}
        for p, (d, b) in enumerate(zip(st_.degrees, st_.bases)):
            h = len(b) - ranks[p] - (ranks[p - 1] if p else 0)
            if h:
                want[d] = h
        assert st_.homology() == want

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_chain_reduce_with_non_unit_coefficients(self, data):
        # The rank formula is the reference.
        from orbiflip.exact import chain_reduce_homology

        sizes, mats, cells, entries = _non_unit_complex(data)
        ranks = [exact_rank(rows, sizes[d]) for d, rows in enumerate(mats)] + [0]
        want = {}
        for d, size in enumerate(sizes):
            h = size - ranks[d] - (ranks[d - 1] if d else 0)
            if h:
                want[d] = h
        assert chain_reduce_homology(cells, entries) == want
        # The same complex with every entry a Fraction reduces alike.
        as_fractions = {key: Fraction(v) for key, v in entries.items()}
        assert chain_reduce_homology(cells, as_fractions) == want

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_filtered_homology_matches_every_prefix(self, data):
        # Random entry steps in which every target enters no later than its
        # sources; the rank formula on each prefix is the reference.
        from orbiflip.exact import filtered_homology

        sizes, mats, cells, entries = _non_unit_complex(data)
        steps = data.draw(st.integers(1, 5))
        rows = {cell: [] for cell in cells}
        for (src, tgt), v in entries.items():
            rows[src].append((tgt, v))
        enter = {}
        for cell in sorted(cells, reverse=True):
            latest = max((enter[tgt] for tgt, _ in rows[cell]), default=0)
            enter[cell] = data.draw(st.integers(latest, steps - 1))
        order = sorted(cells, key=lambda cell: (enter[cell], -cells[cell]))
        got = filtered_homology(order, cells, enter, rows, steps)
        assert len(got) == steps
        for j, dims in enumerate(got):
            prefix = {cell: d for cell, d in cells.items() if enter[cell] <= j}
            kept = {key: v for key, v in entries.items() if key[0] in prefix}
            assert dims == _rank_formula(prefix, kept), j

    def test_chain_reduce_matches_rank_formula_on_cech_shapes(self):
        # Every sign pattern of a side cover of m <= 4 charts and of a Y
        # bicomplex of m, n <= 3 charts.
        from orbiflip.exact import chain_reduce_homology
        from orbiflip.sheaves import _cech_complex, _pattern_subsets

        def negs(count):
            return [frozenset(sub) for size in range(count + 1)
                    for sub in itertools.combinations(range(count), size)]

        cases = [("minus", m, 0, neg) for m in range(1, 5) for neg in negs(m)]
        cases += [
            ("Y", m, n, (neg_x, neg_y))
            for m, n in itertools.product(range(1, 4), repeat=2)
            for neg_x in negs(m)
            for neg_y in negs(n)
        ]
        assert len(cases) == 30 + 196
        for case in cases:
            cells, entries = _cech_complex(_pattern_subsets(*case))
            assert chain_reduce_homology(cells, entries) == _rank_formula(cells, entries), case

    def test_filtered_homology_refuses_a_late_target(self):
        from orbiflip import InconsistentDegrees
        from orbiflip.exact import filtered_homology

        degrees = {"s": 0, "t": 1}
        rows = {"s": (("t", 2),), "t": ()}
        assert filtered_homology(["t", "s"], degrees, {"s": 0, "t": 0}, rows, 2) == [{}, {}]
        assert filtered_homology(["t", "s"], degrees, {"s": 1, "t": 0}, rows, 2) == [{1: 1}, {}]
        with pytest.raises(InconsistentDegrees, match="enters before its target"):
            filtered_homology(["s", "t"], degrees, {"s": 0, "t": 1}, rows, 2)
        with pytest.raises(InconsistentDegrees, match="not a cell of the filtration"):
            filtered_homology(["s"], degrees, {"s": 0}, rows, 1)
        with pytest.raises(InconsistentDegrees, match="not in the order of their entry steps"):
            filtered_homology(["s", "t"], degrees, {"s": 1, "t": 0}, rows, 2)


def _rank_formula(cells, entries):
    """Reference homology dims of a complex given as (cells, entries), as
    dim C_d - rank d_d - rank d_(d-1), d_d leaving degree d, by Bareiss ranks."""
    index = {}
    for cell, d in cells.items():
        within = index.setdefault(d, {})
        within[cell] = len(within)
    mats = {d: [[0] * len(src) for _ in index.get(d + 1, ())] for d, src in index.items()}
    for (src, tgt), v in entries.items():
        d = cells[src]
        mats[d][index[d + 1][tgt]][index[d][src]] = v
    ranks = {d: exact_rank(rows, len(index[d])) for d, rows in mats.items()}
    dims = {}
    for d, src in index.items():
        h = len(src) - ranks[d] - ranks.get(d - 1, 0)
        if h:
            dims[d] = h
    return dims


def _non_unit_complex(data):
    """A random complex over Q: each differential draws its rows from the
    left kernel of the one before, with weights 2, -3 and 1/2, so the pivots
    are not +-1 and entries go non-integral.  Returns (sizes, matrices,
    cells, entries) in the form chain_reduce_homology takes."""
    coeffs = st.sampled_from([0, 0, 1, 2, -3, Fraction(1, 2)])
    sizes = data.draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    mats = []
    for p in range(len(sizes) - 1):
        ncols, nrows = sizes[p], sizes[p + 1]
        if p == 0:
            rows = [[data.draw(coeffs) for _ in range(ncols)] for _ in range(nrows)]
        else:
            prev = mats[-1]
            cokernel = kernel_basis([list(col) for col in zip(*prev)], ncols)
            rows = []
            for _ in range(nrows):
                weights = [data.draw(coeffs) for _ in cokernel]
                rows.append([sum(w * v[c] for w, v in zip(weights, cokernel))
                             for c in range(ncols)])
        mats.append(rows)
    cells = {(d, i): d for d, size in enumerate(sizes) for i in range(size)}
    entries = {
        ((d, c), (d + 1, r)): v
        for d, rows in enumerate(mats)
        for r, row in enumerate(rows)
        for c, v in enumerate(row)
        if v
    }
    return sizes, mats, cells, entries


def _strand_source(s, k, kind):
    """A complex whose strands feed the engine comparison: a threshold-ideal
    resolution on a side or on the module, a Koszul complex of the
    exceptional locus, or a GF round-trip composite."""
    from orbiflip import apply, as_complex, exceptional_koszul

    if kind == "koszul":
        return exceptional_koszul(s, "plus", k - 1)
    if kind == "roundtrip":
        return as_complex(s, apply(s, "G", as_complex(s, apply(s, "F", k))))
    return build_resolution(s, k, kind)


class TestDegree:
    def test_minus_side_examples(self):
        s = seq("1,2;1,1,1")
        x1 = Character((1, 0), (0, 0, 0))
        x2y1 = Character((0, 1), (1, 0, 0))
        assert degree(s, "minus", x1) == 1
        assert degree(s, "minus", x2y1) == 1
        assert degree(s, "plus", x2y1) == -1
        assert degree(s, "Y", x2y1) == (2, 1)


class TestSectionBasis:
    def test_unit_monomial(self):
        basis = section_basis(seq("1,2;1,1,1"), "minus", 0, 1)
        assert Character((0, 0), (0, 0, 0)) in basis

    def test_wps_degree_two(self):
        basis = section_basis(seq("1,1,2;"), "minus", 2, 2)
        assert len(basis) == 4

    def test_y_membership(self):
        s = seq("1,2;1,1,1")
        basis = section_basis(s, "Y", (1, 1), 2)
        assert Character((1, 0), (1, 0, 0)) in basis
        for ch in basis:
            da, db = degree(s, "Y", ch)
            assert da - db == 0 and da >= 1

    def test_monotone_in_box(self):
        s = seq("1,2;1,1,1")
        small = set(section_basis(s, "minus", 3, 2))
        large = set(section_basis(s, "minus", 3, 4))
        assert small <= large


def _koszul_two_variables():
    """Hand-built Koszul complex R(-1-1) -> R(-1)^2 -> R over weights (1,1)."""
    s = WeightSequence((1, 1), ())
    c = lambda *alpha: Character(tuple(alpha), ())
    terms = {
        -2: [Term(-2, c(1, 1))],
        -1: [Term(-1, c(1, 0)), Term(-1, c(0, 1))],
        0: [Term(0, c(0, 0))],
    }
    diffs = {
        -2: {
            (0, 0): Fraction(1),
            (0, 1): Fraction(-1),
        },
        -1: {
            (0, 0): Fraction(1),
            (1, 0): Fraction(1),
        },
    }
    return MonomialComplex(s, "module", terms, diffs)


class TestStrand:
    def test_koszul_strand_is_exact(self):
        cx = _koszul_two_variables()
        st_ = strand(cx, cx.presence_tables.mask(Character((1, 1), ())))
        assert st_.dims() == [1, 2, 1]
        assert st_.homology() == {}

    def test_ideal_resolution_strand_by_degree(self):
        cx = build_resolution(seq("1,2;"), 2, "module")
        st_ = strand_by_degree(cx, 4)
        # I_2 over weights (1,2) has three monomials of degree 4.
        assert st_.homology() == {0: 3}

    def test_zero_complex(self):
        s = seq("1,1;")
        cx = MonomialComplex(s, "module", {}, {})
        st_ = strand(cx, cx.presence_tables.mask(Character((1, 0), ())))
        assert st_.degrees == ()

    def test_maximal_ideal_degree_one(self):
        cx = build_resolution(seq("1,1,1;"), 1, "module")
        st_ = strand_by_degree(cx, 1)
        assert st_.homology() == {0: 3}

    def test_euler_characteristic_identity(self):
        cx = build_resolution(seq("1,2,3;"), 3, "module")
        rng = random.Random(3)
        for _ in range(40):
            ch = Character(tuple(rng.randint(0, 5) for _ in range(3)), ())
            st_ = strand(cx, cx.presence_tables.mask(ch))
            hom = st_.homology()
            euler = sum((-1) ** d * n for d, n in zip(st_.degrees, st_.dims()))
            assert euler == sum((-1) ** d * h for d, h in hom.items())

    def test_homology_dims_span(self):
        cx = _koszul_two_variables()
        st_ = strand(cx, cx.presence_tables.mask(Character((2, 1), ())))
        assert st_.dims() == [1, 2, 1]
        assert st_.homology() == {}

    def test_single_space_no_maps(self):
        s = seq("1,1;")
        terms = {0: [Term(0, zero_character(s))]}
        cx = MonomialComplex(s, "module", terms, {})
        st_ = strand_by_degree(cx, 0)
        assert st_.homology() == {0: 1}

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 3), min_size=1, max_size=3), st.integers(0, 5), st.data())
    def test_strand_by_degree_is_the_direct_sum(self, a, k, data):
        # The re-indexed entries against the per-character strands they sum.
        from collections import Counter

        cx = build_resolution(WeightSequence(tuple(a), ()), k, "module")
        d = data.draw(st.integers(0, k + 4))
        chars = sorted(characters_of_degree(cx.seq, "module", d, low=0, high=d))
        mask = cx.presence_tables.mask
        parts = [p for p in (strand(cx, mask(ch)) for ch in chars) if any(p.dims())]
        total = strand_by_degree(cx, d)
        if not parts:
            assert total.degrees == () and total.homology() == {}
            return
        assert total.degrees == parts[0].degrees
        assert total.bases == tuple(
            sum((p.bases[i] for p in parts), ()) for i in range(len(total.degrees))
        )
        # Block-diagonal: every entry joins two cells of one part, and read
        # back in that part's local indices it is the part's own entry.
        owner = {}
        for k, d in enumerate(total.degrees):
            local = [(n, i) for n, p in enumerate(parts) for i in range(len(p.bases[k]))]
            owner.update(((d, g), cell) for g, cell in enumerate(local))
        back: dict = {n: {} for n in range(len(parts))}
        for ((d, c), (e, r)), v in total.entries.items():
            (n, i), (n2, j) = owner[(d, c)], owner[(e, r)]
            assert n == n2
            back[n][((d, i), (e, j))] = v
        assert back == {n: p.entries for n, p in enumerate(parts)}
        want: Counter = Counter()
        for p in parts:
            want.update(p.homology())
        assert total.homology() == dict(want)


class TestComplexValidation:
    def test_rejects_nonsquaring_differential(self):
        s = WeightSequence((1, 1), ())
        c = lambda *alpha: Character(tuple(alpha), ())
        terms = {
            -2: [Term(-2, c(1, 1))],
            -1: [Term(-1, c(1, 0)), Term(-1, c(0, 1))],
            0: [Term(0, c(0, 0))],
        }
        diffs = {
            -2: {
                (0, 0): Fraction(1),
                (0, 1): Fraction(1),  # bad sign: d.d != 0
            },
            -1: {
                (0, 0): Fraction(1),
                (1, 0): Fraction(1),
            },
        }
        from orbiflip import InconsistentDegrees

        with pytest.raises(InconsistentDegrees):
            MonomialComplex(s, "module", terms, diffs)

    def test_rejects_negative_entry_monomial(self):
        # The entry's monomial is the offset difference (0,0) - (1,0) = x1^-1.
        s = WeightSequence((1, 1), ())
        c = lambda *alpha: Character(tuple(alpha), ())
        terms = {
            0: [Term(0, c(0, 0))],
            1: [Term(-1, c(1, 0))],
        }
        diffs = {0: {(0, 0): Fraction(1)}}
        from orbiflip import InconsistentDegrees

        with pytest.raises(InconsistentDegrees, match="not a section"):
            MonomialComplex(s, "module", terms, diffs)

    @pytest.mark.parametrize(
        "space, src, tgt",
        [
            # On Y, x1 y1 into O(2, 2) from O(0, 0): degree difference 0 as
            # it must be, exponents >= 0, but da = 1 < k1 = 2.
            ("Y", Term((0, 0), Character((1, 0), (1, 0))), Term((2, 2), zero_character(seq("1,1;1,1")))),
            # On minus, x1^-1: the degree is right, an exponent is negative.
            ("minus", Term(0, zero_character(seq("1,1;1,1"))), Term(-1, Character((1, 0), (0, 0)))),
        ],
        ids=["Y-below-the-divisor-bound", "minus-negative-exponent"],
    )
    def test_rejects_an_entry_whose_only_fault_the_degree_does_not_show(self, space, src, tgt):
        from orbiflip import InconsistentDegrees

        s = seq("1,1;1,1")
        MonomialComplex(s, space, {0: [src], 1: [tgt]}, {})  # one reference degree
        with pytest.raises(InconsistentDegrees, match="not a section"):
            MonomialComplex(s, space, {0: [src], 1: [tgt]}, {0: {(0, 0): 1}})


def _twist_difference(space, src, tgt):
    if space == "Y":
        return (tgt.twist[0] - src.twist[0], tgt.twist[1] - src.twist[1])
    return tgt.twist - src.twist


class TestEntryCheck:
    """MonomialComplex checks an entry with entry_is_section, which leaves out
    the degree that the shared reference degree proves; is_section of the
    entry monomial in the twist difference is the reference."""

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(["1,1;1,1", "1,2;1,1,1", "1,1;2,1", "1,2;1,3"]), st.integers(1, 3))
    def test_agrees_with_is_section_on_the_built_complexes(self, text, k):
        # Every source and target one degree apart, entries or not, of the
        # complexes on all four spaces that the presence tests build.
        from orbiflip.linalg import entry_is_section

        spaces = set()
        for cx in _presence_complexes(seq(text), k):
            for d, sources in cx.terms.items():
                for src in sources:
                    for tgt in cx.terms.get(d + 1, ()):
                        delta = _twist_difference(cx.space, src, tgt)
                        want = is_section(cx.seq, cx.space, delta, src.offset - tgt.offset)
                        assert entry_is_section(cx.seq, cx.space, src, tgt) == want
                        spaces.add((cx.space, want))
        assert {space for space, ok in spaces if ok} == {"minus", "plus", "Y", "module"}

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["minus", "plus", "Y", "module"]), st.data())
    def test_agrees_with_is_section_on_random_terms_of_one_reference_degree(self, space, data):
        # Random offsets and Y thresholds, the twists set to the reference
        # degree 0: on Y this reaches entries whose only fault is da < k1.
        from orbiflip.linalg import entry_is_section

        s = seq("1,2;1,3")
        flat = st.lists(st.integers(-1, 3), min_size=4, max_size=4)

        def term():
            f = data.draw(flat)
            off = Character(tuple(f[:2]), tuple(f[2:]))
            if space == "Y":
                k1 = data.draw(st.integers(-3, 6))
                da, db = degree(s, "Y", off)
                return Term((k1, k1 + da - db), off)
            return Term(-degree(s, space, off), off)

        src, tgt = term(), term()
        MonomialComplex(s, space, {0: [src], 1: [tgt]}, {})  # one reference degree
        delta = _twist_difference(space, src, tgt)
        want = is_section(s, space, delta, src.offset - tgt.offset)
        assert entry_is_section(s, space, src, tgt) == want


class TestFromKeys:
    def test_terms_numbered_in_insertion_order(self):
        s = WeightSequence((1, 1), ())
        c = lambda *alpha: Character(tuple(alpha), ())
        terms = {
            "y": (-1, Term(-1, c(0, 1))),
            "top": (0, Term(0, c(0, 0))),
            "xy": (-2, Term(-2, c(1, 1))),
            "x": (-1, Term(-1, c(1, 0))),
        }
        entries = {("xy", "y"): 1, ("xy", "x"): -1, ("x", "top"): 1, ("y", "top"): 1}
        cx = MonomialComplex.from_keys(s, "module", terms, entries)
        assert list(cx.terms) == [-1, 0, -2]
        assert cx.terms[-1] == (Term(-1, c(0, 1)), Term(-1, c(1, 0)))
        assert cx.by_source == {-2: {0: ((0, 1), (1, -1))}, -1: {1: ((0, 1),), 0: ((0, 1),)}}
        assert {type(c) for *_, c in cx.entries()} == {int}

    def test_entry_must_raise_degree_by_one(self):
        from orbiflip import InconsistentDegrees

        s = WeightSequence((1, 1), ())
        c = lambda *alpha: Character(tuple(alpha), ())
        terms = {"xy": (-2, Term(-2, c(1, 1))), "top": (0, Term(0, c(0, 0)))}
        with pytest.raises(InconsistentDegrees, match="raise the degree by one"):
            MonomialComplex.from_keys(s, "module", terms, {("xy", "top"): 1})


class TestCoefficientContract:
    """MonomialComplex alone decides how a coefficient is stored: ints stay,
    integral Fractions become ints, other Fractions stay, anything else is
    refused."""

    S = WeightSequence((1, 1), ())

    def _line(self, coeff):
        """Keys, terms and entries of x1 : O(-1) -> O, one entry of coeff."""
        c = lambda *alpha: Character(tuple(alpha), ())
        terms = {-1: [Term(-1, c(1, 0))], 0: [Term(0, c(0, 0))]}
        keyed = {"x": (-1, terms[-1][0]), "top": (0, terms[0][0])}
        return terms, {-1: {(0, 0): coeff}}, keyed, {("x", "top"): coeff}

    @pytest.mark.parametrize("coeff", [0.5, 1.0, "1", True, Decimal("1")], ids=repr)
    def test_inexact_coefficients_refused(self, coeff):
        from orbiflip import InconsistentDegrees

        terms, diffs, keyed, entries = self._line(coeff)
        with pytest.raises(InconsistentDegrees, match="not an int or a Fraction"):
            MonomialComplex(self.S, "module", terms, diffs)
        with pytest.raises(InconsistentDegrees, match="not an int or a Fraction"):
            MonomialComplex.from_keys(self.S, "module", keyed, entries)

    @pytest.mark.parametrize(
        "coeff, stored", [(Fraction(3, 1), 3), (Fraction(1, 2), Fraction(1, 2)), (-2, -2)]
    )
    def test_exact_coefficients_stored(self, coeff, stored):
        terms, diffs, keyed, entries = self._line(coeff)
        for cx in (
            MonomialComplex(self.S, "module", terms, diffs),
            MonomialComplex.from_keys(self.S, "module", keyed, entries),
        ):
            ((_, got),) = cx.row(-1, 0)
            assert got == stored and type(got) is type(stored)
        assert diffs[-1][(0, 0)] is coeff  # the caller's table is not rewritten

    @pytest.mark.parametrize("text", ["1,1;1,1", "1,2;1,1,1", "1,2;1,3"])
    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_signatures_hold_ints(self, text, k):
        s = seq(text)
        complexes = [
            _strand_source(s, k, kind) for kind in ("minus", "plus", "module", "koszul", "roundtrip")
        ]
        complexes += [cx.dual_into(0) for cx in complexes if cx.space != "module"]
        coeffs = [entry[-1] for cx in complexes for entry in cx.signature[-1]]
        assert coeffs and {type(c) for c in coeffs} == {int}


def _plain(cx):
    """Terms of a complex in their stored order and its entries sorted by
    (d, i, j), as plain tuples."""
    terms = tuple(
        (d, tuple((t.twist, t.offset.alpha, t.offset.beta) for t in ts))
        for d, ts in cx.terms.items()
    )
    return terms, tuple(sorted((d, i, j, c.numerator, c.denominator) for d, i, j, c in cx.entries()))


class TestKeyedBuilders:
    """The keyed builders return the complexes of their index-table
    predecessors: the same terms in the same order and the same diffs."""

    S = WeightSequence((1, 2), (1, 1, 1))

    def test_exceptional_koszul(self):
        from orbiflip import exceptional_koszul

        assert _plain(exceptional_koszul(self.S, "plus", 0)) == (
            (
                (0, ((0, (0, 0), (0, 0, 0)),)),
                (-1, ((1, (1, 0), (0, 0, 0)), (2, (0, 1), (0, 0, 0)))),
                (-2, ((3, (1, 1), (0, 0, 0)),)),
            ),
            ((-2, 0, 0, -1, 1), (-2, 0, 1, 1, 1), (-1, 0, 0, 1, 1), (-1, 1, 0, 1, 1)),
        )

    def test_euler_cotangent_complex(self):
        import hashlib

        from orbiflip import euler_cotangent_complex

        cx = euler_cotangent_complex(self.S, "plus", -1)
        assert (cx.term_count(), len(list(cx.entries()))) == (16, 28)
        assert hashlib.sha256(repr(_plain(cx)).encode()).hexdigest() == (
            "168d7ccf74b1838ddce32cf20fe7b66c6dfbb5841d9f7fe7a391b31ff5054f39"
        )

    def test_dual_into(self):
        from orbiflip import apply, as_complex

        cx = as_complex(self.S, apply(self.S, "F", 1)).dual_into(0)
        assert _plain(cx) == (
            (
                (0, ((-1, (0, -1), (0, 0, 0)), (0, (-1, 0), (0, 0, 0)))),
                (1, ((-2, (-1, -1), (0, 0, 0)),)),
            ),
            ((0, 0, 0, 1, 1), (0, 1, 0, -1, 1)),
        )


# ---------------------------------------------------------------------------
# Differential checks of the fast paths against their slow definitions.


def _per_term_bases(cx, ch):
    """The strand pattern by the definition: term by term, is ch - offset a
    section of the term's twist?"""
    if not cx.terms:
        return ()
    return tuple(
        tuple(
            i
            for i, t in enumerate(cx.terms.get(d, ()))
            if is_section(cx.seq, cx.space, t.twist, ch - t.offset)
        )
        for d in range(min(cx.terms), max(cx.terms) + 1)
    )


def _presence_box(cx, box):
    """Every character of the degree-blind box [-1, 1]^(m+n) ([-1, box] on
    module, which has no degree equation), plus every character of the
    complex's reference degree with exponents in [-1, box]."""
    import itertools

    s = cx.seq
    top = box if cx.space == "module" else 1
    for flat in itertools.product(range(-1, top + 1), repeat=s.m + s.n):
        yield Character(flat[: s.m], flat[s.m :])
    if cx.space != "module":
        yield from characters_of_degree(s, cx.space, cx.reference_degree, low=-1, high=box)


def _presence_complexes(s, k):
    """Complexes on all four spaces: resolutions, round-trip outputs,
    tensor/translate/dual_into images and Y pullbacks."""
    from orbiflip import apply, as_complex
    from orbiflip.functors import pull_complex

    out = [
        build_resolution(s, k, "minus"),
        build_resolution(s, k, "plus", extra_twist=-k),
        build_resolution(s, k, "module"),
    ]
    for first, second in (("F", "G"), ("F", "H")):
        mid = as_complex(s, apply(s, first, k))
        out.append(as_complex(s, apply(s, second, mid)))
    roundtrip = out[-1]
    shift = Character((1,) + (0,) * (s.m - 1), (0,) * (s.n - 1) + (1,))
    out += [
        roundtrip.tensor(2),
        roundtrip.translate(shift, 1),
        roundtrip.dual_into(k),
    ]
    pulled = pull_complex(out[1])
    out += [pulled, pulled.tensor((-1, -1)), pull_complex(out[0]).dual_into((0, 1))]
    return out


_small_weights = st.lists(st.integers(1, 3), min_size=2, max_size=3)


class TestCompiledPresence:
    @settings(max_examples=15, deadline=None)
    @given(_small_weights, _small_weights, st.integers(0, 3))
    def test_matches_per_term_rule(self, a, b, k):
        from hypothesis import assume

        from orbiflip import is_well_formed

        s = WeightSequence(tuple(a), tuple(b))
        assume(is_well_formed(s) and s.sum_a <= s.sum_b)
        complexes = _presence_complexes(s, k)
        assert {cx.space for cx in complexes} == {"minus", "plus", "Y", "module"}
        for cx in complexes:
            tables = cx.presence_tables
            for ch in _presence_box(cx, k + 1):
                assert tables.bases(tables.mask(ch)) == _per_term_bases(cx, ch), (cx.summary(), ch)

    def test_strand_bases_come_from_the_compiled_test(self):
        cx = build_resolution(seq("1,2;1,1,1"), 3, "plus")
        tables = cx.presence_tables
        for ch in characters_of_degree(cx.seq, "plus", cx.reference_degree, low=0, high=4):
            mask = tables.mask(ch)
            assert strand(cx, mask).bases == tables.bases(mask) == _per_term_bases(cx, ch)

    def test_empty_complex(self):
        cx = MonomialComplex(seq("1,1;"), "module", {}, {})
        tables = cx.presence_tables
        assert tables.bases(tables.mask(Character((1, 0), ()))) == ()


def _per_character_strand(cx, character):
    """The reference strand at one character: bases by the per-term section
    rule, entries by a walk over every entry of every differential."""
    from orbiflip import InconsistentDegrees, StrandComplex

    if not cx.terms:
        return StrandComplex((), (), {})
    degrees = tuple(range(min(cx.terms), max(cx.terms) + 1))
    bases = _per_term_bases(cx, character)
    entries = {}
    for d, src, tgt in zip(degrees, bases, bases[1:]):
        cols = {i: c for c, i in enumerate(src)}
        rows = {j: r for r, j in enumerate(tgt)}
        for e, i, j, coeff in cx.entries():
            c = cols.get(i)
            if e != d or c is None:
                continue
            r = rows.get(j)
            if r is None:
                raise InconsistentDegrees("present source maps to absent target in strand")
            entries[((d, c), (d + 1, r))] = coeff
    return StrandComplex(degrees, bases, entries)


class TestMaskStrand:
    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(["1,1;1,1", "1,2;1,1,1", "1,1;2,1", "1,2;1,3"]),
        st.integers(0, 3),
        st.sampled_from(["minus", "plus", "module", "koszul", "roundtrip"]),
    )
    def test_matches_the_per_character_reference(self, text, k, kind):
        # One character per mask met in the box, absent terms included: the
        # strand of its mask against the reference strand at the character.
        s = seq(text)
        cx = _strand_source(s, k, kind)
        mask = cx.presence_tables.mask
        firsts = {}
        for ch in characters_of_degree(s, cx.space, cx.reference_degree, low=-1, high=k + 3):
            firsts.setdefault(mask(ch), ch)
        assert len(firsts) > 1
        for m, ch in firsts.items():
            got, want = strand(cx, m), _per_character_strand(cx, ch)
            assert (got.degrees, got.bases, got.entries) == (want.degrees, want.bases, want.entries)
            assert got.homology() == want.homology()


def _derived_complexes(cx):
    """(parent, derived) pairs for every path that keeps a complex's
    differential: tensor, shift, translate, the Serre twist, pullback to Y
    and the closed-form push of line images back to either side."""
    from orbiflip import serre_twist
    from orbiflip.functors import pull_complex, push_complex

    s = cx.seq
    one = Character((1,) * s.m, (0,) * s.n)
    pairs = [(cx, cx.tensor(2)), (cx, cx.shift(1)), (cx, cx.shift(-2)), (cx, cx.translate(one, 1))]
    if cx.space in ("minus", "plus"):
        y = pull_complex(cx)
        pairs += [(cx, y), (y, y.tensor((1, -1))), (cx, serre_twist(s, cx.space, cx))]
        pairs.append((y, serre_twist(s, "Y", y)))
        for c in range(max(s.sum_a, s.sum_b)):
            twisted = y.tensor((-c, -c))
            for side in ("minus", "plus"):
                try:
                    pushed, _ = push_complex(twisted, side)
                except (PushforwardNotClosedForm, Unsupported):
                    continue
                if isinstance(pushed, MonomialComplex):
                    pairs.append((twisted, pushed))
    return pairs


class TestDerivedComplexes:
    """Complexes that keep their parent's differential share its index and
    check only their terms; the full constructor is the reference."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(["1,1;1,1", "1,2;1,1,1", "1,1;2,1", "1,2;1,3"]),
        st.integers(0, 3),
        st.sampled_from(["minus", "plus", "module", "koszul", "roundtrip"]),
    )
    def test_matches_the_full_constructor(self, text, k, kind):
        for parent, cx in _derived_complexes(_strand_source(seq(text), k, kind)):
            delta = min(cx.terms) - min(parent.terms)
            tables = {}
            for d, i, j, coeff in parent.entries():
                tables.setdefault(d + delta, {})[(i, j)] = coeff
            ref = MonomialComplex(cx.seq, cx.space, cx.terms, tables)
            assert (cx.terms, cx.reference_degree, cx.by_source) == (
                ref.terms,
                ref.reference_degree,
                ref.by_source,
            )

    def test_terms_are_still_checked(self):
        from orbiflip import InconsistentDegrees

        cx = build_resolution(seq("1,2;1,1,1"), 2, "minus")
        assert cx.term_count() > 1
        first = cx.terms[min(cx.terms)][0]
        with pytest.raises(InconsistentDegrees, match="reference degree"):
            cx.map_terms(cx.space, lambda t: Term(t.twist + (t is first), t.offset))
        with pytest.raises(InconsistentDegrees, match="wrong shape"):
            cx.translate(Character((1,), (0, 0, 0)))
        with pytest.raises(InconsistentDegrees, match="integer twists"):
            cx.map_terms("plus", lambda t: Term((t.twist, 0), t.offset))

    def test_entries_are_not_rechecked(self, monkeypatch):
        from orbiflip import linalg
        from orbiflip.functors import pull_complex, push_complex

        s = seq("1,2;1,1,1")
        cx = build_resolution(s, 2, "minus")

        def refuse(*args):
            raise AssertionError("an entry was re-checked")

        monkeypatch.setattr(linalg, "is_section", refuse)
        derived = [cx.tensor(1), cx.shift(1), cx.translate(Character((1, 0), (0, 0, 1)), 2)]
        y = pull_complex(cx)
        pushed, _ = push_complex(y.tensor((-1, -1)), "minus")
        assert isinstance(pushed, MonomialComplex)
        for out in derived + [y, pushed]:
            delta = min(out.terms) - min(cx.terms)
            assert list(out.entries()) == [(d + delta, i, j, c) for d, i, j, c in cx.entries()]


def _roundtrip_complexes(s, k, pair, image, shift, twist):
    """A round-trip composite (or its translate or tensor image) and O(k),
    both on the minus side."""
    from orbiflip import apply, as_complex, single_twist_complex
    from orbiflip.functors import _PAIRS, _apply_with_powers

    first, second = _PAIRS[pair]
    mid = as_complex(s, apply(s, first, k))
    out = as_complex(s, _apply_with_powers(s, second, mid)[0])
    if image == "translate":
        out = out.translate(Character(tuple(shift[: s.m]), tuple(shift[s.m :])))
    elif image == "tensor":
        out = out.tensor(twist)
    return out, single_twist_complex(s, "minus", k)


class TestPresenceCounts:
    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(["1,1;1,1", "1,2;1,1,1", "1,2,3;1,5", "1,1;2,1"]),
        st.integers(0, 2),
        st.sampled_from(["GF", "HF", "G'F'", "H'F'"]),
        st.sampled_from(["composite", "translate", "tensor"]),
        st.integers(-2, 2),
        st.data(),
    )
    def test_matches_per_character_count(self, text, k, pair, image, off, data):
        # Cells of the composite and of O(k), each counted on its own,
        # against a Counter over every character of the box keyed by the
        # per-term section rule.
        from collections import Counter

        from hypothesis import assume

        from orbiflip import OrbiflipError
        from orbiflip.linalg import count_presence

        s = seq(text)
        size = s.m + s.n
        shift = data.draw(st.lists(st.integers(-1, 1), min_size=size, max_size=size))
        try:
            complexes = _roundtrip_complexes(s, k, pair, image, shift, data.draw(st.integers(-2, 2)))
        except OrbiflipError:
            assume(False)
        lows = data.draw(st.lists(st.integers(-2, 1), min_size=size, max_size=size))
        spans = data.draw(st.lists(st.integers(-1, 6), min_size=size, max_size=size))
        box = {
            "low": (tuple(lows[: s.m]), tuple(lows[s.m :])),
            "high": (
                tuple(lo + sp for lo, sp in zip(lows[: s.m], spans[: s.m])),
                tuple(lo + sp for lo, sp in zip(lows[s.m :], spans[s.m :])),
            ),
        }
        value = k + off
        chars = list(characters_of_degree(s, "minus", value, **box))
        for cx in complexes:
            patterns = [_per_term_bases(cx, ch) for ch in chars]
            cells = count_presence(cx, value, **box)
            decoded = {cx.presence_tables.bases(mask): count for mask, count in cells.items()}
            assert len(decoded) == len(cells)
            assert decoded == Counter(patterns)

    def test_box_too_large_refused_like_the_enumeration(self):
        from orbiflip import BoxTooLarge, single_twist_complex
        from orbiflip.linalg import count_presence

        s = seq("1,1;1,1")
        cx = single_twist_complex(s, "minus", 0)
        for high in (158, 2000):
            with pytest.raises(BoxTooLarge):
                next(characters_of_degree(s, "minus", 0, low=0, high=high))
            with pytest.raises(BoxTooLarge, match="character box of size > 4000000"):
                count_presence(cx, 0, low=0, high=high)
        # 158^3 free points, just under the limit: the pairs (alpha, beta) of
        # equal sum t, counted per t.
        pairs = lambda t: min(t, 314 - t) + 1
        assert count_presence(cx, 0, low=0, high=157) == {
            1: sum(pairs(t) ** 2 for t in range(315))
        }

    def test_counts_beyond_24_bits_are_exact(self, monkeypatch):
        # With the limit raised, one box of 5001^3 free points whose counts
        # per weighted sum pass 2^24 near the middle, so packed slots of a
        # fixed 24 bits would carry into each other.  Closed form as in
        # test_box_too_large_refused_like_the_enumeration.
        from orbiflip import linalg, single_twist_complex
        from orbiflip.linalg import count_presence

        monkeypatch.setattr(linalg, "ENUMERATION_LIMIT", 10**12)
        cx = single_twist_complex(seq("1,1;1,1"), "minus", 0)
        high = 5000
        pairs = lambda t: min(t, 2 * high - t) + 1
        assert pairs(high) ** 2 > 2**24
        assert count_presence(cx, 0, low=0, high=high) == {
            1: sum(pairs(t) ** 2 for t in range(2 * high + 1))
        }

    def test_empty_box_and_other_sides_refused(self):
        from orbiflip import Unsupported, single_twist_complex
        from orbiflip.linalg import count_presence

        s = seq("1,2;1,1,1")
        cx = single_twist_complex(s, "minus", 1)
        assert count_presence(cx, 1, low=1, high=0) == {}
        for space, twist in (("plus", 1), ("module", 1), ("Y", (1, 0))):
            other = single_twist_complex(s, space, twist)
            with pytest.raises(Unsupported, match="minus side only"):
                count_presence(other, 1, low=0, high=2)

    @pytest.mark.parametrize("text", ["1,1;1,1", "1,2;1,1,1", "1,2,3;1,5", "1,1;2,1"])
    def test_target_mask_is_constant_over_the_roundtrip_box(self, text):
        # roundtrip_check expects {0: 1} at every character of its box
        # without building O(k): every such character has exponents >= 0 and
        # minus-degree k, so O(k)'s one term is present there.
        from orbiflip import single_twist_complex
        from orbiflip.functors import _roundtrip_caps

        s = seq(text)
        for k in range(7):
            low, caps = _roundtrip_caps(s, k)
            mask = single_twist_complex(s, "minus", k).presence_tables.mask
            chars = list(characters_of_degree(s, "minus", k, low=low, high=caps))
            assert chars and all(mask(ch) == 1 for ch in chars)


@functools.lru_cache(maxsize=None)
def _walked_complexes(text, k):
    return [cx for cx in _presence_complexes(seq(text), k) if cx.space != "module"]


class TestCellBoxes:
    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(["1,1;1,1", "1,2;1,1,1", "1,2,3;1,5", "1,1;2,1"]),
        st.integers(0, 2),
        st.integers(-2, 2),
        st.data(),
    )
    def test_boxes_partition_the_enumeration(self, text, k, off, data):
        # On minus, plus and Y: the characters of the walked boxes are those
        # of the whole box, each once, and each lies on its box's cell; the
        # weighted sums of each walked box reach the degree equation's value.
        from orbiflip.linalg import cell_boxes

        complexes = _walked_complexes(text, k)
        cx = complexes[data.draw(st.integers(0, len(complexes) - 1))]
        s, m = cx.seq, cx.seq.m
        lows = data.draw(st.lists(st.integers(-3, 2), min_size=s.m + s.n, max_size=s.m + s.n))
        spans = data.draw(st.lists(st.integers(-1, 7), min_size=s.m + s.n, max_size=s.m + s.n))
        highs = [lo + sp for lo, sp in zip(lows, spans)]
        value = cx.reference_degree + off
        pair = lambda flat: (tuple(flat[:m]), tuple(flat[m:]))
        weights = s.a + tuple(-w for w in s.b)
        target = -value if cx.space == "plus" else value
        walked = []
        for box in cell_boxes(cx, value, low=pair(lows), high=pair(highs)):
            firsts, lasts = [run[0] for run in box], [run[1] for run in box]
            ends = [sorted((w * lo, w * hi)) for w, lo, hi in zip(weights, firsts, lasts)]
            assert sum(lo for lo, _ in ends) <= target <= sum(hi for _, hi in ends)
            for ch in characters_of_degree(s, cx.space, value, low=pair(firsts), high=pair(lasts)):
                assert cx.presence_tables.cell(ch)[: s.m + s.n] == tuple(run[2] for run in box)
                walked.append(ch)
        whole = list(characters_of_degree(s, cx.space, value, low=pair(lows), high=pair(highs)))
        assert len(walked) == len(set(walked))
        assert sorted(walked) == sorted(whole)

    def test_small_cells_of_a_long_round_trip(self):
        # The composite of roundtrip_check("1,1;1,1", 60, "GF"): 62,056
        # characters in 1,891 cells, most of them a handful of characters.
        from collections import Counter

        from orbiflip.functors import _roundtrip_caps
        from orbiflip.linalg import count_presence

        s = seq("1,1;1,1")
        cx, _ = _roundtrip_complexes(s, 60, "GF", "composite", None, None)
        low, caps = _roundtrip_caps(s, 60)
        counted = count_presence(cx, 60, low=low, high=caps)
        chars = characters_of_degree(s, "minus", 60, low=low, high=caps)
        assert counted == Counter(map(cx.presence_tables.mask, chars))
        assert sum(counted.values()) == 62_056


class TestIntervalRuns:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(-8, 8), unique=True).map(sorted),
        st.integers(-10, 10),
        st.integers(-10, 10),
    )
    def test_runs_match_bisect_at_every_value(self, cuts, lo, hi):
        from bisect import bisect_right

        from orbiflip.linalg import interval_runs

        runs = interval_runs(cuts, lo, hi)
        covered = [(v, j) for first, last, j in runs for v in range(first, last + 1)]
        assert covered == [(v, bisect_right(cuts, v)) for v in range(lo, hi + 1)]
        assert all(first <= last for first, last, _ in runs)
        # Maximal: neighbouring runs differ in their index.
        assert all(a[2] != b[2] for a, b in zip(runs, runs[1:]))


def _brute_characters(s, space, value, lows, highs):
    """itertools.product over the box in the enumerator's order (the solved
    coordinate, the last one of largest weight, varies fastest), filtered by
    the degree equation."""
    import itertools

    weights = list(s.a) + [-w for w in s.b]
    if space == "plus":
        value = -value
    size = len(weights)
    solve_at = max(range(size), key=lambda c: (abs(weights[c]), c))
    order = [c for c in range(size) if c != solve_at] + [solve_at]
    out = []
    for picked in itertools.product(*(range(lows[c], highs[c] + 1) for c in order)):
        full = [0] * size
        for c, e in zip(order, picked):
            full[c] = e
        if sum(w * e for w, e in zip(weights, full)) == value:
            out.append(Character(tuple(full[: s.m]), tuple(full[s.m :])))
    return out


class TestCharacterEnumeration:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(1, 4), min_size=0, max_size=3),
        st.lists(st.integers(1, 4), min_size=0, max_size=2),
        st.sampled_from(["minus", "plus", "Y", "module"]),
        st.integers(-6, 6),
        st.data(),
    )
    def test_matches_brute_force(self, a, b, space, value, data):
        from hypothesis import assume

        assume(a or b)
        s = WeightSequence(tuple(a), tuple(b))
        size = s.m + s.n
        lows = data.draw(st.lists(st.integers(-3, 2), min_size=size, max_size=size))
        spans = data.draw(st.lists(st.integers(-1, 4), min_size=size, max_size=size))
        highs = [lo + span for lo, span in zip(lows, spans)]
        bounds = lambda v: (tuple(v[: s.m]), tuple(v[s.m :]))
        got = list(characters_of_degree(s, space, value, low=bounds(lows), high=bounds(highs)))
        assert got == _brute_characters(s, space, value, lows, highs)

    def test_int_bounds_single_coordinate(self):
        s = seq("3;")
        assert list(characters_of_degree(s, "minus", 6, low=-2, high=4)) == [
            Character((2,), ())
        ]
        assert list(characters_of_degree(s, "minus", 5, low=-2, high=4)) == []

    def test_empty_box(self):
        s = seq("1,2;1")
        assert list(characters_of_degree(s, "minus", 0, low=1, high=0)) == []

    def test_box_limit_checked(self, monkeypatch):
        import orbiflip.linalg as linalg
        from orbiflip import BoxTooLarge

        monkeypatch.setattr(linalg, "ENUMERATION_LIMIT", 100)
        s = seq("1,1,1;1")
        with pytest.raises(BoxTooLarge):
            next(characters_of_degree(s, "minus", 0, low=0, high=9))
