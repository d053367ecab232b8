from __future__ import annotations

import itertools
import random
import time
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from orbiflip import (
    ResolutionDegrees,
    WeightSequence,
    build_resolution,
    minimal_resolution_degrees,
    strand,
    strand_by_degree,
    threshold_generators,
    verify_degree_bounds,
)
from orbiflip import resolution
from orbiflip.errors import InconsistentDegrees, ResolutionConstructionFailure, Unsupported
from orbiflip.exact import chain_reduce_homology
from orbiflip.linalg import Character
from orbiflip.resolution import weighted_degree


def seq(text: str) -> WeightSequence:
    return WeightSequence.parse(text)


def monomials_of_weighted_degree(weights, d: int) -> list[tuple[int, ...]]:
    """Brute-force reference: every exponent vector of the given weighted
    degree, in lex order."""
    if d < 0:
        return []
    if not weights:
        return [()] if d == 0 else []
    head, tail = weights[0], tuple(weights[1:])
    return [
        (e,) + rest
        for e in range(d // head + 1)
        for rest in monomials_of_weighted_degree(tail, d - head * e)
    ]


def koszul_betti_degrees(weights, k):
    """Reference Betti degrees of I_k from Koszul strand homology of R/I_k.

    Position l carries the degrees of Tor_l(R/I_k, C); the strand in internal
    degree e has basis (S, mu), S a subset of the variables and mu a monomial
    of degree e - w_S below the threshold, with the Koszul differential.
    """
    m = len(weights)
    if k <= 0:
        return {1: (0,)}
    found: dict[int, list[int]] = {}
    subsets = [S for size in range(m + 1) for S in itertools.combinations(range(m), size)]
    for e in range(k, k + sum(weights)):
        cells = {}
        for S in subsets:
            d = e - sum(weights[i] for i in S)
            if 0 <= d < k:
                for mono in monomials_of_weighted_degree(weights, d):
                    cells[(S, mono)] = -len(S)
        entries = {}
        for S, mono in cells:
            for pos, i in enumerate(S):
                shifted = mono[:i] + (mono[i] + 1,) + mono[i + 1 :]
                tgt = (S[:pos] + S[pos + 1 :], shifted)
                if tgt in cells:
                    entries[((S, mono), tgt)] = (-1) ** pos
        for deg, dim in chain_reduce_homology(cells, entries).items():
            if deg <= -1:
                found.setdefault(-deg, []).extend([e] * dim)
    return {l: tuple(sorted(es)) for l, es in found.items()}


class TestThresholdGenerators:
    def test_square_of_maximal_ideal(self):
        assert threshold_generators((1, 1), 2) == [(0, 2), (1, 1), (2, 0)]

    def test_weighted_examples(self):
        assert threshold_generators((1, 2), 2) == [(0, 1), (2, 0)]
        assert threshold_generators((1, 2), 3) == [(0, 2), (1, 1), (3, 0)]

    def test_unit_for_zero_threshold(self):
        assert threshold_generators((1, 2), 0) == [(0, 0)]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(1, 6), min_size=1, max_size=4), st.integers(1, 12))
    def test_matches_degree_filter(self, weights, k):
        # Minimal generators have degree below k + max(w): filter every
        # monomial there by the definition.
        weights = tuple(weights)
        want = [
            mono
            for d in range(k, k + max(weights))
            for mono in monomials_of_weighted_degree(weights, d)
            if all(e == 0 or d - w < k for w, e in zip(weights, mono))
        ]
        assert threshold_generators(weights, k) == sorted(want)

    def test_generators_are_minimal(self):
        for w in [(1, 1, 1), (1, 2, 3), (2, 3)]:
            for k in range(1, 9):
                for g in threshold_generators(w, k):
                    d = weighted_degree(w, g)
                    assert d >= k
                    for i, e in enumerate(g):
                        if e:
                            assert d - w[i] < k


class TestBettiDegrees:
    def test_spec_tables(self):
        assert minimal_resolution_degrees((1, 1), 2).degrees == {
            1: (2, 2, 2),
            2: (3, 3),
        }
        assert minimal_resolution_degrees((1, 2), 2).degrees == {1: (2, 2), 2: (4,)}
        assert minimal_resolution_degrees((1, 1, 1), 1).degrees == {
            1: (1, 1, 1),
            2: (2, 2, 2),
            3: (3,),
        }

    def test_zero_threshold(self):
        assert minimal_resolution_degrees((1, 1), 0).degrees == {1: (0,)}

    def test_permutation_invariance(self):
        left = minimal_resolution_degrees((1, 2, 3), 5).degrees
        right = minimal_resolution_degrees((3, 1, 2), 5).degrees
        assert left == right


class TestKoszulReference:
    """The Eliahou-Kervaire table against Koszul strand homology of R/I_k."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(1, 6), min_size=1, max_size=4),
        st.integers(0, 12),
        st.randoms(use_true_random=False),
    )
    @example([1, 1, 1, 1], 12, random.Random(0))
    @example([1, 2, 3, 4], 12, random.Random(1))
    @example([6, 5, 4, 3], 12, random.Random(2))
    def test_matches_koszul_on_criterion_one_domain(self, weights, k, rnd):
        weights = tuple(weights)
        want = koszul_betti_degrees(weights, k)
        assert minimal_resolution_degrees(weights, k).degrees == want
        permuted = list(weights)
        rnd.shuffle(permuted)
        assert minimal_resolution_degrees(tuple(permuted), k).degrees == want

    def test_exhaustive_small_domain(self):
        for m in (1, 2, 3):
            for weights in itertools.product(range(1, 4), repeat=m):
                for k in range(0, 7):
                    got = minimal_resolution_degrees(weights, k).degrees
                    assert got == koszul_betti_degrees(weights, k), (weights, k)


def count_rows(degrees):
    """The count rows of a degree table: rows[l][e] twists of degree e."""
    rows = {}
    for l, es in degrees.items():
        rows[l] = [0] * (max(es, default=-1) + 1)
        for e in es:
            rows[l][e] += 1
    return rows


def symbol_betti_degrees(weights, k):
    """Reference Betti degrees read off the Eliahou-Kervaire symbols one by one."""
    return {
        l: tuple(
            sorted(weighted_degree(weights, u) + sum(weights[i] for i in sigma) for u, sigma in symbols)
        )
        for l, symbols in resolution._ek_symbols(weights, max(k, 0)).items()
    }


class TestCountedTable:
    """The generating-function table against the symbols it counts."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 6), min_size=1, max_size=4), st.integers(0, 12))
    @example([1, 1, 1, 1], 12)
    @example([6, 5, 4, 3], 12)
    @example([6, 1, 6, 1], 7)
    def test_matches_symbols_on_criterion_one_domain(self, weights, k):
        weights = tuple(weights)
        assert minimal_resolution_degrees(weights, k).degrees == symbol_betti_degrees(weights, k)


def dense_betti_counts(weights, k: int) -> dict[int, list[int]]:
    """Reference for resolution._betti_counts: every head degree convolved
    with dense rows of e_j, each rescanned and rebuilt for every weight."""
    if k <= 0:
        return {1: [1]}
    top = k + sum(weights)
    # heads[d]: monomials of degree d < k in the variables so far (coin
    # change); elementary[j][e]: coefficient of t^e in e_j of their weights.
    heads = [1] + [0] * (k - 1)
    elementary = [[1] + [0] * (top - 1)]
    rows: dict[int, list[int]] = {}
    for w in sorted(weights, reverse=True):
        # Degrees of G_p: d + w * ceil((k - d) / w) for each head of degree d.
        generators = [
            (d - (d - k) // w * w, count) for d, count in enumerate(heads) if count
        ]
        for j, poly in enumerate(elementary):
            row = rows.setdefault(j + 1, [0] * top)
            terms = [(e, c) for e, c in enumerate(poly) if c]
            for g, count in generators:
                for e, c in terms:
                    row[g + e] += count * c
        for d in range(w, k):
            heads[d] += heads[d - w]
        elementary.append([0] * top)
        for j in range(len(elementary) - 1, 0, -1):
            below, poly = elementary[j - 1], elementary[j]
            for e in range(top - 1, w - 1, -1):
                poly[e] += below[e - w]
    return rows


class TestFoldedCounts:
    """The residue-folded, sparse read-off against the dense reference."""

    def test_exhaustive_on_criterion_one_domain_up_to_three_variables(self):
        for m in (1, 2, 3):
            for weights in itertools.product(range(1, 7), repeat=m):
                for k in range(0, 13):
                    got = resolution._betti_counts(weights, k)
                    assert got == dense_betti_counts(weights, k), (weights, k)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(1, 50), min_size=4, max_size=6), st.integers(0, 64))
    @example([1, 1, 1, 1], 12)
    @example([50, 49, 1, 1, 1], 64)
    @example([7, 7, 7, 7, 7, 7], 64)
    def test_matches_dense_reference_with_four_to_six_variables(self, weights, k):
        weights = tuple(weights)
        try:
            resolution.check_table_size(weights, k)
        except Unsupported:
            assume(False)
        rows = resolution._betti_counts(weights, k)
        assert rows == dense_betti_counts(weights, k)
        resolution._check_hilbert_series(weights, k, rows)


class TestTableCap:
    """I_30 in twelve variables of weight one has C(41, 11) generators."""

    PROBE = ((1,) * 12, 30)

    def test_refused_before_counting(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("work started before the table-size check")

        monkeypatch.setattr(resolution, "_betti_counts", forbidden)
        with pytest.raises(Unsupported, match="above the table cap"):
            minimal_resolution_degrees(*self.PROBE)
        with pytest.raises(Unsupported, match="above the table cap"):
            threshold_generators(*self.PROBE)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(1, 6), min_size=1, max_size=4), st.integers(0, 12))
    def test_cap_counts_the_symbols_exactly(self, weights, k):
        weights = tuple(weights)
        size = sum(map(len, resolution._ek_symbols(weights, k).values()))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(resolution, "TABLE_CAP", size)
            table = minimal_resolution_degrees(weights, k).degrees
            assert sum(map(len, table.values())) == size
            patch.setattr(resolution, "TABLE_CAP", size - 1)
            with pytest.raises(Unsupported, match=f"has {size} basis elements"):
                minimal_resolution_degrees(weights, k)
            with pytest.raises(Unsupported, match=f"has {size} basis elements"):
                threshold_generators(weights, k)

    def test_builds_refused(self):
        with pytest.raises(Unsupported, match="above the table cap"):
            build_resolution(WeightSequence((1,), (1,) * 12), 30, "minus")
        with pytest.raises(Unsupported, match="above the table cap"):
            build_resolution(WeightSequence((1,) * 12, ()), 30, "module")

    def test_dense_rows_counted_against_the_enumeration_limit(self, monkeypatch):
        # (1, 1, 2) at k = 12: 2 * 3 + 1 rows of 12 + 4 degrees.
        from orbiflip import linalg

        monkeypatch.setattr(linalg, "ENUMERATION_LIMIT", 112)
        assert minimal_resolution_degrees((1, 1, 2), 12).degrees
        monkeypatch.setattr(linalg, "ENUMERATION_LIMIT", 111)

        def forbidden(*args):
            raise AssertionError("dense rows allocated")

        monkeypatch.setattr(resolution, "_betti_counts", forbidden)
        monkeypatch.setattr(resolution, "_check_hilbert_series", forbidden)
        with pytest.raises(Unsupported, match="need 112 entries, above the enumeration limit 111"):
            minimal_resolution_degrees((1, 1, 2), 12)

    def test_zero_threshold_is_one_symbol(self, monkeypatch):
        monkeypatch.setattr(resolution, "TABLE_CAP", 1)
        assert minimal_resolution_degrees((1,) * 40, 0).degrees == {1: (0,)}


class TestStrandWalkCap:
    """An explicit build is refused by the price of its exactness
    certificate, runs times symbols from the weights and k alone, before any
    work."""

    @staticmethod
    def forbidden(*args):
        raise AssertionError("construction started before the price check")

    def test_refused_before_construction(self, monkeypatch):
        # Sixteen variables of weight one at k = 1: two intervals on each
        # coordinate, so 2^15 runs, of a 65,535-symbol table.
        monkeypatch.setattr(resolution, "module_resolution", self.forbidden)
        start = time.perf_counter()
        with pytest.raises(Unsupported, match="reduces up to 32768 runs of 65535 symbols"):
            build_resolution(WeightSequence((1,) * 16, ()), 1, "module")
        assert time.perf_counter() - start < 1

    def test_limit_is_the_certificate_price(self, monkeypatch):
        # (1, 2) at k = 3: 3 + 1 intervals on x, 2 + 1 on y, so 3 runs along
        # x, of the 3 + 2 symbols of the table: price 15.
        monkeypatch.setattr(resolution, "CERTIFICATE_LIMIT", 15)
        assert build_resolution(WeightSequence((1, 2), ()), 3, "module").terms
        monkeypatch.setattr(resolution, "CERTIFICATE_LIMIT", 14)
        monkeypatch.setattr(resolution, "module_resolution", self.forbidden)
        with pytest.raises(Unsupported, match="15 in all, above the certificate limit 14"):
            build_resolution(WeightSequence((1, 2), ()), 3, "module")

    @pytest.mark.parametrize(
        "weights, k, price",
        [((1,) * 5, 6, 6148961), ((1,) * 12, 1, 8386560), ((1, 2, 3, 4), 36, 9383530)],
    )
    def test_calibration_builds_are_accepted(self, weights, k, price):
        # The builds README names as calibrated near the limit, priced
        # without building.
        symbols = resolution.check_table_size(weights, k)
        assert resolution.check_certificate_price(weights, k, symbols) == price
        assert price <= resolution.CERTIFICATE_LIMIT


class TestHilbertSeriesCheck:
    def test_true_tables_pass(self):
        resolution._check_hilbert_series((1, 2), 2, count_rows({1: (2, 2), 2: (4,)}))
        resolution._check_hilbert_series((1, 1), 0, count_rows({1: (0,)}))
        resolution._check_hilbert_series((1, 2, 3), 5, resolution._betti_counts((1, 2, 3), 5))

    @pytest.mark.parametrize(
        "degrees",
        [{1: (2, 2)}, {1: (2, 3), 2: (4,)}, {1: (2, 2), 2: (4,), 3: (9,)}, {}],
    )
    def test_wrong_tables_fail(self, degrees):
        with pytest.raises(ResolutionConstructionFailure, match="Hilbert series"):
            resolution._check_hilbert_series((1, 2), 2, count_rows(degrees))

    def test_injected_wrong_symbols_fail(self, monkeypatch):
        real = resolution._betti_counts

        def dropped(weights, k):
            # One basis element fewer at the top position.
            rows = real(weights, k)
            top = rows[max(rows)]
            top[max(e for e, count in enumerate(top) if count)] -= 1
            return rows

        monkeypatch.setattr(resolution, "_betti_counts", dropped)
        with pytest.raises(ResolutionConstructionFailure, match="Hilbert series"):
            minimal_resolution_degrees((1, 2, 3), 5)


class TestEliahouKervaireComplex:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 3), min_size=1, max_size=3), st.integers(0, 7))
    def test_builds_are_minimal_and_exact(self, weights, k):
        weights = tuple(weights)
        positions, raw_diffs = resolution.module_resolution(weights, k)
        assert list(positions[0]) == threshold_generators(weights, k)
        resolution._verify_minimality(weights, k, positions, raw_diffs)
        resolution._verify_exactness(weights, k, positions, raw_diffs)
        table = {
            l + 1: tuple(sorted(weighted_degree(weights, mu) for mu in gens))
            for l, gens in enumerate(positions)
        }
        assert table == koszul_betti_degrees(weights, k)

    def test_later_positions_sorted_by_degree(self):
        w = (1, 2, 3)
        positions, _ = resolution.module_resolution(w, 6)
        for gens in positions[1:]:
            keys = [(weighted_degree(w, mu), mu) for mu in gens]
            assert keys == sorted(keys)

    def test_unit_entry_fails_minimality(self):
        # x e - e' resolves I_1 = (x) over one variable with a redundant
        # generator e' of degree x^2: exact, but the entry e' is a unit.
        positions = (((1,), (2,)), ((2,),))
        raw_diffs = ({(0, 0): Fraction(1), (0, 1): Fraction(-1)},)
        resolution._verify_exactness((1,), 1, positions, raw_diffs)
        with pytest.raises(ResolutionConstructionFailure, match="unit entry"):
            resolution._verify_minimality((1,), 1, positions, raw_diffs)


def per_monomial_strand_exactness(weights, k, positions, raw_diffs):
    """Reference for resolution._verify_exactness: the augmented complex
    F -> R reduced on every monomial strand up to k + sum(w) + 2, one strand
    per monomial."""
    cx = resolution._augmented(weights, positions, raw_diffs)
    mask = cx.presence_tables.mask
    for d in range(k + sum(weights) + 3):
        for mu in monomials_of_weighted_degree(tuple(weights), d):
            hom = strand(cx, mask(Character(mu, ()))).homology()
            if hom != ({0: 1} if d < k else {}):
                raise ResolutionConstructionFailure(
                    f"strand {mu} of I_{k} over {weights}: homology {hom}"
                )


def certificate_outcome(check, weights, k, positions, raw_diffs):
    """None if the check passes, else its message."""
    try:
        check(weights, k, positions, raw_diffs)
    except ResolutionConstructionFailure as exc:
        return str(exc)
    return None


def cell_corner(cx, cell):
    """The least monomial of a cell of a module complex."""
    return tuple(cuts[j - 1] if j else 0 for (cuts, _), j in zip(cx.presence_tables.coords, cell))


class TestPerMaskCertificate:
    """One filtered reduction per run of cells against one strand per cell,
    and against one strand per monomial."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.integers(1, 4), min_size=1, max_size=3),
        st.integers(0, 7),
        st.booleans(),
    )
    @example([1, 1, 1, 1], 4, True)
    @example([1, 1, 1, 1], 4, False)
    def test_run_dims_match_the_strand_of_every_cell(self, weights, k, augmented):
        # Unaugmented, the strands of I_k's cells have homology in degree 0.
        weights = tuple(weights)
        positions, raw_diffs = resolution.module_resolution(weights, k)
        if augmented:
            cx = resolution._augmented(weights, positions, raw_diffs)
        else:
            cx = build_resolution(WeightSequence(weights, ()), k, "module")
        tables = cx.presence_tables
        cells = set()
        for cell, mask, dims in resolution._cell_homology(cx):
            corner = Character(cell_corner(cx, cell), ())
            assert (tables.cell(corner), tables.mask(corner)) == (cell, mask)
            assert dims == strand(cx, mask).homology(), (cell, mask)
            cells.add(cell)
        # Every cell that holds a monomial, each once.
        runs = [range(bisect_right(cuts, 0), len(cuts) + 1) for cuts, _ in tables.coords]
        assert cells == set(itertools.product(*runs))

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.integers(1, 4), min_size=1, max_size=3),
        st.integers(0, 7),
        st.sampled_from(["none", "drop", "kill"]),
        st.data(),
    )
    @example([1, 1, 1], 4, "kill", None)
    @example([1, 2], 3, "drop", None)
    def test_agrees_with_per_monomial_reference(self, weights, k, fault, data):
        # The same verdict on the true resolution and on one whose top
        # position lost an element ("drop") or the differential out of one
        # ("kill"); both faults keep d o d = 0.
        weights = tuple(weights)
        positions, raw_diffs = resolution.module_resolution(weights, k)
        top = len(positions) - 1
        if fault != "none":
            src = 0 if data is None else data.draw(st.integers(0, len(positions[top]) - 1))
            shift = fault == "drop"
            if shift:
                positions = positions[:top] + (positions[top][:src] + positions[top][src + 1 :],)
            if top:
                table = {
                    (s - (shift and s > src), t): c for (s, t), c in raw_diffs[-1].items() if s != src
                }
                raw_diffs = raw_diffs[:-1] + (table,)
        fast, slow = (
            certificate_outcome(check, weights, k, positions, raw_diffs)
            for check in (resolution._verify_exactness, per_monomial_strand_exactness)
        )
        assert (fast is None) == (slow is None)
        assert (fast is None) == (fault == "none" or (fault == "kill" and not top))

    def test_reduces_once_per_run(self, monkeypatch):
        # (1, 1, 1, 1) at k = 4: five intervals on each coordinate, so 5^3
        # runs of five cells, 625 cells in all; no strand is reduced on its own.
        calls = []
        real = resolution.filtered_homology

        def counting(cells, *args):
            calls.append(frozenset(cells))
            return real(cells, *args)

        def forbidden(*args):
            raise AssertionError("a strand was reduced on its own")

        monkeypatch.setattr(resolution, "filtered_homology", counting)
        monkeypatch.setattr(resolution, "strand", forbidden)
        monkeypatch.setattr(resolution, "chain_reduce_homology", forbidden)
        positions, raw_diffs = resolution.module_resolution((1, 1, 1, 1), 4)
        cx = resolution._augmented((1, 1, 1, 1), positions, raw_diffs)
        cells = list(resolution._cell_homology(cx))
        assert len(cells) == 625 and len({cell for cell, _, _ in cells}) == 625
        # One reduction per distinct run, and runs with the same terms share it.
        assert len(calls) == len(set(calls)) == 5**3
        resolution._verify_exactness((1, 1, 1, 1), 4, positions, raw_diffs)

    def test_mask_on_both_sides_of_threshold_fails(self):
        # I_2 over two variables missing the generator y^2, with the one
        # syzygy of x^2 and xy: exact where it has terms, but the cell x = 0,
        # y >= 1 holds only the augmentation and is unbounded, so y^2 lies in
        # no generator's cell, as 1 does below k.  A certificate that stops
        # before each coordinate's last, unbounded interval passes it.
        positions = (((1, 1), (2, 0)), ((2, 1),))
        raw_diffs = ({(0, 0): Fraction(1), (0, 1): Fraction(-1)},)
        with pytest.raises(
            ResolutionConstructionFailure,
            match=r"cell \[0, 0\] x \[1, inf\) of I_2 over \(1, 1\): the augmentation alone on an unbounded cell",
        ):
            resolution._verify_exactness((1, 1), 2, positions, raw_diffs)
        with pytest.raises(ResolutionConstructionFailure, match=r"strand \(0, 2\) .* homology"):
            per_monomial_strand_exactness((1, 1), 2, positions, raw_diffs)

    @pytest.mark.parametrize(
        "positions, k, problem",
        [
            # I_2 over one variable generated by x: a generator below k.
            pytest.param(
                (((1,),),),
                2,
                r"cell \[1, inf\) of I_2 over \(1,\): generators present from degree 1",
                id="generator-below-k",
            ),
            # I_1 generated by x^2: x lies in no generator's cell.
            pytest.param(
                (((2,),),),
                1,
                r"cell \[0, 1\] of I_1 over \(1,\): the augmentation alone up to degree 1",
                id="generator-missing",
            ),
        ],
    )
    def test_wrong_generators_fail(self, positions, k, problem):
        with pytest.raises(ResolutionConstructionFailure, match=problem):
            resolution._verify_exactness((1,), k, positions, ())

    def test_g_one_power_too_many_fails(self, monkeypatch):
        # g(v) one power too high is never a generator, so every correction
        # term drops: the Koszul complexes of the generators' supports, with
        # the multigraded Hilbert function of I_k.  Their first syzygies are
        # no relations among the generators, so d o d fails at the
        # augmentation before any cell is reduced.
        real = resolution._beginning

        def high(weights, order, v, k):
            g = list(real(weights, order, v, k))
            last = [i for i in order if g[i]][-1]
            g[last] += 1
            return tuple(g)

        monkeypatch.setattr(resolution, "_beginning", high)
        resolution.module_resolution.cache_clear()
        try:
            for weights, k in [((1, 1), 2), ((1, 2, 3), 4), ((1, 1, 1), 3), ((2, 3), 7)]:
                positions, raw_diffs = resolution.module_resolution(weights, k)
                with pytest.raises(InconsistentDegrees, match="d o d != 0"):
                    resolution._verify_exactness(weights, k, positions, raw_diffs)
        finally:
            resolution.module_resolution.cache_clear()


class TestDegreeBounds:
    def test_good_tables(self):
        assert verify_degree_bounds(minimal_resolution_degrees((1, 1), 2))
        assert verify_degree_bounds(minimal_resolution_degrees((1, 2), 2))

    def test_artificial_violation(self):
        bad = ResolutionDegrees((1, 1), 2, {1: (4,)})  # 4 == k + sum(w)
        assert not verify_degree_bounds(bad)

    def test_unsorted_row_below_k_and_empty_row(self):
        # The low-side violation sits mid-row, after twists in range, so a
        # read of the row's first twist alone would miss it.
        low = ResolutionDegrees((1, 2), 3, {1: (4, 3, 2, 5), 2: ()})
        assert not verify_degree_bounds(low)
        assert verify_degree_bounds(ResolutionDegrees((1, 2), 3, {1: (5, 3, 4), 2: ()}))
        assert verify_degree_bounds(ResolutionDegrees((1, 2), 3, {}))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(1, 4), min_size=1, max_size=3),
        st.integers(0, 8),
        st.dictionaries(
            st.integers(1, 4), st.lists(st.integers(-2, 16), max_size=5).map(tuple), max_size=4
        ),
    )
    def test_row_extremes_match_the_per_twist_loop(self, weights, k, rows):
        res = ResolutionDegrees(tuple(weights), k, rows)
        top = k + sum(weights)
        assert verify_degree_bounds(res) == all(k <= e < top for es in rows.values() for e in es)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(1, 4), min_size=1, max_size=3),
        st.integers(0, 8),
    )
    def test_bounds_hold_on_random_inputs(self, weights, k):
        res = minimal_resolution_degrees(tuple(weights), k)
        assert verify_degree_bounds(res)


class TestBuildResolution:
    def test_two_step_weighted(self):
        cx = build_resolution(seq("1,2;1,1,1"), 2, "plus")
        assert cx.summary()["terms"] == {"-1": [4], "0": [2, 2]}

    def test_zero_threshold_single_term(self):
        cx = build_resolution(seq("1,1;1,1"), 0, "plus", extra_twist=0)
        assert cx.summary()["terms"] == {"0": [0]}

    def test_koszul_for_maximal_ideal(self):
        cx = build_resolution(seq("1,1;1,1"), 1, "plus")
        assert cx.summary()["terms"] == {"-1": [2], "0": [1, 1]}

    def test_minus_side_uses_y_weights(self):
        cx = build_resolution(seq("1,2;1,1,1"), 1, "minus")
        # I_1^- over unit weights is the maximal ideal in three y-variables.
        assert cx.summary()["terms"] == {"-2": [3], "-1": [2, 2, 2], "0": [1, 1, 1]}
        for ts in cx.terms.values():
            for t in ts:
                assert t.offset.alpha == (0, 0)

    def test_extra_twist_shifts_terms(self):
        plain = build_resolution(seq("1,2;1,1,1"), 2, "plus")
        twisted = build_resolution(seq("1,2;1,1,1"), 2, "plus", extra_twist=-2)
        for d in plain.terms:
            assert [t.twist - 2 for t in plain.terms[d]] == [
                t.twist for t in twisted.terms[d]
            ]

    def test_deterministic(self):
        from orbiflip.resolution import _certified_module_resolution, module_resolution

        def fresh():
            # Two cold solves, not one cached solve read twice.
            module_resolution.cache_clear()
            _certified_module_resolution.cache_clear()
            return build_resolution(seq("1,2,3;1,5"), 4, "plus")

        one, two = fresh(), fresh()
        assert (one.terms, one.by_source) == (two.terms, two.by_source)

    @pytest.mark.parametrize("text, k", [("1,2;1,1,1", 2), ("1,2,3;1,5", 4), ("2,1;1,1", 0)])
    def test_equals_the_full_constructor_on_a_miss_and_a_hit(self, monkeypatch, text, k):
        # A miss checks one construction, the augmented complex; a hit only
        # derives.  Both equal the complex of module_resolution data built
        # and checked by the constructor.
        from orbiflip.linalg import MonomialComplex, Term

        s = seq(text)
        indexed = []
        real = MonomialComplex._index
        monkeypatch.setattr(
            MonomialComplex, "_index", lambda cx, diffs: indexed.append(cx.space) or real(cx, diffs)
        )
        for side, extra in [("plus", 0), ("plus", -3), ("minus", 0), ("minus", 2), ("module", 5)]:
            resolution._certified_module_resolution.cache_clear()
            weights = s.b if side == "minus" else s.a
            positions, raw_diffs = resolution.module_resolution(weights, k)

            def term(mu):
                if side == "module":
                    return Term(-weighted_degree(weights, mu), Character(mu, ()))
                embed = Character((0,) * s.m, mu) if side == "minus" else Character(mu, (0,) * s.n)
                return Term(weighted_degree(weights, mu) + extra, embed)

            terms = {-l: [term(mu) for mu in gens] for l, gens in enumerate(positions)}
            diffs = {-l: table for l, table in enumerate(raw_diffs, start=1)}
            for outcome, checked in (("miss", ["module"]), ("hit", [])):
                indexed.clear()
                cx = build_resolution(s, k, side, extra_twist=extra)
                assert indexed == checked, outcome
                ref = MonomialComplex(cx.seq, side, terms, diffs)
                assert cx.seq == (s if side != "module" else WeightSequence(s.a, ()))
                assert (cx.space, cx.terms, cx.by_source, cx.reference_degree) == (
                    ref.space,
                    ref.terms,
                    ref.by_source,
                    ref.reference_degree,
                ), (outcome, side, extra)

    def test_strand_exactness_deep_sweep(self):
        # Exact away from position one for strand degrees up to k + sum + 10.
        for text, k in [("1,2;", 2), ("1,1,1;", 2), ("1,2,3;", 5)]:
            s = seq(text)
            cx = build_resolution(s, k, "module")
            top, mask = k + s.sum_a + 10, cx.presence_tables.mask
            for d in range(top + 1):
                for mu in monomials_of_weighted_degree(s.a, d):
                    hom = strand(cx, mask(Character(mu, ()))).homology()
                    assert hom == ({0: 1} if d >= k else {}), (text, k, mu)

    def test_betti_euler_identity_per_degree(self):
        # Alternating term counts at internal degree e must equal dim (I_k)_e.
        w, k = (1, 2), 3
        cx = build_resolution(WeightSequence(w, ()), k, "module")
        for e in range(0, k + sum(w) + 3):
            st_ = strand_by_degree(cx, e)
            want = len(monomials_of_weighted_degree(w, e)) if e >= k else 0
            assert st_.euler_characteristic() == want
