from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
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
from orbiflip.errors import ResolutionConstructionFailure
from orbiflip.exact import chain_reduce_homology
from orbiflip.linalg import Character
from orbiflip.resolution import monomials_of_weighted_degree, weighted_degree


def seq(text: str) -> WeightSequence:
    return WeightSequence.parse(text)


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

    def test_betti_json(self):
        text = minimal_resolution_degrees((1, 2), 2).betti_json()
        assert '"betti"' in text and '"orbiflip/1"' in text

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


class TestHilbertSeriesCheck:
    def test_true_tables_pass(self):
        resolution._check_hilbert_series((1, 2), 2, {1: (2, 2), 2: (4,)})
        resolution._check_hilbert_series((1, 1), 0, {1: (0,)})

    @pytest.mark.parametrize(
        "degrees",
        [{1: (2, 2)}, {1: (2, 3), 2: (4,)}, {1: (2, 2), 2: (4,), 3: (9,)}, {}],
    )
    def test_wrong_tables_fail(self, degrees):
        with pytest.raises(ResolutionConstructionFailure, match="Hilbert series"):
            resolution._check_hilbert_series((1, 2), 2, degrees)

    def test_injected_wrong_symbols_fail(self, monkeypatch):
        real = resolution._ek_symbols

        def dropped(weights, k):
            symbols = real(weights, k)
            symbols[max(symbols)] = symbols[max(symbols)][:-1]
            return symbols

        monkeypatch.setattr(resolution, "_ek_symbols", dropped)
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
        resolution._verify_strand_exactness(weights, k, positions, raw_diffs)
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
        resolution._verify_strand_exactness((1,), 1, positions, raw_diffs)
        with pytest.raises(ResolutionConstructionFailure, match="unit entry"):
            resolution._verify_minimality((1,), 1, positions, raw_diffs)


class TestDegreeBounds:
    def test_good_tables(self):
        assert verify_degree_bounds(minimal_resolution_degrees((1, 1), 2))
        assert verify_degree_bounds(minimal_resolution_degrees((1, 2), 2))

    def test_artificial_violation(self):
        bad = ResolutionDegrees((1, 1), 2, {1: (4,)})  # 4 == k + sum(w)
        assert not verify_degree_bounds(bad)

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
        assert (one.terms, one.diffs) == (two.terms, two.diffs)

    def test_strand_exactness_deep_sweep(self):
        # Exact away from position one for strand degrees up to k + sum + 10.
        for text, k in [("1,2;", 2), ("1,1,1;", 2), ("1,2,3;", 5)]:
            s = seq(text)
            cx = build_resolution(s, k, "module")
            top = k + s.sum_a + 10
            for d in range(top + 1):
                for mu in monomials_of_weighted_degree(s.a, d):
                    hom = strand(cx, Character(mu, ())).homology()
                    assert hom == ({0: 1} if d >= k else {}), (text, k, mu)

    def test_betti_euler_identity_per_degree(self):
        # Alternating term counts at internal degree e must equal dim (I_k)_e.
        w, k = (1, 2), 3
        cx = build_resolution(WeightSequence(w, ()), k, "module")
        for e in range(0, k + sum(w) + 3):
            st_ = strand_by_degree(cx, e)
            want = len(monomials_of_weighted_degree(w, e)) if e >= k else 0
            assert st_.euler_characteristic() == want
