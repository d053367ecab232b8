from __future__ import annotations

from hypothesis import given, settings
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
from orbiflip.linalg import Character
from orbiflip.resolution import monomials_of_weighted_degree, weighted_degree


def seq(text: str) -> WeightSequence:
    return WeightSequence.parse(text)


class TestThresholdGenerators:
    def test_square_of_maximal_ideal(self):
        assert threshold_generators((1, 1), 2) == [(0, 2), (1, 1), (2, 0)]

    def test_weighted_examples(self):
        assert threshold_generators((1, 2), 2) == [(0, 1), (2, 0)]
        assert threshold_generators((1, 2), 3) == [(0, 2), (1, 1), (3, 0)]

    def test_unit_for_zero_threshold(self):
        assert threshold_generators((1, 2), 0) == [(0, 0)]

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
