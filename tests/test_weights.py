from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbiflip import (
    NonPositiveKLevel,
    ParseError,
    WeightSequence,
    canonical_extension,
    classify,
    is_well_formed,
    normalize,
)
from orbiflip.weights import (
    KIND_DIVISORIAL,
    KIND_EMPTY,
    KIND_FLIP,
    KIND_FLOP,
    KIND_WPS,
    invariant_monomial_exponents,
    omit_one_gcds,
)


def seq(text: str) -> WeightSequence:
    return WeightSequence.parse(text)


small_sequences = st.tuples(
    st.lists(st.integers(1, 12), min_size=0, max_size=4),
    st.lists(st.integers(1, 12), min_size=0, max_size=4),
).filter(lambda ab: len(ab[0]) + len(ab[1]) >= 1).map(
    lambda ab: WeightSequence(tuple(ab[0]), tuple(ab[1]))
)


class TestParsing:
    def test_round_trip_is_bit_exact(self):
        for text in ["1,2;1,1,1", "2,4;2,2", "1,2,3;", ";1,1", "7;"]:
            assert str(seq(text)) == text

    def test_rejects_garbage(self):
        for bad in ["", "1,2", "1;2;3", "0;1", "-1;1", "a;b"]:
            with pytest.raises(ParseError):
                seq(bad)

    def test_accessors(self):
        s = seq("1,2;1,1,1")
        assert (s.m, s.n, s.sum_a, s.sum_b, s.klevel()) == (2, 3, 3, 3, 0)
        assert s.swap() == seq("1,1,1;1,2")


class TestNormalize:
    def test_global_factor_removal(self):
        assert normalize(seq("2,4;2,2")).output == seq("1,2;1,1")

    def test_single_entry_reduction(self):
        trace = normalize(seq("2,3;2,2"))
        assert trace.output == seq("1,3;1,1")
        assert trace.global_gcd == 1
        assert trace.omit_one_gcds == (1, 2, 1, 1)

    def test_single_entry_sequence(self):
        trace = normalize(seq("7;"))
        assert trace.output == seq("1;")
        assert (trace.global_gcd, trace.omit_one_gcds, trace.lcm_factors) == (7, (0,), (1,))

    def test_already_well_formed(self):
        s = seq("1,2;1,1,1")
        assert normalize(s).output == s

    def test_invariant_semigroup_preserved(self):
        # The reduction (2,3;2,2) -> (1,3;1,1) rescales entry 2 by its
        # omit-one gcd 2; the invariant monoids must biject under it.
        original = seq("2,3;2,2")
        trace = normalize(original)
        reduced = trace.output
        cs = trace.omit_one_gcds
        image = set()
        for alpha, beta in invariant_monomial_exponents(reduced, 8):
            scaled_a = tuple(e * c for e, c in zip(alpha, cs[: original.m]))
            scaled_b = tuple(e * c for e, c in zip(beta, cs[original.m :]))
            image.add((scaled_a, scaled_b))
        bound = 8 * max(cs)
        originals = {
            (alpha, beta)
            for alpha, beta in invariant_monomial_exponents(original, bound)
            if all(e <= 8 * c for e, c in zip(alpha, cs[: original.m]))
            and all(e <= 8 * c for e, c in zip(beta, cs[original.m :]))
        }
        assert image == originals

    @settings(max_examples=60, deadline=None)
    @given(small_sequences)
    def test_idempotent(self, s):
        once = normalize(s).output
        assert normalize(once).output == once

    @settings(max_examples=60, deadline=None)
    @given(small_sequences)
    def test_output_well_formed_and_factors_divide(self, s):
        trace = normalize(s)
        assert is_well_formed(trace.output)
        reduced = tuple(v // trace.global_gcd for v in s.entries())
        for v, d in zip(reduced, trace.lcm_factors):
            assert v % d == 0


class TestWellFormed:
    def test_examples(self):
        assert is_well_formed(seq("1,2;1,1,1"))
        assert not is_well_formed(seq("2,3;2,2"))
        assert is_well_formed(seq("1,1;1,1"))

    def test_omit_one_gcds(self):
        assert omit_one_gcds(seq("2,3;2,2")) == (1, 2, 1, 1)


class TestClassify:
    def test_atiyah_flop(self):
        report = classify(seq("1,1;1,1"))
        assert report.kind == KIND_FLOP
        assert report.klevel == 0

    def test_francia_flip(self):
        report = classify(seq("2,1;1,1"))
        assert report.kind == KIND_FLIP
        assert report.klevel == 1
        assert report.ff_direction == "plus_into_minus"

    def test_weighted_projective_space(self):
        assert classify(seq("1,2,3;")).kind == KIND_WPS

    def test_divisorial_and_empty(self):
        assert classify(seq("1,2,3;1")).kind == KIND_DIVISORIAL
        assert classify(seq(";1,1")).kind == KIND_EMPTY

    @settings(max_examples=60, deadline=None)
    @given(small_sequences)
    def test_swap_antisymmetry(self, s):
        left = classify(s)
        right = classify(s.swap())
        assert left.klevel == -right.klevel
        if s.m >= 2 and s.n >= 2:
            assert left.kind == right.kind


class TestCanonicalExtension:
    def test_examples(self):
        assert canonical_extension(seq("1,2,3;1")) == seq("1,2,3;1,5")
        assert canonical_extension(seq("1,5;2,3")) == seq("1,5;2,3,1")

    def test_rejects_nonpositive_klevel(self):
        with pytest.raises(NonPositiveKLevel):
            canonical_extension(seq("1,1;1,1"))
        with pytest.raises(NonPositiveKLevel):
            canonical_extension(seq("1,1;2,1"))

    @settings(max_examples=60, deadline=None)
    @given(small_sequences.filter(lambda s: s.klevel() > 0))
    def test_extension_has_klevel_zero(self, s):
        assert canonical_extension(s).klevel() == 0

    def test_five_case_list(self):
        # All five contraction/flip sequences for coprime (2, 3) extend to a
        # permutation of (1,2,3;1,5), up to exchanging the two sides.
        target = (tuple(sorted((1, 2, 3))), tuple(sorted((1, 5))))
        cases = ["1,2,3;5", "1,2,3;1", "1,5;2,3", "1,5;1,2", "1,5;1,3"]
        for text in cases:
            ext = canonical_extension(seq(text))
            got = (tuple(sorted(ext.a)), tuple(sorted(ext.b)))
            assert got in (target, (target[1], target[0])), (text, ext)
