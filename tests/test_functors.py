from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbiflip import (
    IdealImage,
    InconsistentDegrees,
    PreconditionKLevel,
    PushforwardNotClosedForm,
    Unsupported,
    WeightSequence,
    adjunction_check,
    apply,
    as_complex,
    equivalence_suite,
    example51_verify,
    roundtrip_check,
)
from orbiflip.linalg import (
    CellRuns,
    characters_of_degree,
    count_presence,
    presence_boxes,
    strand,
)
from orbiflip.functors import (
    FunctorSpec,
    pull_complex,
    push_complex,
    pushforward_oracle_suite,
    serre_duality_suite,
)


def seq(text: str) -> WeightSequence:
    return WeightSequence.parse(text)


ATIYAH = seq("1,1;1,1")
FLOP = seq("1,2;1,1,1")


class TestFunctorSpecs:
    def test_pipelines(self):
        f = FunctorSpec.for_sequence("F", FLOP)
        assert (f.pull_side, f.push_side, f.ebar_power) == ("minus", "plus", 0)
        g = FunctorSpec.for_sequence("G", FLOP)
        assert (g.pull_side, g.push_side, g.ebar_power) == ("plus", "minus", 2)
        h = FunctorSpec.for_sequence("H", FLOP)
        assert h.ebar_power == FLOP.sum_b - 1
        gp = FunctorSpec.for_sequence("Gprime", seq("1,1;2,1"))
        assert gp.ebar_power == -1


class TestApply:
    def test_f_image_is_threshold_ideal(self):
        for k in range(1, 6):
            image = apply(ATIYAH, "F", k)
            assert isinstance(image, IdealImage)
            assert (image.side, image.index, image.twist) == ("plus", k, -k)

    def test_f_of_structure_sheaf(self):
        image = apply(ATIYAH, "F", 0)
        assert image.summary()["terms"] == {"0": [0]}

    def test_gf_complex_terms(self):
        image = as_complex(FLOP, apply(FLOP, "F", 1))
        out = apply(FLOP, "G", image)
        assert out.summary()["terms"] == {"-1": [-2], "0": [-1, 0]}

    def test_not_closed_form_propagates(self):
        # F' on O(0) for a flip with sum(b) - sum(a) = 1 leaves closed form.
        flip = seq("1,1;2,1")
        with pytest.raises(PushforwardNotClosedForm):
            apply(flip, "Fprime", 0)

    def test_twist_commutation(self):
        # apply(G, cx tensor O(t)) = apply(G, cx) tensor O(-t), structurally;
        # the flip's K-level gap leaves room for t = -1 in closed form.
        flip = seq("1,1;2,1")
        mid = as_complex(flip, apply(flip, "F", 1))
        base = apply(flip, "G", mid)
        shifted = apply(flip, "G", mid.tensor(-1))
        assert shifted.terms == base.tensor(1).terms
        assert shifted.by_source == base.by_source

    def test_pull_and_push_read_the_sequence_of_the_complex(self):
        # The pipeline of G by hand: pull, twist by Ebar^-2, push by the
        # closed-form rules of the complex's own sequence.  apply refuses a
        # complex over another sequence rather than push it by that
        # sequence's rules.
        image = as_complex(FLOP, apply(FLOP, "F", 1))
        pulled = pull_complex(image)
        assert (pulled.seq, pulled.space) == (FLOP, "Y")
        pushed, _ = push_complex(pulled.tensor((-2, -2)), "minus")
        assert pushed.seq == FLOP
        assert pushed.terms == apply(FLOP, "G", image).terms
        with pytest.raises(InconsistentDegrees, match=r"over 1,2;1,1,1, functor acts over 1,1;1,1"):
            apply(ATIYAH, "G", image)


class TestRoundtrips:
    def test_atiyah_gf_identity(self):
        rep = roundtrip_check(ATIYAH, 0, "GF")
        assert rep.verdict

    def test_francia_flop_gf(self):
        assert roundtrip_check(FLOP, 1, "GF").verdict

    def test_wrong_direction_raises(self):
        with pytest.raises(PreconditionKLevel):
            roundtrip_check(seq("2,1;1,1"), 0, "GF")

    def test_primed_pairs_on_flop(self):
        assert roundtrip_check(ATIYAH, 0, "G'F'").verdict
        assert roundtrip_check(ATIYAH, 2, "H'F'").verdict

    def test_flip_primed_pair_in_range(self):
        flip = seq("1,1;2,1")
        assert roundtrip_check(flip, 2, "G'F'").verdict
        assert roundtrip_check(flip, 1, "H'F'").verdict

    def test_intermediate_ebar_powers_recorded(self):
        rep = roundtrip_check(FLOP, 2, "GF")
        top = FLOP.sum_b - 1
        assert all(0 <= p <= top for p in rep.details["ebar_powers"])

    def test_one_reduction_per_run_term_set(self, monkeypatch):
        # Every character is checked, but the composite is reduced once per
        # distinct run term set of the sweep's cells, and no strand on its own.
        # Building the reference first also caches the certified resolutions,
        # whose certificates reduce through the same engine.
        import orbiflip.functors as functors
        from orbiflip import exact, linalg

        jobs = [(FLOP, 3, "GF"), (ATIYAH, 6, "HF"), (seq("1,1;2,1"), 2, "G'F'")]
        expected = [len(_run_term_sets(*job)) for job in jobs]
        calls = []
        real = linalg.filtered_homology

        def counting(cells, *args):
            calls.append(frozenset(cells))
            return real(cells, *args)

        def forbidden(*args):
            raise AssertionError("a strand was reduced on its own")

        monkeypatch.setattr(linalg, "filtered_homology", counting)
        for module in (functors, linalg):
            monkeypatch.setattr(module, "strand", forbidden)
        for module in (exact, linalg):
            monkeypatch.setattr(module, "chain_reduce_homology", forbidden)
        monkeypatch.setattr(linalg.StrandComplex, "homology", forbidden)
        for job, runs in zip(jobs, expected):
            calls.clear()
            rep = roundtrip_check(*job)
            assert rep.verdict
            assert len(calls) == len(set(calls)) == runs
            assert 0 < runs < rep.details["strands_checked"]

    def test_off_section_characters_have_empty_strands(self):
        # The sweep visits characters with nonnegative exponents only; at a
        # degree-k character with a negative exponent the composite's strand
        # homology must vanish, as O(k)'s does.
        from orbiflip import Character, strand
        from orbiflip.linalg import characters_of_degree

        for s in (ATIYAH, FLOP):
            for k in (0, 1):
                for first, second in (("F", "G"), ("F", "H")):
                    out = as_complex(s, apply(s, second, as_complex(s, apply(s, first, k))))
                    off = [
                        ch
                        for ch in characters_of_degree(s, "minus", k, low=-3, high=3)
                        if not ch.is_nonnegative()
                    ]
                    assert len(off) > 50
                    for ch in off[::7]:
                        mask = out.presence_tables.mask(ch)
                        assert strand(out, mask).homology() == {}, (str(s), k, second, ch)

    def test_negative_offset_fails_the_verdict(self, monkeypatch):
        # Translating the composite by a degree-0 character with negative
        # exponents leaves every swept strand's homology at {0: 1}; only the
        # offset check sees that strands off the sections no longer vanish.
        import orbiflip.functors as functors
        from orbiflip import Character

        original = functors._apply_with_powers
        shift = Character((-1, 0), (-1, 0))

        def translated(s, functor, u):
            out, powers = original(s, functor, u)
            if functor == "G":
                out = as_complex(s, out).translate(shift)
            return out, powers

        monkeypatch.setattr(functors, "_apply_with_powers", translated)
        rep = roundtrip_check(ATIYAH, 1, "GF")
        assert not rep.verdict
        assert rep.details["mismatches"]
        assert all("negative_offset" in m for m in rep.details["mismatches"])

    @pytest.mark.parametrize("shifted", [False, True])
    @pytest.mark.parametrize("which", [0, 1, 3, -1])
    def test_mismatch_report_matches_per_character_loop(self, monkeypatch, which, shifted):
        # One presence pattern of the composite is given a wrong homology;
        # the counted report must equal the per-character loop's report.
        import orbiflip.functors as functors
        from orbiflip import Character

        if shifted:  # also put negative offsets ahead of the mismatches
            original_apply = functors._apply_with_powers
            shift = Character((-1, 0), (0, -1, 0))

            def translated(s, functor, u):
                out, powers = original_apply(s, functor, u)
                if functor == "G":
                    out = as_complex(s, out).translate(shift)
                return out, powers

            monkeypatch.setattr(functors, "_apply_with_powers", translated)
        k = 3
        out = _roundtrip_composite(FLOP, k, "GF")
        low, caps = functors._roundtrip_caps(FLOP, k)
        patterns = list(dict.fromkeys(
            out.presence_tables.mask(ch)
            for ch in characters_of_degree(FLOP, "minus", k, low=low, high=caps)
        ))
        assert len(patterns) >= 5
        broken = patterns[which]
        real_at = CellRuns.at

        def breaking(self, cell):
            mask, dims = real_at(self, cell)
            return mask, {0: 2} if mask == broken else dims

        monkeypatch.setattr(CellRuns, "at", breaking)
        got = roundtrip_check(FLOP, k, "GF").details
        want = _per_character_details(FLOP, k, "GF", broken)
        for key in ("strands_checked", "mismatches", "mismatch_count", "matched_sample"):
            assert got[key] == want[key], key
        assert len(got["mismatches"]) == min(10, got["mismatch_count"])
        assert "character" in got["mismatches"][-1]
        assert ("negative_offset" in got["mismatches"][0]) == shifted

    def test_report_serializes(self):
        rep = roundtrip_check(ATIYAH, 1, "HF")
        data = rep.to_json_dict()
        assert data["schema"] == "orbiflip/1"
        assert data["verdict"] is True


def _roundtrip_composite(s, k, pair):
    import orbiflip.functors as functors

    first, second = functors._PAIRS[pair]
    mid = as_complex(s, apply(s, first, k))
    return as_complex(s, functors._apply_with_powers(s, second, mid)[0])


def _run_term_sets(s, k, pair):
    """The distinct run term sets of a round trip's sweep: per box with a
    present term, the AND of its runs' masks off the coordinate with the
    most cuts."""
    import orbiflip.functors as functors

    out = _roundtrip_composite(s, k, pair)
    low, caps = functors._roundtrip_caps(s, k)
    coords = out.presence_tables.coords
    axis = max(range(len(coords)), key=lambda c: len(coords[c][0]))
    runs = set()
    for box, mask, _ in presence_boxes(out, k, low=low, high=caps):
        if mask:
            run = -1
            for c, ((_, masks), (_, _, j)) in enumerate(zip(coords, box)):
                if c != axis:
                    run &= masks[j]
            runs.add(run)
    return runs


def _per_character_details(s, k, pair, broken=None):
    """The reference round-trip sweep: every character visited in
    enumeration order, one strand per presence pattern; the pattern broken,
    if given, gets the wrong homology {0: 2}."""
    import orbiflip.functors as functors
    from orbiflip import single_twist_complex

    out = _roundtrip_composite(s, k, pair)
    low, caps = functors._roundtrip_caps(s, k)
    checked = 0
    mismatches = [
        {"degree": d, "negative_offset": [list(t.offset.alpha), list(t.offset.beta)]}
        for d, ts in sorted(out.terms.items())
        for t in ts
        if not t.offset.is_nonnegative()
    ]
    sample = []
    target = single_twist_complex(s, "minus", k).presence_tables
    memo = {}
    for ch in characters_of_degree(s, "minus", k, low=low, high=caps):
        expected = {0: 1} if target.bases(target.mask(ch))[0] else {}
        pattern = out.presence_tables.mask(ch)
        if pattern not in memo:
            memo[pattern] = {0: 2} if pattern == broken else strand(out, pattern).homology()
        hom = memo[pattern]
        checked += 1
        if hom != expected:
            mismatches.append(
                {"character": [list(ch.alpha), list(ch.beta)],
                 "got": {str(d): h for d, h in hom.items()},
                 "want": {str(d): h for d, h in expected.items()}}
            )
        elif len(sample) < 3 and hom:
            sample.append([list(ch.alpha), list(ch.beta)])
    return {
        "strands_checked": checked,
        "mismatches": mismatches[:10],
        "mismatch_count": len(mismatches),
        "matched_sample": sample,
    }


ROUNDTRIP_JOBS = [
    (text, k, pair)
    for text in ("1,1;1,1", "1,2;1,1,1", "1,1;2,1", "1,2;1,3")
    for k in range(4)
    for pair in ("GF", "HF", "G'F'", "H'F'")
    if "'" not in pair or k >= seq(text).sum_b - seq(text).sum_a
]


class TestCellRunsAgainstStrands:
    """The run engine of the round-trip sweep against one strand per mask
    and one visit per character."""

    @settings(max_examples=2 * len(ROUNDTRIP_JOBS), deadline=None)
    @given(st.sampled_from(ROUNDTRIP_JOBS))
    def test_every_box_matches_its_strand(self, job):
        import orbiflip.functors as functors

        text, k, pair = job
        s = seq(text)
        out = _roundtrip_composite(s, k, pair)
        assert out.reference_degree == k
        low, caps = functors._roundtrip_caps(s, k)
        runs = CellRuns(out)
        summed = {}
        for box, mask, count in presence_boxes(out, k, low=low, high=caps):
            got, dims = runs.at(tuple(j for _, _, j in box))
            assert got == mask
            assert dims == strand(out, mask).homology(), (job, box)
            summed[mask] = summed.get(mask, 0) + count
        assert summed == count_presence(out, k, low=low, high=caps)
        mask_of = out.presence_tables.mask
        visited = Counter(
            mask_of(ch) for ch in characters_of_degree(s, "minus", k, low=low, high=caps)
        )
        assert summed == visited
        # Every cell of the composite, not only those of degree k, where the
        # homology also takes other values than {0: 1}.
        homology = {}
        for cell, mask, dims in CellRuns(out).cells():
            if mask not in homology:
                homology[mask] = strand(out, mask).homology()
            assert runs.at(cell) == (mask, dims)
            assert dims == homology[mask], (job, cell)


class TestEquivalenceSuite:
    def test_atiyah_small_range(self):
        rep = equivalence_suite(ATIYAH, range(0, 3))
        assert rep.verdict
        # GF, HF, G'F', H'F' for each k, plus the mirrored GF/HF pairs.
        assert len(rep.children) == 3 * 4 + 3 * 2

    def test_flip_runs_unprimed_and_in_range_primed(self):
        rep = equivalence_suite(seq("1,1;2,1"), range(0, 3))
        assert rep.verdict
        pairs = [c.inputs["pair"] for c in rep.children]
        assert pairs.count("GF") == 3
        assert pairs.count("G'F'") == 2  # k >= sum(b) - sum(a) = 1

    def test_limits_refused_before_any_round_trip(self, monkeypatch):
        # The first job over a limit raises what it would raise when run,
        # but before the jobs ahead of it sweep anything.
        import orbiflip.functors as functors
        from orbiflip import BoxTooLarge

        calls = []
        original = functors.roundtrip_check

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(functors, "roundtrip_check", counting)
        with pytest.raises(Unsupported, match="threshold 65 above the strand-size cap 64"):
            equivalence_suite(ATIYAH, range(0, 200))
        with pytest.raises(BoxTooLarge, match="character box of size > 4000000"):
            equivalence_suite(seq("1,1,1;1,1,1"), [0, 1, 30])
        assert calls == []

    @pytest.mark.parametrize(
        "text, ks, cap",
        [("1,1;1,1", range(0, 8), 4), ("1,2;1,1,1", range(0, 8), 5),
         ("1,2,3;1,5", range(0, 8), 6), ("1,1,1;1,1,1", [0, 1, 30], 64)],
    )
    def test_refusal_is_the_first_error_of_the_jobs_in_order(self, monkeypatch, text, ks, cap):
        # Running the planned jobs one by one in order must meet no error
        # before the refused job, and there the suite's error.
        import orbiflip.functors as functors
        import orbiflip.resolution as resolution
        from orbiflip import OrbiflipError

        monkeypatch.setattr(resolution, "THRESHOLD_CAP", cap)
        planned = []
        original = functors._plan_roundtrip

        def recording(*job):
            planned.append(job)
            return original(*job)

        monkeypatch.setattr(functors, "_plan_roundtrip", recording)
        with pytest.raises(OrbiflipError) as refused:
            equivalence_suite(seq(text), ks)
        *ahead, last = list(planned)
        for job in ahead:
            roundtrip_check(*job)
        with pytest.raises(type(refused.value)) as met:
            roundtrip_check(*last)
        assert str(met.value) == str(refused.value)

    def test_plans_each_job_once_and_resolves_each_first_image_once(self, monkeypatch):
        # On the Atiyah flop at k = 2: GF, HF, G'F', H'F' and the swapped GF
        # and HF, whose sequence is the same, so there are four distinct jobs
        # and F and F' have two first images between them; each second
        # functor's image is resolved on its own.
        from collections import Counter

        import orbiflip.functors as functors

        planned, resolved = [], []
        real_plan, real_as_complex = functors._plan_roundtrip, functors.as_complex

        def plan(*job):
            planned.append(job)
            return real_plan(*job)

        def as_complex(s, obj):
            resolved.append(obj)
            return real_as_complex(s, obj)

        monkeypatch.setattr(functors, "_plan_roundtrip", plan)
        monkeypatch.setattr(functors, "as_complex", as_complex)
        report = equivalence_suite(ATIYAH, [2])
        assert report.verdict
        jobs = [(ATIYAH, 2, c.inputs["pair"]) for c in report.children]
        assert planned == list(dict.fromkeys(jobs)) and len(planned) == 4
        firsts = {apply(ATIYAH, first, 2) for first in ("F", "Fprime")}
        assert all(isinstance(image, IdealImage) for image in firsts)
        assert Counter(obj for obj in resolved if obj in firsts) == dict.fromkeys(firsts, 1)

    def test_self_swapped_flop_runs_each_round_trip_once(self, monkeypatch):
        # (1,1;1,1) is its own swap, so its mirrored GF and HF repeat the
        # first two jobs: each runs once and is reported at both places.
        import orbiflip.functors as functors

        calls = []
        original = functors.roundtrip_check

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(functors, "roundtrip_check", counting)
        report = equivalence_suite(ATIYAH, [2])
        monkeypatch.undo()
        assert calls == [(ATIYAH, 2, pair) for pair in ("GF", "HF", "G'F'", "H'F'")]
        pairs = ["GF", "HF", "G'F'", "H'F'", "GF", "HF"]
        assert [c.inputs["pair"] for c in report.children] == pairs
        assert [c.to_json_dict() for c in report.children] == [
            roundtrip_check(ATIYAH, 2, pair).to_json_dict() for pair in pairs
        ]

    def test_non_integer_k_refused_before_planning(self, monkeypatch):
        # A float or a bool is not truncated or read as 1; the single round
        # trip refuses it the same way.
        from fractions import Fraction

        import orbiflip.functors as functors

        planned = []
        monkeypatch.setattr(functors, "_plan_roundtrip", lambda *job: planned.append(job))
        for bad in (1.5, True, Fraction(2), "2"):
            for ks in ([bad], [0, bad]):
                with pytest.raises(Unsupported, match="integer k"):
                    equivalence_suite(ATIYAH, ks)
        assert planned == []
        monkeypatch.undo()
        for bad in (1.5, True):
            with pytest.raises(Unsupported, match="integer k"):
                roundtrip_check(ATIYAH, bad, "GF")

    def test_range_without_nonnegative_k_raises(self):
        # Zero round trips would pass vacuously.
        with pytest.raises(Unsupported):
            equivalence_suite(ATIYAH, range(-3, 0))
        with pytest.raises(Unsupported):
            equivalence_suite(seq("1,1;2,1"), [-1])


class TestAdjunction:
    def test_structure_sheaves(self):
        assert adjunction_check(ATIYAH, 0, 0).verdict

    def test_flop_mixed_twists(self):
        assert adjunction_check(FLOP, 1, 0).verdict

    def test_degenerate_box_vacuous(self):
        rep = adjunction_check(ATIYAH, 0, 0, box=0)
        assert rep.verdict


class TestSuites:
    def test_pushforward_oracle_small(self):
        rep = pushforward_oracle_suite(ATIYAH, s_box=3, char_box=4)
        assert rep.verdict
        ncf_rows = [r for r in rep.details["rows"] if r["image"] == "NotClosedForm"]
        assert ncf_rows and ncf_rows[0]["fiber_cohomology"][ATIYAH.n - 1] > 0

    def test_pushforward_sweep_counted_against_the_enumeration_limit(self, monkeypatch):
        # Atiyah flop, s_box = 1: 2 * 2 * sum(b) * 3 = 24 tables, the count
        # the sweep computes.
        from orbiflip import functors, linalg

        calls = []
        monkeypatch.setattr(functors, "cohomology_table", lambda *args, **kwargs: calls.append(args))
        monkeypatch.setattr(linalg, "ENUMERATION_LIMIT", 24)
        pushforward_oracle_suite(ATIYAH, s_box=1, char_box=2)
        assert len(calls) == 24
        monkeypatch.setattr(linalg, "ENUMERATION_LIMIT", 23)

        def forbidden(*args, **kwargs):
            raise AssertionError("a cohomology table was computed")

        monkeypatch.setattr(functors, "cohomology_table", forbidden)
        with pytest.raises(Unsupported, match="needs 24 cohomology tables, above the enumeration limit 23"):
            pushforward_oracle_suite(ATIYAH, s_box=1, char_box=2)

    def test_serre_suite(self):
        assert serre_duality_suite([(1, 1), (1, 2)], k_bound=6).verdict

    def test_example51_small(self):
        rep = example51_verify(s_values=(0, 1), box=4)
        assert rep.verdict


class TestSheafLevelCrossCheck:
    def test_single_twist_hypercohomology_matches_table(self):
        # The Cech double complex engine and the memoized pattern tables are
        # different code paths; on one-term complexes they must agree.
        from orbiflip import cohomology_table, hypercohomology_table
        from orbiflip.linalg import single_twist_complex

        for space, twist in [("minus", 0), ("minus", -2), ("plus", 1), ("Y", (1, 1))]:
            cx = single_twist_complex(FLOP, space, twist)
            assert hypercohomology_table(cx, 3) == cohomology_table(
                FLOP, space, twist, 3
            ), (space, twist)

    def test_roundtrip_quasi_isomorphism_at_sheaf_level(self):
        # Beyond section strands: the full Cech hypercohomology of the GF
        # complex must equal the cohomology table of O(k), higher rows
        # included.  Both tables are clipped to the common exponent range
        # (the complex's offset envelope widens its enumeration region).
        from orbiflip import cohomology_table, hypercohomology_table

        def clip(table, bound):
            return {
                ch: dims
                for ch, dims in table.items()
                if all(-bound <= e <= bound for e in ch.alpha + ch.beta)
            }

        k = 1
        mid = as_complex(FLOP, apply(FLOP, "F", k))
        out = apply(FLOP, "G", mid)
        left = clip(hypercohomology_table(out, 3), 3)
        right = clip(cohomology_table(FLOP, "minus", k, 3), 3)
        assert left == right
        assert any(0 not in dims for dims in right.values()) or right


class TestSweepInvariant:
    def test_small_flop_sweep(self):
        # Round trips hold for every small well-formed flop in this family.
        for text in ["1,1;1,1", "1,2;1,2", "2,1;1,2"]:
            s = seq(text)
            if s.klevel() != 0 or s.sum_a > s.sum_b:
                continue
            for k in range(0, 3):
                assert roundtrip_check(s, k, "GF").verdict, (text, k)
                assert roundtrip_check(s, k, "HF").verdict, (text, k)

    def test_corkey_family_sample(self):
        # Deterministic sample of the well-formed m,n >= 2 family with
        # entries <= 4 and sum(a) <= sum(b): GF/HF for k in [0,6], primed
        # pairs from sum(b) - 1 on; every intermediate Ebar power inside GF
        # stays in [0, sum(a) - 1].
        from orbiflip import is_well_formed

        family = [
            "1,1;1,1",
            "1,2;1,2",
            "1,2;2,1",
            "1,3;1,3",
            "1,1;1,2",
            "1,1;2,2",  # not well-formed; must be skipped
            "1,2;1,1,1",
            "1,1;1,1,2",
            "2,3;1,4",
            "1,4;2,3",
            "1,1,2;1,3",
        ]
        checked = 0
        for text in family:
            s = seq(text)
            if not is_well_formed(s) or s.sum_a > s.sum_b:
                continue
            for k in (0, 2, 4, 6):
                gf = roundtrip_check(s, k, "GF")
                assert gf.verdict, (text, k)
                top = s.sum_a - 1
                assert all(0 <= p <= top for p in gf.details["ebar_powers"]), (
                    text,
                    k,
                    gf.details["ebar_powers"],
                )
                assert roundtrip_check(s, k, "HF").verdict, (text, k)
                if k >= s.sum_b - 1:
                    assert roundtrip_check(s, k, "G'F'").verdict, (text, k)
                    assert roundtrip_check(s, k, "H'F'").verdict, (text, k)
                checked += 1
        assert checked >= 20
