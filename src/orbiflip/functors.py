"""The six wall-crossing functors and their desk-scale verification.

Each functor is a pipeline: pull back to the fiber product Y, twist by a
power of the exceptional class Ebar (a relative dualizing sheaf or a ratio of
the two), push forward to the other side:

    F  = push+ . pull-                    G  = push- . (x omega_{Y/X+}) . pull+
    F' = push+ . (x omega_{Y/X-}) . pull- H  = push- . (x omega_{Y/X-}) . pull+
    H' = push- . pull+                    G' = push- . (x omega_{Y/X+} / omega_{Y/X-}) . pull+

(H, F, G) and (H', F', G') are adjoint triples.  On line-bundle complexes the
pipelines act termwise; threshold-ideal images are re-expanded through their
minimal resolutions when they feed another functor.  Verification is per
torus character on finite boxes: round trips compare strand homology against
the identity, adjunctions compare graded Hom tables computed by the Cech
oracle, and the cotangent example checks a skyscraper hypercohomology
signature.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Union

from . import linalg
from .errors import (
    InconsistentDegrees,
    PreconditionKLevel,
    PushforwardNotClosedForm,
    Unsupported,
)
from .linalg import (
    SPACE_MINUS,
    SPACE_PLUS,
    SPACE_Y,
    Character,
    MonomialComplex,
    Term,
    characters_of_degree,
    check_box,
    count_presence,
    single_twist_complex,
    strand,
)
from .resolution import build_resolution, check_threshold
from .sheaves import (
    cohomology_table,
    euler_cotangent_complex,
    hypercohomology_bounds,
    hypercohomology_table,
    hypercohomology_table_bounded,
    pushforward_rule,
    total_cohomology,
    wps_cohomology_totals,
)
from .weights import WeightSequence, is_well_formed

FUNCTOR_NAMES = ("F", "G", "H", "Fprime", "Gprime", "Hprime")

_PAIRS = {
    "GF": ("F", "G"),
    "HF": ("F", "H"),
    "G'F'": ("Fprime", "Gprime"),
    "H'F'": ("Fprime", "Hprime"),
}


@dataclass(frozen=True)
class FunctorSpec:
    """A sequence-bound pipeline (pull side, Ebar twist power, push side)."""

    name: str
    pull_side: str
    push_side: str
    ebar_power: int

    @classmethod
    def for_sequence(cls, name: str, seq: WeightSequence) -> "FunctorSpec":
        sa, sb = seq.sum_a, seq.sum_b
        table = {
            "F": (SPACE_MINUS, SPACE_PLUS, 0),
            "G": (SPACE_PLUS, SPACE_MINUS, sa - 1),
            "H": (SPACE_PLUS, SPACE_MINUS, sb - 1),
            "Fprime": (SPACE_MINUS, SPACE_PLUS, sb - 1),
            "Gprime": (SPACE_PLUS, SPACE_MINUS, sa - sb),
            "Hprime": (SPACE_PLUS, SPACE_MINUS, 0),
        }
        if name not in table:
            raise Unsupported(f"unknown functor {name!r}")
        pull, push, power = table[name]
        return cls(name, pull, push, power)


@dataclass(frozen=True)
class IdealImage:
    """A pushforward image I_index(twist) on a side, with strand bookkeeping."""

    side: str
    index: int
    twist: int
    offset: Character
    degree: int = 0

    def render(self) -> str:
        return f"I_{self.index}({self.twist}) on {self.side}"


SheafObject = Union[MonomialComplex, IdealImage]


def _coerce_input(seq: WeightSequence, side: str, u) -> MonomialComplex:
    if isinstance(u, MonomialComplex):
        if u.space != side:
            raise Unsupported(f"object lives on {u.space!r}, functor pulls from {side!r}")
        if u.seq != seq:
            raise InconsistentDegrees(f"object lives over {u.seq}, functor acts over {seq}")
        return u
    if isinstance(u, IdealImage):
        return as_complex(seq, u)
    if isinstance(u, int):
        return single_twist_complex(seq, side, u)
    raise Unsupported(f"cannot interpret {u!r} as an object")


def as_complex(seq: WeightSequence, obj: SheafObject) -> MonomialComplex:
    """Expand an ideal image through its minimal resolution; pass complexes through."""
    if isinstance(obj, MonomialComplex):
        return obj
    cx = build_resolution(seq, obj.index, obj.side, extra_twist=obj.twist)
    if obj.degree or any(obj.offset.alpha) or any(obj.offset.beta):
        cx = cx.translate(obj.offset, obj.degree)
    return cx


def pull_complex(cx: MonomialComplex) -> MonomialComplex:
    """Termwise pullback to Y of cx's sequence; the differential is shared
    (see MonomialComplex.map_terms)."""
    if cx.space == SPACE_MINUS:
        lift = lambda t: (t, 0)
    elif cx.space == SPACE_PLUS:
        lift = lambda t: (0, t)
    else:
        raise Unsupported(f"pullback starts from a side, not {cx.space!r}")
    return cx.map_terms(SPACE_Y, lambda t: Term(lift(t.twist), t.offset))


def push_complex(ycx: MonomialComplex, side: str) -> tuple[SheafObject, list[int]]:
    """Termwise pushforward by the closed-form rules of ycx's sequence; the
    differential of a complex of line images is shared (see
    MonomialComplex.map_terms).

    Returns the pushed object and the list of Ebar powers consumed.  A single
    term pushing to a threshold ideal gives an IdealImage; mid-complex ideal
    images are out of scope and raise; a term outside every closed-form range
    raises PushforwardNotClosedForm with the offending twist.
    """
    if ycx.space != SPACE_Y:
        raise Unsupported("pushforward starts on Y")
    powers: list[int] = []
    single = ycx.term_count() == 1
    lines: dict[tuple[int, int], int] = {}
    for d, ts in sorted(ycx.terms.items()):
        for t in ts:
            powers.append(-t.twist[1] if side == SPACE_MINUS else -t.twist[0])
            if t.twist in lines:
                continue
            res = pushforward_rule(ycx.seq, side, t.twist)
            if res.kind == "line":
                lines[t.twist] = res.twist
            elif res.kind == "ideal":
                if not single:
                    raise Unsupported(
                        "a mid-complex term pushed to a threshold ideal; "
                        "re-resolve the object before pushing"
                    )
                return (
                    IdealImage(side, res.ideal_index, res.twist, t.offset, d),
                    powers,
                )
            else:
                raise PushforwardNotClosedForm(
                    f"term O{t.twist} has no closed-form image on {side}", pq=t.twist
                )
    return ycx.map_terms(side, lambda t: Term(lines[t.twist], t.offset)), powers


def _apply_with_powers(
    seq: WeightSequence, functor: str, u
) -> tuple[SheafObject, list[int]]:
    """apply() plus the Ebar powers met at the pushforward."""
    spec = FunctorSpec.for_sequence(functor, seq)
    cx = _coerce_input(seq, spec.pull_side, u)
    ycx = pull_complex(cx)
    c = spec.ebar_power
    if c:
        ycx = ycx.tensor((-c, -c))
    return push_complex(ycx, spec.push_side)


def apply(seq: WeightSequence, functor: str, u) -> SheafObject:
    """Evaluate the named functor on a line-bundle complex, an integer twist
    or an ideal image.

    Composites that push resolution images to the minus side need
    sum(a) <= sum(b); roundtrip_check enforces that precondition and this
    evaluator surfaces any range violation as PushforwardNotClosedForm.
    """
    return _apply_with_powers(seq, functor, u)[0]


@dataclass
class VerificationReport:
    """Outcome of one verification: inputs, output summary, target, tables."""

    title: str
    inputs: dict
    output: str
    target: str
    verdict: bool
    details: dict = field(default_factory=dict)
    children: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "schema": "orbiflip/1",
            "title": self.title,
            "inputs": self.inputs,
            "output": self.output,
            "target": self.target,
            "verdict": self.verdict,
            "details": self.details,
            "children": [c.to_json_dict() for c in self.children],
        }


def _require_roundtrip_preconditions(seq: WeightSequence):
    if not is_well_formed(seq):
        raise Unsupported(f"({seq}) is not well-formed; normalize first")
    if seq.m < 2 or seq.n < 2:
        raise Unsupported("round trips need m, n >= 2")
    if seq.sum_a > seq.sum_b:
        raise PreconditionKLevel(
            f"sum(a) = {seq.sum_a} > {seq.sum_b} = sum(b); "
            "run the swapped sequence instead"
        )


def _integer_k(k) -> int:
    if isinstance(k, bool) or not isinstance(k, int):
        raise Unsupported(f"round trips need an integer k, not {k!r}")
    return k


def _roundtrip_caps(seq: WeightSequence, k: int):
    scale = k + seq.sum_a + seq.sum_b
    alpha = tuple(scale // w + 1 for w in seq.a)
    beta = tuple(scale // w + 1 for w in seq.b)
    return (0, (alpha, beta))


def _plan_roundtrip(seq: WeightSequence, k: int, pair: str):
    """The refusals of a round trip that need no resolution, in the order
    roundtrip_check meets them: the preconditions, k >= 0, the pair, a
    threshold ideal image of O(k) above the resolution cap, and a sweep box
    above the enumeration limit.  Returns the first functor's image of O(k)
    and the sweep box (low, caps).  The checks on the second functor's image
    and its Ebar powers need the resolved middle complex and run with the
    round trip."""
    _require_roundtrip_preconditions(seq)
    if _integer_k(k) < 0:
        raise Unsupported("round trips are stated for k >= 0")
    if pair not in _PAIRS:
        raise Unsupported(f"unknown round-trip pair {pair!r}")
    image = apply(seq, _PAIRS[pair][0], k)
    if isinstance(image, IdealImage):
        check_threshold(image.index)
    low, caps = _roundtrip_caps(seq, k)
    check_box(seq, low=low, high=caps)
    return image, low, caps


def roundtrip_check(seq: WeightSequence, k: int, pair: str, *, plan=None) -> VerificationReport:
    """Check that a composite round trip fixes O(k) on the minus side.

    pair is one of GF, HF, G'F', H'F'.  The composite complex is compared
    against O(k) strand by strand at every character of degree k with
    nonnegative exponents in a box whose degree scale exceeds
    k + sum(a) + sum(b).  Each such character is a section of O(k), so the
    composite's strand homology must be one-dimensional in degree 0 there.
    The characters are not visited one by one: count_presence counts them
    per presence mask of the composite, one strand is reduced per mask,
    and each mask's count goes to strands_checked (and to the mismatches
    when its homology is not {0: 1}).  Only the reported first mismatches
    and matched samples come from a scan in enumeration order, which stops
    once the counts say they are all found.  Characters with a negative exponent
    are checked all at once: when every term offset of the composite is
    >= 0, every strand there is empty, as O(k)'s is, so a negative offset is
    reported as a mismatch and fails the verdict.
    equivalence_suite alone passes plan: the job's resolved first image and
    sweep box (mid, low, caps), so that it plans each job once.
    """
    if plan is None:
        image, low, caps = _plan_roundtrip(seq, k, pair)
        plan = as_complex(seq, image), low, caps
    mid, low, caps = plan
    out, powers = _apply_with_powers(seq, _PAIRS[pair][1], mid)
    if isinstance(out, IdealImage):
        out = as_complex(seq, out)
    top = seq.sum_b - 1
    if any(p < 0 or p > top for p in powers):
        raise PushforwardNotClosedForm(
            f"intermediate Ebar power outside [0, {top}]: {sorted(set(powers))}"
        )

    mismatches = [
        {"degree": d, "negative_offset": [list(t.offset.alpha), list(t.offset.beta)]}
        for d, ts in sorted(out.terms.items())
        for t in ts
        if not t.offset.is_nonnegative()
    ]
    # Every character of the box has exponents >= 0 and minus-degree k, so
    # it is a section of O(k), whose strand there is one-dimensional in
    # degree 0.  Strand homology is a function of the composite's presence
    # mask alone, so each mask builds and checks its strand once; the mask's
    # characters are counted.
    expected = {0: 1}
    cells = count_presence(out, k, low=low, high=caps)
    homology = {}
    checked = wrong = 0
    for mask, count in cells.items():
        st = strand(out, mask)
        hom = homology[mask] = st.homology()
        if sum((-1) ** d * h for d, h in hom.items()) != st.euler_characteristic():
            raise InconsistentDegrees("strand Euler characteristic broke")
        checked += count
        if hom != expected:
            wrong += count
    matched = checked - wrong
    mismatch_count = len(mismatches) + wrong
    # The report lists the first mismatches and matches in enumeration
    # order: scan until the quotas that the counts allow are met.
    quota = len(mismatches) + min(max(10 - len(mismatches), 0), wrong)
    want_matched = min(3, matched)
    sample = []
    if len(mismatches) < quota or want_matched:
        mask_of = out.presence_tables.mask
        for ch in characters_of_degree(seq, SPACE_MINUS, k, low=low, high=caps):
            hom = homology[mask_of(ch)]
            if hom != expected:
                if len(mismatches) < quota:
                    mismatches.append(
                        {"character": [list(ch.alpha), list(ch.beta)],
                         "got": {str(d): h for d, h in hom.items()},
                         "want": {str(d): h for d, h in expected.items()}}
                    )
            elif len(sample) < want_matched:
                sample.append([list(ch.alpha), list(ch.beta)])
            if len(mismatches) == quota and len(sample) == want_matched:
                break
    verdict = not mismatch_count and checked > 0
    return VerificationReport(
        title=f"roundtrip {pair}",
        inputs={"seq": str(seq), "k": k, "pair": pair},
        output=json.dumps(out.summary(), sort_keys=True),
        target=f"O({k}) on X- in degree 0",
        verdict=verdict,
        details={
            "strands_checked": checked,
            "mismatches": mismatches[:10],
            "mismatch_count": mismatch_count,
            "ebar_powers": sorted(set(powers)),
            "matched_sample": sample,
        },
    )


def _common_hom_tables(left: MonomialComplex, right: MonomialComplex, box: int):
    """Hypercohomology tables of two Hom complexes over their common region.

    The two sides of an adjunction live on different spaces with different
    offset envelopes; graded dimensions are compared on the intersection of
    the box-padded regions so neither table sees strands the other skipped.
    """
    (l_lo, l_hi) = hypercohomology_bounds(left, box)
    (r_lo, r_hi) = hypercohomology_bounds(right, box)
    lows = (
        tuple(map(max, l_lo[0], r_lo[0])),
        tuple(map(max, l_lo[1], r_lo[1])),
    )
    highs = (
        tuple(map(min, l_hi[0], r_hi[0])),
        tuple(map(min, l_hi[1], r_hi[1])),
    )
    return (
        hypercohomology_table_bounded(left, lows, highs),
        hypercohomology_table_bounded(right, lows, highs),
    )


def adjunction_check(
    seq: WeightSequence, u_twist: int, v_twist: int, box: int = 4
) -> VerificationReport:
    """Graded Hom tables for both adjunctions of the (H, F, G) triple.

    Per character and cohomological degree,
        dim Hom(F(u), v) == dim Hom(u, G(v)) and
        dim Hom(H(v), u) == dim Hom(v, F(u)),
    with Hom complexes expanded through resolutions and evaluated by the Cech
    oracle over the common box of each pair.
    """
    _require_roundtrip_preconditions(seq)
    cf = as_complex(seq, apply(seq, "F", u_twist))
    cg = as_complex(seq, apply(seq, "G", v_twist))
    ch_ = as_complex(seq, apply(seq, "H", v_twist))

    t1a, t1b = _common_hom_tables(cf.dual_into(v_twist), cg.tensor(-u_twist), box)
    t2a, t2b = _common_hom_tables(ch_.dual_into(u_twist), cf.tensor(-v_twist), box)

    first = t1a == t1b
    second = t2a == t2b

    def summarize(ta, tb):
        keys = set(ta) | set(tb)
        diffs = [
            {
                "character": [list(key[0]), list(key[1])],
                "left": {str(d): h for d, h in sorted(ta.get(key, {}).items())},
                "right": {str(d): h for d, h in sorted(tb.get(key, {}).items())},
            }
            for key in sorted(keys)
            if ta.get(key, {}) != tb.get(key, {})
        ]
        return {"entries": len(keys), "differences": diffs[:10]}

    return VerificationReport(
        title="adjunction (H, F, G)",
        inputs={"seq": str(seq), "u": u_twist, "v": v_twist, "box": box},
        output=f"Hom tables with {len(t1a)}/{len(t2a)} nonzero rows",
        target="Hom(F u, v) = Hom(u, G v) and Hom(H v, u) = Hom(v, F u)",
        verdict=first and second,
        details={
            "right_adjoint": summarize(t1a, t1b),
            "left_adjoint": summarize(t2a, t2b),
        },
    )


def equivalence_suite(seq: WeightSequence, k_range) -> VerificationReport:
    """Round trips over a k-range, in every variant the K-level admits.

    GF and HF run for every k >= 0 in the range; the primed pairs run for
    k >= sum(b) - sum(a), where their pushforwards stay in closed form (for a
    flop that is the whole range).  For flops the mirrored round trips on the
    plus side run through the swapped sequence.  A k that is not an int, a
    bool, or a range with no k >= 0, which would check nothing, raises
    Unsupported.  Every job is planned (_plan_roundtrip) once, before the
    first round trip runs, so a threshold above the resolution cap or a box
    above the enumeration limit anywhere in the range is refused, with the
    first such job's error, before any sweep.  Jobs of one (seq, k) and first
    functor share its resolved image.
    """
    _require_roundtrip_preconditions(seq)
    ks = sorted(set(map(_integer_k, k_range)))
    if not ks:
        raise Unsupported("empty k-range")
    gap = seq.sum_b - seq.sum_a
    nonnegative = [k for k in ks if k >= 0]
    if not nonnegative:
        raise Unsupported(f"no k >= 0 in the k-range {ks}; round trips are stated for k >= 0")
    jobs = [(seq, k, pair) for k in nonnegative for pair in _PAIRS if k >= gap or "'" not in pair]
    if seq.klevel() == 0:
        swapped = seq.swap()
        jobs += [(swapped, k, pair) for k in nonnegative for pair in ("GF", "HF")]
    plans = [_plan_roundtrip(*job) for job in jobs]
    mids: dict = {}
    children = []
    for (s, k, pair), (image, low, caps) in zip(jobs, plans):
        key = (s, k, _PAIRS[pair][0])
        if key not in mids:
            mids[key] = as_complex(s, image)
        children.append(roundtrip_check(s, k, pair, plan=(mids[key], low, caps)))
    verdict = all(c.verdict for c in children)
    return VerificationReport(
        title="equivalence suite",
        inputs={"seq": str(seq), "k_range": ks},
        output=f"{len(children)} round trips",
        target="all round trips quasi-isomorphic to the identity",
        verdict=verdict,
        details={
            "failures": [c.inputs for c in children if not c.verdict],
        },
        children=children,
    )


def pushforward_oracle_suite(
    seq: WeightSequence, s_box: int = 6, char_box: int = 6
) -> VerificationReport:
    """Closed-form pushforwards against the Cech oracle, per character.

    For every Ebar-twist slot q in [1 - sum(b), sum(b)] and every tensor
    twist s, the cohomology table of O(q + s, q) on Y must equal the table of
    the asserted image (O(s) or the threshold ideal I_q(s)) on X-.  The slot
    q = -sum(b) has no closed form: the rule reports NotClosedForm and the
    oracle exhibits the nonzero top direct image on the exceptional fiber.

    The sweep computes two tables per slot and twist, 2 * 2 sum(b) *
    (2 s_box + 1) in all; more than linalg.ENUMERATION_LIMIT, read at call
    time, are refused with Unsupported before the first one.
    """
    if seq.m < 2 or seq.n < 2:
        raise Unsupported("pushforward suites need m, n >= 2")
    tables = 2 * 2 * seq.sum_b * (2 * s_box + 1)
    if tables > linalg.ENUMERATION_LIMIT:
        raise Unsupported(
            f"pushforward sweep of {seq} needs {tables} cohomology tables, above "
            f"the enumeration limit {linalg.ENUMERATION_LIMIT}"
        )
    rows = []
    ok = True
    for q in range(1 - seq.sum_b, seq.sum_b + 1):
        rule = pushforward_rule(seq, SPACE_MINUS, (q, q))
        bad = []
        for s in range(-s_box, s_box + 1):
            ytab = cohomology_table(seq, SPACE_Y, (q + s, q), char_box)
            if rule.kind == "line":
                xtab = cohomology_table(seq, SPACE_MINUS, rule.twist + s, char_box)
            else:
                xtab = cohomology_table(
                    seq, SPACE_MINUS, rule.twist + s, char_box,
                    threshold=rule.ideal_index,
                )
            if ytab != xtab:
                bad.append(s)
        good = not bad
        ok = ok and good
        rows.append({"q": q, "image": rule.render(), "ok": good, "bad_s": bad})

    q0 = -seq.sum_b
    rule0 = pushforward_rule(seq, SPACE_MINUS, (q0, q0))
    fiber = wps_cohomology_totals(seq.b, -seq.sum_b)
    exhibits = rule0.kind == "not_closed_form" and fiber[seq.n - 1] > 0
    ok = ok and exhibits
    rows.append(
        {
            "q": q0,
            "image": rule0.render(),
            "ok": exhibits,
            "fiber_cohomology": fiber,
        }
    )
    return VerificationReport(
        title="pushforward oracle agreement",
        inputs={"seq": str(seq), "s_box": s_box, "char_box": char_box},
        output=f"{len(rows)} Ebar slots checked",
        target="closed forms match the oracle; the out-of-range slot shows a "
        "nonzero higher direct image on the fiber",
        verdict=ok,
        details={"rows": rows},
    )


def serre_duality_suite(weight_lists, k_bound: int = 12) -> VerificationReport:
    """h^i(O(k)) == h^(dim - i)(O(-sum(w) - k)) on weighted projective spaces.

    Exact totals (the contributing character regions are finite), swept over
    |k| <= k_bound for each weight list.
    """
    rows = []
    ok = True
    for weights in weight_lists:
        weights = tuple(weights)
        bad = []
        for k in range(-k_bound, k_bound + 1):
            left = wps_cohomology_totals(weights, k)
            right = wps_cohomology_totals(weights, -sum(weights) - k)
            if left != right[::-1]:
                bad.append(k)
        good = not bad
        ok = ok and good
        rows.append({"weights": list(weights), "ok": good, "bad_k": bad})
    return VerificationReport(
        title="Serre duality on weighted projective spaces",
        inputs={"spaces": [list(w) for w in weight_lists], "k_bound": k_bound},
        output=f"{len(rows)} spaces checked",
        target="dual cohomology tables agree exactly",
        verdict=ok,
        details={"rows": rows},
    )


def example51_verify(s_values=range(-2, 4), box: int = 5) -> VerificationReport:
    """The cotangent-object transform on (1,2;1,1,1).

    Both displayed pipelines are evaluated: push- . pull+ on the cotangent
    object twisted by -1, and push- . (x omega_{Y/X+}) . pull+ on the twist
    by +1.  The hypercohomology of the image tensored with O(s) is computed
    on Y (pushforward preserves hypercohomology), and must be a single
    dimension in degree 1 for odd s and zero for even s: the signature of the
    skyscraper at the half-point with its nontrivial character.
    """
    seq = WeightSequence((1, 2), (1, 1, 1))
    variant_a = pull_complex(euler_cotangent_complex(seq, SPACE_PLUS, -1))
    c = seq.sum_a - 1
    variant_b = pull_complex(euler_cotangent_complex(seq, SPACE_PLUS, 1)).tensor(
        (-c, -c)
    )

    rows = []
    ok = True
    for s in s_values:
        expected = {1: 1} if s % 2 else {}
        for name, ycx in (("Lpull+", variant_a), ("pull+!", variant_b)):
            totals = total_cohomology(hypercohomology_table(ycx.tensor((s, 0)), box))
            good = totals == expected
            ok = ok and good
            rows.append(
                {
                    "pipeline": name,
                    "s": s,
                    "totals": {str(d): h for d, h in sorted(totals.items())},
                    "expected": {str(d): h for d, h in sorted(expected.items())},
                    "ok": good,
                }
            )
    pattern = "skyscraper on minus[2] with character (1) in degree 1"
    return VerificationReport(
        title="cotangent transform signature",
        inputs={"seq": str(seq), "s_values": list(s_values), "box": box},
        output="hypercohomology totals per twist",
        target=pattern,
        verdict=ok,
        details={"rows": rows, "pattern": pattern},
    )
