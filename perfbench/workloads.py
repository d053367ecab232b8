"""Seeded inputs of the three workloads and the answers they must give.

A workload is a list of ops.  Each op is a plain tuple (kind, *args) that the
worker hands to orbiflip one at a time.  The seed fixes every sampled input
and the places of the cli ops; the same seed always gives the same list.

The reference answers here are computed without orbiflip: minimal generator
degrees and Hilbert functions of threshold ideals come from monomial counts,
cohomology of weighted projective spaces from the same counts, and the chart,
classification and cotangent facts are the statements of the paper.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

WORKLOADS = ("roundtrip", "oracle_cli", "resolve")

# roundtrip: one op is equivalence_suite(seq, [k]).  Sized to about five
# seconds of work per pass; the flop (1,2;1,1,1) also runs its swapped
# sequence (1,1,1;1,2), whose strand extraction is the heaviest op.
#
# The roundtrip ops and the oracle ops of oracle_cli run in a fixed order
# that the seed does not change.  Ops of different sequences share memo
# caches (module_resolution of a common side, the Cech pattern memos), so a
# seeded order would move which op pays for filling them: the total work
# stays the same, but op_p50_ms moves by up to 30% from seed to seed.
ROUNDTRIP_SETS = (
    ("1,1;1,1", range(0, 6)),
    ("1,2;1,1,1", range(0, 3)),
    ("1,2,3;1,5", range(0, 3)),
    ("1,1;2,1", range(0, 7)),
)

# oracle_cli: the criterion-2 sequences, the cotangent example and
# adjunctions, with the orbiflip commands of cli_ops placed among them.
PUSHFORWARD_SEQS = ("1,1;1,1", "1,2;1,1,1", "1,5;2,3", "1,2,3;1,5")
PUSHFORWARD_S_BOX = 2
PUSHFORWARD_CHAR_BOX = 4
EXAMPLE51_S = range(-2, 4)
EXAMPLE51_BOX = 2
ADJUNCTION_SEQS = ("1,2;1,1,1", "1,2,3;1,5")

# resolve: Betti read-off sampled from criterion 1's domain (m <= 4, entries
# <= 6, k <= 12), plus explicit builds on distinct (w, k).  Cost grows
# steeply with m, k and dim R/I_k, and a plain uniform sample made run time
# depend on the seed, so both samples are systematic: each (m, k) cell gets a
# fixed share of the ops, and within a cell the picks are evenly spaced, from
# a seeded offset, along the tuples ordered by dim R/I_k.  Every ordered
# tuple of a cell stays equally likely.  Permutations of one multiset sit
# next to each other in that order and a Betti op takes a random one of
# them, so a (multiset, k) pair repeats when two picks land in its run: about
# one Betti op in five, against two in five for a uniform sample of this size.
BETTI_OPS = 2000
BETTI_M = (1, 2, 3, 4)
BETTI_ENTRIES = 6
BETTI_K = range(0, 13)
BUILD_STRATA = ((2, 3), (2, 6), (2, 9), (3, 3), (3, 6), (3, 9))
BUILDS_PER_STRATUM = 10


def _betti_counts() -> dict[int, int]:
    """Betti ops per m, in proportion to the 6^m ordered tuples of each size."""
    sizes = {m: BETTI_ENTRIES**m for m in BETTI_M}
    total = sum(sizes.values())
    counts = {m: BETTI_OPS * size // total for m, size in sizes.items()}
    by_remainder = sorted(sizes, key=lambda m: -(BETTI_OPS * sizes[m] % total))
    for m in by_remainder[: BETTI_OPS - sum(counts.values())]:
        counts[m] += 1
    return counts


def roundtrip_ops(rng: random.Random) -> list[tuple]:
    """The same list for every seed (see the note at ROUNDTRIP_SETS)."""
    return [("roundtrip", text, k) for text, ks in ROUNDTRIP_SETS for k in ks]


def oracle_ops() -> list[tuple]:
    ops = [
        ("pushforward", text, PUSHFORWARD_S_BOX, PUSHFORWARD_CHAR_BOX)
        for text in PUSHFORWARD_SEQS
    ]
    ops += [("example51", s, EXAMPLE51_BOX) for s in EXAMPLE51_S]
    ops += [
        ("adjunction", text, u, v)
        for text in ADJUNCTION_SEQS
        for u in (0, 1)
        for v in (0, 1)
    ]
    return ops


def oracle_cli_ops(rng: random.Random) -> list[tuple]:
    """The oracle ops in their fixed order, with the seeded cli ops at seeded
    places among them.  An untraced cli op is a process of its own, so where
    it falls does not change what the other ops cost."""
    fixed, commands = oracle_ops(), cli_ops(rng)
    slots = set(rng.sample(range(len(fixed) + len(commands)), len(commands)))
    fixed_iter, command_iter = iter(fixed), iter(commands)
    return [
        next(command_iter if i in slots else fixed_iter)
        for i in range(len(fixed) + len(commands))
    ]


def _spread_picks(rng: random.Random, m: int, k: int, count: int) -> list[tuple[int, ...]]:
    """count evenly spaced members of the (m, k) cell, ordered by dim R/I_k."""
    cell = sorted(
        itertools.product(range(1, BETTI_ENTRIES + 1), repeat=m),
        key=lambda w: (sum(monomial_counts(w, k)[:k]), sorted(w), w),
    )
    step = len(cell) / count
    offset = rng.random() * step
    return [cell[int(offset + j * step)] for j in range(count)]


def resolve_ops(rng: random.Random) -> list[tuple]:
    ops = []
    for m, count in _betti_counts().items():
        start = rng.randrange(len(BETTI_K))
        per_k = [count // len(BETTI_K)] * len(BETTI_K)
        for j in range(count % len(BETTI_K)):
            per_k[(start + j) % len(BETTI_K)] += 1
        for k, picks in zip(BETTI_K, per_k):
            for w in _spread_picks(rng, m, k, picks) if picks else ():
                ops.append(("betti", tuple(rng.sample(w, m)), k))
    for m, k in BUILD_STRATA:
        ops += [("build", w, k) for w in _spread_picks(rng, m, k, BUILDS_PER_STRATUM)]
    rng.shuffle(ops)
    return ops


# Chart and classification facts of the paper's running examples.
ANALYZE_FACTS = {
    "1,1;1,1": {"kind": "Flop", "klevel": 0, "nontrivial": {"minus": 0, "plus": 0, "Y": 0}},
    "1,2;1,1,1": {"kind": "Flop", "klevel": 0, "nontrivial": {"minus": 1, "plus": 0, "Y": 3}},
    "2,1;1,1": {"kind": "Flip", "klevel": 1, "canonical_extension": "2,1;1,1,1"},
    "1,2,3;": {"kind": "WeightedProjectiveSpace", "klevel": 6, "nontrivial": {"minus": 2}},
}
RESOLVE_SEQS = ("1,2;1,1,1", "1,2,3;1,5", "1,5;2,3")
TRANSFORM_SEQS = ("1,1;1,1", "1,2;1,1,1", "1,2,3;1,5", "1,1;2,1")
COHOMOLOGY_WEIGHTS = ((1, 1), (1, 2), (1, 1, 2), (1, 2, 3))
COHOMOLOGY_BOX = 8
VERIFY_ALL = {
    "1,1;1,1": ("2", ["roundtrip", "adjunction", "serre", "pushforward"], ["example51"]),
    "1,5;2,3": ("6", ["serre", "pushforward"], ["roundtrip", "adjunction", "example51"]),
}
USAGE_ERROR = ("verify", "--seq", "2,1;1,1", "--suite", "roundtrip")


def cli_ops(rng: random.Random) -> list[tuple]:
    """Subcommand runs: ("cli", subcommand, argv, expectation)."""
    ops = []
    for text, facts in ANALYZE_FACTS.items():
        ops.append(("cli", "analyze", ("analyze", "--seq", text, "--json"), facts))
    for text in RESOLVE_SEQS:
        side = rng.choice(("plus", "minus"))
        k = rng.randint(1, 8)
        a, b = text.split(";")
        weights = tuple(int(v) for v in (a if side == "plus" else b).split(","))
        argv = ("resolve", "--seq", text, "--side", side, "--k", str(k), "--json")
        ops.append(("cli", "resolve", argv, (weights, k)))
    for text in TRANSFORM_SEQS:
        k = rng.randint(0, 6)
        argv = ("transform", "--seq", text, "--functor", "F", "--k", str(k), "--json")
        ops.append(("cli", "transform", argv, k))
    for weights in COHOMOLOGY_WEIGHTS:
        twist = rng.randint(-6, 4)
        text = ",".join(map(str, weights)) + ";"
        argv = (
            "cohomology", "--seq", text, "--twist", str(twist),
            "--box", str(COHOMOLOGY_BOX), "--json",
        )
        ops.append(("cli", "cohomology", argv, (weights, twist)))
    for text, (k_max, ran, skipped) in VERIFY_ALL.items():
        argv = ("verify", "--seq", text, "--suite", "all", "--k-max", k_max, "--json")
        ops.append(("cli", "verify", argv, (ran, skipped)))
    ops.append(("cli", "usage", USAGE_ERROR, 2))
    rng.shuffle(ops)
    return ops


GENERATORS = {
    "roundtrip": roundtrip_ops,
    "oracle_cli": oracle_cli_ops,
    "resolve": resolve_ops,
}


def build_ops(workload: str, seed: int) -> list[tuple]:
    """The op list of one workload; the same seed gives the same list."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def repeat_share(ops) -> tuple[int, int]:
    """Betti ops that repeat an earlier (sorted multiset, k) pair, and all Betti ops."""
    seen: set = set()
    repeats = total = 0
    for op in ops:
        if op[0] != "betti":
            continue
        key = (tuple(sorted(op[1])), op[2])
        repeats += key in seen
        seen.add(key)
        total += 1
    return repeats, total


# ---------------------------------------------------------------------------
# Reference answers, computed without orbiflip.


@lru_cache(maxsize=None)
def monomial_counts(weights: tuple[int, ...], top: int) -> tuple[int, ...]:
    """Number of monomials of each weighted degree 0..top (coin-change count)."""
    counts = [1] + [0] * top
    for w in weights:
        for d in range(w, top + 1):
            counts[d] += counts[d - w]
    return tuple(counts)


def generator_degrees(weights: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Degrees of the minimal monomial generators of I_k.

    A monomial of degree d >= k is a minimal generator iff every variable in
    its support has weight above d - k, so the generators of degree d are the
    monomials of degree d in those variables.
    """
    if k <= 0:
        return (0,)
    out = []
    for d in range(k, k + max(weights)):
        allowed = tuple(w for w in weights if w > d - k)
        out += [d] * monomial_counts(allowed, d)[d]
    return tuple(out)


def betti_problems(weights, k: int, table: dict) -> list[str]:
    """Why a Betti table {position: degrees} is not that of I_k over weights.

    Position 1 must list the minimal generator degrees, and the alternating
    sum of the free modules must have the Hilbert function of I_k.  Neither
    depends on the order of the weights.
    """
    rows = tuple(sorted((int(l), tuple(sorted(es))) for l, es in table.items()))
    return list(_betti_problems(tuple(sorted(weights)), max(k, 0), rows))


@lru_cache(maxsize=None)
def _betti_problems(weights: tuple[int, ...], k: int, rows: tuple) -> tuple[str, ...]:
    table = dict(rows)
    problems = []
    if table.get(1, ()) != generator_degrees(weights, k):
        problems.append(f"generator degrees of I_{k} over {weights}: {table.get(1)}")
    top = k + 2 * sum(weights)
    counts = monomial_counts(weights, top)
    for d in range(top + 1):
        got = sum(
            (-1) ** (l - 1) * counts[d - e]
            for l, es in table.items()
            for e in es
            if e <= d
        )
        want = counts[d] if d >= k else 0
        if got != want:
            problems.append(f"Hilbert function of I_{k} over {weights} at {d}: {got} != {want}")
            break
    return tuple(problems)


def wps_totals(weights: tuple[int, ...], twist: int) -> dict[str, int]:
    """Nonzero cohomology of O(twist) on P(weights): h^0 and h^top only."""
    top = len(weights) - 1
    h0 = monomial_counts(weights, max(twist, 0))[twist] if twist >= 0 else 0
    dual = -twist - sum(weights)
    htop = monomial_counts(weights, dual)[dual] if dual >= 0 else 0
    out = {}
    if h0:
        out["0"] = h0
    if htop:
        out[str(top)] = out.get(str(top), 0) + htop
    return out


def fiber_cohomology(b: tuple[int, ...]) -> list[int]:
    """Cohomology of O(-sum(b)) on P(b), the exceptional fiber at q = -sum(b)."""
    totals = wps_totals(b, -sum(b))
    return [totals.get(str(i), 0) for i in range(len(b))]


def example51_totals(s: int) -> dict[str, int]:
    """The skyscraper signature: one dimension in degree 1 at odd twists."""
    return {"1": 1} if s % 2 else {}


def roundtrip_children(text: str, k: int) -> int:
    """Round trips equivalence_suite(seq, [k]) must run for a well-formed seq."""
    a, b = (tuple(int(v) for v in part.split(",")) for part in text.split(";"))
    gap = sum(b) - sum(a)
    count = 2 + (2 if k >= gap else 0)
    if gap == 0:
        count += 2
    return count
