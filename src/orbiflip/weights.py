"""Weight sequences (a; b) and their normalization and classification.

A weight sequence is a pair of tuples of positive integers defining the
one-parameter torus action

    t . (x_1, ..., x_m, y_1, ..., y_n)
        = (t^{a_1} x_1, ..., t^{a_m} x_m, t^{-b_1} y_1, ..., t^{-b_n} y_n)

on affine (m+n)-space.  All downstream geometry (the two GIT quotients, their
fiber product, charts, sheaves) is a function of this datum.  The K-level
sum(a) - sum(b) compares the pulled-back canonical divisors of the two
quotients and drives the flip/flop classification.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, lcm

from .errors import NonPositiveKLevel, ParseError

_MAX_ENTRY = 2**63 - 1

KIND_WPS = "WeightedProjectiveSpace"
KIND_DIVISORIAL = "DivisorialContraction"
KIND_FLIP = "Flip"
KIND_FLOP = "Flop"
KIND_EMPTY = "Empty"

FF_MINUS_INTO_PLUS = "minus_into_plus"
FF_PLUS_INTO_MINUS = "plus_into_minus"


@dataclass(frozen=True)
class WeightSequence:
    """The pair (a; b) of positive integer tuples, entries capped at 64 bits."""

    a: tuple[int, ...]
    b: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(int(v) for v in self.a))
        object.__setattr__(self, "b", tuple(int(v) for v in self.b))
        if len(self.a) + len(self.b) < 1:
            raise ParseError("weight sequence needs at least one entry")
        for v in itertools.chain(self.a, self.b):
            if v < 1:
                raise ParseError(f"weights must be positive, got {v}")
            if v > _MAX_ENTRY:
                raise ParseError(f"weight {v} exceeds the 64-bit magnitude cap")

    @property
    def m(self) -> int:
        return len(self.a)

    @property
    def n(self) -> int:
        return len(self.b)

    @property
    def sum_a(self) -> int:
        return sum(self.a)

    @property
    def sum_b(self) -> int:
        return sum(self.b)

    def klevel(self) -> int:
        return self.sum_a - self.sum_b

    def entries(self) -> tuple[int, ...]:
        return self.a + self.b

    def swap(self) -> "WeightSequence":
        """Exchange the two sides; swaps the roles of the two GIT quotients."""
        return WeightSequence(self.b, self.a)

    @classmethod
    def parse(cls, text: str) -> "WeightSequence":
        """Parse "a1,a2,...;b1,b2,..." (one side may be empty, e.g. "1,2,3;")."""
        parts = text.strip().split(";")
        if len(parts) != 2:
            raise ParseError(f"expected exactly one ';' in {text!r}")

        def side(chunk: str) -> tuple[int, ...]:
            chunk = chunk.strip()
            if not chunk:
                return ()
            try:
                return tuple(int(piece) for piece in chunk.split(","))
            except ValueError as exc:
                raise ParseError(f"bad weight entry in {text!r}") from exc

        return cls(side(parts[0]), side(parts[1]))

    def __str__(self) -> str:
        return ",".join(map(str, self.a)) + ";" + ",".join(map(str, self.b))


def omit_one_gcds(seq: WeightSequence) -> tuple[int, ...]:
    """GCD of all entries except the k-th, for k = 1..m+n.

    For a single-entry sequence the (empty) omit-one GCD is reported as 0.
    """
    entries = seq.entries()
    return tuple(gcd(*entries[:k], *entries[k + 1 :]) for k in range(len(entries)))


def is_well_formed(seq: WeightSequence) -> bool:
    """True iff every omit-one GCD equals 1 (single entry: iff the entry is 1)."""
    if seq.m + seq.n == 1:
        return seq.entries() == (1,)
    return all(c == 1 for c in omit_one_gcds(seq))


@dataclass(frozen=True)
class NormalizationTrace:
    """Record of the two-stage reduction to a well-formed sequence.

    global_gcd divides out first; omit_one_gcds are computed on the reduced
    sequence; lcm_factors d_k = lcm of the omit-one GCDs other than the k-th
    divide the respective entries.  The invariant-monomial semigroups of input
    and output are isomorphic (entry k rescales by its omit-one GCD).
    """

    input: WeightSequence
    global_gcd: int
    omit_one_gcds: tuple[int, ...]
    lcm_factors: tuple[int, ...]
    output: WeightSequence


def normalize(seq: WeightSequence) -> NormalizationTrace:
    """Reduce (a; b) to the well-formed sequence defining the same quotients.

    Total function: one pass always lands on a sequence whose omit-one GCDs
    are all 1, because the omit-one GCDs of a globally coprime sequence are
    pairwise coprime.
    """
    entries = seq.entries()
    g = gcd(*entries)
    reduced = tuple(v // g for v in entries)
    cs = omit_one_gcds(WeightSequence(reduced[: seq.m], reduced[seq.m :]))
    ds = [lcm(*cs[:k], *cs[k + 1 :]) for k in range(len(cs))]
    final = tuple(v // d for v, d in zip(reduced, ds))

    out = WeightSequence(final[: seq.m], final[seq.m :])
    if not is_well_formed(out):
        raise AssertionError(f"normalize({seq}) produced non-well-formed {out}")
    return NormalizationTrace(
        input=seq,
        global_gcd=g,
        omit_one_gcds=cs,
        lcm_factors=tuple(ds),
        output=out,
    )


@dataclass(frozen=True)
class ClassificationReport:
    """Birational type of the wall crossing defined by the sequence."""

    kind: str
    klevel: int
    ff_direction: str | None

    def describe(self) -> str:
        if self.kind == KIND_FLOP:
            return "Flop (K-level 0, derived equivalence both ways)"
        if self.kind == KIND_FLIP:
            side = "X- into X+" if self.ff_direction == FF_MINUS_INTO_PLUS else "X+ into X-"
            return f"Flip (K-level {self.klevel:+d}, fully faithful {side})"
        return self.kind


def classify(seq: WeightSequence) -> ClassificationReport:
    """Classify the wall crossing; run normalize first for canonical answers.

    m = 0 reports Empty (the minus quotient is empty); n = 0 is the weighted
    projective space P(a); min(m, n) = 1 is a divisorial contraction; with
    m, n >= 2 the K-level decides flip versus flop.  The fully-faithful
    embedding points from the side with the smaller weight sum into the
    larger.
    """
    k = seq.klevel()
    if seq.m == 0:
        return ClassificationReport(KIND_EMPTY, k, None)
    if seq.n == 0:
        return ClassificationReport(KIND_WPS, k, None)
    if seq.m == 1 or seq.n == 1:
        return ClassificationReport(KIND_DIVISORIAL, k, None)
    direction = FF_MINUS_INTO_PLUS if k <= 0 else FF_PLUS_INTO_MINUS
    kind = KIND_FLOP if k == 0 else KIND_FLIP
    return ClassificationReport(kind, k, direction)


def canonical_extension(seq: WeightSequence) -> WeightSequence:
    """Weight sequence of the total space of the canonical bundle of X-.

    Defined when c = sum(a) - sum(b) > 0; the result (a; b, c) has K-level 0,
    turning the flip into a flop one dimension up.
    """
    c = seq.klevel()
    if c <= 0:
        raise NonPositiveKLevel(
            f"canonical extension needs sum(a) - sum(b) > 0, got {c} for ({seq})"
        )
    return WeightSequence(seq.a, seq.b + (c,))


def invariant_monomial_exponents(seq: WeightSequence, max_total: int):
    """All (alpha, beta) >= 0 with sum(a*alpha) == sum(b*beta), entries <= max_total.

    Brute-force generator for the invariant-monomial semigroup, used to verify
    that normalization preserves it.
    """
    ranges_a = [range(max_total + 1)] * seq.m
    ranges_b = [range(max_total + 1)] * seq.n
    for alpha in itertools.product(*ranges_a):
        da = sum(w * e for w, e in zip(seq.a, alpha))
        for beta in itertools.product(*ranges_b):
            if da == sum(w * e for w, e in zip(seq.b, beta)):
                yield alpha, beta
