"""Threshold monomial ideals and their minimal graded free resolutions.

For weights w and a threshold k, the ideal I_k of the weighted polynomial
ring is spanned by all monomials of weighted degree at least k.  Its minimal
graded free resolution has length at most the number of variables, monomial
differential matrices (everything is multigraded), and every twist e in it
satisfies k <= e < k + sum(w).

One construction gives both the Betti degrees and the matrices.  With the
variables ordered by decreasing weight, I_k is a stable ideal: if u lies in
I_k, x_j divides u and w_i >= w_j, then x_i u / x_j lies in I_k too.  A
stable ideal is minimally resolved by the Eliahou-Kervaire resolution
(Eliahou-Kervaire, J. Algebra 129, 1990), whose basis symbols _ek_symbols
enumerates.  Two certificates check what the construction returns:

 * minimal_resolution_degrees reads the twists off the symbols and checks
   their alternating sum against the Hilbert series of I_k;
 * build_resolution writes out the explicit Eliahou-Kervaire differential and
   certifies, without appeal to the theorem, that it is minimal (no entry is
   a unit) and exact (strand by strand).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import ResolutionConstructionFailure, Unsupported

# Not called here.  perfbench/test_perfbench.py checks that its tracer rebinds
# this module's name for the homology engine, so the binding stays.
from .exact import chain_reduce_homology  # noqa: F401
from .linalg import (
    SPACE_MINUS,
    SPACE_MODULE,
    SPACE_PLUS,
    Character,
    MonomialComplex,
    Term,
    strand,
)
from .weights import WeightSequence


def weighted_degree(weights, exponents) -> int:
    return sum(w * e for w, e in zip(weights, exponents))


@lru_cache(maxsize=None)
def monomials_of_weighted_degree(weights: tuple[int, ...], d: int) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors with the given weighted degree, lex order."""
    if d < 0:
        return ()
    if not weights:
        return ((),) if d == 0 else ()
    head, *tail = weights
    out = []
    for e in range(d // head + 1):
        for rest in monomials_of_weighted_degree(tuple(tail), d - head * e):
            out.append((e,) + rest)
    return tuple(out)


def _decreasing_order(weights) -> list[int]:
    """Variable indices by decreasing weight, ties by index: I_k is stable in
    this order."""
    return sorted(range(len(weights)), key=lambda i: (-weights[i], i))


def threshold_generators(weights, k: int) -> list[tuple[int, ...]]:
    """Minimal monomial generators of I_k, sorted: weighted degree >= k, and
    dropping any single variable from the support falls below k.  For k <= 0
    the unit monomial generates.

    In decreasing-weight order, the generators whose last variable is x_j are
    the monomials of degree below k in the variables before x_j, each times
    the least power of x_j that reaches k.
    """
    weights = tuple(weights)
    if k <= 0:
        return [(0,) * len(weights)]
    gens = []
    # heads: the monomials of degree below k in the variables seen so far.
    heads = [((0,) * len(weights), 0)]
    for j in _decreasing_order(weights):
        w = weights[j]
        gens.extend(mono[:j] + (-(-(k - d) // w),) + mono[j + 1 :] for mono, d in heads)
        heads = [
            (mono[:j] + (e,) + mono[j + 1 :], d + e * w)
            for mono, d in heads
            for e in range((k - 1 - d) // w + 1)
        ]
    return sorted(gens)


def _beginning(weights, order, v, k: int) -> tuple[int, ...]:
    """g(v): the generator of I_k that begins v (of degree >= k) in order."""
    g = [0] * len(v)
    d = 0
    for i in order:
        if d + v[i] * weights[i] >= k:
            g[i] = -(-(k - d) // weights[i])
            return tuple(g)
        g[i] = v[i]
        d += v[i] * weights[i]


def _ek_symbols(weights, k: int) -> dict[int, list]:
    """Basis symbols of the Eliahou-Kervaire resolution of I_k, by position.

    Position l + 1 holds one symbol (u, sigma) for each minimal generator u,
    in sorted order, and each l-subset sigma of the variables strictly before
    the last variable of u in decreasing-weight order; sigma lists variable
    indices in that order.  The symbol has multidegree u * x_sigma.
    """
    order = _decreasing_order(weights)
    symbols: dict[int, list] = {}
    for u in threshold_generators(weights, k):
        last = max((p for p, i in enumerate(order) if u[i]), default=0)
        before = order[:last]
        for size in range(len(before) + 1):
            symbols.setdefault(size + 1, []).extend(
                (u, sigma) for sigma in itertools.combinations(before, size)
            )
    return symbols


@dataclass(frozen=True)
class ResolutionDegrees:
    """Twists e^(l) of the minimal graded free resolution of I_k, by position."""

    weights: tuple[int, ...]
    k: int
    degrees: dict[int, tuple[int, ...]]

    def positions(self) -> list[int]:
        return sorted(self.degrees)

    def betti_json(self) -> str:
        rows = [
            {"l": l, "degrees": list(self.degrees[l])} for l in self.positions()
        ]
        return json.dumps({"schema": "orbiflip/1", "betti": rows}, sort_keys=True)


THRESHOLD_CAP = 64


def _check_threshold(k: int, cap: int | None = None):
    limit = THRESHOLD_CAP if cap is None else cap
    if k > limit:
        raise Unsupported(
            f"threshold {k} above the strand-size cap {limit}; raise the cap "
            "explicitly if intended"
        )


def minimal_resolution_degrees(weights, k: int, cap: int | None = None) -> ResolutionDegrees:
    """Betti degrees of I_k from the Eliahou-Kervaire symbols.

    Position l carries deg(u) + w(sigma) for each symbol (u, sigma) with
    |sigma| = l - 1.  That this is the minimal resolution's table is the
    Eliahou-Kervaire theorem, not something checked here: the check covers
    only the Hilbert series, sum_l (-1)^(l-1) beta_l(t) = 1 - P(t) prod_i
    (1 - t^w_i) with P(t) counting the monomials of each degree below k, and
    a mismatch raises ResolutionConstructionFailure.  k <= 0 gives the free
    module itself; k is capped (default 64) to bound the table's size.
    """
    weights = tuple(weights)
    if not weights:
        raise Unsupported("resolutions need at least one variable")
    _check_threshold(k, cap)
    k = max(k, 0)
    degrees = {
        l: tuple(
            sorted(weighted_degree(weights, u) + sum(weights[i] for i in sigma) for u, sigma in symbols)
        )
        for l, symbols in _ek_symbols(weights, k).items()
    }
    _check_hilbert_series(weights, k, degrees)
    return ResolutionDegrees(weights, k, degrees)


def _check_hilbert_series(weights, k: int, degrees) -> None:
    """Raise unless sum_l (-1)^(l-1) beta_l(t) = 1 - P(t) prod_i (1 - t^w_i)."""
    top = k + sum(weights)
    # P(t) by coin change over the weights, truncated below k, then times
    # each (1 - t^w); the product has degree below top.
    series = [0] * top
    if k:
        series[0] = 1
    for w in weights:
        for d in range(w, k):
            series[d] += series[d - w]
    for w in weights:
        for d in range(top - 1, w - 1, -1):
            series[d] -= series[d - w]
    want = {d: (d == 0) - c for d, c in enumerate(series) if (d == 0) != c}
    got: dict[int, int] = {}
    for l, es in degrees.items():
        for e in es:
            got[e] = got.get(e, 0) + (-1) ** (l - 1)
    got = {e: c for e, c in got.items() if c}
    if got != want:
        raise ResolutionConstructionFailure(
            f"Betti table of I_{k} over {weights} fails the Hilbert series: "
            f"alternating sum {sorted(got.items())}, expected {sorted(want.items())}"
        )


def verify_degree_bounds(res: ResolutionDegrees) -> bool:
    """Check k <= e < k + sum(w) for every twist in the table."""
    top = res.k + sum(res.weights)
    return all(
        res.k <= e < top for es in res.degrees.values() for e in es
    )


@lru_cache(maxsize=None)
def module_resolution(weights: tuple[int, ...], k: int):
    """Explicit minimal free resolution data of I_k over the weighted ring.

    Returns (positions, diffs): positions[l] is the tuple of generator
    multidegrees of F_{l+1}; diffs[l - 1] maps (src, tgt) index pairs, src in
    positions[l], tgt in positions[l - 1], to rational coefficients (the
    monomial part is the multidegree difference).  Position one keeps the
    sorted generators; later positions are sorted by (weighted degree,
    multidegree).

    The differential is Eliahou-Kervaire's.  With g(v) the generator that
    begins v in decreasing-weight order and j the r-th variable of sigma,
    e(u; sigma) maps to sum_r (-1)^r [x_j e(u; sigma - j) - (x_j u / g(x_j u))
    e(g(x_j u); sigma - j)], where a symbol e(v; tau) is zero unless tau lies
    before the last variable of v.
    """
    order = _decreasing_order(weights)
    positions: list[tuple[tuple[int, ...], ...]] = []
    diffs: list[dict[tuple[int, int], Fraction]] = []
    index: dict = {}
    for l, symbols in sorted(_ek_symbols(weights, k).items()):
        multidegree = {
            (u, sigma): tuple(e + (i in sigma) for i, e in enumerate(u))
            for u, sigma in symbols
        }
        if l > 1:
            symbols = sorted(
                symbols,
                key=lambda s: (weighted_degree(weights, multidegree[s]), multidegree[s]),
            )
        prev, index = index, {s: i for i, s in enumerate(symbols)}
        positions.append(tuple(multidegree[s] for s in symbols))
        if l == 1:
            continue
        table: dict[tuple[int, int], Fraction] = {}
        for src, (u, sigma) in enumerate(symbols):
            for r, j in enumerate(sigma, start=1):
                rest = sigma[: r - 1] + sigma[r:]
                sign = Fraction((-1) ** r)
                table[(src, prev[(u, rest)])] = sign
                g = _beginning(weights, order, u[:j] + (u[j] + 1,) + u[j + 1 :], k)
                # prev holds exactly the nonzero symbols of the position below.
                if (g, rest) in prev:
                    table[(src, prev[(g, rest)])] = -sign
        diffs.append(table)
    return tuple(positions), tuple(diffs)


def _module_sequence(weights) -> WeightSequence:
    return WeightSequence(tuple(weights), ())


def build_resolution(
    seq: WeightSequence,
    k: int,
    side: str = SPACE_PLUS,
    extra_twist: int = 0,
) -> MonomialComplex:
    """The minimal resolution of the threshold ideal sheaf I_k(extra_twist) as
    an explicit complex of twists on the requested side.

    On the plus side the ideal lives in the x-variables (weights a); on the
    minus side in the y-variables (weights b); "module" gives the bare graded
    complex over the weighted polynomial ring.  Position l sits in
    cohomological degree 1 - l, so the complex is quasi-isomorphic to the
    ideal sheaf in degree 0.  The construction is certified minimal (no unit
    entry) and exact on a strand grid; failures raise
    ResolutionConstructionFailure.
    """
    if side == SPACE_PLUS:
        weights = seq.a
    elif side == SPACE_MINUS:
        weights = seq.b
    elif side == SPACE_MODULE:
        weights = seq.a if seq.m else seq.b
        seq = _module_sequence(weights)
    else:
        raise Unsupported(f"no threshold ideals on {side!r}")
    if not weights:
        raise Unsupported(f"side {side!r} of {seq} has no variables")
    weights = tuple(weights)
    k = max(k, 0)
    _check_threshold(k)
    positions, raw_diffs = _certified_module_resolution(weights, k)
    return _assemble(seq, side, positions, raw_diffs, extra_twist)


def _assemble(seq, space, positions, raw_diffs, extra_twist=0) -> MonomialComplex:
    """The complex of twists of module resolution data on a space.

    Position l sits in cohomological degree 1 - l.  A generator mu becomes
    the term with offset mu in the y-variables on the minus side, in the
    x-variables otherwise, and twist w.mu + extra_twist on a side; on module,
    where twists only index generators, the twist is -w.mu.  The raw
    coefficient tables are the differentials: F_l (degree 1 - l) maps to
    F_{l-1} (degree 2 - l).
    """
    if space == SPACE_MINUS:
        weights = seq.b
        embed = lambda mu: Character((0,) * seq.m, tuple(mu))
    else:
        weights = seq.a
        embed = lambda mu: Character(tuple(mu), (0,) * seq.n)
    if space == SPACE_MODULE:
        twist_of = lambda mu: -weighted_degree(weights, mu)
    else:
        twist_of = lambda mu: weighted_degree(weights, mu) + extra_twist
    terms = {
        1 - (l + 1): [Term(twist_of(mu), embed(mu)) for mu in gens]
        for l, gens in enumerate(positions)
    }
    diffs = {1 - l: table for l, table in enumerate(raw_diffs, start=2)}
    return MonomialComplex(seq, space, terms, diffs)


@lru_cache(maxsize=None)
def _certified_module_resolution(weights: tuple[int, ...], k: int):
    """module_resolution plus its two certificates, minimality and exactness,
    which together prove it minimal without the Eliahou-Kervaire theorem."""
    positions, raw_diffs = module_resolution(weights, k)
    _verify_minimality(weights, k, positions, raw_diffs)
    _verify_strand_exactness(weights, k, positions, raw_diffs)
    return positions, raw_diffs


def _verify_minimality(weights, k, positions, raw_diffs):
    """No entry may join two generators of equal multidegree (a unit entry)."""
    for l, table in enumerate(raw_diffs, start=1):
        for src, tgt in table:
            if positions[l][src] == positions[l - 1][tgt]:
                raise ResolutionConstructionFailure(
                    f"unit entry at position {l + 1} of I_{k} over {weights}: "
                    f"multidegree {positions[l][src]}"
                )


def _verify_strand_exactness(weights, k, positions, raw_diffs):
    """The augmented complex F -> R must be exact on every module strand,
    except that the strands below degree k leave R/I_k at R.

    The augmentation sends each generator to its monomial, so d o d = 0
    there makes the first syzygies relations among the generators of I_k.
    Without it, strand dimensions alone do not tell I_k from another module
    with the same multigraded Hilbert function.
    """
    augmentation = {(j, 0): Fraction(1) for j in range(len(positions[0]))}
    cx = _assemble(
        _module_sequence(weights),
        SPACE_MODULE,
        (((0,) * len(weights),),) + tuple(positions),
        (augmentation,) + tuple(raw_diffs),
    )
    # Every generator lies below k + sum(w); two degrees beyond cover the
    # strands where the last syzygies meet.
    top = k + sum(weights) + 2
    for d in range(top + 1):
        for mu in monomials_of_weighted_degree(tuple(weights), d):
            hom = strand(cx, Character(mu, ())).homology()
            if hom != ({0: 1} if d < k else {}):
                raise ResolutionConstructionFailure(
                    f"strand {mu} of I_{k} over {weights}: homology {hom}"
                )
