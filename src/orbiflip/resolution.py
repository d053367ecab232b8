"""Threshold monomial ideals and their minimal graded free resolutions.

For weights w and a threshold k, the ideal I_k of the weighted polynomial
ring is spanned by all monomials of weighted degree at least k.  Its minimal
graded free resolution has length at most the number of variables, monomial
differential matrices (everything is multigraded), and every twist e in it
satisfies k <= e < k + sum(w).

Two independent routes compute the Betti data:

 * minimal_resolution_degrees reads the twists off Koszul strand homology of
   the finite module R/I_k (the Tor computation), degree by degree;
 * build_resolution constructs explicit matrices by solving syzygy kernels
   multidegree by multidegree, then certifies itself against the first route
   and against strand exactness.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import ResolutionConstructionFailure, Unsupported
from .exact import RationalSpan, chain_reduce_homology, kernel_basis
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


def threshold_generators(weights, k: int) -> list[tuple[int, ...]]:
    """Minimal monomial generators of I_k: weighted degree >= k, and dropping
    any single variable from the support falls below k.  For k <= 0 the unit
    monomial generates."""
    weights = tuple(weights)
    m = len(weights)
    if k <= 0:
        return [(0,) * m]
    gens = []
    # Minimal generators have degree < k + w_i for every supported variable,
    # hence degree below k + max(w).
    for d in range(k, k + max(weights)):
        for mono in monomials_of_weighted_degree(weights, d):
            if all(e == 0 or d - w < k for w, e in zip(weights, mono)):
                gens.append(mono)
    return sorted(gens)


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
    """Betti degrees of I_k via Koszul strand homology of R/I_k.

    Position l of the resolution of I_k carries the degrees of
    Tor_l(R/I_k, C); the strand in internal degree e is the complex with
    basis (S, mu), S a subset of the variables and mu a monomial of degree
    e - w_S below the threshold.  k = 0 is the free module itself; k is
    capped (default 64) to bound strand sizes.
    """
    weights = tuple(weights)
    m = len(weights)
    if m < 1:
        raise Unsupported("resolutions need at least one variable")
    _check_threshold(k, cap)
    if k <= 0:
        return ResolutionDegrees(weights, max(k, 0), {1: (0,)})

    found: dict[int, list[int]] = {}
    top = k + sum(weights)
    subsets = []
    for size in range(m + 1):
        subsets.extend(itertools.combinations(range(m), size))
    for e in range(k, top):
        cells: dict[tuple, int] = {}
        for S in subsets:
            d = e - sum(weights[i] for i in S)
            if not 0 <= d < k:
                continue
            for mono in monomials_of_weighted_degree(weights, d):
                cells[(S, mono)] = -len(S)
        if not cells:
            continue
        entries: dict[tuple, int] = {}
        for (S, mono) in cells:
            for pos, i in enumerate(S):
                rest = S[:pos] + S[pos + 1 :]
                shifted = list(mono)
                shifted[i] += 1
                tgt = (rest, tuple(shifted))
                if tgt in cells:
                    entries[((S, mono), tgt)] = (-1) ** pos
        hom = chain_reduce_homology(cells, entries)
        for deg, dim in hom.items():
            l = -deg
            if l >= 1 and dim:
                found.setdefault(l, []).extend([e] * dim)
    return ResolutionDegrees(
        weights, k, {l: tuple(sorted(es)) for l, es in found.items()}
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
    multidegrees of F_{l+1}; diffs[l] for l >= 1 maps (src, tgt) index pairs,
    src in positions[l], tgt in positions[l-1], to rational coefficients (the
    monomial part is the multidegree difference).  Built by solving kernels
    multidegree by multidegree with deterministic pivoting; generators of the
    syzygy modules live strictly below k + sum(w) in total weighted degree.
    """
    m = len(weights)
    if k <= 0:
        return (((0,) * m,),), ()
    bound = k + sum(weights)
    grid = []
    for d in range(bound):
        grid.extend(monomials_of_weighted_degree(weights, d))
    grid.sort(key=lambda mu: (weighted_degree(weights, mu), mu))

    def leq(mu, nu) -> bool:
        return all(u <= v for u, v in zip(mu, nu))

    gens1 = tuple(threshold_generators(weights, k))
    positions: list[tuple[tuple[int, ...], ...]] = [gens1]
    diffs: list[dict[tuple[int, int], Fraction]] = []

    # The map currently being resolved: F_{l} -> F_{l-1}; position 0 is the
    # ambient free module R with its single degree-zero generator.
    tgt_gens: tuple = ((0,) * m,)
    src_gens: tuple = gens1
    entries: dict[tuple[int, int], Fraction] = {
        (j, 0): Fraction(1) for j in range(len(gens1))
    }

    while True:
        kernels: dict[tuple[int, ...], tuple[list[int], list[tuple[Fraction, ...]]]] = {}
        new_gens: list[tuple[int, ...]] = []
        new_entries: dict[tuple[int, int], Fraction] = {}
        for chi in grid:
            cols = [j for j, mu in enumerate(src_gens) if leq(mu, chi)]
            if not cols:
                continue
            rows_idx = [i for i, nu in enumerate(tgt_gens) if leq(nu, chi)]
            matrix = [
                [entries.get((j, i), Fraction(0)) for j in cols] for i in rows_idx
            ]
            kern = kernel_basis(matrix, len(cols))
            kernels[chi] = (cols, kern)
            if not kern:
                continue
            span = RationalSpan(len(cols))
            col_pos = {j: c for c, j in enumerate(cols)}
            for i in range(m):
                prev = tuple(
                    e - (1 if idx == i else 0) for idx, e in enumerate(chi)
                )
                if any(e < 0 for e in prev):
                    continue
                got = kernels.get(prev)
                if not got:
                    continue
                pcols, pkern = got
                for vec in pkern:
                    lifted = [Fraction(0)] * len(cols)
                    for pj, val in zip(pcols, vec):
                        lifted[col_pos[pj]] = val
                    span.add(lifted)
            # Shifted kernels from lower degrees span the old part; the rest
            # of the kernel at chi contributes fresh syzygy generators.
            for vec in kern:
                residue = span.add(vec)
                if residue is None:
                    continue
                src_idx = len(new_gens)
                new_gens.append(chi)
                for pj, val in zip(cols, residue):
                    if val:
                        new_entries[(src_idx, pj)] = val
        if not new_gens:
            break
        positions.append(tuple(new_gens))
        diffs.append(new_entries)
        tgt_gens, src_gens, entries = src_gens, tuple(new_gens), new_entries
        if len(positions) > m:
            raise ResolutionConstructionFailure(
                f"resolution of I_{k} over {weights} exceeded length {m}"
            )
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
    ideal sheaf in degree 0.  The construction verifies its Betti degrees
    against the Koszul-strand computation and its exactness on a strand grid;
    failures raise ResolutionConstructionFailure.
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
    """module_resolution plus its two certificates (Betti match, exactness)."""
    positions, raw_diffs = module_resolution(weights, k)
    want = minimal_resolution_degrees(weights, k).degrees
    got = {
        l + 1: tuple(sorted(weighted_degree(weights, mu) for mu in gens))
        for l, gens in enumerate(positions)
    }
    got = {l: es for l, es in got.items() if es}
    if want != got:
        raise ResolutionConstructionFailure(
            f"Betti mismatch for I_{k} over {weights}: built {got}, Tor says {want}"
        )
    _verify_strand_exactness(weights, k, positions, raw_diffs)
    return positions, raw_diffs


def _verify_strand_exactness(weights, k, positions, raw_diffs, cushion: int = 2):
    """Module strands must be exact except at position one, where they give I_k."""
    cx = _assemble(_module_sequence(weights), SPACE_MODULE, positions, raw_diffs)
    top = k + sum(weights) + cushion
    for d in range(top + 1):
        for mu in monomials_of_weighted_degree(tuple(weights), d):
            chi = Character(mu, ())
            hom = strand(cx, chi).homology()
            expected = {0: 1} if d >= k else {}
            if hom != expected:
                raise ResolutionConstructionFailure(
                    f"strand {mu} of I_{k} over {weights}: homology {hom}"
                )
