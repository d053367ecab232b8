"""Threshold monomial ideals and their minimal graded free resolutions.

For weights w and a threshold k, the ideal I_k of the weighted polynomial
ring is spanned by all monomials of weighted degree at least k.  Its minimal
graded free resolution has length at most the number of variables, monomial
differential matrices (everything is multigraded), and every twist e in it
satisfies k <= e < k + sum(w).

With the variables ordered by decreasing weight, I_k is a stable ideal: if u
lies in I_k, x_j divides u and w_i >= w_j, then x_i u / x_j lies in I_k too.
A stable ideal is minimally resolved by the Eliahou-Kervaire resolution
(Eliahou-Kervaire, J. Algebra 129, 1990): one basis symbol (u, sigma) per
minimal generator u and subset sigma of the variables before u's last one.
Two certificates check what the construction returns:

 * minimal_resolution_degrees counts the symbols by position and degree with
   generating functions, never listing one.  The generators whose last
   variable is the p-th have at most w_p degrees, all in [k, k + w_p), so
   their count G_p is folded to w_p residue classes first.  It checks the
   alternating sum of the counts against the Hilbert series of I_k, in one
   integer list that starts as P(t) prod_i (1 - t^w_i) - 1, P(t) counting
   the monomials below k, and must end at zero;
 * build_resolution writes out the explicit Eliahou-Kervaire differential
   on the symbols of _ek_symbols and certifies, without appeal to the
   theorem, that it is minimal (no entry is a unit).  It checks exactness
   on one strand per presence mask (the set of terms dividing a monomial)
   rather than per monomial, but only for the masks met at weighted degree
   at most k + sum(w) + 2.  A mask can first occur higher, and its strand
   is then not reduced: exactness there rests on the theorem.

Both count the table before building it and refuse one of more than
TABLE_CAP symbols.  build_resolution also counts the monomials its exactness
walk would list and refuses a walk of more than linalg.ENUMERATION_LIMIT.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache

from . import linalg
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


def monomial_counts(weights, top: int) -> list[int]:
    """counts[d]: the number of monomials of weighted degree d, for
    0 <= d < top, by coin change over the weights; none are listed."""
    counts = [1] + [0] * (top - 1) if top > 0 else []
    for w in weights:
        for d in range(w, top):
            counts[d] += counts[d - w]
    return counts


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
    check_table_size(weights, k)
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
    """Basis symbols of the Eliahou-Kervaire resolution of I_k, by position:
    the basis of module_resolution (minimal_resolution_degrees counts them
    instead, with _betti_counts).

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


THRESHOLD_CAP = 64
# Symbols in one Eliahou-Kervaire table.  The largest table the tests and
# the benchmark reach has 3,249: (1, 1, 1, 1) at k = 12, the corner of
# acceptance criterion 1's domain.  A Betti read-off at the cap takes
# milliseconds.  Explicit builds cost far more per symbol: that table takes
# about 11 s to build and certify on a 2-core machine.
TABLE_CAP = 10**5


def check_threshold(k: int, cap: int | None = None):
    """Raise Unsupported for a threshold above the cap (default THRESHOLD_CAP)."""
    limit = THRESHOLD_CAP if cap is None else cap
    if k > limit:
        raise Unsupported(
            f"threshold {k} above the strand-size cap {limit}; raise the cap "
            "explicitly if intended"
        )


def check_table_size(weights, k: int) -> None:
    """Raise Unsupported if the Eliahou-Kervaire table of I_k has more than
    TABLE_CAP symbols, counted without listing any, or if the 2m + 1 dense
    rows of k + sum(w) degrees that _betti_counts and _check_hilbert_series
    walk, m the number of weights, exceed linalg.ENUMERATION_LIMIT.

    The generators whose last variable is the p-th in decreasing-weight order
    are the monomials of degree below k in the p variables before it, each
    with 2^p subsets sigma; a coin-change DP counts those monomials.
    """
    size = 1
    if k > 0:
        heads = [1] + [0] * (k - 1)
        size = 0
        for p, w in enumerate(sorted(weights, reverse=True)):
            size += sum(heads) << p
            for d in range(w, k):
                heads[d] += heads[d - w]
    if size > TABLE_CAP:
        raise Unsupported(
            f"resolution of I_{k} over {tuple(weights)} has {size} basis elements, "
            f"above the table cap {TABLE_CAP}"
        )
    dense = (2 * len(weights) + 1) * (k + sum(weights))
    if dense > linalg.ENUMERATION_LIMIT:
        raise Unsupported(
            f"Betti rows of I_{k} over {tuple(weights)} need {dense} entries, "
            f"above the enumeration limit {linalg.ENUMERATION_LIMIT}"
        )


def minimal_resolution_degrees(weights, k: int, cap: int | None = None) -> ResolutionDegrees:
    """Betti degrees of I_k, counted off the Eliahou-Kervaire symbols.

    Position l carries deg(u) + w(sigma) for each symbol (u, sigma) with
    |sigma| = l - 1; _betti_counts counts them per degree by generating
    function, and each count row expands to the sorted degree tuple.  That
    this is the minimal resolution's table is the Eliahou-Kervaire theorem,
    not something checked here: the check covers only the Hilbert series,
    sum_l (-1)^(l-1) beta_l(t) = 1 - P(t) prod_i (1 - t^w_i) with P(t)
    counting the monomials of each degree below k, and a mismatch raises
    ResolutionConstructionFailure.  k <= 0 gives the free module itself; k is
    capped (default 64) and so is the table size (TABLE_CAP), both before
    any work.
    """
    weights = tuple(weights)
    if not weights:
        raise Unsupported("resolutions need at least one variable")
    check_threshold(k, cap)
    k = max(k, 0)
    check_table_size(weights, k)
    rows = _betti_counts(weights, k)
    _check_hilbert_series(weights, k, rows)
    degrees = {
        l: tuple(
            itertools.chain.from_iterable(
                itertools.repeat(e, count) for e, count in enumerate(row) if count
            )
        )
        for l, row in rows.items()
    }
    return ResolutionDegrees(weights, k, degrees)


def _betti_counts(weights, k: int) -> dict[int, list[int]]:
    """rows[l][e]: the number of Eliahou-Kervaire symbols of I_k at position
    l and degree e, one row of k + sum(w) degrees per position.

    In decreasing-weight order, let G_p(t) count the generators whose last
    variable is the p-th: each monomial of degree d < k in the variables
    before it (a head), times the least power of x_p that reaches k.  That
    generator has degree d + w_p ceil((k - d) / w_p) = k + ((d - k) mod w_p),
    so G_p has at most w_p degrees, all in [k, k + w_p): the heads are summed
    per residue class mod w_p before anything is multiplied.  A symbol (u,
    sigma) adds the weights of sigma, a subset of those variables, so
    position l counts sum_p G_p(t) e_(l-1)(t^w_1, ..., t^w_(p-1)), with e_j
    the j-th elementary symmetric polynomial, kept as its nonzero terms.
    """
    if k <= 0:
        return {1: [1]}
    top = k + sum(weights)
    order = sorted(weights, reverse=True)
    rows = {l: [0] * top for l in range(1, len(order) + 1)}
    # heads[d]: monomials of degree d < k in the variables so far (coin
    # change); elementary[j]: {e: coefficient of t^e} in e_j of their weights.
    heads = [1] + [0] * (k - 1)
    elementary = [{0: 1}]
    for p, w in enumerate(order):
        folded = [0] * w
        for d, count in enumerate(heads):
            if count:
                folded[(d - k) % w] += count
        generators = [(k + r, count) for r, count in enumerate(folded) if count]
        for j, poly in enumerate(elementary):
            row = rows[j + 1]
            for g, count in generators:
                for e, c in poly.items():
                    row[g + e] += count * c
        if p + 1 == len(order):
            break
        for d in range(w, k):
            heads[d] += heads[d - w]
        # e_j gains t^w e_(j-1); the highest j first reads the old e_(j-1).
        elementary.append({})
        for j in range(len(elementary) - 1, 0, -1):
            poly = elementary[j]
            for e, c in elementary[j - 1].items():
                poly[e + w] = poly.get(e + w, 0) + c
    return rows


def _check_hilbert_series(weights, k: int, rows) -> None:
    """Raise unless sum_l (-1)^(l-1) beta_l(t) = 1 - P(t) prod_i (1 - t^w_i),
    beta_l read off the count rows (rows[l][e] twists of degree e).

    The right side comes from the weights alone: P(t) counts the monomials
    of each degree below k (monomial_counts), and the product has degree
    below k + sum(w).  One integer list starts as P(t) prod_i (1 - t^w_i) - 1
    and adds each row with its sign; the table passes iff every entry ends
    at zero.  The list is as long as the longest row, so a count at degree
    k + sum(w) or above fails unless the signs cancel it.
    """
    size = max(k + sum(weights), max(map(len, rows.values()), default=0))
    base = monomial_counts(weights, k) + [0] * (size - k)
    for w in weights:
        base[w:] = map(operator.sub, base[w:], base)
    base[0] -= 1
    residue = base
    for l, row in rows.items():
        if len(row) < size:
            row = row + [0] * (size - len(row))
        residue = map(operator.add if l % 2 else operator.sub, residue, row)
    residue = list(residue)
    if any(residue):
        got = map(operator.sub, residue, base)
        raise ResolutionConstructionFailure(
            f"Betti table of I_{k} over {weights} fails the Hilbert series: "
            f"alternating sum {[(e, c) for e, c in enumerate(got) if c]}, "
            f"expected {[(e, -c) for e, c in enumerate(base) if c]}"
        )


def verify_degree_bounds(res: ResolutionDegrees) -> bool:
    """Check k <= e < k + sum(w) for every twist in the table, by each
    nonempty row's least and greatest twist (rows need not be sorted)."""
    top = res.k + sum(res.weights)
    return all(res.k <= min(es) and max(es) < top for es in res.degrees.values() if es)


@lru_cache(maxsize=None)
def module_resolution(weights: tuple[int, ...], k: int):
    """Explicit minimal free resolution data of I_k over the weighted ring.

    Returns (positions, diffs): positions[l] is the tuple of generator
    multidegrees of F_{l+1}; diffs[l - 1] maps (src, tgt) index pairs, src in
    positions[l], tgt in positions[l - 1], to int coefficients +-1 (the
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
    diffs: list[dict[tuple[int, int], int]] = []
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
        table: dict[tuple[int, int], int] = {}
        for src, (u, sigma) in enumerate(symbols):
            for r, j in enumerate(sigma, start=1):
                rest = sigma[: r - 1] + sigma[r:]
                sign = (-1) ** r
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
    entry) and checked exact on the strands of the presence masks met up to
    weighted degree k + sum(weights) + 2, which need not be all of them (see
    _verify_strand_exactness); failures raise ResolutionConstructionFailure.
    Before any work, a table of more than TABLE_CAP symbols or a walk of more
    than linalg.ENUMERATION_LIMIT monomials is refused with Unsupported.
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
    check_threshold(k)
    check_table_size(weights, k)
    _strand_walk_top(weights, k)
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
    """module_resolution plus its two checks: minimality, and exactness on
    the strands _verify_strand_exactness reduces."""
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


def _strand_walk_top(weights, k: int) -> int:
    """The highest weighted degree, k + sum(w) + 2, whose monomials
    _verify_strand_exactness walks.  A walk that lists more monomials than
    linalg.ENUMERATION_LIMIT, read at call time, is refused with Unsupported;
    they are counted by monomial_counts, not listed."""
    top = k + sum(weights) + 2
    walk = sum(monomial_counts(weights, top + 1))
    if walk > linalg.ENUMERATION_LIMIT:
        raise Unsupported(
            f"the exactness check of I_{k} over {tuple(weights)} walks {walk} monomials, "
            f"above the enumeration limit {linalg.ENUMERATION_LIMIT}"
        )
    return top


def _verify_strand_exactness(weights, k, positions, raw_diffs):
    """The augmented complex F -> R must be exact on every module strand,
    except that the strands below degree k leave R/I_k at R.

    The augmentation sends each generator to its monomial, so d o d = 0
    there makes the first syzygies relations among the generators of I_k.
    Without it, strand dimensions alone do not tell I_k from another module
    with the same multigraded Hilbert function.

    A module strand depends only on its presence mask, the set of terms
    whose offsets divide the monomial: the entries are indexed by term, not
    by character.  So one strand is reduced per distinct mask, when the first
    monomial that shows it is met (the cells of the lcm lattice of the offsets,
    Gasharov-Peeva-Welker 1999).  A monomial below k lies in no generator's
    cell, so a mask seen both below and at or above k is itself a failure.

    Only the monomials up to weighted degree k + sum(w) + 2 are walked, and
    that does not reach every mask: for w = (1, 1) at k = 5 the mask of all
    12 terms first occurs at x^5 y^5, degree 10, so its strand is never
    reduced.
    """
    augmentation = {(j, 0): 1 for j in range(len(positions[0]))}
    cx = _assemble(
        _module_sequence(weights),
        SPACE_MODULE,
        (((0,) * len(weights),),) + tuple(positions),
        (augmentation,) + tuple(raw_diffs),
    )
    mask_of = cx.presence_tables.mask
    below_k: dict[int, bool] = {}
    # Every generator lies below k + sum(w), but masks met only above top are
    # skipped (see the docstring): on four or five variables they are most
    # masks, and reducing them all costs about ten times as much.
    top = _strand_walk_top(weights, k)
    for d in range(top + 1):
        low = d < k
        for mu in monomials_of_weighted_degree(tuple(weights), d):
            mask = mask_of(Character(mu, ()))
            if mask in below_k:
                if below_k[mask] != low:
                    raise ResolutionConstructionFailure(
                        f"strand {mu} of I_{k} over {weights}: its presence mask "
                        "also occurs on the other side of the threshold"
                    )
                continue
            below_k[mask] = low
            hom = strand(cx, mask).homology()
            if hom != ({0: 1} if low else {}):
                raise ResolutionConstructionFailure(
                    f"strand {mu} of I_{k} over {weights}: homology {hom}"
                )
