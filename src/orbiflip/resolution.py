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
   theorem, that it is minimal (no entry is a unit) and that it resolves
   I_k: the augmented complex F -> R is checked on every cell of its term
   offsets, the finitely many boxes on which a strand is constant, with one
   filtered reduction per run of cells along one coordinate
   (exact.filtered_homology).  The augmented complex is the one checked
   construction per (w, k), cached without its augmentation term or cell
   tables; every build derives its complex from it, sharing the differential.

Both count the table before building it and refuse one of more than
TABLE_CAP symbols.  build_resolution also prices its certificate from the
weights and k alone, runs times symbols, and refuses a price above
CERTIFICATE_LIMIT.
"""

from __future__ import annotations

import itertools
import operator
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from math import prod

from . import linalg
from .errors import ResolutionConstructionFailure, Unsupported

# chain_reduce_homology and strand are not called here.
# perfbench/test_perfbench.py checks that its tracer rebinds this module's
# names for the homology engine and for strand, so both bindings stay.
from .exact import chain_reduce_homology, filtered_homology  # noqa: F401
from .linalg import (  # noqa: F401
    SPACE_MINUS, SPACE_MODULE, SPACE_PLUS, Character, MonomialComplex, Term, strand,
)
from .weights import WeightSequence


def weighted_degree(weights, exponents) -> int:
    return sum(w * e for w, e in zip(weights, exponents))


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
# about 3 s to build and certify on a 2-core machine.
TABLE_CAP = 10**5
# Runs times symbols of one explicit build's exactness certificate (see
# check_certificate_price).  Builds priced near the limit, such as (1,)*12
# at k = 1 (8.4M), (1, 1, 1, 1) at k = 12 (7.1M) or (1, 2, 3, 4) at k = 36
# (9.4M), take 1 to 4.5 s and at most 32 MB on a 2-core machine.  The
# tests and demos build nothing priced above 10,000, and (1, 1, 1, 1, 1) at
# k = 6 (6.1M, about 3 s) is accepted.
CERTIFICATE_LIMIT = 10**7


def check_threshold(k: int, cap: int | None = None):
    """Raise Unsupported for a threshold above the cap (default THRESHOLD_CAP)."""
    limit = THRESHOLD_CAP if cap is None else cap
    if k > limit:
        raise Unsupported(
            f"threshold {k} above the strand-size cap {limit}; raise the cap "
            "explicitly if intended"
        )


def check_table_size(weights, k: int) -> int:
    """The number of symbols in the Eliahou-Kervaire table of I_k, counted
    without listing any.  Raise Unsupported if it is above TABLE_CAP, or if
    the 2m + 1 dense rows of k + sum(w) degrees that _betti_counts and
    _check_hilbert_series walk, m the number of weights, exceed
    linalg.ENUMERATION_LIMIT.

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
    return size


def check_certificate_price(weights, k: int, symbols: int) -> int:
    """The price of the exactness certificate of an explicit build of I_k, a
    table of the given number of symbols, from weights and k alone: runs
    times symbols, an upper bound on the columns _cell_homology reduces.

    Every offset of the augmented complex has exponent at most ceil(k / w_c)
    on coordinate c (a generator's last exponent, or a head's exponent plus
    one for sigma), so the coordinate has at most ceil(k / w_c) + 1 intervals
    holding monomials.  The runs lie along the coordinate with the most of
    them, one per cell of the others.  Raise Unsupported above
    CERTIFICATE_LIMIT, read at call time.
    """
    intervals = sorted(-(-k // w) + 1 for w in weights)
    runs = prod(intervals[:-1])
    price = runs * symbols
    if price > CERTIFICATE_LIMIT:
        raise Unsupported(
            f"the exactness certificate of I_{k} over {tuple(weights)} reduces up to "
            f"{runs} runs of {symbols} symbols, {price} in all, above the certificate "
            f"limit {CERTIFICATE_LIMIT}"
        )
    return price


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
    entry) and exact on every cell of its augmented complex (see
    _verify_exactness); failures raise ResolutionConstructionFailure.  Before
    any work, a table of more than TABLE_CAP symbols or a certificate priced
    above CERTIFICATE_LIMIT is refused with Unsupported.

    The certified module complex is cached per (weights, k), and each call
    derives a fresh complex from it with map_terms, which shares its checked
    differential and checks only the terms: a generator mu, offset mu in the
    y-variables on minus and the x-variables on plus, gets twist w.mu +
    extra_twist; the module complex keeps the twists -w.mu.
    """
    if side == SPACE_PLUS:
        weights = seq.a
        term_of = lambda t: Term(extra_twist - t.twist, Character(t.offset.alpha, (0,) * seq.n))
    elif side == SPACE_MINUS:
        weights = seq.b
        term_of = lambda t: Term(extra_twist - t.twist, Character((0,) * seq.m, t.offset.alpha))
    elif side == SPACE_MODULE:
        weights = seq.a if seq.m else seq.b
        seq, term_of = WeightSequence(tuple(weights), ()), lambda t: t
    else:
        raise Unsupported(f"no threshold ideals on {side!r}")
    if not weights:
        raise Unsupported(f"side {side!r} of {seq} has no variables")
    weights = tuple(weights)
    k = max(k, 0)
    check_threshold(k)
    check_certificate_price(weights, k, check_table_size(weights, k))
    return _certified_module_resolution(weights, k).map_terms(side, term_of, seq=seq)


@lru_cache(maxsize=None)
def _certified_module_resolution(weights: tuple[int, ...], k: int) -> MonomialComplex:
    """The module complex of module_resolution after its two checks,
    minimality and exactness on every cell of the augmented complex, the one
    checked construction.  Its top degree, the augmentation term, is dropped
    here, so the cache holds neither that term nor the cell tables."""
    positions, raw_diffs = module_resolution(weights, k)
    _verify_minimality(weights, k, positions, raw_diffs)
    augmented = _verify_exactness(weights, k, positions, raw_diffs)
    return augmented.map_terms(SPACE_MODULE, lambda t: t, 1, drop_top=True)


def _verify_minimality(weights, k, positions, raw_diffs):
    """No entry may join two generators of equal multidegree (a unit entry)."""
    for l, table in enumerate(raw_diffs, start=1):
        for src, tgt in table:
            if positions[l][src] == positions[l - 1][tgt]:
                raise ResolutionConstructionFailure(
                    f"unit entry at position {l + 1} of I_{k} over {weights}: "
                    f"multidegree {positions[l][src]}"
                )


def _augmented(weights, positions, raw_diffs) -> MonomialComplex:
    """The module complex F -> R of resolution data: R, offset 0 in degree
    0, receives each generator with coefficient 1; position l sits in degree
    -l, a generator mu is the term of offset mu and twist -w.mu (on module,
    twists only index generators), and raw_diffs[l - 2] maps F_l to F_(l-1)."""
    terms = {
        -l: [Term(-weighted_degree(weights, mu), Character(tuple(mu), ())) for mu in gens]
        for l, gens in enumerate((((0,) * len(weights),),) + tuple(positions))
    }
    augmentation = {(j, 0): 1 for j in range(len(positions[0]))}
    diffs = {-l: table for l, table in enumerate((augmentation,) + tuple(raw_diffs), start=1)}
    return MonomialComplex(WeightSequence(tuple(weights), ()), SPACE_MODULE, terms, diffs)


def _cell_homology(cx: MonomialComplex):
    """Yield (cell, mask, dims) for every cell of the module complex cx that
    holds a monomial: its interval index per coordinate (from the one that
    holds exponent 0 up to the last, unbounded one), its presence mask and
    the homology dims of its strand, nonzero entries only.

    Along one coordinate r, the masks of the cells of a run (the other
    coordinates' intervals fixed) are nested: each grows the last by the
    terms whose offset on r is the next cut.  The run's terms E, the AND of
    the other coordinates' masks, form a filtered complex: a term enters at
    the interval of its offset on r, and its targets, whose offsets lie
    below it, no later.  exact.filtered_homology then gives every cell of
    the run in one reduction, and runs with the same E share it.  r is the
    coordinate with the most cuts, so the runs are fewest and longest.
    """
    coords = cx.presence_tables.coords
    r = max(range(len(coords)), key=lambda c: len(coords[c][0]))
    # Terms numbered in filtration order along r: by the interval where they
    # enter, then by decreasing degree; per coordinate, each term's interval.
    terms = [
        (bisect_right(coords[r][0], t.offset.alpha[r]), -d, d, i, t.offset.alpha)
        for d, ts in cx.terms.items()
        for i, t in enumerate(ts)
    ]
    terms.sort()
    number = {(d, i): n for n, (_, _, d, i, _) in enumerate(terms)}
    degree_of = [d for _, _, d, _, _ in terms]
    rows = [tuple((number[d + 1, j], c) for j, c in cx.row(d, i)) for _, _, d, i, _ in terms]
    entry = [[bisect_right(cuts, term[4][c]) for term in terms] for c, (cuts, _) in enumerate(coords)]
    others = [c for c in range(len(coords)) if c != r]
    cuts_r, masks_r = coords[r]
    steps = len(masks_r)
    memo: dict[int, list[dict[int, int]]] = {}

    def runs(level, prefix, mask, slots):
        if level == len(others):
            yield prefix, mask, slots
            return
        c = others[level]
        cuts, masks = coords[c]
        at = entry[c]
        for j in range(bisect_right(cuts, 0), len(masks)):
            kept = [n for n in slots if at[n] <= j]
            yield from runs(level + 1, prefix + (j,), mask & masks[j], kept)

    for prefix, run, slots in runs(0, (), -1, range(len(terms))):
        dims = memo.get(run)
        if dims is None:
            dims = memo[run] = filtered_homology(slots, degree_of, entry[r], rows, steps)
        for j in range(bisect_right(cuts_r, 0), steps):
            yield prefix[:r] + (j,) + prefix[r:], run & masks_r[j], dims[j]


def _verify_exactness(weights, k, positions, raw_diffs):
    """The augmented complex F -> R must be exact on every module strand,
    except that the strands below degree k leave R/I_k at R.

    The augmentation sends each generator to its monomial, so d o d = 0
    there makes the first syzygies relations among the generators of I_k.
    Without it, strand dimensions alone do not tell I_k from another module
    with the same multigraded Hilbert function.

    A module strand depends only on its cell, the intervals between the
    term offsets that hold the monomial (the lcm lattice of the offsets,
    Gasharov-Peeva-Welker 1999), and the cells are finitely many, because
    the last interval on each coordinate is unbounded.  _cell_homology
    reduces them all, one run at a time.  A cell whose mask is the
    augmentation alone holds only monomials outside the generated ideal, so
    it must be bounded, its upper corner must lie below k and its homology
    must be R's; every other cell holds only multiples of a generator, so
    its lower corner must lie at or above k and it must be exact.  Together
    these say that the generators span I_k and that F resolves it.
    Returns the checked augmented complex.
    """
    cx = _augmented(weights, positions, raw_diffs)
    coords = cx.presence_tables.coords
    (augmentation, _), = cx.presence_tables.groups[-1]
    for cell, mask, dims in _cell_homology(cx):
        lows = [cuts[j - 1] for (cuts, _), j in zip(coords, cell)]
        highs = [cuts[j] - 1 if j < len(cuts) else None for (cuts, _), j in zip(coords, cell)]
        if mask == augmentation:
            if None in highs:
                problem = "the augmentation alone on an unbounded cell"
            elif weighted_degree(weights, highs) >= k:
                problem = f"the augmentation alone up to degree {weighted_degree(weights, highs)}"
            elif dims != {0: 1}:
                problem = f"homology {dims}"
            else:
                continue
        elif weighted_degree(weights, lows) < k:
            problem = f"generators present from degree {weighted_degree(weights, lows)}"
        elif dims:
            problem = f"homology {dims}"
        else:
            continue
        ranges = " x ".join(
            f"[{lo}, {'inf)' if hi is None else f'{hi}]'}" for lo, hi in zip(lows, highs)
        )
        raise ResolutionConstructionFailure(
            f"cell {ranges} of I_{k} over {weights}: {problem}"
        )
    return cx
