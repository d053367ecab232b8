"""Torus characters, monomial complexes of twists, and strand linear algebra.

A character is an exponent pair (alpha, beta) for the x- and y-variables.
Complexes of orbifold line bundles with monomial differentials decompose into
finite-dimensional strands, one per character; every verification in this
package bottoms out in exact homology computations on such strands.

Each complex term carries, besides its twist, an offset character: the
cumulative monomial multidegree relative to the complex's reference sheaf.
The strand of the complex at an absolute character chi selects in each term
the single potential basis monomial chi - offset and keeps it when it is a
section of the term's twist on the ambient space.  Differential entries
store their exact coefficients alone, ints or non-integral Fractions (see
MonomialComplex): an entry's monomial is the difference of its source and
target offsets, derived only to check that the entry is a section.

Each complex is compiled once into PresenceTables: the term offsets cut every
coordinate into intervals, the tuple of a character's interval indices is
its cell, and the cell fixes which terms its strand keeps, as a bitmask over
the terms: the presence mask.  Strands are keyed by that mask, not by a
character, and read the differential through the complex's one index of
entries by source term.  A strand holds its differentials as the sparse
entry map that chain reduction takes.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import prod
from operator import ge, mul
from typing import Callable, Iterator, NamedTuple

from .errors import BoxTooLarge, InconsistentDegrees, Unsupported
from .exact import chain_reduce_homology
from .weights import WeightSequence

SPACE_MINUS = "minus"
SPACE_PLUS = "plus"
SPACE_Y = "Y"
SPACE_MODULE = "module"

SPACES = (SPACE_MINUS, SPACE_PLUS, SPACE_Y, SPACE_MODULE)

ENUMERATION_LIMIT = 4_000_000


class Character(NamedTuple):
    """Exponent vectors of a monomial x^alpha y^beta (entries may be negative)."""

    alpha: tuple[int, ...]
    beta: tuple[int, ...]

    def __add__(self, other: "Character") -> "Character":
        return Character(
            tuple(u + v for u, v in zip(self.alpha, other.alpha)),
            tuple(u + v for u, v in zip(self.beta, other.beta)),
        )

    def __sub__(self, other: "Character") -> "Character":
        return Character(
            tuple(u - v for u, v in zip(self.alpha, other.alpha)),
            tuple(u - v for u, v in zip(self.beta, other.beta)),
        )

    def __neg__(self) -> "Character":
        return Character(tuple(-u for u in self.alpha), tuple(-u for u in self.beta))

    def is_nonnegative(self) -> bool:
        return all(u >= 0 for u in self.alpha) and all(u >= 0 for u in self.beta)

    def render(self) -> str:
        parts = [f"x{i + 1}^{e}" for i, e in enumerate(self.alpha) if e]
        parts += [f"y{j + 1}^{e}" for j, e in enumerate(self.beta) if e]
        return "*".join(parts) if parts else "1"


def zero_character(seq: WeightSequence) -> Character:
    return Character((0,) * seq.m, (0,) * seq.n)


def x_character(seq: WeightSequence, exponents) -> Character:
    return Character(tuple(exponents), (0,) * seq.n)


def y_character(seq: WeightSequence, exponents) -> Character:
    return Character((0,) * seq.m, tuple(exponents))


class Term(NamedTuple):
    """One summand of a complex: a twist plus the offset character of its generator."""

    twist: object  # int on X-/X+/module, (k1, k2) pair on Y
    offset: Character


def degree(seq: WeightSequence, space: str, char: Character):
    """Twist degree of a character.

    Convention fixed by the pullback identities: on the minus side x_i has
    degree a_i and y_j degree -b_j; the plus side negates; on Y the bidegree
    is the pair (sum a*alpha, sum b*beta); module means the x-side polynomial
    ring, graded by the a-weights.
    """
    da = sum(map(mul, seq.a, char.alpha))
    db = sum(map(mul, seq.b, char.beta))
    if space == SPACE_MINUS:
        return da - db
    if space == SPACE_PLUS:
        return db - da
    if space == SPACE_Y:
        return (da, db)
    if space == SPACE_MODULE:
        return da
    raise Unsupported(f"unknown space {space!r}")


def is_section(seq: WeightSequence, space: str, twist, char: Character) -> bool:
    """Membership of a character in the global sections of O(twist).

    minus/plus: nonnegative exponents of the matching twist degree.
    Y with twist (k1, k2): nonnegative, degree difference k1 - k2, and
    x-weighted degree at least k1 (the exceptional-divisor condition).
    module: nonnegative exponents (twists index generators, no constraint).
    """
    if not char.is_nonnegative():
        return False
    if space == SPACE_MODULE:
        return True
    d = degree(seq, space, char)
    if space == SPACE_Y:
        k1, k2 = twist
        da, db = d
        return da - db == k1 - k2 and da >= k1
    return d == twist


def _enumeration_plan(seq: WeightSequence, low, high):
    """Flattened weights and bounds of a character box, the coordinate that
    the degree equation solves (one of largest weight) and the free ones.

    `low` and `high` are int bounds for every exponent or (alpha_bounds,
    beta_bounds) pairs.  A box whose free coordinates span more than
    ENUMERATION_LIMIT points, read at call time, is refused with
    BoxTooLarge; the count stops at the first partial product over the limit.
    """
    size = seq.m + seq.n
    weights = list(seq.a) + [-w for w in seq.b]

    def expand(bound):
        if isinstance(bound, int):
            return [bound] * size
        return list(bound[0]) + list(bound[1])

    lows = expand(low)
    highs = expand(high)
    solve_at = max(range(size), key=lambda c: (abs(weights[c]), c))
    free = [c for c in range(size) if c != solve_at]
    total = 1
    for c in free:
        total *= max(highs[c] - lows[c] + 1, 0)
        if total > ENUMERATION_LIMIT:
            raise BoxTooLarge(f"character box of size > {ENUMERATION_LIMIT}")
    return weights, lows, highs, solve_at, free


def check_box(seq: WeightSequence, *, low, high) -> None:
    """Raise BoxTooLarge for exactly the boxes characters_of_degree refuses."""
    _enumeration_plan(seq, low, high)


def characters_of_degree(
    seq: WeightSequence, space: str, value, *, low, high
) -> Iterator[Character]:
    """All characters in a box satisfying the space's degree equation.

    For minus/module the equation is sum(a*alpha) - sum(b*beta) == value (on
    the plus side negated); on Y pass value = k1 - k2.  `low` and `high` are
    either int bounds applied to every exponent or (alpha_bounds, beta_bounds)
    pairs of per-coordinate bounds.  One coordinate of largest weight is
    solved exactly, the others are enumerated.
    """
    if space == SPACE_PLUS:
        value = -value
    weights, lows, highs, solve_at, free = _enumeration_plan(seq, low, high)
    if not all(lows[c] <= highs[c] for c in free):
        return

    m = seq.m
    w_solve, lo_solve, hi_solve = weights[solve_at], lows[solve_at], highs[solve_at]
    full = list(lows)
    if not free:
        if value % w_solve == 0 and lo_solve <= value // w_solve <= hi_solve:
            full[solve_at] = value // w_solve
            yield Character(tuple(full[:m]), tuple(full[m:]))
        return

    # Odometer over the outer free coordinates (the first one slowest); the
    # last free coordinate is looped inline and the solved one computed.
    outer, last = free[:-1], free[-1]
    w_last = weights[last]
    inner = range(lows[last], highs[last] + 1)
    while True:
        rem0 = value - sum(weights[c] * full[c] for c in outer)
        for e in inner:
            rem = rem0 - w_last * e
            if rem % w_solve:
                continue
            v = rem // w_solve
            if v < lo_solve or v > hi_solve:
                continue
            full[last] = e
            full[solve_at] = v
            yield Character(tuple(full[:m]), tuple(full[m:]))
        for c in reversed(outer):
            if full[c] < highs[c]:
                full[c] += 1
                break
            full[c] = lows[c]
        else:
            return


def section_basis(seq: WeightSequence, space: str, twist, box: int) -> list[Character]:
    """Lattice points of the section membership predicate inside the box,
    in deterministic lexicographic order."""
    value = twist
    if space == SPACE_Y:
        value = twist[0] - twist[1]
    found = [
        ch
        for ch in characters_of_degree(seq, space, value, low=0, high=box)
        if is_section(seq, space, twist, ch)
    ]
    return sorted(found)


def _twist_delta(space: str, src, tgt):
    if space == SPACE_Y:
        return (tgt[0] - src[0], tgt[1] - src[1])
    return tgt - src


def entry_is_section(seq: WeightSequence, space: str, src: Term, tgt: Term) -> bool:
    """is_section of the entry src -> tgt for terms of one reference degree,
    which proves the degree: nonnegative exponents, and da >= k1 on Y."""
    s, t = src.offset, tgt.offset
    return all(map(ge, s.alpha + s.beta, t.alpha + t.beta)) and (
        space != SPACE_Y or sum(map(mul, seq.a, s.alpha)) - sum(map(mul, seq.a, t.alpha))
        >= tgt.twist[0] - src.twist[0]
    )


class MonomialComplex:
    """A bounded complex of twists with matrices of monomial entries.

    terms maps a cohomological degree to its tuple of Terms; diffs[d] maps
    (source_index, target_index) pairs, source in degree d and target in
    degree d + 1, to the entry's nonzero coefficient.  The entry's monomial
    is the offset difference source - target.  The differential is stored
    once, as by_source[d][i], the tuple of (target_index, coefficient) pairs
    of source term i in degree d, which complexes made by map_terms share.
    Construction verifies that entries are honest sheaf maps (that monomial
    is a section of the twist difference) and that d composed with d
    vanishes, and it is the one place that decides what a coefficient is:
    an int stays, a Fraction is stored as its numerator when its
    denominator is 1, and anything else (float, str, bool, Decimal) raises
    InconsistentDegrees.
    """

    def __init__(self, seq: WeightSequence, space: str, terms, diffs):
        self._check_terms(seq, space, {d: tuple(ts) for d, ts in terms.items() if ts})
        self.by_source = self._index(diffs)

    def _check_terms(self, seq: WeightSequence, space: str, terms) -> None:
        """Check twist types, offset shapes and the common reference degree."""
        if space not in SPACES:
            raise Unsupported(f"unknown space {space!r}")
        on_y, m, n = space == SPACE_Y, len(seq.a), len(seq.b)
        ref = None
        for ts in terms.values():
            for twist, g in ts:
                if on_y:
                    if not (isinstance(twist, tuple) and len(twist) == 2):
                        raise InconsistentDegrees("Y terms need (k1, k2) twists")
                elif not isinstance(twist, int):
                    raise InconsistentDegrees(f"{space} terms need integer twists")
                if len(g.alpha) != m or len(g.beta) != n:
                    raise InconsistentDegrees("offset character has wrong shape")
                if on_y:
                    da, db = degree(seq, SPACE_Y, g)
                    r = (twist[0] - twist[1]) + (da - db)
                else:
                    r = twist + degree(seq, space, g)
                if ref is None:
                    ref = r
                elif r != ref:
                    raise InconsistentDegrees(
                        f"terms disagree on the reference degree: {r} != {ref}"
                    )
        self.seq, self.space, self.terms = seq, space, terms
        self.reference_degree = ref

    def _index(self, diffs) -> dict[int, dict[int, tuple[tuple[int, int | Fraction], ...]]]:
        """by_source of diffs, each entry (entry_is_section) and d o d = 0 checked."""
        seq, space = self.seq, self.space
        rows: dict[int, dict[int, list[tuple[int, int | Fraction]]]] = {}
        for d, tab in diffs.items():
            srcs = self.terms.get(d, ())
            tgts = self.terms.get(d + 1, ())
            for (i, j), coeff in tab.items():
                if i >= len(srcs) or j >= len(tgts):
                    raise InconsistentDegrees("differential entry out of range")
                if isinstance(coeff, Fraction) and coeff.denominator == 1:
                    coeff = coeff.numerator
                elif type(coeff) is not int and not isinstance(coeff, Fraction):
                    raise InconsistentDegrees(f"coefficient {coeff!r} is not an int or a Fraction")
                if coeff == 0:
                    raise InconsistentDegrees("zero coefficient stored")
                src, tgt = srcs[i], tgts[j]
                if not entry_is_section(seq, space, src, tgt):
                    gamma = (src.offset - tgt.offset).render()
                    delta = _twist_delta(space, src.twist, tgt.twist)
                    raise InconsistentDegrees(f"entry {gamma} is not a section of O({delta})")
                rows.setdefault(d, {}).setdefault(i, []).append((j, coeff))
        index = {d: {i: tuple(row) for i, row in by_i.items()} for d, by_i in rows.items()}

        # d o d = 0, coefficientwise (monomials agree automatically), row by
        # source row.
        for d, by_i in index.items():
            after = index.get(d + 1, {})
            for i, row in by_i.items():
                acc: dict[int, int | Fraction] = {}
                for j, c1 in row:
                    for k, c2 in after.get(j, ()):
                        acc[k] = acc.get(k, 0) + c1 * c2
                for k, total in acc.items():
                    if total != 0:
                        raise InconsistentDegrees(f"d o d != 0 at {d}, entry {(i, k)}")
        return index

    def map_terms(self, space: str, term_of, degree_delta=0, *, seq=None, drop_top=False):
        """The complex on space over seq (default: this one's) with term_of(t)
        in degree d + degree_delta for each term t in degree d, sharing this
        complex's checked differential; drop_top leaves out the top degree.

        Only the terms are checked, so term_of must keep each entry a section
        beyond what the common reference degree re-proves (offset differences,
        and on Y the bound da >= k1).  tensor, translate, pullback, the
        closed-form push and build_resolution do; coefficients never change."""
        cx = MonomialComplex.__new__(MonomialComplex)
        top = max(self.terms) if drop_top else None
        terms = {
            d + degree_delta: tuple(map(term_of, t)) for d, t in self.terms.items() if d != top
        }
        cx._check_terms(self.seq if seq is None else seq, space, terms)
        cx.by_source = {d + degree_delta: i for d, i in self.by_source.items() if d + 1 != top}
        return cx

    def row(self, d: int, i: int) -> tuple[tuple[int, int | Fraction], ...]:
        """The (target_index, coefficient) pairs of source term i in degree d."""
        return self.by_source.get(d, {}).get(i, ())

    def entries(self) -> Iterator[tuple[int, int, int, int | Fraction]]:
        """Every entry (d, i, j, coefficient) of the differential, by source."""
        by_source = self.by_source
        return ((d, i, j, c) for d in by_source for i, row in by_source[d].items() for j, c in row)

    @classmethod
    def from_keys(cls, seq: WeightSequence, space: str, terms, entries) -> "MonomialComplex":
        """The complex of terms and entries named by keys.

        terms maps a key to its (degree, Term), and each degree numbers its
        terms in insertion order; entries maps (source key, target key) to a
        nonzero coefficient, which the constructor checks.  An entry whose
        target is not one degree above its source raises InconsistentDegrees.
        """
        index: dict[object, tuple[int, int]] = {}
        numbered: dict[int, list[Term]] = {}
        for key, (d, term) in terms.items():
            ts = numbered.setdefault(d, [])
            index[key] = (d, len(ts))
            ts.append(term)
        diffs: dict[int, dict[tuple[int, int], int | Fraction]] = {}
        for (src, tgt), coeff in entries.items():
            (sd, si), (td, ti) = index[src], index[tgt]
            if td != sd + 1:
                raise InconsistentDegrees(
                    f"entry from degree {sd} to degree {td} does not raise the degree by one"
                )
            diffs.setdefault(sd, {})[(si, ti)] = coeff
        return cls(seq, space, numbered, diffs)

    @cached_property
    def presence_tables(self) -> "PresenceTables":
        """The compiled cells and strand membership rule (see
        compile_presence_tables)."""
        return compile_presence_tables(self)

    @cached_property
    def signature(self) -> tuple:
        """Twist- and offset-free shape of the complex: space, weights, term
        count per degree and every (int when integral) entry coefficient.
        With per-term sign patterns it fixes a strand's Cech double complex."""
        return (
            self.space,
            self.seq.a,
            self.seq.b,
            tuple((d, len(ts)) for d, ts in sorted(self.terms.items())),
            tuple(sorted(self.entries())),
        )

    def degrees(self) -> list[int]:
        return sorted(self.terms)

    def term_count(self) -> int:
        return sum(len(ts) for ts in self.terms.values())

    def tensor(self, twist_delta) -> "MonomialComplex":
        """Tensor by O(twist_delta) on the same space: twists shift, offsets
        and the differential stay (shared, see map_terms)."""
        if self.space == SPACE_Y:
            a, b = twist_delta
            twist = lambda k: (k[0] + a, k[1] + b)
        else:
            twist = lambda k: k + twist_delta
        return self.map_terms(self.space, lambda t: Term(twist(t.twist), t.offset))

    def shift(self, amount: int) -> "MonomialComplex":
        """Shift functor [amount]: degrees drop by amount, differentials keep signs
        (only dimensions are consumed downstream) and are shared."""
        return self.map_terms(self.space, lambda t: t, -amount)

    def translate(self, offset_delta: Character, degree_delta: int = 0) -> "MonomialComplex":
        """Add a common character to every offset and shift all degrees up.

        Entry monomials are offset differences, so they are unchanged and the
        differential is shared; only the reference point of the strand
        grading moves.
        """
        move = lambda t: Term(t.twist, t.offset + offset_delta)
        return self.map_terms(self.space, move, degree_delta)

    def dual_into(self, target_twist) -> "MonomialComplex":
        """RHom(-, O(target_twist)) for a line-bundle complex: terms reflect to
        O(target - twist) at negated degrees with negated offsets; entries
        transpose with a sign making the squares anticommute."""
        terms = {
            (d, i): (-d, Term(_twist_delta(self.space, t.twist, target_twist), -t.offset))
            for d, ts in self.terms.items()
            for i, t in enumerate(ts)
        }
        entries = {
            ((d + 1, j), (d, i)): -coeff if (d + 1) % 2 else coeff
            for d, i, j, coeff in self.entries()
        }
        return MonomialComplex.from_keys(self.seq, self.space, terms, entries)

    def summary(self) -> dict:
        def tw(t):
            return list(t) if isinstance(t, tuple) else t

        return {
            "space": self.space,
            "terms": {
                str(d): [tw(t.twist) for t in ts] for d, ts in sorted(self.terms.items())
            },
        }


def single_twist_complex(seq: WeightSequence, space: str, twist) -> MonomialComplex:
    return MonomialComplex(seq, space, {0: [Term(twist, zero_character(seq))]}, {})


@dataclass(frozen=True)
class StrandComplex:
    """The finite-dimensional restriction of a complex to one presence mask,
    shared by every character of that mask.

    bases[k] lists the (degree-local) indices of the mask's terms in degree
    degrees[k]; entries maps ((d, c), (d + 1, r)) to the complex's stored
    coefficient from the c-th basis element in degree d to the r-th in d + 1.
    """

    degrees: tuple[int, ...]
    bases: tuple[tuple[int, ...], ...]
    entries: dict[tuple[tuple[int, int], tuple[int, int]], int | Fraction]

    def dims(self) -> list[int]:
        return [len(b) for b in self.bases]

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(b) for d, b in zip(self.degrees, self.bases))

    def homology(self) -> dict[int, int]:
        """Nonzero homology dimensions by cohomological degree.

        Each basis element is a cell and each entry an edge of the complex
        handed to chain reduction; without entries the dims are the homology.
        """
        if not self.entries:
            return {d: len(base) for d, base in zip(self.degrees, self.bases) if base}
        cells = {
            (d, i): d for d, base in zip(self.degrees, self.bases) for i in range(len(base))
        }
        return chain_reduce_homology(cells, self.entries)


class PresenceTables(NamedTuple):
    """The compiled form of a complex: its cells and its strand membership
    rule (see compile_presence_tables).

    coords[c] pairs the cuts on coordinate c with masks, where masks[j] is
    the bitmask of the term slots whose value is among the j smallest cuts:
    the terms a value in interval j satisfies on c.  cell maps a character
    to its cell, the tuple of its interval indices per coordinate, and mask
    to the bitmask of the term slots present in its strand.  groups lists
    per degree, from the lowest up, the (bit, index) pairs of its terms.
    """

    coords: tuple[tuple[list[int], list[int]], ...]
    cell: Callable[[Character], tuple[int, ...]]
    mask: Callable[[Character], int]
    groups: tuple[tuple[tuple[int, int], ...], ...]

    def bases(self, mask: int) -> tuple[tuple[int, ...], ...]:
        """The strand bases of a mask: per degree, the indices of its terms."""
        return tuple(tuple(i for bit, i in group if mask & bit) for group in self.groups)


def compile_presence_tables(cx: MonomialComplex) -> PresenceTables:
    """Compile the cells and the strand membership rule of a complex, once
    (cached as MonomialComplex.presence_tables).

    A term is present in the strand at a character when its candidate
    monomial character - offset is a section of the term's twist.  All terms
    share the reference degree, so on minus/plus a term is present iff
    deg(character) is the reference degree and character >= offset
    componentwise; on Y the degree test is da - db == reference degree and
    each term adds the threshold da(character) >= k1 + da(offset); on module
    the only condition is character >= offset.

    So each term contributes one value per coordinate of a flattened
    character: its offset's exponents, and on Y one more coordinate,
    da(character), valued k1 + da(offset).  The distinct values on a
    coordinate cut it into intervals, and the tuple of a character's
    interval indices is its cell.  On a cell, whether character - offset is
    negative on a coordinate, and on Y the threshold, is fixed for every
    term; so are the strand membership, read off by table lookup as the AND
    of the per-coordinate masks, and the per-term sign patterns and flags of
    the Cech oracle.  mask reads these tables per character and bases
    decodes a mask for strand; count_presence and the oracle's sweep read
    them per box of cell_boxes, a product of runs between the cuts.
    """
    seq, space = cx.seq, cx.space
    on_y = space == SPACE_Y
    slots = [(d, i, t) for d in sorted(cx.terms) for i, t in enumerate(cx.terms[d])]
    flats = [t.offset.alpha + t.offset.beta for _, _, t in slots]
    if on_y:
        flats = [
            off + (t.twist[0] + degree(seq, SPACE_Y, t.offset)[0],)
            for off, (_, _, t) in zip(flats, slots)
        ]

    def coordinate(c):
        cuts = sorted({off[c] for off in flats})
        # masks[j]: terms whose value is among the j smallest cuts.
        masks = [0] * (len(cuts) + 1)
        for bit, off in enumerate(flats):
            masks[bisect_right(cuts, off[c])] |= 1 << bit
        for j in range(1, len(masks)):
            masks[j] |= masks[j - 1]
        return cuts, masks

    coords = tuple(coordinate(c) for c in range(seq.m + seq.n + on_y))
    lines = [cuts for cuts, _ in coords]
    a = seq.a

    def cell(character):
        alpha = character.alpha
        flat = alpha + character.beta
        if on_y:
            flat += (sum(map(mul, a, alpha)),)
        return tuple(map(bisect_right, lines, flat))

    groups = ()
    if cx.terms:
        groups = tuple(
            tuple((1 << bit, i) for bit, (d_, i, _) in enumerate(slots) if d_ == d)
            for d in range(min(cx.terms), max(cx.terms) + 1)
        )
    ref = cx.reference_degree
    # Degree weights: deg on minus/plus, da - db on Y, no equation on module.
    weights = None
    if space != SPACE_MODULE:
        sign = -1 if space == SPACE_PLUS else 1
        weights = tuple(sign * w for w in seq.a) + tuple(-sign * w for w in seq.b)
    tables = [masks for _, masks in coords]

    def mask(character):
        if weights is not None and sum(map(mul, weights, character.alpha + character.beta)) != ref:
            return 0
        found = -1
        for masks, j in zip(tables, cell(character)):
            found &= masks[j]
        return found

    return PresenceTables(coords, cell, mask, groups)


def interval_runs(cuts, lo: int, hi: int) -> list[tuple[int, int, int]]:
    """The maximal runs first..last of lo..hi on which bisect_right(cuts, .)
    is constant, in order, each with that interval index; none when lo > hi.
    cuts is sorted and distinct, as in PresenceTables.coords."""
    starts = [lo] + [t for t in cuts if lo < t <= hi]
    ends = [t - 1 for t in starts[1:]] + [hi]
    index = bisect_right(cuts, lo)
    return [(a, b, index + j) for j, (a, b) in enumerate(zip(starts, ends))] if lo <= hi else []


def cell_boxes(cx: MonomialComplex, value, *, low, high) -> list[tuple[tuple[int, int, int], ...]]:
    """The products of interval_runs, one (first, last, index) run per
    coordinate and each in one cell of cx.presence_tables up to da on Y,
    that the equation of characters_of_degree(cx.seq, cx.space, value,
    low=low, high=high) can reach by the least and greatest weighted sums of
    their runs; a box kept may hold no character of the value.  Bounds come
    from _enumeration_plan, so boxes are refused as the enumeration is.
    """
    if cx.space == SPACE_PLUS:
        value = -value
    weights, lows, highs, _, _ = _enumeration_plan(cx.seq, low, high)
    coords = cx.presence_tables.coords
    runs = [interval_runs(cuts, lo, hi) for (cuts, _), lo, hi in zip(coords, lows, highs)]
    # reach[c]: least and greatest weighted sum over the coordinates from c on.
    spans = [sorted((w * lo, w * hi)) for w, lo, hi in zip(weights, lows, highs)]
    reach = [tuple(map(sum, zip((0, 0), *spans[c:]))) for c in range(len(spans) + 1)]
    boxes = [((), 0, 0)]
    for w, coordinate_runs, (rest_lo, rest_hi) in zip(weights, runs, reach[1:]):
        ends = [(run, *sorted((w * run[0], w * run[1]))) for run in coordinate_runs]
        boxes = [
            (box + (run,), least + lo, most + hi)
            for box, least, most in boxes
            for run, lo, hi in ends
            if least + lo + rest_lo <= value <= most + hi + rest_hi
        ]
    return [box for box, _, _ in boxes]


def count_presence(cx: MonomialComplex, value, *, low, high) -> dict[int, int]:
    """Count the characters of characters_of_degree(seq, "minus", value,
    low=low, high=high) per presence mask of a minus-side complex (other
    sides are refused), box by box of cell_boxes, without visiting each.

    Returns {mask: count}: a box's mask is the AND of its runs' masks (0 off
    the reference degree).  Its count is one exact big-int product (Kronecker
    substitution, Schoenhage 1982) of the free coordinates' runs, each a
    geometric series in t^|w| offset to start at t^0 and packed in slots of
    one bit more than the bit length of the box's free-point count, which no
    coefficient exceeds, so no slot carries.  Slot s then counts the free
    points of weighted sum s plus the least one, and the solved coordinate of
    _enumeration_plan reads, by shift and mask, the slot each value leaves.
    """
    if cx.space != SPACE_MINUS:
        raise Unsupported("presence cells are counted on the minus side only")
    weights, _, _, solve_at, free = _enumeration_plan(cx.seq, low, high)
    w_solve, tables = weights[solve_at], [masks for _, masks in cx.presence_tables.coords]
    present = value == cx.reference_degree
    cells: dict[int, int] = {}
    for box in cell_boxes(cx, value, low=low, high=high):
        runs = [(weights[c], box[c][0], box[c][1]) for c in free]
        width = prod(last - first + 1 for _, first, last in runs).bit_length() + 1
        packed, base = 1, value  # base: the slot of the solved coordinate at 0
        for w, first, last in runs:
            step = abs(w) * width
            packed *= ((1 << step * (last - first + 1)) - 1) // ((1 << step) - 1)
            base -= min(w * first, w * last)
        first, last, _ = box[solve_at]
        slots = range(base - w_solve * first, base - w_solve * (last + 1), -w_solve)
        ones = (1 << width) - 1
        count = sum(packed >> width * s & ones for s in slots if s >= 0)
        if not count:
            continue
        mask = -1 if present else 0
        for masks, (_, _, j) in zip(tables, box):
            mask &= masks[j]
        cells[mask] = cells.get(mask, 0) + count
    return cells


def strand(cx: MonomialComplex, mask: int) -> StrandComplex:
    """Restrict a monomial complex to the terms of one presence mask.

    Strand homology is constant on a cell of the term offsets, so a strand is
    keyed by its mask (PresenceTables.mask of any of its characters, or a key
    of count_presence) and not by a character.  Its bases come from
    PresenceTables.bases, and only the by_source rows of its present terms
    are read.  Entries act by coefficient; a present source mapping to an
    absent target would violate monotonicity of section membership and
    raises InconsistentDegrees.
    """
    bases = cx.presence_tables.bases(mask)
    low = min(cx.terms, default=0)
    degrees = tuple(range(low, low + len(bases)))
    entries = {}
    for d, src, tgt in zip(degrees, bases, bases[1:]):
        rows = {j: r for r, j in enumerate(tgt)}
        by_i = cx.by_source.get(d, {})
        for c, i in enumerate(src):
            for j, coeff in by_i.get(i, ()):
                r = rows.get(j)
                if r is None:
                    raise InconsistentDegrees("present source maps to absent target in strand")
                entries[((d, c), (d + 1, r))] = coeff
    return StrandComplex(degrees, bases, entries)


def strand_by_degree(cx: MonomialComplex, value: int) -> StrandComplex:
    """Direct sum of the strands at every character of the given total degree.

    Only supported on module-space complexes, where the character lattice of a
    fixed degree is finite.
    """
    if cx.space != SPACE_MODULE:
        raise Unsupported("degree strands are defined for module complexes only")
    seq, mask = cx.seq, cx.presence_tables.mask
    cap = max(value, 0)
    chars = sorted(
        ch
        for ch in characters_of_degree(seq, SPACE_MODULE, value, low=0, high=cap)
        if is_section(seq, SPACE_MODULE, None, ch)
    )
    strands = [s for s in (strand(cx, mask(ch)) for ch in chars) if any(s.dims())]
    if not strands:
        return StrandComplex((), (), {})
    degrees = strands[0].degrees  # every strand spans the complex's full range
    bases: dict[int, list[int]] = {d: [] for d in degrees}
    entries = {}
    for s in strands:
        # Each strand's basis elements follow those of the strands before it.
        for ((d, c), (e, r)), coeff in s.entries.items():
            entries[((d, c + len(bases[d])), (e, r + len(bases[e])))] = coeff
        for d, base in zip(degrees, s.bases):
            bases[d].extend(base)
    return StrandComplex(degrees, tuple(map(tuple, bases.values())), entries)
