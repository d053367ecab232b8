"""Twist classes, divisor dictionary, pushforward rules, and the Cech oracle.

The two quotients and their fiber product carry invertible orbifold sheaves
O(k) (an integer twist on either side, a pair on Y) pinned down by the
divisor table

    on X-:  A_i -> a_i,   B_j -> -b_j
    on X+:  A_i -> -a_i,  B_j -> b_j
    on Y:   A_i -> (a_i, 0), B_j -> (0, b_j), Ebar -> (-1, -1)

which is the unique assignment consistent with the pullback identities
mu-*A_i = A_i and mu+*A_i = A_i + a_i*Ebar.

The Cech oracle is the package's independent ground truth: per character it
computes the cohomology of the covering by the coordinate charts, with the
orbifold divisibility filter built in by working with downstairs exponents.
A side is covered by its m (or n) charts.  Y is covered twice, by the
x-charts U_i = {x_i != 0} and by the y-charts V_j = {y_j != 0}, and every
U_A meet V_B is an affine chart intersection, so the oracle reduces the Cech
bicomplex of the two covers: (2^m - 1)(2^n - 1) cells (A, B) at most, where
the cover by the m*n charts {x_i y_j != 0} has 2^(m*n) - 1 chart subsets.
Membership of a character on a cell is a sign pattern plus, on Y and for
threshold ideal sheaves, one threshold flag, so homology dimensions are
memoized per pattern.  Hypercohomology of complexes of twists runs the full
Cech double complex per strand.  Pattern and double complexes alike reduce
through exact.chain_reduce_homology, the one-step case of the package's one
homology engine.

One sweep serves both tables, cell by cell (_cell_sweep): O(twist) is a
one-term complex, and a threshold is one more cut on da.  A cell of the
compiled tables (linalg.compile_presence_tables) fixes every term's pattern
and flag, which _cell_patterns reads off its masks: term b needs coordinate
c inverted iff its bit is absent from the mask of the cell's interval on c,
and on Y it passes the flag iff its bit is present on the extra da
coordinate.  character_cohomology is the per-character reference.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from operator import mul

from .errors import (
    IndexOutOfRange,
    InconsistentDegrees,
    Unsupported,
    UnsupportedWeights,
    WrongSide,
)
from .exact import chain_reduce_homology
from .linalg import (
    SPACE_MINUS,
    SPACE_PLUS,
    SPACE_Y,
    Character,
    MonomialComplex,
    Term,
    cell_boxes,
    characters_of_degree,
    degree,
    single_twist_complex,
    x_character,
    y_character,
)
from .resolution import monomial_counts
from .weights import WeightSequence


@dataclass(frozen=True)
class TwistClass:
    """An orbifold line-bundle class: one integer on X-, X+; a pair on Y."""

    space: str
    k: object

    def __post_init__(self):
        if self.space == SPACE_Y:
            if not (isinstance(self.k, tuple) and len(self.k) == 2):
                raise InconsistentDegrees("Y twists are (k1, k2) pairs")
        elif not isinstance(self.k, int):
            raise InconsistentDegrees(f"{self.space} twists are integers")

    def render(self) -> str:
        if self.space == SPACE_Y:
            return f"O_Y({self.k[0]},{self.k[1]})"
        tag = {"minus": "X-", "plus": "X+"}.get(self.space, self.space)
        return f"O_{tag}({self.k})"


@dataclass(frozen=True)
class ShiftedTwist:
    """A twist class with a homological shift, e.g. the Serre functor image."""

    twist: TwistClass
    shift: int

    def render(self) -> str:
        return f"{self.twist.render()}[{self.shift}]"


@dataclass(frozen=True)
class DivisorId:
    """A prime divisor name: A(i), B(j), Ebar, or the exceptional locus E."""

    kind: str  # "A" | "B" | "Ebar" | "Eminus" | "Eplus"
    index: int | None = None


def A(i: int) -> DivisorId:
    return DivisorId("A", i)


def B(j: int) -> DivisorId:
    return DivisorId("B", j)


EBAR = DivisorId("Ebar")
EMINUS = DivisorId("Eminus")
EPLUS = DivisorId("Eplus")


def class_of_divisor(seq: WeightSequence, space: str, divisor: DivisorId) -> TwistClass:
    """Twist class of a prime divisor, per the convention table above.

    Ebar lives on Y only.  Eminus/Eplus denote the exceptional locus E: on Y
    (where E = gcd(a)*gcd(b)*Ebar) either name resolves to E's class; on X-
    it is a divisor only in the divisorial case n = 1 (equal to B(1)), and
    symmetrically on X+.
    """
    if divisor.kind == "A":
        i = divisor.index
        if not (i and 1 <= i <= seq.m):
            raise IndexOutOfRange(f"A({i}) with m = {seq.m}")
        w = seq.a[i - 1]
        if space == SPACE_MINUS:
            return TwistClass(space, w)
        if space == SPACE_PLUS:
            return TwistClass(space, -w)
        if space == SPACE_Y:
            return TwistClass(space, (w, 0))
        raise WrongSide(f"A(i) undefined on {space!r}")
    if divisor.kind == "B":
        j = divisor.index
        if not (j and 1 <= j <= seq.n):
            raise IndexOutOfRange(f"B({j}) with n = {seq.n}")
        w = seq.b[j - 1]
        if space == SPACE_MINUS:
            return TwistClass(space, -w)
        if space == SPACE_PLUS:
            return TwistClass(space, w)
        if space == SPACE_Y:
            return TwistClass(space, (0, w))
        raise WrongSide(f"B(j) undefined on {space!r}")
    if divisor.kind == "Ebar":
        if space != SPACE_Y:
            raise WrongSide("Ebar lives on Y only")
        return TwistClass(space, (-1, -1))
    if divisor.kind in ("Eminus", "Eplus"):
        if space == SPACE_Y:
            if seq.m == 0 or seq.n == 0:
                raise WrongSide("exceptional locus needs both sides nonempty")
            c = gcd(*seq.a) * gcd(*seq.b)
            return TwistClass(space, (-c, -c))
        if divisor.kind == "Eminus" and space == SPACE_MINUS and seq.n == 1:
            return TwistClass(space, -seq.b[0])
        if divisor.kind == "Eplus" and space == SPACE_PLUS and seq.m == 1:
            return TwistClass(space, -seq.a[0])
        raise WrongSide(
            f"{divisor.kind} is not a divisor on {space!r} for this sequence"
        )
    raise WrongSide(f"unknown divisor kind {divisor.kind!r}")


def dualizing_class(seq: WeightSequence, space: str, relative: str | None = None) -> TwistClass:
    """Dualizing twist of a space, or the relative one of Y over a side.

    omega_{X-} = O(sum b - sum a), omega_{X+} = O(sum a - sum b),
    omega_Y = O(1 - sum a, 1 - sum b) (extra ramification along E);
    relative "plus"/"minus" give omega_{Y/X+} = O((sum a - 1) Ebar) and
    omega_{Y/X-} = O((sum b - 1) Ebar).
    """
    sa, sb = seq.sum_a, seq.sum_b
    if relative is not None:
        if space != SPACE_Y:
            raise WrongSide("relative dualizing classes live on Y")
        if relative == SPACE_PLUS:
            return TwistClass(SPACE_Y, (1 - sa, 1 - sa))
        if relative == SPACE_MINUS:
            return TwistClass(SPACE_Y, (1 - sb, 1 - sb))
        raise WrongSide(f"unknown relative side {relative!r}")
    if space == SPACE_MINUS:
        return TwistClass(space, sb - sa)
    if space == SPACE_PLUS:
        return TwistClass(space, sa - sb)
    if space == SPACE_Y:
        return TwistClass(space, (1 - sa, 1 - sb))
    raise WrongSide(f"no dualizing class on {space!r}")


def pullback(seq: WeightSequence, side: str, k: int) -> TwistClass:
    """Pullback of O(k) along the contraction from Y to the given side."""
    if side == SPACE_MINUS:
        return TwistClass(SPACE_Y, (k, 0))
    if side == SPACE_PLUS:
        return TwistClass(SPACE_Y, (0, k))
    raise WrongSide(f"pullback is from a side, not {side!r}")


@dataclass(frozen=True)
class PushforwardResult:
    """Total direct image of O_Y(p, q) along a side contraction.

    kind "line": O(twist).  kind "ideal": the threshold ideal sheaf
    I_{ideal_index}(twist).  kind "not_closed_form": the higher direct images
    do not vanish and no closed form is asserted; a value, not an error.
    """

    kind: str
    twist: int | None = None
    ideal_index: int | None = None

    def render(self) -> str:
        if self.kind == "line":
            return f"O({self.twist})"
        if self.kind == "ideal":
            return f"I_{self.ideal_index}({self.twist})"
        return "NotClosedForm"


def line_twist(k: int) -> PushforwardResult:
    return PushforwardResult("line", twist=k)


def ideal_twist(q: int, s: int) -> PushforwardResult:
    if q < 1:
        raise InconsistentDegrees("ideal twists need index >= 1")
    return PushforwardResult("ideal", twist=s, ideal_index=q)


NOT_CLOSED_FORM = PushforwardResult("not_closed_form")


def pushforward_rule(seq: WeightSequence, side: str, pq: tuple[int, int]) -> PushforwardResult:
    """Closed-form total direct image of O_Y(p, q) along mu to the given side.

    Pushing to X- decomposes O(p, q) as pull(p - q) tensor O(-q Ebar): powers
    O(c Ebar) with 0 <= c <= sum(b) - 1 push to the structure sheaf, powers
    O(-q Ebar) with q >= 1 to the threshold ideal I_q, and at c = sum(b) the
    top fiber cohomology switches on and no closed form is returned.  The
    plus side is the mirror image.
    """
    if seq.m < 2 or seq.n < 2:
        raise Unsupported("pushforward rules assume m, n >= 2")
    p, q = pq
    if side == SPACE_MINUS:
        if 1 - seq.sum_b <= q <= 0:
            return line_twist(p - q)
        if q >= 1:
            return ideal_twist(q, p - q)
        return NOT_CLOSED_FORM
    if side == SPACE_PLUS:
        if 1 - seq.sum_a <= p <= 0:
            return line_twist(q - p)
        if p >= 1:
            return ideal_twist(p, q - p)
        return NOT_CLOSED_FORM
    raise WrongSide(f"pushforward lands on a side, not {side!r}")


def space_dimension(seq: WeightSequence, space: str) -> int:
    if space in (SPACE_MINUS, SPACE_PLUS, SPACE_Y):
        return seq.m + seq.n - 1
    raise WrongSide(f"no dimension for {space!r}")


def serre_twist(seq: WeightSequence, space: str, obj):
    """Serre functor: tensor with the dualizing class, shift by the dimension.

    TwistClass (or bare twist) input gives a ShiftedTwist; a MonomialComplex
    comes back twisted with all cohomological degrees lowered by dim.
    """
    omega = dualizing_class(seq, space).k
    dim = space_dimension(seq, space)
    if isinstance(obj, MonomialComplex):
        return obj.tensor(omega).shift(dim)
    if isinstance(obj, TwistClass):
        k = obj.k
    else:
        k = obj
    if space == SPACE_Y:
        new = (k[0] + omega[0], k[1] + omega[1])
    else:
        new = k + omega
    return ShiftedTwist(TwistClass(space, new), dim)


# ---------------------------------------------------------------------------
# The Cech oracle.


CHART_LIMIT = 12


def _cech_complex(cells, tag=(), shift=0):
    """The (cells, entries) pair chain_reduce_homology takes for a family of
    Cech cells from _pattern_subsets, each cell keyed tag + (cell,) and
    placed in degree shift + its Cech degree."""
    degrees = {tag + (cell,): shift + deg for cell, deg, _ in cells}
    entries = {
        (tag + (face,), tag + (cell,)): sign
        for cell, _, faces in cells
        for face, sign in faces
    }
    return degrees, entries


@lru_cache(maxsize=None)
def _side_pattern_dims(m: int, neg: frozenset) -> dict[int, int]:
    """Cohomology dims of the m-chart cover for the sign pattern neg.

    The character is allowed on a chart intersection iff the inverted charts
    cover its negative coordinates; dims are computed honestly from the
    alternating Cech complex by exact reduction and memoized per pattern.
    A side cover is the minus cover of its m charts.
    """
    subsets = _pattern_subsets(SPACE_MINUS, m, 0, neg)
    return chain_reduce_homology(*_cech_complex(subsets))


@lru_cache(maxsize=None)
def _y_pattern_dims(m: int, n: int, neg_x: frozenset, neg_y: frozenset) -> dict[int, int]:
    """Cohomology dims of Y for a sign pattern, from the Cech bicomplex of
    the x- and y-chart covers: a cell (A, B) is allowed iff A covers neg_x
    and B covers neg_y, so (2^m - 1)(2^n - 1) cells at most, where the cover
    by the m*n charts {x_i y_j != 0} has 2^(m*n) - 1.
    """
    subsets = _pattern_subsets(SPACE_Y, m, n, (neg_x, neg_y))
    return chain_reduce_homology(*_cech_complex(subsets))


def character_cohomology(
    seq: WeightSequence, space: str, twist, char: Character, threshold: int | None = None
) -> dict[int, int]:
    """Cech cohomology dims of O(twist) (or I_threshold(twist)) at one character.

    The character must satisfy the degree equation of the twist; otherwise
    the answer is empty.  threshold adds the ideal-sheaf condition: weighted
    y-degree >= threshold on X-, weighted x-degree >= threshold on X+.  The
    dims are those of the character's sign pattern, as in cohomology_table.
    """
    pattern = _term_pattern(seq, space, twist, char, threshold)
    d = degree(seq, space, char)
    if space == SPACE_Y:
        d, twist = d[0] - d[1], twist[0] - twist[1]
    return _pattern_homology(space, seq.m, seq.n, pattern) if d == twist else {}


def cohomology_table(
    seq: WeightSequence,
    space: str,
    twist,
    box: int,
    threshold: int | None = None,
) -> dict[Character, dict[int, int]]:
    """Per-character cohomology of a twist over the exponent box; zero rows
    are omitted, so tables compare as sparse dictionaries.

    O(twist) is the one-term complex single_twist_complex(seq, space, twist),
    swept by _cell_sweep over hypercohomology_bounds(cx, box): its cuts at 0
    are the sign orthants, and on Y its flag is the cut da = k1.
    I_threshold(twist) needs weighted y-degree >= threshold on X-, that is
    da >= threshold + twist, and da >= threshold on X+.  Y carries no ideal
    sheaf: a threshold there is refused up front.
    """
    if space not in (SPACE_MINUS, SPACE_PLUS, SPACE_Y):
        raise WrongSide(f"no charts on {space!r}")
    if threshold is not None and space == SPACE_Y:
        raise Unsupported("a threshold sets an ideal sheaf on minus or plus, not on Y")
    da_floor = threshold + twist if threshold is not None and space == SPACE_MINUS else threshold
    cx = single_twist_complex(seq, space, twist)
    return _cell_sweep(cx, *hypercohomology_bounds(cx, box), da_floor)


def total_cohomology(table: dict[Character, dict[int, int]]) -> dict[int, int]:
    totals: dict[int, int] = {}
    for dims in table.values():
        for d, h in dims.items():
            totals[d] = totals.get(d, 0) + h
    return totals


def wps_cohomology_totals(weights, k: int) -> list[int]:
    """Exact cohomology dimensions of O(k) on the weighted projective space
    P(weights), degree by degree.

    The per-character oracle vanishes off the two finite regions alpha >= 0
    and alpha <= -1, so the totals need no box.  Each region is one cell:
    its characters all have the sign pattern of no inverted chart, or of all
    of them.  So a region adds its number of characters of degree k (the
    monomials of degree k, and of degree -k - sum(weights) by alpha = -1 - mu,
    counted by resolution.monomial_counts without listing any) times its
    pattern's dims.  character_cohomology is the per-character reference.
    """
    weights = WeightSequence(weights, ()).a
    m = len(weights)
    dims = [0] * m
    for d, neg in ((k, frozenset()), (-k - sum(weights), frozenset(range(m)))):
        count = monomial_counts(weights, d + 1)[d] if d >= 0 else 0
        if count:
            for i, h in _side_pattern_dims(m, neg).items():
                dims[i] += count * h
    return dims


# ---------------------------------------------------------------------------
# Hypercohomology of complexes of twists.


def _sign_pattern(space, neg_x: frozenset, neg_y: frozenset):
    """Sign pattern of a character with negative x-exponents neg_x and
    negative y-exponents neg_y: which chart inversions it needs.  None when
    no chart allows it (negative exponents the charts never invert)."""
    if space == SPACE_MINUS:
        return None if neg_y else neg_x
    if space == SPACE_PLUS:
        return None if neg_x else neg_y
    if space == SPACE_Y:
        return neg_x, neg_y
    raise WrongSide(f"no charts on {space!r}")


def _term_pattern(seq, space, twist, char, threshold=None):
    """Sign pattern of a character for one term, or None when no chart
    allows it at all: forbidden negative exponents, or a failed flag.  The
    flag is weighted y-degree >= threshold on X- and weighted x-degree >=
    threshold on X+ when a threshold is set; on Y, da(character) >= k1."""
    pattern = _sign_pattern(
        space,
        frozenset(i for i, e in enumerate(char.alpha) if e < 0),
        frozenset(j for j, e in enumerate(char.beta) if e < 0),
    )
    if space == SPACE_Y:
        weights, exps, bound = seq.a, char.alpha, twist[0]
    elif threshold is None:
        return pattern
    elif space == SPACE_MINUS:
        weights, exps, bound = seq.b, char.beta, threshold
    else:
        weights, exps, bound = seq.a, char.alpha, threshold
    return pattern if sum(map(mul, weights, exps)) >= bound else None


def _supersets(count: int, need: frozenset) -> list[tuple[int, ...]]:
    """The nonempty subsets of range(count) that contain need, smallest first."""
    free = [c for c in range(count) if c not in need]
    return [
        tuple(sorted(need.union(extra)))
        for size in range(len(free) + 1)
        for extra in itertools.combinations(free, size)
        if need or extra
    ]


@lru_cache(maxsize=None)
def _pattern_subsets(space: str, m: int, n: int, pattern) -> tuple:
    """The Cech cells allowed for a sign pattern, with their faces.

    A cell is a tuple of nonempty chart subsets, one per cover.  A side has
    one cover, by its m (minus) or n (plus) charts.  Y has two: the x-charts
    {x_i != 0} and the y-charts {y_j != 0}, and a cell (A, B) is the affine
    chart intersection U_A meet V_B, so this is the Cech bicomplex of the two
    covers.  A cell is allowed iff each subset contains the pattern's
    negative coordinates on its cover.  Its Cech degree is the sum of the
    subset sizes minus the number of covers; dropping the chart at position
    pos of the k-th subset gives a face with sign (-1)^(e + pos), e the Cech
    degree the earlier subsets carry.  Returns (cell, degree, faces) triples,
    faces listing the allowed (face, sign) pairs.

    Before any cell is formed, Unsupported refuses a side cover of more than
    CHART_LIMIT charts, and a Y bicomplex of more than 2^CHART_LIMIT - 1
    cells, (2^m - 1)(2^n - 1) before the pattern is applied: the cells, not
    the m*n charts {x_i y_j != 0}, are what the oracle reduces.
    """
    if pattern is None:
        return ()
    if space == SPACE_Y:
        needs = ((m, pattern[0]), (n, pattern[1]))
        size = ((1 << m) - 1) * ((1 << n) - 1)
        if size > (1 << CHART_LIMIT) - 1:
            raise Unsupported(
                f"a Cech bicomplex of {m} x {n} charts has {size} cells, more "
                f"than 2^{CHART_LIMIT} - 1"
            )
    else:
        charts = m if space == SPACE_MINUS else n
        needs = ((charts, pattern),)
        if charts > CHART_LIMIT:
            raise Unsupported(
                f"a Cech cover of {charts} charts has more than 2^{CHART_LIMIT} "
                "chart subsets"
            )
    cells = list(itertools.product(*(_supersets(count, need) for count, need in needs)))
    family = set(cells)
    out = []
    for cell in cells:
        faces = []
        before = 0
        for k, sub in enumerate(cell):
            for pos in range(len(sub)):
                face = cell[:k] + (sub[:pos] + sub[pos + 1 :],) + cell[k + 1 :]
                if face in family:
                    faces.append((face, -1 if (before + pos) % 2 else 1))
            before += len(sub) - 1
        out.append((cell, before, tuple(faces)))
    return tuple(out)


@lru_cache(maxsize=None)
def _pattern_homology(space: str, m: int, n: int, pattern) -> dict:
    if pattern is None:
        return {}
    if space == SPACE_Y:
        return _y_pattern_dims(m, n, pattern[0], pattern[1])
    count = m if space == SPACE_MINUS else n
    return _side_pattern_dims(count, pattern)


def _cell_patterns(cx: MonomialComplex, cell: tuple[int, ...]) -> tuple:
    """The ((d, i), sign pattern or None) pair of every term, in degree
    order, at the characters of one cell of the complex's compiled tables.

    Bit b is absent from masks[cell[c]] on coordinate c exactly when
    (character - offset_b)[c] < 0, and on Y the extra coordinate's bit is
    the flag da(character - offset_b) >= k1.  So the patterns are read off
    the masks, with no character arithmetic, and equal _term_pattern of
    character - offset per term.
    """
    space, m, n = cx.space, cx.seq.m, cx.seq.n
    tables = cx.presence_tables
    absent = [~masks[j] for (_, masks), j in zip(tables.coords, cell)]
    flag_absent = absent[m + n] if space == SPACE_Y else 0
    patterns = []
    for d, group in zip(itertools.count(min(cx.terms, default=0)), tables.groups):
        for bit, i in group:
            pattern = None
            if not flag_absent & bit:
                pattern = _sign_pattern(
                    space,
                    frozenset(c for c in range(m) if absent[c] & bit),
                    frozenset(c for c in range(n) if absent[m + c] & bit),
                )
            patterns.append(((d, i), pattern))
    return tuple(patterns)


_HYPER_MEMO: dict = {}


def hypercohomology_strand(cx: MonomialComplex, cell: tuple[int, ...]) -> dict[int, int]:
    """Hypercohomology dims of the Cech double complex of cx at the
    characters of one cell of its compiled tables (PresenceTables.cell).

    The per-term sign patterns and flags are read off the cell
    (_cell_patterns).  Total degree = term degree + Cech degree.  The first
    page of the term-degree filtration is the per-term Cech cohomology
    (_pattern_homology); when at most one term has any, the spectral
    sequence degenerates there and that term's dims, shifted by its degree,
    are the answer ({} when none has).  Otherwise the whole double complex
    is built and reduced.  It is a function of the per-term sign patterns
    alone, so reductions are memoized by (complex signature, pattern
    tuple), a key of ints whenever the complex's coefficients are integral
    (see MonomialComplex).  Coefficients enter the reduction as stored.
    """
    space, m, n = cx.space, cx.seq.m, cx.seq.n
    patterns = _cell_patterns(cx, cell)
    live = [(d, dims) for (d, _), p in patterns if (dims := _pattern_homology(space, m, n, p))]
    if len(live) <= 1:
        return {d + i: h for d, dims in live for i, h in dims.items()}
    key = (cx.signature, patterns)
    cached = _HYPER_MEMO.get(key)
    if cached is not None:
        return cached

    families = {
        (d, i): _pattern_subsets(space, m, n, p) for (d, i), p in patterns
    }
    cells: dict[tuple, int] = {}
    entries: dict[tuple, object] = {}
    # Cech coboundaries within each term.
    for (d, i), family in families.items():
        term_cells, term_entries = _cech_complex(family, (d, i), d)
        cells.update(term_cells)
        entries.update(term_entries)
    # Term differentials, sign-twisted by the Cech degree.
    for (d, i), family in families.items():
        if not family:
            continue
        for j, coeff in cx.row(d, i):
            for cell, cech_degree, _ in family:
                if (d + 1, j, cell) not in cells:
                    raise InconsistentDegrees(
                        "chart membership not monotone along a differential"
                    )
                entries[((d, i, cell), (d + 1, j, cell))] = (
                    -coeff if cech_degree % 2 else coeff
                )
    result = chain_reduce_homology(cells, entries)
    _HYPER_MEMO[key] = result
    return result


def hypercohomology_table(cx: MonomialComplex, box: int) -> dict[Character, dict[int, int]]:
    """Per-character hypercohomology of a complex of twists over a box.

    The live region of a strand sits inside the envelope of the term offsets:
    coordinates forced nonnegative on every chart are clamped at the envelope
    minimum, all others padded by the box on both sides.
    """
    if cx.reference_degree is None or not cx.terms:
        return {}
    return hypercohomology_table_bounded(cx, *hypercohomology_bounds(cx, box))


def hypercohomology_bounds(cx: MonomialComplex, box: int):
    """Character bounds covering every strand the box-padded envelope can see."""
    seq, space = cx.seq, cx.space
    offsets = [t.offset for ts in cx.terms.values() for t in ts]
    lo_a = [min(o.alpha[i] for o in offsets) for i in range(seq.m)]
    hi_a = [max(o.alpha[i] for o in offsets) for i in range(seq.m)]
    lo_b = [min(o.beta[j] for o in offsets) for j in range(seq.n)]
    hi_b = [max(o.beta[j] for o in offsets) for j in range(seq.n)]
    pad_a_low = 0 if space == SPACE_PLUS else box
    pad_b_low = 0 if space == SPACE_MINUS else box
    lows = (
        tuple(v - pad_a_low for v in lo_a),
        tuple(v - pad_b_low for v in lo_b),
    )
    highs = (
        tuple(v + box for v in hi_a),
        tuple(v + box for v in hi_b),
    )
    return lows, highs


def hypercohomology_table_bounded(
    cx: MonomialComplex, lows, highs
) -> dict[Character, dict[int, int]]:
    """hypercohomology_table over explicit character bounds, by _cell_sweep."""
    if cx.reference_degree is None or not cx.terms:
        return {}
    return _cell_sweep(cx, lows, highs)


def _cell_sweep(cx: MonomialComplex, lows, highs, da_floor=None) -> dict:
    """Per-character hypercohomology of cx over a character box, by cells.

    The boxes are those of linalg.cell_boxes: products of runs between the
    cuts of cx.presence_tables that the degree equation can reach, each in
    one cell up to the da coordinate on Y.  Characters with da below
    da_floor have no cohomology (a threshold).  The da intervals a box
    cannot reach are dropped; each reachable cell goes once through
    hypercohomology_strand, and characters are enumerated only in boxes
    with cohomology, with one bisect of da each.  A refused Cech cover
    raises Unsupported only at a character of its cell.
    """
    seq, space, value = cx.seq, cx.space, cx.reference_degree
    m, coords, on_y = seq.m, cx.presence_tables.coords, space == SPACE_Y
    da_minus_db = -value if space == SPACE_PLUS else value
    da_cuts = coords[-1][0] if on_y else [] if da_floor is None else [da_floor]
    floor = 0 if on_y or da_floor is None else 1  # levels below it are zero

    def evaluate(cell):
        try:
            return hypercohomology_strand(cx, cell)
        except Unsupported as exc:
            return exc

    out: dict[Character, dict[int, int]] = {}
    for box in cell_boxes(cx, value, low=lows, high=highs):
        firsts, lasts = [run[0] for run in box], [run[1] for run in box]
        cell = tuple(run[2] for run in box)
        low = max(sum(map(mul, seq.a, firsts)), da_minus_db + sum(map(mul, seq.b, firsts[m:])))
        high = min(sum(map(mul, seq.a, lasts)), da_minus_db + sum(map(mul, seq.b, lasts[m:])))
        first = bisect_right(da_cuts, low)
        levels = [
            evaluate(cell + (j,) if on_y else cell) if j >= floor else {}
            for j in range(first, bisect_right(da_cuts, high) + 1)
        ]
        if not any(levels):
            continue
        for ch in characters_of_degree(
            seq, space, value, low=(firsts[:m], firsts[m:]), high=(lasts[:m], lasts[m:])
        ):
            dims = levels[0]
            if len(levels) > 1:
                dims = levels[bisect_right(da_cuts, sum(map(mul, seq.a, ch.alpha))) - first]
            if isinstance(dims, Unsupported):
                raise dims
            if dims:
                out[ch] = dims
    return out


# ---------------------------------------------------------------------------
# Standard complexes on the quotients.


def exceptional_koszul(seq: WeightSequence, side: str, d: int) -> MonomialComplex:
    """Koszul complex of the coordinate cut of the exceptional locus.

    On X+ the exceptional weighted projective space P(b) is cut by all x_i,
    so O_{E+}(d) is resolved by terms O(d + sum_{i in S} a_i) over subsets S,
    in cohomological degrees -|S|; the minus side mirrors with the y's.
    """
    if seq.m < 2 or seq.n < 2:
        raise Unsupported("the exceptional locus needs m, n >= 2")
    if side == SPACE_PLUS:
        weights, embed = seq.a, x_character
    elif side == SPACE_MINUS:
        weights, embed = seq.b, y_character
    else:
        raise WrongSide(f"exceptional locus lives on a side, not {side!r}")
    count = len(weights)
    terms, entries = {}, {}
    for sub in [()] + _supersets(count, frozenset()):
        exps = [int(i in sub) for i in range(count)]
        terms[sub] = (-len(sub), Term(d + sum(weights[i] for i in sub), embed(seq, exps)))
        for pos in range(len(sub)):
            entries[sub, sub[:pos] + sub[pos + 1 :]] = (-1) ** pos
    return MonomialComplex.from_keys(seq, side, terms, entries)


def euler_cotangent_complex(seq: WeightSequence, side: str, d: int) -> MonomialComplex:
    """A line-bundle complex on a side quasi-isomorphic to the twisted
    cotangent sheaf of the exceptional projective space.

    Only the unweighted Euler sequence is in scope: on X+ all b_j must be 1.
    The complex is the totalization of the Koszul resolutions of the Euler
    presentation [O_{E+}(d-1)^n -> O_{E+}(d)], its cohomology being the
    kernel Omega^1_{E+}(d) in degree 0.
    """
    if seq.m < 2 or seq.n < 2:
        raise Unsupported("the exceptional locus needs m, n >= 2")
    if side == SPACE_PLUS:
        name, fiber_weights, cut_weights = "b", seq.b, seq.a
        embed_cut, embed_fiber = x_character, y_character
    elif side == SPACE_MINUS:
        name, fiber_weights, cut_weights = "a", seq.a, seq.b
        embed_cut, embed_fiber = y_character, x_character
    else:
        raise WrongSide(f"cotangent objects live on a side, not {side!r}")
    if any(w != 1 for w in fiber_weights):
        raise UnsupportedWeights(f"Euler cotangent objects need unit {name}-weights, got {seq}")

    # Keys: (S, j) for the j-th copy of O(d - 1) in the fiber row, (S, None)
    # for the O(d) row, over the subsets S of the cut coordinates.
    count, fiber = len(cut_weights), len(fiber_weights)
    terms, entries = {}, {}
    for sub in [()] + _supersets(count, frozenset()):
        base = embed_cut(seq, [int(i in sub) for i in range(count)])
        twist = d + sum(cut_weights[i] for i in sub)
        for j in range(fiber):
            offset = base + embed_fiber(seq, [int(c == j) for c in range(fiber)])
            terms[sub, j] = (-len(sub), Term(twist - 1, offset))
        terms[sub, None] = (1 - len(sub), Term(twist, base))
        # Koszul differentials within each row.
        for pos in range(len(sub)):
            smaller = sub[:pos] + sub[pos + 1 :]
            for j in (*range(fiber), None):
                entries[(sub, j), (smaller, j)] = (-1) ** pos
        # Euler map across rows, sign-twisted by the Koszul degree.
        for j in range(fiber):
            entries[(sub, j), (sub, None)] = (-1) ** len(sub)
    return MonomialComplex.from_keys(seq, side, terms, entries)
