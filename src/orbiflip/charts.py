"""Cyclic-quotient chart descriptions of the two quotients and their fiber product.

Each affine chart of X-, X+ or Y is the quotient of affine (m+n-1)-space by a
product of cyclic groups acting diagonally by roots of unity; the chart data
is the list of group orders together with one weight row per cyclic factor.
Smallness (fixed loci of codimension >= 2, i.e. the quotient map is etale in
codimension 1) is decided by enumerating group elements.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, lcm, prod

from .errors import IndexOutOfRange, TooLargeGroup
from .weights import WeightSequence

GROUP_ENUMERATION_CAP = 10**6


@dataclass(frozen=True)
class CyclicQuotientChart:
    """A quotient of affine space by a product of cyclic groups.

    weight_rows[k][c] is the action exponent of the k-th cyclic factor on the
    c-th coordinate, reduced to the range [0, group_orders[k]).
    """

    ambient_dim: int
    group_orders: tuple[int, ...]
    weight_rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.group_orders) != len(self.weight_rows):
            raise ValueError("one weight row per cyclic factor required")
        for order, row in zip(self.group_orders, self.weight_rows):
            if order < 1:
                raise ValueError("group orders must be positive")
            if len(row) != self.ambient_dim:
                raise ValueError("weight row length must equal ambient_dim")
            if any(w < 0 or w >= order for w in row):
                raise ValueError("weights must be reduced mod the factor order")

    @property
    def order(self) -> int:
        return prod(self.group_orders)

    def is_trivial(self) -> bool:
        return self.order == 1

    def render(self) -> str:
        """Chart label "1/r(w1,...,wk)" per cyclic factor, factors joined by ' x '."""
        parts = []
        for order, row in zip(self.group_orders, self.weight_rows):
            parts.append(f"1/{order}(" + ",".join(map(str, row)) + ")")
        return " x ".join(parts)


@dataclass(frozen=True)
class QuotientTypeNormalForm:
    """Permutation- and unit-invariant label of a cyclic quotient type.

    The weight vector is multiplied by the unit mod the order whose sorted
    image is lexicographically least, then sorted.
    """

    order: int
    weights: tuple[int, ...]

    def render(self) -> str:
        return f"1/{self.order}(" + ",".join(map(str, self.weights)) + ")"


def normal_form(order: int, weights) -> QuotientTypeNormalForm:
    weights = tuple(w % order for w in weights)
    if order == 1:
        return QuotientTypeNormalForm(1, tuple(sorted(weights)))
    best = None
    for u in range(1, order):
        if gcd(u, order) != 1:
            continue
        cand = tuple(sorted((u * w) % order for w in weights))
        if best is None or cand < best:
            best = cand
    return QuotientTypeNormalForm(order, best)


def minus_chart(seq: WeightSequence, i: int) -> CyclicQuotientChart:
    """Chart of X- away from the i-th coordinate divisor: Z_{a_i} acting by

        (1/a_i)(-a_1, ..., a_i omitted, ..., -a_m, b_1, ..., b_n).
    """
    if not 1 <= i <= seq.m:
        raise IndexOutOfRange(f"chart index {i} not in 1..{seq.m}")
    order = seq.a[i - 1]
    row = [-seq.a[l] for l in range(seq.m) if l != i - 1]
    row += list(seq.b)
    return CyclicQuotientChart(
        ambient_dim=seq.m + seq.n - 1,
        group_orders=(order,),
        weight_rows=(tuple(w % order for w in row),),
    )


def plus_chart(seq: WeightSequence, j: int) -> CyclicQuotientChart:
    """Chart of X+ away from the j-th y-divisor; by symmetry the minus chart
    of the swapped sequence."""
    return minus_chart(seq.swap(), j)


def y_chart(seq: WeightSequence, i: int, j: int) -> CyclicQuotientChart:
    """Chart of the fiber product Y away from A_i and B_j.

    With a = gcd(a_*), b = gcd(b_*) and a_i = a*a'_i, b_j = b*b'_j, the group
    is Z_{a'_i} x Z_{b'_j} acting on the coordinates ordered as

        (x-coordinates omitting i, the x_i*y_j slot, y-coordinates omitting j)

    with rows (1/a'_i)(-a'_*, b, 0...) and (1/b'_j)(0..., a, -b'_*).
    """
    if not 1 <= i <= seq.m:
        raise IndexOutOfRange(f"x-index {i} not in 1..{seq.m}")
    if not 1 <= j <= seq.n:
        raise IndexOutOfRange(f"y-index {j} not in 1..{seq.n}")
    a, b = gcd(*seq.a), gcd(*seq.b)
    a_prime = [v // a for v in seq.a]
    b_prime = [v // b for v in seq.b]
    o1 = a_prime[i - 1]
    o2 = b_prime[j - 1]
    row1 = [-a_prime[l] for l in range(seq.m) if l != i - 1]
    row1 += [b]
    row1 += [0] * (seq.n - 1)
    row2 = [0] * (seq.m - 1)
    row2 += [a]
    row2 += [-b_prime[l] for l in range(seq.n) if l != j - 1]
    return CyclicQuotientChart(
        ambient_dim=seq.m + seq.n - 1,
        group_orders=(o1, o2),
        weight_rows=(
            tuple(w % o1 for w in row1),
            tuple(w % o2 for w in row2),
        ),
    )


def check_group_order(chart: CyclicQuotientChart) -> None:
    """Raise TooLargeGroup for a chart group above GROUP_ENUMERATION_CAP."""
    if chart.order > GROUP_ENUMERATION_CAP:
        raise TooLargeGroup(f"group order {chart.order} exceeds {GROUP_ENUMERATION_CAP}")


def is_small(chart: CyclicQuotientChart) -> bool:
    """True iff every non-identity element acts nontrivially on >= 2 coordinates.

    Decided by enumerating the whole group; orders above the cap raise
    TooLargeGroup.
    """
    check_group_order(chart)
    orders = chart.group_orders
    lcm_all = lcm(*orders)
    scaled = [
        [w * (lcm_all // order) for w in row]
        for order, row in zip(orders, chart.weight_rows)
    ]
    for element in itertools.product(*(range(r) for r in orders)):
        if not any(element):
            continue
        moved = 0
        for c in range(chart.ambient_dim):
            action = sum(t * scaled[k][c] for k, t in enumerate(element)) % lcm_all
            if action:
                moved += 1
                if moved >= 2:
                    break
        if moved < 2:
            return False
    return True


@dataclass(frozen=True)
class AtlasEntry:
    space: str  # "minus" | "plus" | "Y"
    index: tuple[int, ...]  # (i,), (j,) or (i, j); 1-based
    chart: CyclicQuotientChart
    small: bool
    normal_forms: tuple[QuotientTypeNormalForm, ...]

    def label(self) -> str:
        idx = ",".join(map(str, self.index))
        return f"{self.space}[{idx}]: {self.chart.render()}"


def atlas_report(seq: WeightSequence) -> list[AtlasEntry]:
    """All charts of X- (i = 1..m), X+ (j = 1..n) and Y (i, j), in that order,
    each with its smallness flag and per-factor normal forms.

    Both loop over group elements or units, so every chart's order is checked
    against GROUP_ENUMERATION_CAP before either runs on any chart.
    """
    charts = [("minus", (i,), minus_chart(seq, i)) for i in range(1, seq.m + 1)]
    charts += [("plus", (j,), plus_chart(seq, j)) for j in range(1, seq.n + 1)]
    if seq.m >= 1 and seq.n >= 1:
        charts += [
            ("Y", (i, j), y_chart(seq, i, j))
            for i in range(1, seq.m + 1)
            for j in range(1, seq.n + 1)
        ]
    for _, _, chart in charts:
        check_group_order(chart)
    return [
        AtlasEntry(
            space,
            index,
            chart,
            is_small(chart),
            tuple(
                normal_form(order, row)
                for order, row in zip(chart.group_orders, chart.weight_rows)
            ),
        )
        for space, index, chart in charts
    ]
