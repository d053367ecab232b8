"""Exact linear algebra over the rationals.

Everything downstream (strand, resolution and Cech homology) reduces to the
homology of small sparse complexes with integer or rational entries, and all
of it goes through one engine, Gaussian chain reduction, which over a field
eliminates the differential entirely and leaves homology dimensions as the
surviving cell counts.  No syzygies are solved: the resolutions come in
closed form (see resolution.py).  Rational kernels (rref, kernel_basis) and
fraction-free (Bareiss) ranks are not called by the package; they stay as
references for the tests, and the benchmark tracer still wraps them.  No
floating point anywhere.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from math import lcm


def _integer_rows(rows) -> list[list[int]]:
    """Scale each row by the lcm of its denominators (rank is unchanged)."""
    out = []
    for row in rows:
        if any(isinstance(v, Fraction) for v in row):
            denom = lcm(*(v.denominator if isinstance(v, Fraction) else 1 for v in row))
            out.append([int(v * denom) for v in row])
        else:
            out.append([int(v) for v in row])
    return out


def exact_rank(rows, ncols: int | None = None) -> int:
    """Rank of a matrix given as a list of rows, by Bareiss elimination."""
    m = _integer_rows(rows)
    if not m:
        return 0
    nc = ncols if ncols is not None else len(m[0])
    nr = len(m)
    prev = 1
    r = 0
    for c in range(nc):
        pivot = None
        for i in range(r, nr):
            if m[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, nr):
            mic = m[i][c]
            mrc = m[r][c]
            for cc in range(c + 1, nc):
                m[i][cc] = (m[i][cc] * mrc - mic * m[r][cc]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        if r == nr:
            break
    return r


def rref(rows, ncols: int):
    """Reduced row echelon form over Q.

    Returns (pivot_columns, reduced_rows); reduced_rows are nonzero, with
    leading coefficient 1, in pivot-column order.
    """
    work = [[Fraction(v) for v in row] for row in rows if any(row)]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(work)):
            if work[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        lead = work[r][c]
        work[r] = [v / lead for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [v - f * w for v, w in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    # Pivot rows sit at the top of work only after all eliminations ran.
    return pivots, work[: len(pivots)]


def kernel_basis(rows, ncols: int) -> list[tuple[Fraction, ...]]:
    """Deterministic basis of the null space {v : A v = 0} (columns = variables).

    One vector per free column, with entry 1 there and the pivot entries
    solved from the reduced rows; ordered by free column index.
    """
    pivots, reduced = rref(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for prow, pcol in zip(reduced, pivots):
            vec[pcol] = -prow[free]
        basis.append(tuple(vec))
    return basis


def chain_reduce_homology(cell_degree: dict, entries: dict) -> dict[int, int]:
    """Homology dimensions of a sparse complex over Q by Gaussian chain reduction.

    cell_degree maps cell ids to their cohomological degree; entries maps
    (src, tgt) with deg(tgt) == deg(src) + 1 to a nonzero coefficient, and the
    entries must compose to zero.  Eliminating an entry c at (s, t) removes
    both cells and corrects every parallel pair s' -> t, s -> t' by -a*b/c;
    over a field this terminates with zero differential, so homology in each
    degree is the number of surviving cells.  Integral coefficients are
    kept as ints and a pivot c = +-1 divides as a*c, so reductions with unit
    pivots stay in int arithmetic; any other pivot divides through Fraction,
    so every value stays exact.
    """
    out: dict = {c: {} for c in cell_degree}
    inc: dict = {c: {} for c in cell_degree}
    for (s, t), coeff in entries.items():
        coeff = coeff.numerator if coeff.denominator == 1 else Fraction(coeff)
        if coeff:
            out[s][t] = coeff
            inc[t][s] = coeff

    def eliminate(s, t):
        c = out[s].pop(t)
        del inc[t][s]
        row = list(out[s].items())
        col = list(inc[t].items())
        for t2, _ in row:
            del inc[t2][s]
        for s2, _ in col:
            del out[s2][t]
        for t2 in out[t]:
            del inc[t2][t]
        for s2 in inc[s]:
            del out[s2][s]
        del out[s], inc[s], out[t], inc[t]
        touched = []
        unit = c == 1 or c == -1
        for s2, a in col:
            factor = a * c if unit else Fraction(a) / c
            target_row = out[s2]
            for t2, b in row:
                new = target_row.get(t2, 0) - factor * b
                if new:
                    target_row[t2] = new
                    inc[t2][s2] = new
                elif t2 in target_row:
                    del target_row[t2]
                    del inc[t2][s2]
            touched.append(s2)
        return touched

    # Sparse cells first keeps fill-in low on Cech-like complexes.
    queue = deque(
        sorted(out, key=lambda c: (len(out[c]) + len(inc[c]), cell_degree[c]))
    )
    while queue:
        s = queue.popleft()
        if s not in out or not out[s]:
            continue
        t = min(out[s], key=lambda cand: len(inc[cand]))
        queue.extend(eliminate(s, t))
        if out.get(s):
            queue.append(s)
        if not queue:
            queue.extend(c for c in out if out[c])

    dims: dict[int, int] = {}
    for c in out:
        d = cell_degree[c]
        dims[d] = dims.get(d, 0) + 1
    return dims
