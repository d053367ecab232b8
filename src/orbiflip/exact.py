"""Exact linear algebra over the rationals.

Everything downstream (strand, resolution and Cech homology) reduces to the
homology of small sparse complexes, and all of it goes through one engine,
persistence column reduction with clearing (filtered_homology), which
reduces a filtered complex once for all its prefixes; a plain complex is the
filtered complex of one step (chain_reduce_homology).  Entries are ints or
Fractions, taken as given: linalg.MonomialComplex alone decides how a
coefficient is stored, and refuses floats.  No syzygies are solved: the
resolutions come in closed form (see resolution.py).  Rational kernels
(rref, kernel_basis) and fraction-free (Bareiss) ranks are not called by the
package; they stay as references for the tests, and the benchmark tracer
still wraps them.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import lcm

from .errors import InconsistentDegrees


def _integer_rows(rows) -> list[list[int]]:
    """Scale each row by the lcm of its denominators (rank is unchanged)."""
    out = []
    for row in rows:
        denom = lcm(*(v.denominator for v in row))
        out.append([int(v * denom) for v in row])
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
    """Homology dimensions of a sparse complex over Q: filtered_homology with
    every cell entering at the one step.

    cell_degree maps cell ids to their cohomological degree; entries maps
    (src, tgt) with deg(tgt) == deg(src) + 1 to a coefficient, and the
    entries must compose to zero.  The cells go in descending degree, so
    every target comes before its sources, and the entries become one row
    per source.  Entries are ints or Fractions and are used as given: int
    entries stay ints at unit pivots, and only a non-unit pivot divides
    through Fraction.
    """
    rows: dict = {c: [] for c in cell_degree}
    for (s, t), coeff in entries.items():
        if coeff:
            rows[s].append((t, coeff))
    cells = sorted(cell_degree, key=cell_degree.__getitem__, reverse=True)
    return filtered_homology(cells, cell_degree, dict.fromkeys(cells, 0), rows, 1)[0]


def filtered_homology(cells, cell_degree, cell_step, rows, steps: int) -> list[dict[int, int]]:
    """Homology dimensions over Q of every prefix of a filtered complex, by
    one persistence column reduction (Zomorodian-Carlsson, Computing
    persistent homology, 2005) with clearing (Chen-Kerber, Persistent
    homology computation with a twist, 2011).

    cells lists the cells of the complex in filtration order: by the step,
    cell_step[c] in range(steps), at which a cell enters, and on one step the
    higher degree (targets) first.  cell_degree[c] is the cohomological
    degree of cell c and rows[c] the (target, coefficient) pairs of its
    differential, which must compose to zero.  The prefix at step j holds the
    cells entered by j and must be a subcomplex: a target that is not among
    cells, or that comes after its source, raises InconsistentDegrees.  Only
    the columns that are reduced are checked, but that is enough: because
    d o d = 0, the first cell whose row meets a given target is never cleared.

    Each cell's column is reduced against the pivots of the columns before
    it in its degree, lower degrees first, so that a column whose cell is
    already a pivot row, and would reduce to zero, is skipped (clearing).  A
    unit pivot divides as a product, so int entries stay ints; any other
    pivot divides through Fraction.  Each pivot pairs a source with a target
    that enters no later, and the rank of the prefix's differential is the
    number of pairs whose source has entered: the prefix's dims are its
    cells per degree, less one in each degree of each such pair.  Returns
    those dims, nonzero entries only, for every step.
    """
    position = {c: p for p, c in enumerate(cells)}
    entered = list(map(cell_step.__getitem__, cells))
    if entered != sorted(entered):
        raise InconsistentDegrees("cells are not in the order of their entry steps")
    change = Counter(zip(entered, map(cell_degree.__getitem__, cells)))
    pivots: dict[int, dict] = {}
    # sorted is stable: each degree keeps the filtration order.
    for c in sorted(cells, key=cell_degree.__getitem__):
        p = position[c]
        row = rows[c]
        if p in pivots or not row:
            continue
        try:
            col = {position[t]: coeff for t, coeff in row}
        except KeyError:
            raise InconsistentDegrees("a target is not a cell of the filtration") from None
        low = max(col)
        if low >= p:
            raise InconsistentDegrees("a source enters before its target in the filtration")
        while True:
            other = pivots.get(low)
            if other is None:
                pivots[low] = col
                step = cell_step[c]
                change[step, cell_degree[c]] -= 1
                change[step, cell_degree[cells[low]]] -= 1
                break
            a, b = col[low], other[low]
            factor = a * b if b == 1 or b == -1 else Fraction(a) / b
            for q, v in other.items():
                new = col.get(q, 0) - factor * v
                if new:
                    col[q] = new
                else:
                    del col[q]
            if not col:
                break
            low = max(col)
    per_step: list[dict[int, int]] = [{} for _ in range(steps)]
    for (step, d), n in change.items():
        per_step[step][d] = n
    dims, running = [], {}
    for at in per_step:
        for d, n in at.items():
            running[d] = running.get(d, 0) + n
        dims.append({d: n for d, n in running.items() if n})
    return dims
