"""Exact linear algebra over the rationals.

Matrices are plain sequences of rows holding ints or Fractions; ``rank``
and ``gram``, the one G^T G kernel, also take sparse ``{column: value}``
rows.  ``rank`` is one sparse fraction-free elimination with Markowitz
pivots, so its cost follows the nonzeros, not the matrix area; so does
``gram``'s.  Rows of plain ints, which every boundary passes, are copied
without the Fraction pass that other rows take.  ``psd_rank`` gives a dense
symmetric matrix its PSD verdict and rank from one fraction-free symmetric
elimination.  Kronecker sums are assembled entrywise.  No floating point.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from math import gcd, lcm
from typing import Sequence

Matrix = Sequence[Sequence]
SparseRows = Sequence[dict]


def _integer_row(row: dict) -> dict[int, int]:
    """A copy of the row's nonzeros scaled to coprime integers (rank-preserving).

    A row of exact ints, the common case, is copied by dict operations alone;
    any other value (a bool, a Fraction, a numpy integer, a float) sends the
    row through Fraction and the lcm of its denominators.
    """
    values = row.values()
    if set(map(type, values)) <= {int}:
        entries = {c: e for c, e in row.items() if e} if 0 in values else row.copy()
    else:
        entries = {c: e if isinstance(e, int) else Fraction(e) for c, e in row.items() if e}
        denominators = [e.denominator for e in entries.values() if isinstance(e, Fraction)]
        if denominators:
            denom = lcm(*denominators)
            entries = {c: int(e * denom) for c, e in entries.items()}
    content = gcd(*entries.values())
    if content > 1:
        entries = {c: e // content for c, e in entries.items()}
    return entries


def rank(matrix: Matrix | SparseRows) -> int:
    """Exact rank over the rationals by sparse fraction-free elimination.

    ``matrix`` is a list of dense rows or of ``{column: value}`` dicts; it is
    not modified.  Each step pivots on the shortest remaining row, at its
    entry of least magnitude, ties going to the sparsest column (Markowitz).
    Every other row holding that column becomes ``p*row - f*pivot_row``
    (p, f divided by their gcd, both negated when p < 0, so a row is
    rescaled only when |p| > 1) and is then divided by its content, which
    curbs the growth of the integers; no division is ever inexact.
    """
    rows = {i: _integer_row(r if isinstance(r, dict) else {c: e for c, e in enumerate(r) if e})
            for i, r in enumerate(matrix)}
    cols: dict[int, set[int]] = {}
    heap = []
    for i, row in rows.items():
        for c in row:
            cols.setdefault(c, set()).add(i)
        if row:
            heap.append((len(row), i))
    heap.sort()
    r = 0
    while heap:
        length, i = heappop(heap)
        pivot_row = rows.get(i)
        if pivot_row is None or len(pivot_row) != length:
            continue  # stale entry: the row changed or vanished after it was queued
        del rows[i]
        for c in pivot_row:
            cols[c].discard(i)
        c = min(pivot_row, key=lambda j: (abs(pivot_row[j]), len(cols[j])))
        p = pivot_row.pop(c)
        r += 1
        for k in cols.pop(c):
            row = rows[k]
            f = row.pop(c)
            g = gcd(p, f)
            a, b = p // g, f // g
            if a < 0:  # the negated update: same rank, support and content, no -1 pass
                a, b = -a, -b
            if a != 1:
                row = {j: a * v for j, v in row.items()}
            for j, v in pivot_row.items():
                w = row.get(j)
                if w is None:
                    row[j] = -b * v
                    cols[j].add(k)
                else:
                    w -= b * v
                    if w:
                        row[j] = w
                    else:
                        del row[j]
                        cols[j].discard(k)
            if row:
                content = gcd(*row.values())
                if content > 1:
                    row = {j: v // content for j, v in row.items()}
                rows[k] = row
                heappush(heap, (len(row), k))
            else:
                del rows[k]
    return r


def psd_rank(matrix: Matrix) -> int | None:
    """Rank of a symmetric matrix if it is positive semidefinite, else None.

    One fraction-free symmetric elimination (Bareiss, 1968) on the upper
    triangle of an integer copy, non-int entries scaling the whole matrix by
    the lcm of their denominators.  Step k sets a[i][j] = (d * a[i][j] -
    a[k][i] * a[k][j]) // prev for i > k, j >= i, d the pivot a[k][k] and prev
    the last pivot taken (1 at first): each entry is a minor of the input, so
    the division is exact (Sylvester).  A negative pivot fails, as does a zero
    pivot with a nonzero entry left in its row (a negative 2x2 minor); any
    other zero pivot is skipped, as if its index were deleted.  The rank is
    the number of positive pivots.
    """
    n = len(matrix)
    for i, row in enumerate(matrix):
        if len(row) != n:
            raise ValueError("matrix is not square")
        for j in range(i):
            if row[j] != matrix[j][i]:
                raise ValueError("matrix is not symmetric")
    if all(type(e) is int for row in matrix for e in row):
        a = [list(row) for row in matrix]
    else:
        a = [[Fraction(e) for e in row] for row in matrix]
        scale = lcm(*(e.denominator for row in a for e in row))
        a = [[e.numerator * (scale // e.denominator) for e in row] for row in a]
    r, prev = 0, 1
    for k, row_k in enumerate(a):
        d = row_k[k]
        if d <= 0:
            if d or any(row_k[k + 1 :]):
                return None
            continue
        r += 1
        for i in range(k + 1, n):
            f, row_i = row_k[i], a[i]
            if f:
                row_i[i:] = [(d * x - f * y) // prev for x, y in zip(row_i[i:], row_k[i:])]
            elif d != prev:
                row_i[i:] = [d * x // prev for x in row_i[i:]]
        prev = d
    return r


def is_psd(matrix: Matrix) -> bool:
    """Exact positive-semidefiniteness test (symmetric input required): ``psd_rank`` is not None."""
    return psd_rank(matrix) is not None


def kron_sum(a: Matrix, b: Matrix) -> list[list]:
    """A (x) I + I (x) B for square a (p x p) and b (q x q)."""
    p, q = len(a), len(b)
    n = p * q
    out = [[0] * n for _ in range(n)]
    for i1 in range(p):
        for i2 in range(p):
            e = a[i1][i2]
            if e:
                for j in range(q):
                    out[i1 * q + j][i2 * q + j] += e
    for j1 in range(q):
        for j2 in range(q):
            e = b[j1][j2]
            if e:
                for i in range(p):
                    out[i * q + j1][i * q + j2] += e
    return out


def gram(rows: Matrix | SparseRows, ncols: int) -> list[list]:
    """G^T G for G given by ncols-column rows, dense or ``{column: value}`` as in ``rank``.

    Only each row's nonzero products are summed; a column outside range(ncols) raises.
    """
    out = [[0] * ncols for _ in range(ncols)]
    columns = set(range(ncols))
    for row in rows:
        items = row.items() if isinstance(row, dict) else enumerate(row)
        if not (row.keys() <= columns if isinstance(row, dict) else len(row) <= ncols):
            raise ValueError(f"row {row!r} has a column outside 0..{ncols - 1}")
        entries = [(c, e) for c, e in items if e]
        for i, a in entries:
            for j, b in entries:
                out[i][j] += a * b
    return out


def outer_gram(rows: Matrix) -> list[list]:
    """G G^T for G given by rows (works for zero-length rows): the gram of G^T."""
    return gram(list(zip(*rows)), len(rows))
