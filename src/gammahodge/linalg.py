"""Exact integer linear algebra: the ranks and Grams behind every Hodge reply.

The two rank kernels take what the commands build and nothing else, and raise
TypeError on any value that is not exactly an int (a bool, a numpy integer, a
Fraction or a float).  ``rank`` takes sparse ``{column: int}`` rows, the
boundaries' format, and is one sparse fraction-free elimination with Markowitz
pivots, so its cost follows the nonzeros, not the matrix area.  ``psd_rank``
gives a dense symmetric int matrix, a Gram of integer factors or a Kronecker
sum of two, its PSD verdict and rank from one fraction-free symmetric
elimination.  ``gram``, the one G^T G kernel, takes dense or sparse rows of
any exact numbers, and its cost also follows the nonzeros.  Kronecker sums are
assembled entrywise.  No floating point.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import gcd
from typing import Sequence

Matrix = Sequence[Sequence]
SparseRows = Sequence[dict]


def rank(matrix: SparseRows) -> int:
    """Exact rank over the rationals by sparse fraction-free elimination.

    ``matrix`` is a list of ``{column: int}`` dicts, whose zeros are dropped;
    it is not modified.  Any other row, or a value that is not exactly an int,
    raises TypeError naming the row.  Each step pivots on the shortest remaining row, at its
    entry of least magnitude, ties going to the sparsest column (Markowitz).
    Every other row holding that column becomes ``p*row - f*pivot_row``
    (p, f divided by their gcd, both negated when p < 0, so a row is
    rescaled only when |p| > 1) and is then divided by its content, which
    curbs the growth of the integers; no division is ever inexact.
    """
    rows, cols, heap = {}, {}, []
    for i, row in enumerate(matrix):
        if not isinstance(row, dict) or not set(map(type, row.values())) <= {int}:
            raise TypeError(f"row {i} is not a {{column: int}} dict: {row!r}")
        rows[i] = row = {c: e for c, e in row.items() if e} if 0 in row.values() else row.copy()
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

    ``matrix`` holds ints only (TypeError otherwise); it is not modified.  One
    fraction-free symmetric elimination (Bareiss, 1968) on the upper triangle
    of a copy.  Step k sets a[i][j] = (d * a[i][j] - a[k][i] * a[k][j]) // prev
    for i > k, j >= i, d the pivot a[k][k] and prev the last pivot taken (1 at
    first): each entry is a minor of the input, so the division is exact
    (Sylvester).  A negative pivot fails, as does a zero
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
        if not set(map(type, row)) <= {int}:
            raise TypeError(f"row {i} holds a value that is not an int: {row!r}")
    a = [list(row) for row in matrix]
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
    """Exact PSD test of a symmetric int matrix: ``psd_rank`` is not None."""
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
    """G^T G for G given by ncols-column rows, dense or ``{column: value}``.

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
