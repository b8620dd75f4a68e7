"""Formula code the library itself never runs, kept as the tests' oracles.

beta_super is the power count by math.comb, the oracle for the ratio
recurrence of betti._power_factor that the series and the closed form share;
gram_matrix_sym is the full Gram matrix behind the per-orbit shortcut of
sym_component_dim_bruteforce; project_by_permutations is the projector summed
over itertools.permutations with each order's sign counted afresh by
_sign_unchecked, the oracle for project's adjacent-swap walk; enumerate_words
(re-exported from graded_algebra, which keeps it under that name for the
benchmark's tracer) lists every word, the oracle for count_words and
the multiset walk _multiset_levels; project_vector extends the projector linearly,
for its idempotence; projected_norm_sq is the README's norm convention, to be
compared with project's diagonal; fiber_decomposition_check gives both sides
of the paper's fiber dimension identity; evaluate_rowwise is
ScalarFunction.evaluate as it was before the column-at-a-time kernel, with
np.all and np.sum along axis 1, the oracle for its bits; rref_rank is a plain
Fraction Gauss-Jordan rank, the one oracle for linalg.rank and linalg.psd_rank,
and nullity is column count minus it; is_psd_by_fractions is the symmetric
Fraction elimination that linalg.is_psd ran before psd_rank, the oracle for
psd_rank's verdict.  No request runs psd_rank, kron_sum or gram any more:
with rref_rank they are the references for kron_sum_kernel_dim, which ranks
a Kronecker probe's factors, never their Grams.  sparse_rows turns a dense
int matrix into the {column: int} rows that linalg.rank takes; catalog is the
five small complexes of known homology that the Hodge tests and the
acceptance suite rank, and algebra_space the graded space whose symmetric
algebra a Betti vector's b_n counts.  algebra_check_payload builds
algebra-check's reply one dict per row, each through cli._compare, the oracle
for the text that cmd_algebra_check joins from once-rendered pieces.
"""

import itertools
import sys
from collections import Counter
from fractions import Fraction
from math import comb, factorial
from typing import Sequence

import numpy as np

from gammahodge import betti as betti_mod
from gammahodge import graded_algebra as ga
from gammahodge.betti import BettiVector, truncated_product
from gammahodge.cli import EXIT_INVARIANT, EXIT_OK, EXIT_PARTIAL, _compare, _grid_spaces
from gammahodge.graded_algebra import GradedSpace, Word, enumerate_words, project
from gammahodge.hodge_discrete import SimplicialComplex, from_maximal
from gammahodge.linalg import Matrix
from gammahodge.poisson_mc import ScalarFunction


def beta_super(beta_k: int, k: int, s: int) -> int:
    """Dimension of the s-th power of a beta_k-dimensional degree-k space.

    Wedge power C(beta_k, s) for odd k, symmetric power C(beta_k + s - 1, s)
    for even k.
    """
    if s < 1 or k < 1:
        raise ValueError("need s >= 1 and k >= 1")
    if beta_k < 0:
        raise ValueError("beta_k must be non-negative")
    return comb(beta_k, s) if k % 2 else comb(beta_k + s - 1, s)


def _sign_unchecked(perm: Sequence[int], degrees: Sequence[int]) -> int:
    """Graded sign of perm, a permutation of range(len(degrees)).

    ``perm[k]`` is the source position of the letter landing in slot k; the
    sign flips once per inversion pair whose two letters both have odd degree.
    """
    sign = 1
    m = len(perm)
    for k in range(m):
        pk = perm[k]
        if degrees[pk] % 2 == 0:
            continue
        for r in range(k + 1, m):
            pr = perm[r]
            if pk > pr and degrees[pr] % 2:
                sign = -sign
    return sign


def project_by_permutations(space: GradedSpace, word: Word) -> dict[Word, Fraction]:
    """The projector as a sum over itertools.permutations, each sign counted afresh."""
    m = len(word)
    degrees = tuple(space.letter_degree(L) for L in word)
    acc: dict[Word, int] = {}
    for perm in itertools.permutations(range(m)):
        s = _sign_unchecked(perm, degrees)
        permuted = tuple(word[p] for p in perm)
        acc[permuted] = acc.get(permuted, 0) + s
    budget = factorial(m)
    return {w: Fraction(c, budget) for w, c in acc.items() if c}


def project_vector(space: GradedSpace, vec: dict[Word, Fraction]) -> dict[Word, Fraction]:
    """Linear extension of the projector to {word: coefficient} combinations."""
    acc: dict[Word, Fraction] = {}
    for word, coeff in vec.items():
        for w, c in project(space, word).items():
            acc[w] = acc.get(w, 0) + coeff * c
    return {w: c for w, c in acc.items() if c}


def gram_matrix_sym(space: GradedSpace, m: int, n: int) -> list[list[Fraction]]:
    """Matrix of <P w_a, w_b> over enumerate_words(space, m, n).

    Symmetric with rational entries; since the projector is idempotent and
    self-adjoint the matrix equals its own square in this basis.
    """
    words = enumerate_words(space, m, n)
    index = {w: i for i, w in enumerate(words)}
    out = [[Fraction(0)] * len(words) for _ in words]
    for a, w in enumerate(words):
        row = out[a]
        for w2, c in project(space, w).items():
            row[index[w2]] = c
    return out


def projected_norm_sq(space: GradedSpace, word: Word) -> Fraction:
    """Squared norm of the projected word, for block-sorted words.

    Block-sorted means letters grouped by component in increasing component
    order with non-decreasing basis indices inside each block; anything else
    raises ValueError.  A repeated letter in an odd-degree block returns 0.

    Convention: a wedge monomial of r distinct orthonormal vectors has
    squared norm 1/r!, a symmetric monomial (product of multiplicity
    factorials)/r!.  The value is then

        (prod_j r_j!) / m!  *  prod_j (squared norm of block j's monomial)

    and agrees exactly with <P w, w>.
    """
    m = len(word)
    for (c1, b1), (c2, b2) in zip(word, word[1:]):
        if c1 > c2 or (c1 == c2 and b1 > b2):
            raise ValueError(f"word {word} is not block-sorted")
    result = Fraction(1, factorial(m))
    for _, block in itertools.groupby(word, key=lambda L: L[0]):
        letters = list(block)
        r = len(letters)
        multiplicities = Counter(letters)
        if space.letter_degree(letters[0]) % 2:
            if any(v > 1 for v in multiplicities.values()):
                return Fraction(0)
            norm_sq = Fraction(1, factorial(r))
        else:
            repeats = 1
            for v in multiplicities.values():
                repeats *= factorial(v)
            norm_sq = Fraction(repeats, factorial(r))
        result *= factorial(r) * norm_sq
    return result


def fiber_decomposition_check(N: int, d: int, n: int) -> tuple[int, int]:
    """Both sides of the fiber dimension identity for an N-point configuration.

    lhs: dim of the n-th wedge power of a direct sum of N copies of R^d,
    C(N*d, n).  rhs: group the wedge by which points carry positive degree,
    C(N, m) times the weighted count of ordered degree tuples summing to n.
    Returns (lhs, rhs) for the caller to compare.
    """
    if N < 1 or d < 1:
        raise ValueError("need N >= 1 and d >= 1")
    if not 0 <= n <= N * d:
        raise ValueError("need 0 <= n <= N*d")
    lhs = comb(N * d, n)
    weights = [0] + [comb(d, k) for k in range(1, d + 1)]
    rhs = sum(
        comb(N, m) * truncated_product([weights] * m, n)[n]
        for m in range(min(n, N) + 1)
    )
    return lhs, rhs


def evaluate_rowwise(self: ScalarFunction, points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if self.kind == "indicator":
        return np.full(len(pts), self.scale)
    if self.kind == "box":
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        inside = np.all((pts >= lo) & (pts <= hi), axis=1)
        return self.scale * inside.astype(float)
    z = (pts - np.asarray(self.center)) / np.asarray(self.width)
    with np.errstate(over="ignore"):  # far from the center z * z may reach inf: exp(-inf) = 0
        return self.scale * np.exp(-np.sum(z * z, axis=1))


def rref_rank(matrix: Matrix) -> int:
    """Rank of dense int or Fraction rows by plain Fraction Gauss-Jordan elimination."""
    rows = [[Fraction(e) for e in row] for row in matrix]
    if not rows or not rows[0]:
        return 0
    ncols = len(rows[0])
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [inv * x for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r


def nullity(matrix: Matrix) -> int:
    """Column count minus rank.  Dense rows only: a dict row has no column count."""
    if any(isinstance(row, dict) for row in matrix):
        raise ValueError("nullity needs dense rows: a dict row has no column count")
    ncols = len(matrix[0]) if matrix else 0
    return ncols - rref_rank(matrix)


def sparse_rows(matrix: Matrix) -> list[dict]:
    """The nonzeros of each dense row as a {column: value} dict, the rows linalg.rank takes."""
    return [{c: e for c, e in enumerate(row) if e} for row in matrix]


def is_psd_by_fractions(matrix: Matrix) -> bool:
    """Exact positive-semidefiniteness test (symmetric input required).

    Symmetric rational elimination: a negative pivot is a certificate of
    failure, and a zero pivot with any nonzero entry left in its row gives a
    negative 2x2 principal minor, so it fails too.
    """
    n = len(matrix)
    a = [[Fraction(e) for e in row] for row in matrix]
    for i in range(n):
        if len(a[i]) != n:
            raise ValueError("matrix is not square")
        for j in range(i):
            if a[i][j] != a[j][i]:
                raise ValueError("matrix is not symmetric")
    for k in range(n):
        d = a[k][k]
        if d < 0:
            return False
        if d == 0:
            if any(a[k][j] for j in range(k + 1, n)):
                return False
            continue
        row_k = a[k]
        for i in range(k + 1, n):
            f = a[i][k] / d
            if f:
                row_i = a[i]
                for j in range(k + 1, n):
                    row_i[j] -= f * row_k[j]
    return True


def catalog() -> dict[str, SimplicialComplex]:
    """Small complexes used throughout the tests, keyed by shape.

    hollow_triangle: circle.  solid_triangle: disk.  two_hollow_triangles:
    two circles.  hollow_tetrahedron: sphere.  torus_7: the 7-vertex
    triangulated torus (cyclic construction, 14 triangles).  rp2_6: the
    real projective plane as the 10-triangle hemi-icosahedron, beta 1, 0, 0
    over the rationals.  mobius_5: the 5-vertex Mobius strip, beta 1, 1, 0.
    """
    torus = [[i, (i + 1) % 7, (i + 3) % 7] for i in range(7)]
    torus += [[i, (i + 2) % 7, (i + 3) % 7] for i in range(7)]
    return {
        "hollow_triangle": from_maximal([[0, 1], [1, 2], [0, 2]]),
        "solid_triangle": from_maximal([[0, 1, 2]]),
        "two_hollow_triangles": from_maximal(
            [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]]
        ),
        "hollow_tetrahedron": from_maximal(
            [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]
        ),
        "torus_7": from_maximal(torus),
        "rp2_6": from_maximal([
            [0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 5], [0, 5, 1],
            [1, 2, 4], [2, 3, 5], [3, 4, 1], [4, 5, 2], [5, 1, 3],
        ]),
        "mobius_5": from_maximal([[0, 1, 2], [1, 2, 3], [2, 3, 4], [3, 4, 0], [4, 0, 1]]),
    }


def algebra_space(vector: BettiVector) -> GradedSpace:
    """beta_k generators of degree k for k = 1..d: the space whose algebra b_n counts."""
    return GradedSpace(tuple((k, vector.beta[k]) for k in range(1, vector.d + 1)))


def algebra_check_payload(grid: dict) -> tuple[dict, int]:
    """algebra-check's payload and exit code on a full grid, one row dict at a time.

    Its text is json.dumps(payload, indent=2).  cli._compare writes the stderr
    line of each row that is not ok, in row order, and the summary line follows.
    """
    n_max = grid["betti_n_max"]
    rows = []
    verdicts: dict[tuple, bool] = {}  # one brute-force memo: shapes do not depend on the space

    for space in _grid_spaces(grid):
        components = [[p, d] for p, d in space.components]
        closed_rows = ga.sym_component_dims(space, grid["m_max"], grid["n_max"])
        brute_rows = ga.sym_component_rows_bruteforce(
            space, grid["m_max"], grid["n_max"], verdicts)
        for m, (closed_row, brute_row) in enumerate(zip(closed_rows, brute_rows)):
            for n, (closed, brute) in enumerate(zip(closed_row, brute_row)):
                row = {
                    "kind": "dims",
                    "space": components,
                    "m": str(m),
                    "n": str(n),
                    "closed": str(closed),
                }
                rows.append(_compare(row, closed, brute))

    d_max = grid["betti_d_max"]
    betas = itertools.product(range(grid["betti_beta_max"] + 1), repeat=d_max)
    for beta_tail in betas:
        vector = betti_mod.BettiVector(d=d_max, beta=(0, *beta_tail))
        space = ga.GradedSpace(tuple((k, vector.beta[k]) for k in range(1, d_max + 1)))
        # cells with m > n are 0, so row n sums column n; its first cap in m is its reason
        sums, capped = [0] * (n_max + 1), [None] * (n_max + 1)
        for table_row in ga.sym_component_rows_bruteforce(space, n_max, n_max, verdicts):
            for n in itertools.compress(range(n_max + 1), table_row):  # the nonzero and capped cells
                dim = table_row[n]
                if isinstance(dim, ga.EnumerationCapError):
                    capped[n] = capped[n] or dim
                else:
                    sums[n] += dim
        beta = list(vector.beta)
        for n, formula in enumerate(betti_mod.config_betti_series(vector, n_max)):
            row = {
                "kind": "betti",
                "beta": beta,
                "n": str(n),
                "formula": str(formula),
            }
            rows.append(_compare(row, formula, capped[n] or sums[n]))

    statuses = Counter(row["status"] for row in rows)
    mismatches, skipped = statuses["mismatch"], statuses["skipped"]
    summary = {
        "instances": str(len(rows)),
        "ok": str(statuses["ok"]),
        "mismatches": str(mismatches),
        "skipped": str(skipped),
        "word_cap": str(ga.MAX_WORDS),
    }
    print(
        f"algebra-check: {summary['ok']}/{summary['instances']} ok, "
        f"{mismatches} mismatches, {skipped} skipped",
        file=sys.stderr,
    )
    payload = {"summary": summary, "rows": rows}
    if mismatches:
        return payload, EXIT_INVARIANT
    if skipped:
        return payload, EXIT_PARTIAL
    return payload, EXIT_OK
