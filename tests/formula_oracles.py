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
np.all and np.sum along axis 1, the oracle for its bits.
"""

import itertools
from collections import Counter
from fractions import Fraction
from math import comb, factorial
from typing import Sequence

import numpy as np

from gammahodge.betti import truncated_product
from gammahodge.graded_algebra import GradedSpace, Word, enumerate_words, project
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
