"""Supercommutative tensor algebra over graded orthonormal generators.

Generators live in components H_1..H_l, each carrying a degree p(i) >= 1 and
a finite orthonormal basis.  Plain tensor words in the letters form an
orthonormal basis of the free algebra; the supersymmetric part is the image
of the projector that averages the letter permutations of a word with the
graded sign

    sign(perm, degrees) = product over inversions (k < r, perm[k] > perm[r])
                          of (-1) ** (degrees[perm[k]] * degrees[perm[r]]),

so odd-degree letters anticommute and every other pair commutes.  All
arithmetic is exact (ints and fractions.Fraction).  Component dimensions are
available through two independent routes, the projector applied to one word
per letter multiset and the closed-form count by wedge/symmetric powers,
read off the generating-function kernel of betti; their agreement is the
module's central invariant.

Letters are (component, basis_index) pairs, both 0-based; a word is a tuple
of letters.  The quotient ideal is never materialized: membership of a
vector v is the statement that its projection is zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial

from .betti import _digit_limit, _power_factor, truncated_product
from .errors import ResourceError, strict_int
# Unused here; perfbench/tests/test_bench_trace.py reads graded_algebra.rank.
from .linalg import rank  # noqa: F401

Letter = tuple[int, int]
Word = tuple[Letter, ...]

# Words a brute-force dimension check may enumerate per (m, n) component.
MAX_WORDS = 20_000
# Projector permutations (m! per letter multiset) it may run per component.
MAX_PERMUTATIONS = 10_000


class EnumerationCapError(ResourceError):
    """A word component is over MAX_WORDS words or MAX_PERMUTATIONS permutations."""


@dataclass(frozen=True)
class GradedSpace:
    """Ordered generator components, each a (degree, dim) pair.

    Degrees are >= 1; zero-dimensional components are allowed and simply
    contribute no letters.
    """

    components: tuple[tuple[int, int], ...]

    def __post_init__(self):
        comps = tuple(
            (strict_int(p, f"components[{i}].degree"), strict_int(d, f"components[{i}].dim"))
            for i, (p, d) in enumerate(self.components)
        )
        if not comps:
            raise ValueError("a graded space needs at least one component")
        for p, d in comps:
            if p < 1:
                raise ValueError(f"component degree must be >= 1, got {p}")
            if d < 0:
                raise ValueError(f"component dimension must be >= 0, got {d}")
        object.__setattr__(self, "components", comps)

    @property
    def letters(self) -> tuple[Letter, ...]:
        return tuple(
            (i, b)
            for i, (_, d) in enumerate(self.components)
            for b in range(d)
        )

    def letter_degree(self, letter: Letter) -> int:
        return self.components[letter[0]][0]


# Not run by the library: the tests' oracle for letter_multisets and count_words,
# and a layer that perfbench/tracer.py wraps by this name.
def enumerate_words(space: GradedSpace, m: int, n: int) -> list[Word]:
    """All length-m words of multidegree n, in lexicographic letter order."""
    if m < 0 or n < 0:
        raise ValueError("m and n must be non-negative")
    letters = space.letters
    if m == 0:
        return [()] if n == 0 else []
    if not letters:
        return []
    degs = [space.letter_degree(L) for L in letters]
    lo, hi = min(degs), max(degs)
    out: list[Word] = []
    word: list[Letter] = []

    def extend(remaining: int, deficit: int) -> None:
        if remaining == 0:
            if deficit == 0:
                out.append(tuple(word))
            return
        for letter, p in zip(letters, degs):
            rest = deficit - p
            if (remaining - 1) * lo <= rest <= (remaining - 1) * hi:
                word.append(letter)
                extend(remaining - 1, rest)
                word.pop()

    extend(m, n)
    return out


def count_words(space: GradedSpace, m: int, n: int) -> int:
    """Number of length-m words of multidegree n (no enumeration)."""
    if m < 0 or n < 0:
        raise ValueError("m and n must be non-negative")
    degrees = [p for p, dim in space.components if dim]
    # no length-m word reaches degree n: skip the m-fold product
    if not degrees or not m * min(degrees) <= n <= m * max(degrees):
        return int(m == n == 0)
    letters_by_degree = [0] * (n + 1)
    for p, dim in space.components:
        if p <= n:
            letters_by_degree[p] += dim
    return truncated_product([letters_by_degree] * m, n)[n]


def letter_multisets(space: GradedSpace, m: int, n: int) -> list[Word]:
    """One sorted word per letter multiset of length m and multidegree n, lexicographically.

    The non-decreasing words of enumerate_words: each letter index starts at
    the one before it.
    """
    if m < 0 or n < 0:
        raise ValueError("m and n must be non-negative")
    letters = space.letters
    degs = [space.letter_degree(L) for L in letters]
    lo, hi = min(degs, default=0), max(degs, default=0)
    out: list[Word] = []
    word: list[Letter] = []

    def extend(start: int, remaining: int, deficit: int) -> None:
        if remaining == 0:
            if deficit == 0:
                out.append(tuple(word))
            return
        for k in range(start, len(letters)):
            rest = deficit - degs[k]
            if (remaining - 1) * lo <= rest <= (remaining - 1) * hi:
                word.append(letters[k])
                extend(k, remaining - 1, rest)
                word.pop()

    extend(0, m, n)
    return out


@cache
def _adjacent_swaps(m: int) -> bytes:
    """Slots i whose swaps with i + 1, in turn, step through all m! orders once.

    Steinhaus-Johnson-Trotter: the last item sweeps across the others, and
    between sweeps the others take one step of the (m - 1)-item walk.
    """
    if m < 2:
        return b""
    left, right = range(m - 2, -1, -1), range(m - 1)
    out: list[int] = [*left]
    for k, i in enumerate(_adjacent_swaps(m - 1)):
        # after a left sweep the last item sits in slot 0, ahead of the others
        out.append(i if k % 2 else i + 1)
        out.extend(right if k % 2 == 0 else left)
    return bytes(out)


def project(space: GradedSpace, word: Word) -> dict[Word, Fraction]:
    """Apply the super-symmetrizing projector to a basis word.

    Averages the m! letter permutations with their graded signs into the
    nonzero {word: coefficient} terms; full cancellation is possible (a
    repeated odd-degree letter projects to {}).  The orders are visited by
    adjacent swaps, each of which adds or removes one inversion, so the sign
    flips exactly when the two swapped letters both have odd degree.
    """
    letters = list(word)
    odd = [space.letter_degree(L) % 2 for L in word]
    acc: dict[Word, int] = {word: 1}
    sign = 1
    for i in _adjacent_swaps(len(word)):
        j = i + 1
        if odd[i] and odd[j]:
            sign = -sign
        letters[i], letters[j] = letters[j], letters[i]
        odd[i], odd[j] = odd[j], odd[i]
        permuted = tuple(letters)
        acc[permuted] = acc.get(permuted, 0) + sign
    budget = factorial(len(word))
    return {w: Fraction(c, budget) for w, c in acc.items() if c}


def sym_component_dim_bruteforce(space: GradedSpace, m: int, n: int) -> int:
    """Dimension of the projected (m, n) component, one projection per orbit.

    The words of one letter multiset form a single permutation orbit and
    P(sigma w) = +-P(w), so that block's image is span{P(w0)} for its sorted
    word w0: it contributes 1 if the signed average P(w0) is nonzero, else 0.
    Components over MAX_WORDS words or MAX_PERMUTATIONS permutations (m! per
    multiset) raise EnumerationCapError before any projection.
    """
    total = count_words(space, m, n)
    if total > MAX_WORDS:
        raise EnumerationCapError(
            f"component (m={m}, n={n}) has {total} words, over the enumeration "
            f"cap {MAX_WORDS}"
        )
    multisets = letter_multisets(space, m, n)
    perms = len(multisets) * factorial(m)
    if perms > MAX_PERMUTATIONS:
        raise EnumerationCapError(
            f"component (m={m}, n={n}) needs {len(multisets)} letter multisets x {m}! = "
            f"{perms} projector permutations, over the permutation budget {MAX_PERMUTATIONS}"
        )
    return sum(1 for w0 in multisets if project(space, w0))


def sym_component_dims(space: GradedSpace, m_max: int, n_max: int) -> list[list[int]]:
    """Closed-form dimensions of the projected (m, n) components, as rows dims[m][n].

    The t^m x^n coefficients of prod (1 + t x^p)^dim (odd p), (1 - t x^p)^-dim
    (even p), from one truncated_product in x with t = x^B: a word of length
    m <= m_top has degree <= m_top * max p < B, so (m, n) sits alone at
    x^(m B + n).  Rows past n_max are zero (every degree is >= 1).
    """
    if m_max < 0 or n_max < 0:
        raise ValueError("the m and n bounds must be non-negative")
    m_top = min(m_max, n_max)
    B = max(n_max, m_top * max(p for p, _ in space.components)) + 1
    degree = m_top * B + n_max
    limit = _digit_limit()
    series = truncated_product(
        [_power_factor(dim, p % 2, B + p, degree, limit) for p, dim in space.components], degree
    )
    return [series[m * B : m * B + n_max + 1] if m <= m_top else [0] * (n_max + 1)
            for m in range(m_max + 1)]


def sym_component_dim_closed(space: GradedSpace, m: int, n: int) -> int:
    """Dimension of the projected (m, n) component: one entry of sym_component_dims."""
    return sym_component_dims(space, m, n)[m][n]
