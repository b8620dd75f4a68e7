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
available through two independent routes, each a table dims[m][n] built once
per space: sym_component_rows_bruteforce, the signed orbit sum of one word per
letter multiset, from one walk that counts the words and buckets the
multisets of each length in turn; and sym_component_dims, the closed-form
count by wedge/symmetric powers read off the generating-function kernel of
betti.  Their agreement is the module's central invariant.

Letters are (component, basis_index) pairs, both 0-based; a word is a tuple
of letters.  The quotient ideal is never materialized: membership of a
vector v is the statement that its projection is zero.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import compress, islice
from math import factorial
from typing import Iterator

from .betti import _digit_limit, _power_factor, _times_terms, truncated_product
from .errors import ResourceError, strict_int
# Unused here; perfbench/tests/test_bench_trace.py reads graded_algebra.rank.
from .linalg import rank  # noqa: F401

Letter = tuple[int, int]
Word = tuple[Letter, ...]

# Words a brute-force dimension check may enumerate per (m, n) component.
MAX_WORDS = 20_000
# Projector permutations (m! per letter multiset) it may run per component.
MAX_PERMUTATIONS = 10_000
# The two skip reasons, formatted only by EnumerationCapError.__str__.
_WORD_CAP = "component (m={}, n={}) has {} words, over the enumeration cap {}"
_PERM_CAP = ("component (m={}, n={}) needs {} letter multisets x {}! = {} projector permutations, "
             "over the permutation budget {}")


class EnumerationCapError(ResourceError):
    """A word component is over MAX_WORDS words or MAX_PERMUTATIONS permutations."""

    def __str__(self) -> str:  # args: a template and its fields; a sweep reads few of its skips
        return self.args[0].format(*self.args[1:])


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


# Not run by the library: the tests' oracle for the multiset walk (_multiset_levels) and
# count_words, and a layer that perfbench/tracer.py wraps by this name.
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


def _letter_table(space: GradedSpace) -> tuple[list[int], list[int]]:
    """The degrees and parities of the space's letters, in letter order."""
    degrees = [space.components[i][0] for i, _ in space.letters]
    return degrees, [p % 2 for p in degrees]


def _word_counts(degrees: list[int], m_top: int, n_max: int) -> Iterator[list[int]]:
    """Rows m = 0..m_top of word counts: entry n counts the length-m words of degree n.

    Row m is row m - 1 times sum_p dim_p x^p, one step of truncated_product.
    """
    terms = sorted(Counter(p for p in degrees if p <= n_max).items())  # (p, dim_p)
    row = [1] + [0] * n_max
    yield row
    for _ in range(m_top):
        row = _times_terms(row, terms, n_max)
        yield row


def _multiset_levels(
    degrees: list[int], m_top: int, n_max: int
) -> Iterator[tuple[list[int], dict[int, list[tuple[int, ...]]]]]:
    """(word counts, letter multisets) of lengths m = 0..m_top, one length held at a time.

    buckets[n] holds one non-decreasing tuple of letter indices per letter
    multiset of degree n, for each n with at most MAX_WORDS words.  Each tuple
    extends one of the length before by a letter no smaller than its last, so
    the walk goes level by level and never recurses.  Appending a letter of
    degree p maps the words of (m - 1, n - p) one-to-one into those of (m, n),
    so every prefix of a multiset within the cap lies within it too, and
    pruning the cells over it loses none.
    """
    buckets: dict[int, list[tuple[int, ...]]] = {0: [()]}
    for m, counts in enumerate(_word_counts(degrees, m_top, n_max)):
        if m:
            grown: dict[int, list[tuple[int, ...]]] = {}
            for n, words in buckets.items():
                for w in words:
                    for k in range(w[-1] if w else 0, len(degrees)):
                        total = n + degrees[k]
                        if total <= n_max and counts[total] <= MAX_WORDS:
                            grown.setdefault(total, []).append(w + (k,))
            buckets = grown
        yield counts, buckets


def count_words(space: GradedSpace, m: int, n: int) -> int:
    """Number of length-m words of multidegree n: row m of the word counts (no enumeration)."""
    if m < 0 or n < 0:
        raise ValueError("m and n must be non-negative")
    degrees, _ = _letter_table(space)
    # no length-m word reaches degree n: skip the m-fold product
    if not degrees or not m * min(degrees) <= n <= m * max(degrees):
        return int(m == n == 0)
    return next(islice(_word_counts(degrees, m, n), m, None))[n]


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


def _orbit_sum(word: tuple, odd: list[int]) -> dict[tuple, int]:
    """The m! letter orders of word, summed with their graded signs: {order: integer}.

    odd[i] is the parity of word[i]; the list is permuted along with the
    letters.  The orders are visited by adjacent swaps, each of which adds or
    removes one inversion, so the sign flips exactly when the two swapped
    letters both have odd degree.
    """
    items = list(word)
    acc = {word: 1}
    sign = 1
    for i in _adjacent_swaps(len(word)):
        j = i + 1
        if odd[i] and odd[j]:
            sign = -sign
        items[i], items[j] = items[j], items[i]
        odd[i], odd[j] = odd[j], odd[i]
        permuted = tuple(items)
        acc[permuted] = acc.get(permuted, 0) + sign
    return acc


def project(space: GradedSpace, word: Word) -> dict[Word, Fraction]:
    """Apply the super-symmetrizing projector to a basis word.

    The orbit sum over m!: the nonzero {word: coefficient} terms; full
    cancellation is possible (a repeated odd-degree letter projects to {}).
    """
    acc = _orbit_sum(word, [space.letter_degree(L) % 2 for L in word])
    budget = factorial(len(word))
    return {w: Fraction(c, budget) for w, c in acc.items() if c}


def sym_component_rows_bruteforce(
    space: GradedSpace, m_max: int, n_max: int
) -> Iterator[list[int | EnumerationCapError] | tuple[int, ...]]:
    """Projector dimensions of the (m, n) components, one row dims[m] at a time.

    The words of one letter multiset form one permutation orbit and P(sigma w) =
    +-P(w), so the orbit adds 1 if the orbit sum of its sorted word has a nonzero
    coefficient, else 0.  A cell over MAX_WORDS words or MAX_PERMUTATIONS
    permutations (m! per multiset) holds the EnumerationCapError it is refused
    with, decided before any word is projected.  One walk gives the word counts
    and multisets of every length, and rows past n_max // (least letter degree)
    have no words: they are one shared tuple of zeros.
    """
    if m_max < 0 or n_max < 0:
        raise ValueError("the m and n bounds must be non-negative")
    degrees, odd = _letter_table(space)
    m_top = min(m_max, n_max // min(degrees)) if degrees else 0
    for m, (counts, buckets) in enumerate(_multiset_levels(degrees, m_top, n_max)):
        row: list[int | EnumerationCapError] = [0] * (n_max + 1)
        for n in compress(range(n_max + 1), counts):
            # a cell within the word cap has at least one multiset
            total, multisets = counts[n], buckets.get(n, ())
            if total > MAX_WORDS:
                row[n] = EnumerationCapError(_WORD_CAP, m, n, total, MAX_WORDS)
            elif (perms := len(multisets) * factorial(m)) > MAX_PERMUTATIONS:
                row[n] = EnumerationCapError(
                    _PERM_CAP, m, n, len(multisets), m, perms, MAX_PERMUTATIONS)
            else:
                row[n] = sum(
                    1 for w in multisets if any(_orbit_sum(w, [odd[k] for k in w]).values())
                )
        yield row
    zeros = (0,) * (n_max + 1)
    for _ in range(m_max - m_top):
        yield zeros


def sym_component_dim_bruteforce(space: GradedSpace, m: int, n: int) -> int:
    """Dimension of the projected (m, n) component: a cell of sym_component_rows_bruteforce.

    Raises that cell's EnumerationCapError over MAX_WORDS words or
    MAX_PERMUTATIONS permutations.
    """
    dim = next(islice(sym_component_rows_bruteforce(space, m, n), m, None))[n]
    if isinstance(dim, EnumerationCapError):
        raise dim
    return dim


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
