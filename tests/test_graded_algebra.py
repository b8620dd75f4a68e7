"""Projector, word enumeration, and dimension-count tests.

Independent oracles live in this file: a direct inversion-count sign, a
two-term expansion for length-2 projections, and the full-Gram-matrix rank
(no multiset blocking) as a cross-check of the blocked brute-force path.
"""

from fractions import Fraction
from itertools import islice
from math import comb, factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from formula_oracles import (
    _sign_unchecked,
    enumerate_words,
    gram_matrix_sym,
    project_by_permutations,
    project_vector,
    projected_norm_sq,
)
from gammahodge import graded_algebra
from gammahodge.graded_algebra import (
    EnumerationCapError,
    GradedSpace,
    _adjacent_swaps,
    _letter_table,
    _multiset_levels,
    count_words,
    project,
    sym_component_dim_bruteforce,
    sym_component_dim_closed,
    sym_component_dims,
    sym_component_rows_bruteforce,
)
from gammahodge.linalg import rank


def sign_oracle(perm, degrees):
    """Literal product over inversion pairs, no shortcuts."""
    s = 1
    for k in range(len(perm)):
        for r in range(k + 1, len(perm)):
            if perm[k] > perm[r]:
                s *= (-1) ** (degrees[perm[k]] * degrees[perm[r]])
    return s


spaces = st.lists(
    st.tuples(st.integers(1, 3), st.integers(0, 2)), min_size=1, max_size=3
).map(lambda comps: GradedSpace(tuple(comps)))


def words_of(space, max_m=3):
    for m in range(max_m + 1):
        for n in range(m * 3 + 1):
            yield from enumerate_words(space, m, n)


# ---------------------------------------------------------------------------
# the graded sign of the permutation oracle

def test_sign_identity_is_plus_one():
    assert _sign_unchecked((0, 1, 2), (1, 2, 3)) == 1
    assert _sign_unchecked((), ()) == 1


def test_sign_transposition_odd_odd():
    assert _sign_unchecked((1, 0), (1, 1)) == -1


def test_sign_transposition_even_odd():
    assert _sign_unchecked((1, 0), (2, 1)) == 1


@given(
    perm=st.permutations(range(5)),
    degrees=st.lists(st.integers(1, 4), min_size=5, max_size=5),
)
def test_sign_matches_inversion_count_oracle(perm, degrees):
    assert _sign_unchecked(perm, degrees) == sign_oracle(perm, degrees)


# ---------------------------------------------------------------------------
# enumeration

def test_enumerate_pairs_of_one_odd_component():
    space = GradedSpace(((1, 2),))
    words = enumerate_words(space, 2, 2)
    assert len(words) == 4
    assert words == sorted(words)


def test_enumerate_empty_word():
    space = GradedSpace(((2, 1),))
    assert enumerate_words(space, 0, 0) == [()]
    assert enumerate_words(space, 0, 1) == []


def test_enumerate_mixed_degrees():
    space = GradedSpace(((1, 1), (2, 1)))
    words = enumerate_words(space, 2, 3)
    assert words == [((0, 0), (1, 0)), ((1, 0), (0, 0))]


def test_enumerate_impossible_multidegree():
    space = GradedSpace(((2, 2),))
    assert enumerate_words(space, 2, 3) == []


@settings(max_examples=60)
@given(space=spaces, m=st.integers(0, 3), n=st.integers(0, 8))
def test_count_words_matches_enumeration(space, m, n):
    assert count_words(space, m, n) == len(enumerate_words(space, m, n))


def test_count_words_skips_the_product_when_no_word_reaches_the_degree(monkeypatch):
    def no_product(*args):
        raise AssertionError("the product ran")

    monkeypatch.setattr(graded_algebra, "truncated_product", no_product)
    space = GradedSpace(((2, 1), (3, 0), (5, 2)))
    # nonzero components have degrees 2 and 5: length-3 words reach 6..15
    assert count_words(space, 3, 5) == count_words(space, 3, 16) == 0
    assert count_words(space, 0, 1) == 0
    empty = GradedSpace(((1, 0), (4, 0)))
    assert count_words(empty, 0, 0) == 1
    assert count_words(empty, 2, 4) == count_words(empty, 0, 3) == 0


def walked_multisets(space, m, n):
    """Level m of the multiset walk at degree n: its word count, and its multisets as words."""
    letters, (degrees, _) = space.letters, _letter_table(space)
    counts, buckets = next(islice(_multiset_levels(degrees, m, n), m, None))
    return counts[n], [tuple(letters[k] for k in w) for w in buckets.get(n, ())]


@settings(max_examples=60)
@given(space=spaces, m=st.integers(0, 5), n=st.integers(0, 11))
def test_the_multiset_walk_yields_each_sorted_word_once(space, m, n):
    words = enumerate_words(space, m, n)
    count, multisets = walked_multisets(space, m, n)
    assert count == len(words)
    assert sorted(multisets) == list(dict.fromkeys(tuple(sorted(w)) for w in words))
    assert all(list(w) == sorted(w) for w in multisets)


def test_the_multiset_walk_edge_cases():
    assert walked_multisets(GradedSpace(((2, 1),)), 0, 0) == (1, [()])
    assert walked_multisets(GradedSpace(((2, 1),)), 0, 1) == (0, [])
    assert walked_multisets(GradedSpace(((1, 0),)), 0, 0) == (1, [()])
    assert walked_multisets(GradedSpace(((1, 0),)), 2, 2) == (0, [])
    assert walked_multisets(GradedSpace(((1, 1), (2, 1))), 2, 3) == (2, [((0, 0), (1, 0))])
    with pytest.raises(ValueError):
        list(sym_component_rows_bruteforce(GradedSpace(((1, 1),)), -1, 0))


@pytest.mark.parametrize("m", range(8))
def test_adjacent_swaps_visit_every_order_once(m):
    order = list(range(m))
    seen = [tuple(order)]
    for i in _adjacent_swaps(m):
        order[i], order[i + 1] = order[i + 1], order[i]
        seen.append(tuple(order))
    assert len(seen) == len(set(seen)) == factorial(m)


@settings(max_examples=40)
@given(space=spaces, m=st.integers(0, 3), n=st.integers(0, 8))
def test_enumerated_words_are_homogeneous(space, m, n):
    for w in enumerate_words(space, m, n):
        assert len(w) == m
        assert sum(space.letter_degree(L) for L in w) == n


# ---------------------------------------------------------------------------
# projection

def test_project_single_letter_is_identity():
    space = GradedSpace(((3, 2),))
    w = ((0, 1),)
    assert project(space, w) == {w: Fraction(1)}


def test_project_repeated_odd_letter_vanishes():
    space = GradedSpace(((1, 1),))
    assert project(space, ((0, 0), (0, 0))) == {}
    assert project(space, ((0, 0),) * 3) == {}


def test_project_returns_only_nonzero_coefficients():
    space = GradedSpace(((1, 2), (2, 1)))
    for w in words_of(space, max_m=4):
        p = project(space, w)
        assert all(c != 0 for c in p.values())
        assert all(isinstance(c, Fraction) and len(v) == len(w) for v, c in p.items())


def test_project_mixed_pair_two_term_expansion():
    space = GradedSpace(((1, 1), (2, 1)))
    e, f = (0, 0), (1, 0)
    expected = {(e, f): Fraction(1, 2), (f, e): Fraction(1, 2)}
    assert project(space, (e, f)) == expected


def test_project_two_letter_oracle():
    # direct expansion P(ab) = (ab + sign * ba) / 2 for every letter pair
    space = GradedSpace(((1, 2), (2, 1)))
    for a in space.letters:
        for b in space.letters:
            sign = _sign_unchecked((1, 0), (space.letter_degree(a), space.letter_degree(b)))
            direct = {(a, b): Fraction(1, 2)}
            direct[(b, a)] = direct.get((b, a), 0) + Fraction(sign, 2)
            assert project(space, (a, b)) == {v: c for v, c in direct.items() if c}


@settings(max_examples=80, deadline=None)
@given(data=st.data(), space=spaces.filter(lambda space: space.letters))
def test_project_equals_the_sum_over_all_permutations(data, space):
    # up to six letters drawn with repeats from components of both parities
    word = tuple(data.draw(st.lists(st.sampled_from(space.letters), max_size=6)))
    assert project(space, word) == project_by_permutations(space, word)


def test_project_equals_the_sum_over_all_permutations_at_six_mixed_letters():
    space = GradedSpace(((1, 2), (2, 2), (3, 1)))
    for word in (((0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (0, 0)),
                 ((1, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 0)),
                 ((0, 0), (0, 1), (2, 0), (0, 0), (0, 1), (2, 0))):
        assert project(space, word) == project_by_permutations(space, word)


@settings(max_examples=25, deadline=None)
@given(space=spaces)
def test_projector_is_idempotent(space):
    for w in words_of(space):
        p = project(space, w)
        assert project_vector(space, p) == p


@settings(max_examples=15, deadline=None)
@given(space=spaces)
def test_projector_is_self_adjoint(space):
    for m in range(3):
        for n in range(7):
            words = enumerate_words(space, m, n)
            projections = {w: project(space, w) for w in words}
            for u in words:
                for v in words:
                    assert projections[u].get(v, 0) == projections[v].get(u, 0)


@settings(max_examples=25, deadline=None)
@given(space=spaces)
def test_graded_commutation_adjacent_transposition(space):
    for w in words_of(space):
        degrees = [space.letter_degree(L) for L in w]
        for r in range(len(w) - 1):
            sign = (-1) ** (degrees[r] * degrees[r + 1])
            swapped = list(w)
            swapped[r], swapped[r + 1] = swapped[r + 1], swapped[r]
            swapped_p = project(space, tuple(swapped))
            assert project(space, w) == {v: sign * c for v, c in swapped_p.items()}


@given(
    perm=st.permutations(range(4)),
    letters=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=4, max_size=4),
)
def test_graded_commutation_general_permutation(perm, letters):
    space = GradedSpace(((1, 2), (2, 2)))
    w = tuple(letters)
    degrees = [space.letter_degree(L) for L in w]
    permuted = tuple(w[p] for p in perm)
    sign = _sign_unchecked(perm, degrees)
    assert project(space, permuted) == {v: sign * c for v, c in project(space, w).items()}


# ---------------------------------------------------------------------------
# Gram matrices and dimensions

def test_gram_single_odd_generator_squares_to_zero():
    space = GradedSpace(((1, 1),))
    assert gram_matrix_sym(space, 2, 2) == [[Fraction(0)]]


def test_gram_single_even_generator_survives():
    space = GradedSpace(((2, 1),))
    assert gram_matrix_sym(space, 2, 4) == [[Fraction(1)]]


def test_gram_length_one_is_identity():
    space = GradedSpace(((1, 2), (2, 1)))
    g = gram_matrix_sym(space, 1, 2)
    assert g == [[Fraction(1)]]
    g = gram_matrix_sym(space, 1, 1)
    assert g == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]


@settings(max_examples=30, deadline=None)
@given(space=spaces, m=st.integers(0, 3), n=st.integers(0, 6))
def test_gram_matrix_is_symmetric(space, m, n):
    g = gram_matrix_sym(space, m, n)
    for i, row in enumerate(g):
        for j in range(i):
            assert row[j] == g[j][i]


def test_bruteforce_wedge_square_of_r3():
    space = GradedSpace(((1, 3),))
    assert sym_component_dim_bruteforce(space, 2, 2) == 3
    # oracle: rank of the full 9x9 Gram matrix, no multiset blocking
    assert rank(gram_matrix_sym(space, 2, 2)) == 3


def test_bruteforce_symmetric_square_of_r2():
    space = GradedSpace(((2, 2),))
    assert sym_component_dim_bruteforce(space, 2, 4) == 3
    assert rank(gram_matrix_sym(space, 2, 4)) == 3


def test_bruteforce_degree_starved_component_is_zero():
    space = GradedSpace(((1, 1), (2, 1)))
    assert sym_component_dim_bruteforce(space, 3, 3) == 0


def test_scalar_component():
    space = GradedSpace(((1, 2),))
    assert sym_component_dim_bruteforce(space, 0, 0) == 1
    assert sym_component_dim_closed(space, 0, 0) == 1


@settings(max_examples=40, deadline=None)
@given(space=spaces, m=st.integers(0, 3), n=st.integers(0, 6))
def test_blocked_bruteforce_equals_full_gram_rank(space, m, n):
    assert sym_component_dim_bruteforce(space, m, n) == rank(gram_matrix_sym(space, m, n))


def test_bruteforce_projects_once_per_letter_multiset(monkeypatch):
    # each multiset block is one orbit with image span{P(w0)}, so one
    # orbit sum per block decides its dimension
    calls = []
    orbit_sum = graded_algebra._orbit_sum
    monkeypatch.setattr(
        graded_algebra, "_orbit_sum", lambda w, odd: calls.append(w) or orbit_sum(w, odd)
    )
    space = GradedSpace(((1, 3), (2, 2)))
    cells = [(m, n) for m in range(5) for n in range(7)]
    multisets = {tuple(sorted(w)) for m, n in cells for w in enumerate_words(space, m, n)}
    assert len(multisets) < sum(count_words(space, m, n) for m, n in cells)
    assert list(sym_component_rows_bruteforce(space, 4, 6)) == sym_component_dims(space, 4, 6)
    assert sorted(tuple(space.letters[k] for k in w) for w in calls) == sorted(multisets)


@settings(max_examples=50, deadline=None)
@given(space=spaces, m=st.integers(0, 4), n=st.integers(0, 8))
def test_closed_equals_bruteforce(space, m, n):
    assert sym_component_dim_closed(space, m, n) == sym_component_dim_bruteforce(space, m, n)


def test_closed_equals_bruteforce_full_grid():
    # the module's central invariant, on the full sweep: every component
    # multiset with l <= 3, degrees <= 4, dims <= 2, over m <= 4, n <= 6
    import itertools

    pairs = [(p, d) for p in range(1, 5) for d in range(1, 3)]
    for size in range(1, 4):
        for comps in itertools.combinations_with_replacement(pairs, size):
            space = GradedSpace(comps)
            for m in range(5):
                for n in range(7):
                    assert sym_component_dim_closed(space, m, n) == (
                        sym_component_dim_bruteforce(space, m, n)
                    ), (comps, m, n)


@settings(max_examples=50, deadline=None)
@given(space=spaces, m_max=st.integers(0, 5), n_max=st.integers(0, 8))
def test_sym_component_dims_table_equals_bruteforce(space, m_max, n_max):
    dims = sym_component_dims(space, m_max, n_max)
    assert len(dims) == m_max + 1
    for m, row in enumerate(dims):
        assert len(row) == n_max + 1
        for n, value in enumerate(row):
            try:
                assert value == sym_component_dim_bruteforce(space, m, n), (m, n)
            except EnumerationCapError:
                pass


def oracle_cell(space, m, n, max_words, max_perms):
    """One (m, n) cell by the per-cell route: every word listed, every order permuted."""
    words = enumerate_words(space, m, n)
    if len(words) > max_words:
        return f"component (m={m}, n={n}) has {len(words)} words, over the enumeration cap {max_words}"
    multisets = set(tuple(sorted(w)) for w in words)
    perms = len(multisets) * factorial(m)
    if perms > max_perms:
        return (f"component (m={m}, n={n}) needs {len(multisets)} letter multisets x {m}! = "
                f"{perms} projector permutations, over the permutation budget {max_perms}")
    return sum(1 for w in multisets if project_by_permutations(space, w))


@settings(max_examples=60, deadline=None)
@given(space=spaces, m_max=st.integers(0, 5), n_max=st.integers(0, 9),
       max_words=st.integers(0, 40), max_perms=st.integers(0, 150))
# the first two hit both caps; the third prunes most cells at a word cap of 4
@example(space=GradedSpace(((1, 2), (2, 1))), m_max=5, n_max=9, max_words=30, max_perms=100)
@example(space=GradedSpace(((1, 1), (3, 2))), m_max=5, n_max=9, max_words=8, max_perms=24)
@example(space=GradedSpace(((1, 2), (2, 2))), m_max=4, n_max=6, max_words=4, max_perms=150)
def test_bruteforce_table_equals_the_per_cell_oracles(space, m_max, n_max, max_words, max_perms):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graded_algebra, "MAX_WORDS", max_words)
        patch.setattr(graded_algebra, "MAX_PERMUTATIONS", max_perms)
        table = list(sym_component_rows_bruteforce(space, m_max, n_max))
    assert len(table) == m_max + 1
    for m, row in enumerate(table):
        assert len(row) == n_max + 1
        for n, cell in enumerate(row):
            expected = oracle_cell(space, m, n, max_words, max_perms)
            if isinstance(expected, str):
                assert isinstance(cell, EnumerationCapError) and str(cell) == expected, (m, n)
            else:
                assert cell == expected, (m, n)


def test_bruteforce_table_skips_with_both_reasons(monkeypatch):
    monkeypatch.setattr(graded_algebra, "MAX_WORDS", 30)
    monkeypatch.setattr(graded_algebra, "MAX_PERMUTATIONS", 100)
    table = list(sym_component_rows_bruteforce(GradedSpace(((1, 2), (2, 1))), 5, 9))
    reasons = [str(cell) for row in table for cell in row if isinstance(cell, EnumerationCapError)]
    assert any("enumeration cap 30" in r for r in reasons)
    assert any("permutation budget 100" in r for r in reasons)


def test_bruteforce_walk_reaches_deep_rows_without_recursing():
    # one letter: its length-1100 word is 1100 levels deep, past the recursion limit
    space = GradedSpace(((1, 1),))
    assert walked_multisets(space, 1100, 1100) == (1, [((0, 0),) * 1100])
    assert count_words(space, 1100, 1100) == 1
    table = list(sym_component_rows_bruteforce(space, 1000, 1000))
    assert [table[m][m] for m in range(8)] == [1, 1, 0, 0, 0, 0, 0, 0]
    assert "1 letter multisets x 1000!" in str(table[1000][1000])


def test_bruteforce_table_rows_past_the_least_degree_are_zero():
    # length-2 words of degree-4 letters reach degree 8 > n_max: no walk past m = 1
    space = GradedSpace(((4, 2), (5, 1)))
    assert list(sym_component_rows_bruteforce(space, 4, 6)) == [
        [1, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 2, 1, 0], *[(0,) * 7] * 3
    ]
    assert list(sym_component_rows_bruteforce(GradedSpace(((1, 0),)), 3, 2)) == [
        [1, 0, 0], *[(0,) * 3] * 3]


def test_the_multiset_walk_prunes_a_component_over_the_word_cap(monkeypatch):
    space = GradedSpace(((1, 3),))
    monkeypatch.setattr(graded_algebra, "MAX_WORDS", 9)
    assert len(walked_multisets(space, 2, 2)[1]) == 6
    monkeypatch.setattr(graded_algebra, "MAX_WORDS", 8)
    assert walked_multisets(space, 2, 2) == (9, [])
    with pytest.raises(EnumerationCapError, match=r"\(m=2, n=2\) has 9 words, over the enumeration cap 8"):
        sym_component_dim_bruteforce(space, 2, 2)


def test_sym_component_dims_keeps_long_words_of_high_degree_apart():
    # length-3 words of degree-4 letters reach degree 12, far past n_max = 2;
    # a spacing of n_max + 1 alone would fold them onto low (m, n) entries
    space = GradedSpace(((1, 1), (4, 2)))
    dims = sym_component_dims(space, 4, 2)
    assert dims == [[1, 0, 0], [0, 1, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0]]
    assert sym_component_dims(GradedSpace(((2, 1),)), 3, 6) == [
        [1, 0, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 0, 1]
    ]
    assert sym_component_dims(GradedSpace(((3, 2),)), 2, 6)[2] == [0, 0, 0, 0, 0, 0, 1]


def test_sym_component_dims_refuses_negative_sizes():
    with pytest.raises(ValueError):
        sym_component_dims(GradedSpace(((1, 1),)), -1, 0)
    with pytest.raises(ValueError):
        sym_component_dims(GradedSpace(((1, 1),)), 0, -1)


@given(
    dims=st.lists(st.integers(0, 3), min_size=1, max_size=3),
    n=st.integers(0, 4),
)
def test_all_odd_degrees_give_binomial_of_total(dims, n):
    # with every degree 1 the projector antisymmetrizes, so the length-n
    # component is the n-th wedge power of the direct sum
    space = GradedSpace(tuple((1, d) for d in dims))
    assert sym_component_dim_closed(space, n, n) == comb(sum(dims), n)


def test_counts_stable_under_component_relabeling():
    a = GradedSpace(((1, 2), (2, 1), (3, 2)))
    b = GradedSpace(((3, 2), (1, 2), (2, 1)))
    for m in range(4):
        for n in range(8):
            assert sym_component_dim_closed(a, m, n) == sym_component_dim_closed(b, m, n)
            assert sym_component_dim_bruteforce(a, m, n) == sym_component_dim_bruteforce(b, m, n)


# ---------------------------------------------------------------------------
# norms

def test_norm_single_letter():
    space = GradedSpace(((2, 2),))
    assert projected_norm_sq(space, ((0, 1),)) == 1


def test_norm_even_repeated_letter():
    space = GradedSpace(((2, 1),))
    w = ((0, 0), (0, 0))
    assert projected_norm_sq(space, w) == 1
    assert project(space, w).get(w, 0) == 1


def test_norm_odd_repeated_letter_is_zero():
    space = GradedSpace(((1, 2),))
    assert projected_norm_sq(space, ((0, 0), (0, 0))) == 0


def test_norm_rejects_unsorted_word():
    space = GradedSpace(((1, 2), (2, 1)))
    with pytest.raises(ValueError):
        projected_norm_sq(space, ((1, 0), (0, 0)))
    with pytest.raises(ValueError):
        projected_norm_sq(space, ((0, 1), (0, 0)))


def test_norm_agrees_with_projection_inner_product():
    # all block-sorted words, two components, lengths up to 4
    for degrees in [(1, 2), (1, 3), (2, 3), (1, 1), (3, 3)]:
        space = GradedSpace(tuple((p, 2) for p in degrees))
        for m in range(5):
            for n in range(m * max(degrees) + 1):
                for w in enumerate_words(space, m, n):
                    if tuple(sorted(w)) != w:
                        continue
                    assert projected_norm_sq(space, w) == project(space, w).get(w, 0)


# ---------------------------------------------------------------------------
# enumeration cap

def test_cap_exceeded_raises_named_error(monkeypatch):
    monkeypatch.setattr(graded_algebra, "MAX_WORDS", 3)
    space = GradedSpace(((1, 3),))
    with pytest.raises(EnumerationCapError, match="cap 3"):
        sym_component_dim_bruteforce(space, 2, 2)


def test_permutation_budget_refuses_before_projecting(monkeypatch):
    # one multiset of 7 letters needs 7! = 5040 permutations
    space = GradedSpace(((1, 1),))
    monkeypatch.setattr(graded_algebra, "MAX_PERMUTATIONS", 5040)
    assert sym_component_dim_bruteforce(space, 7, 7) == 0
    monkeypatch.setattr(graded_algebra, "MAX_PERMUTATIONS", 5039)

    def no_projection(*args):
        raise AssertionError("projected over the budget")

    monkeypatch.setattr(graded_algebra, "project", no_projection)
    with pytest.raises(EnumerationCapError, match=r"x 7! = 5040 .* permutation budget 5039"):
        sym_component_dim_bruteforce(space, 7, 7)


def test_permutation_budget_counts_every_multiset():
    # two letters of degree 1: the m = 7 words of degree 7 fall into 8 multisets
    space = GradedSpace(((1, 2),))
    with pytest.raises(EnumerationCapError, match=r"8 letter multisets x 7!"):
        sym_component_dim_bruteforce(space, 7, 7)
    assert sym_component_dim_bruteforce(space, 5, 5) == sym_component_dim_closed(space, 5, 5)


# ---------------------------------------------------------------------------
# graded space validation

def test_space_validation():
    with pytest.raises(ValueError):
        GradedSpace(())
    with pytest.raises(ValueError):
        GradedSpace(((0, 2),))
    with pytest.raises(ValueError):
        GradedSpace(((1, -1),))


@pytest.mark.parametrize("components, field", [
    (((2.7, 1),), r"components\[0\]\.degree"),
    (((1, 2), (True, 1.9)), r"components\[1\]\.degree"),
    (((1, 1.9),), r"components\[0\]\.dim"),
    (((1, False),), r"components\[0\]\.dim"),
])
def test_space_refuses_non_integers_naming_the_field(components, field):
    # 2.7 and True were truncated to 2 and 1 before
    with pytest.raises(ValueError, match=field):
        GradedSpace(components)


def test_zero_dimensional_component_contributes_no_letters():
    space = GradedSpace(((1, 0), (2, 2)))
    assert space.letters == ((1, 0), (1, 1))
    assert sym_component_dim_closed(space, 1, 1) == 0
