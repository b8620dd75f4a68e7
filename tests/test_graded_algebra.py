"""Projector, word enumeration, and dimension-count tests.

Independent oracles live in this file: a direct inversion-count sign, a
two-term expansion for length-2 projections, and the full-Gram-matrix rank
(no multiset blocking) as a cross-check of the blocked brute-force path.
"""

from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
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
    count_words,
    letter_multisets,
    project,
    sym_component_dim_bruteforce,
    sym_component_dim_closed,
    sym_component_dims,
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


@settings(max_examples=60)
@given(space=spaces, m=st.integers(0, 5), n=st.integers(0, 11))
def test_letter_multisets_are_the_sorted_words_in_order(space, m, n):
    words = enumerate_words(space, m, n)
    assert letter_multisets(space, m, n) == list(dict.fromkeys(tuple(sorted(w)) for w in words))


def test_letter_multisets_edge_cases():
    assert letter_multisets(GradedSpace(((2, 1),)), 0, 0) == [()]
    assert letter_multisets(GradedSpace(((2, 1),)), 0, 1) == []
    assert letter_multisets(GradedSpace(((1, 0),)), 0, 0) == [()]
    assert letter_multisets(GradedSpace(((1, 0),)), 2, 2) == []
    assert letter_multisets(GradedSpace(((1, 1), (2, 1))), 2, 3) == [((0, 0), (1, 0))]
    with pytest.raises(ValueError):
        letter_multisets(GradedSpace(((1, 1),)), -1, 0)


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
    # projection per block decides its dimension
    calls = []
    monkeypatch.setattr(
        graded_algebra, "project", lambda space, w: calls.append(w) or project(space, w)
    )
    space = GradedSpace(((1, 3), (2, 2)))
    for m, n in ((3, 5), (4, 6), (3, 3)):
        calls.clear()
        multisets = {tuple(sorted(w)) for w in enumerate_words(space, m, n)}
        assert len(multisets) < count_words(space, m, n)
        assert sym_component_dim_bruteforce(space, m, n) == sym_component_dim_closed(space, m, n)
        assert sorted(calls) == sorted(multisets)


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
