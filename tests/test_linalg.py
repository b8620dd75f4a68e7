"""Exact rank / PSD / Kronecker-sum helpers against a from-scratch oracle."""

import copy
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formula_oracles import is_psd_by_fractions, nullity, rref_rank, sparse_rows
from gammahodge.linalg import gram, is_psd, kron_sum, outer_gram, psd_rank, rank


int_matrices = st.integers(1, 5).flatmap(
    lambda n: st.integers(1, 5).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(-4, 4), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
)


@st.composite
def sparse_matrices(draw, nonzero):
    """Mostly-zero n x m matrices (n, m <= 15) with a zero row and a zero column.

    Half of them are products through an inner dimension of 1..4, so their
    rank is often below both sides.
    """
    n, m = draw(st.integers(1, 15)), draw(st.integers(1, 15))
    entry = st.one_of(st.just(0), st.just(0), st.just(0), nonzero)

    def block(rows, cols):
        return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))

    if draw(st.booleans()):
        inner = draw(st.integers(1, 4))
        left, right = block(n, inner), block(inner, m)
        matrix = [[sum(x * right[t][j] for t, x in enumerate(row)) for j in range(m)]
                  for row in left]
    else:
        matrix = block(n, m)
    zero_row, zero_col = draw(st.integers(0, n - 1)), draw(st.integers(0, m - 1))
    matrix[zero_row] = [0] * m
    for row in matrix:
        row[zero_col] = 0
    return matrix


sparse_int_matrices = sparse_matrices(st.integers(-5, 5).filter(bool))
sparse_fraction_matrices = sparse_matrices(
    st.fractions(min_value=-3, max_value=3, max_denominator=6).filter(bool)
)
sparse_mixed_matrices = sparse_matrices(st.one_of(
    st.integers(-5, 5), st.fractions(min_value=-3, max_value=3, max_denominator=6)
).filter(bool))


def test_rank_basics():
    assert rank([]) == 0
    assert rank([{}, {}]) == 0
    assert rank([{0: 0, 1: 0}, {0: 0}]) == 0
    assert rank(sparse_rows([[1, 0], [0, 1]])) == 2
    assert rank(sparse_rows([[1, 2, 3], [2, 4, 6]])) == 1
    assert rank(sparse_rows([[1, 2], [3, 4], [5, 6]])) == 2


@settings(max_examples=150)
@given(m=int_matrices)
def test_rank_matches_rref_oracle(m):
    assert rank(sparse_rows(m)) == rref_rank(m)


@settings(max_examples=150, deadline=None)
@given(m=sparse_int_matrices)
def test_sparse_rank_matches_rref_oracle(m):
    assert rank(sparse_rows(m)) == rref_rank(m)


@settings(max_examples=50, deadline=None)
@given(m=sparse_int_matrices)
def test_zeros_in_dict_rows_change_no_rank(m):
    with_zeros = [dict(enumerate(row)) for row in m]
    assert rank(sparse_rows(m)) == rank(with_zeros) == rref_rank(m)


dense_int_matrices = st.integers(1, 8).flatmap(lambda m: st.lists(
    st.lists(st.sampled_from([0, 0, 1, -1, 2, -3, 4, -6]), min_size=m, max_size=m),
    min_size=1, max_size=8,
))


@settings(max_examples=150, deadline=None)
@given(m=st.one_of(sparse_int_matrices, dense_int_matrices),
       content=st.sampled_from([1, 2, 6]))
def test_rows_with_a_common_factor_rank_as_the_oracle(m, content):
    # rank divides no input row by its content; only the updated rows are divided
    width = len(m[0])
    m = [[content * e for e in row] for row in m] + [([4, 0, 0, -6] + [0] * width)[:width]]
    assert rank(sparse_rows(m)) == rref_rank(m)


@pytest.mark.parametrize("row", [
    {0: np.int64(1), 1: 2},
    np.array([1, 0, 2], dtype=np.int64),
    {0: 1, 2: Fraction(3, 2)},
    {0: 1.0},
    {0: True, 1: 2},
    [1, 0, 2],
], ids=["numpy int64 value", "numpy int64 row", "Fraction", "float", "bool", "dense list"])
def test_rank_refuses_a_row_that_is_not_int_dict(row):
    with pytest.raises(TypeError, match="row 1 "):
        rank([{0: 1, 1: -1}, row, {2: 1}])


def test_rank_through_large_intermediate_integers():
    # Vandermonde rows x^0..x^13 for x = 1..14 eliminate through integers of
    # hundreds of bits; a last row summing two others drops the rank by one.
    vandermonde = [[x**k for k in range(14)] for x in range(1, 15)]
    assert rank(sparse_rows(vandermonde)) == rref_rank(vandermonde) == 14
    dependent = vandermonde[:-1] + [[a + 7 * b for a, b in zip(vandermonde[2], vandermonde[9])]]
    assert rank(sparse_rows(dependent)) == rref_rank(dependent) == 13
    # the 12 x 12 Hilbert matrix, each row scaled by the lcm of its denominators
    hilbert = [[Fraction(1, i + j + 1) for j in range(12)] for i in range(12)]
    scaled = [[lcm(*range(i + 1, i + 13)) // (i + j + 1) for j in range(12)] for i in range(12)]
    assert rank(sparse_rows(scaled)) == rref_rank(hilbert) == 12


def test_rank_leaves_its_argument_unchanged():
    with_zeros = [{0: 2, 2: -4}, {0: 1, 1: 3, 2: 0}, {}, {1: 3, 2: -2}, {0: 0}]
    # zero-free rows, which rank copies whole
    zero_free = [{0: 2, 2: -4}, {0: 1, 1: 3}, {1: -1, 2: 1}, {0: 4, 1: -6, 2: 2}]
    for matrix, want in ((with_zeros, 3), (zero_free, 3)):
        before = copy.deepcopy(matrix)
        assert rank(matrix) == want
        assert matrix == before


def test_nullity():
    assert nullity([[1, 2, 3]]) == 2
    assert nullity([]) == 0


def test_nullity_refuses_dict_rows():
    # A dict row's length is its nonzero count, not the column count: this
    # read as 2 - 3 = -1 before dict rows were refused.
    with pytest.raises(ValueError, match="dense rows"):
        nullity([{0: 1}, {5: 2}])
    with pytest.raises(ValueError, match="dense rows"):
        nullity([[1, 0, 0], {2: 1}])


@settings(max_examples=50, deadline=None)
@given(m=st.one_of(sparse_int_matrices, sparse_mixed_matrices))
def test_gram_is_the_explicit_product(m):
    ncols = len(m[0])
    expected = [[sum(row[i] * row[j] for row in m) for j in range(ncols)] for i in range(ncols)]
    assert gram(m, ncols) == expected


@settings(max_examples=50, deadline=None)
@given(m=st.one_of(sparse_int_matrices, sparse_fraction_matrices, sparse_mixed_matrices),
       empty=st.integers(0, 3))
def test_gram_of_dict_rows_equals_gram_of_their_dense_rows(m, empty):
    ncols = len(m[0])
    dense = m + [[0] * ncols] * empty
    nonzeros = sparse_rows(dense)
    with_zeros = [dict(enumerate(row)) for row in dense]
    assert {} in nonzeros
    assert gram(nonzeros, ncols) == gram(with_zeros, ncols) == gram(dense, ncols)


@pytest.mark.parametrize("rows", [
    [[1, 2, 3]],          # a dense row longer than ncols
    [[1, 2, 0]],          # even when the extra entry is zero
    [{0: 1, 2: 1}],
    [{2: 0}],
    [{-1: 1}],
])
def test_gram_refuses_a_column_outside_the_range(rows):
    with pytest.raises(ValueError, match="column outside"):
        gram(rows, 2)


@settings(max_examples=80)
@given(m=int_matrices)
def test_gram_matrices_are_psd(m):
    ncols = len(m[0])
    assert is_psd(gram(m, ncols))
    assert is_psd(outer_gram(m))


def test_is_psd_cases():
    assert is_psd([[0, 0], [0, 1]])
    assert is_psd([[2, 1], [1, 2]])
    assert is_psd([])
    assert not is_psd([[-1]])
    assert not is_psd([[0, 1], [1, 1]])
    assert not is_psd([[0, 1], [1, 0]])
    assert not is_psd([[1, 2], [2, 1]])


def test_is_psd_requires_symmetry():
    for check in (is_psd, psd_rank, is_psd_by_fractions):
        with pytest.raises(ValueError, match="not symmetric"):
            check([[1, 2], [0, 1]])
        with pytest.raises(ValueError, match="not square"):
            check([[1, 2]])


def test_psd_rank_cases():
    assert psd_rank([]) == 0
    assert psd_rank([[0, 0], [0, 0]]) == 0
    assert psd_rank([[0, 0], [0, 1]]) == 1
    assert psd_rank([[2, 1], [1, 2]]) == 2
    # one factor row over three columns: a singular Gram of rank 1
    assert psd_rank(gram([[1, 2, 3]], 3)) == 1
    # a zero pivot in the middle is skipped, and the pivots after it stay exact
    # (pivots 2, 0, 5, 12: the last divides 5 * 5 - 1 * 1 by 2)
    assert psd_rank([[2, 2, 1, 1], [2, 2, 1, 1], [1, 1, 3, 1], [1, 1, 1, 3]]) == 3
    assert psd_rank([[9, 6], [6, 4]]) == 1
    for not_psd in ([[-1]], [[0, 1], [1, 1]], [[0, 1], [1, 0]], [[1, 2], [2, 1]],
                    [[3, 6], [6, 2]], [[1, 1, 0], [1, 1, 0], [0, 0, -1]]):
        assert psd_rank(not_psd) is None


@pytest.mark.parametrize("entry", [Fraction(1, 2), Fraction(2), np.int64(1), 1.0, True],
                         ids=["Fraction", "whole Fraction", "numpy int64", "float", "bool"])
def test_psd_rank_refuses_entries_that_are_not_int(entry):
    matrix = [[2, 0, 0], [0, 1, entry], [0, entry, 1]]
    for check in (psd_rank, is_psd):
        with pytest.raises(TypeError, match="row 1 "):
            check(matrix)


@st.composite
def symmetric_matrices(draw):
    """n x n symmetric int matrices, n <= 7.

    Grams of k x n factors, singular whenever k < n; those Grams with their
    diagonal lowered, which are not PSD when singular; Kronecker sums of two
    Grams, as the probes build; zero matrices; and symmetric matrices drawn
    entry by entry, which are seldom PSD.
    """
    entry = st.integers(-3, 3)
    kind = draw(st.sampled_from(["gram", "lowered gram", "kron sum", "zero", "entrywise"]))

    def gram_of(n):
        factor = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=n + 1))
        return gram(factor, n)

    if kind == "kron sum":
        return kron_sum(gram_of(draw(st.integers(0, 3))), gram_of(draw(st.integers(0, 3))))
    n = draw(st.integers(0, 7))
    if kind in ("gram", "lowered gram"):
        m = gram_of(n)
        if kind == "lowered gram" and n:
            i = draw(st.integers(0, n - 1))
            m[i][i] -= draw(st.integers(1, 2))
        return m
    if kind == "zero":
        return [[0] * n for _ in range(n)]
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = draw(entry)
    return m


@settings(max_examples=400, deadline=None)
@given(m=symmetric_matrices())
def test_psd_rank_is_the_fraction_verdict_and_then_the_rank(m):
    before = copy.deepcopy(m)
    r = psd_rank(m)
    assert m == before
    if is_psd_by_fractions(m):
        assert r == rref_rank(m)
    else:
        assert r is None
    assert is_psd(m) == (r is not None)


def test_kron_sum_small():
    a = [[2]]
    b = [[0, 1], [1, 0]]
    assert kron_sum(a, b) == [[2, 1], [1, 2]]


def test_kron_sum_diagonal_nullity_counts_zero_pairs():
    a = [[0, 0], [0, 1]]
    b = [[0, 0, 0], [0, 0, 0], [0, 0, 2]]
    ks = kron_sum(a, b)
    pairs = sum(
        1 for i in range(2) for j in range(3) if a[i][i] + b[j][j] == 0
    )
    assert nullity(ks) == pairs == 2
