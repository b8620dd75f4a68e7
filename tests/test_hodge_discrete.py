"""Simplicial complexes, Laplacian kernels, decomposition, Kronecker sums.

The independent oracle is formula_oracles.rref_rank, a plain Fraction
Gauss-Jordan rank; every catalog Betti number and kernel count is re-derived
through it, never only through the module's own sparse elimination.
"""

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formula_oracles import catalog, rref_rank, sparse_rows
from gammahodge import hodge_discrete
from gammahodge.errors import InvariantError, ResourceError
from gammahodge.hodge_discrete import (
    PsdContractError,
    betti_numbers,
    boundary_matrix,
    from_maximal,
    hodge_decomposition_dims,
    hodge_laplacian,
    kron_sum_kernel_dim,
    load_complex,
    sphere_boundary,
    torus_grid,
)
from gammahodge.linalg import gram, is_psd, kron_sum, rank


def betti_oracle(K):
    """Rank-nullity computed with rref_rank, from scratch."""
    out = []
    for k in range(K.max_dim + 1):
        out.append(
            K.chain_dim(k)
            - rref_rank(boundary_matrix(K, k))
            - rref_rank(boundary_matrix(K, k + 1))
        )
    return tuple(out)


maximal_sets = st.lists(
    st.lists(st.integers(0, 7), min_size=1, max_size=3, unique=True),
    min_size=0,
    max_size=6,
)


# ---------------------------------------------------------------------------
# construction

def test_hollow_triangle_counts():
    K = from_maximal([[0, 1], [1, 2], [0, 2]])
    assert K.num_vertices == 3
    assert K.chain_dim(1) == 3
    assert K.max_dim == 1


def test_solid_triangle_closure():
    K = from_maximal([[0, 1, 2]])
    assert K.chain_dim(0) == 3
    assert K.chain_dim(1) == 3
    assert K.chain_dim(2) == 1


def test_empty_complex():
    K = from_maximal([])
    assert K.max_dim == -1
    assert betti_numbers(K) == ()


def test_load_complex_validation():
    with pytest.raises(ValueError):
        load_complex({})
    with pytest.raises(ValueError):
        load_complex({"maximal": [[0, -1]]})
    with pytest.raises(ValueError):
        load_complex({"maximal": [[0, 0, 1]]})
    with pytest.raises(ValueError):
        load_complex({"maximal": "nope"})
    # a vertex that is not an int goes through strict_int, which reads a decimal string
    assert from_maximal([[2, "3"], (0, 1)]).simplices[0] == ((0,), (1,), (2,), (3,))


@pytest.mark.parametrize("vertex, refusal", [
    (True, " must be an integer, got True"),
    (2.0, " must be an integer, got 2.0"),
    (2.7, " must be an integer, got 2.7"),
    (None, " must be an integer, got None"),
    (-1, ": negative vertex id in [0, -1]"),
])
def test_load_complex_names_the_refused_vertex(vertex, refusal):
    # the int-only pass hands every other vertex to strict_int, which names its place
    with pytest.raises(ValueError) as info:
        load_complex({"maximal": [[2, 3], [0, vertex]]})
    assert str(info.value) == f"complex.maximal[1][1]{refusal}"


@given(maximal=maximal_sets)
def test_face_closure(maximal):
    K = from_maximal(maximal)
    stored = {s for level in K.simplices for s in level}
    for simplex in stored:
        for j in range(len(simplex)):
            face = simplex[:j] + simplex[j + 1 :]
            if face:
                assert face in stored


# ---------------------------------------------------------------------------
# boundary and Betti numbers

@given(maximal=maximal_sets)
def test_boundary_squares_to_zero(maximal):
    K = from_maximal(maximal)
    for k in range(1, K.max_dim + 1):
        low = boundary_matrix(K, k)
        high = boundary_matrix(K, k + 1)
        if not low or not high:
            continue
        for col in range(len(high[0]) if high[0:] and high[0] else 0):
            composed = [
                sum(low[i][j] * high[j][col] for j in range(len(high)))
                for i in range(len(low))
            ]
            assert all(v == 0 for v in composed)


def test_catalog_betti_numbers_against_oracle():
    expected = {
        "hollow_triangle": (1, 1),
        "solid_triangle": (1, 0, 0),
        "two_hollow_triangles": (2, 2),
        "hollow_tetrahedron": (1, 0, 1),
        "torus_7": (1, 2, 1),
        "rp2_6": (1, 0, 0),
        "mobius_5": (1, 1, 0),
    }
    for name, K in catalog().items():
        assert betti_numbers(K) == expected[name]
        assert betti_oracle(K) == expected[name]


def test_twelve_by_twelve_torus_split():
    K = torus_grid(12, 12)
    assert [K.chain_dim(k) for k in range(3)] == [144, 432, 288]
    assert hodge_decomposition_dims(K) == ((1, 0, 143), (2, 143, 287), (1, 287, 0))


def test_torus_grids_and_sphere_boundaries():
    for a, b in ((3, 3), (3, 4), (5, 4)):
        K = torus_grid(a, b)
        assert [K.chain_dim(k) for k in range(3)] == [a * b, 3 * a * b, 2 * a * b]
        assert betti_numbers(K) == betti_oracle(K) == (1, 2, 1)
    for n in range(2, 7):
        K = sphere_boundary(n)
        assert K.max_dim == n - 1
        assert betti_numbers(K) == (1,) + (0,) * (n - 2) + (1,)
    assert betti_numbers(sphere_boundary(1)) == (2,)
    assert betti_oracle(sphere_boundary(4)) == (1, 0, 0, 1)
    for bad in ((2, 5), (4, 1)):
        with pytest.raises(ValueError):
            torus_grid(*bad)
    with pytest.raises(ValueError):
        sphere_boundary(0)


def test_boundary_entries_follow_the_sign_convention():
    # from scratch: column j of del_k holds (-1)^pos at the face dropping vertex pos
    complexes = list(catalog().values()) + [torus_grid(3, 4), sphere_boundary(4)]
    for K in complexes:
        for k in range(K.max_dim + 2):
            faces = list(K.simplices[k - 1]) if k >= 1 else []
            simplices = list(K.simplices[k]) if k <= K.max_dim else []
            expected = [[0] * len(simplices) for _ in faces]
            for j, simplex in enumerate(simplices):
                for pos in range(len(simplex) if faces else 0):
                    expected[faces.index(simplex[:pos] + simplex[pos + 1 :])][j] = (-1) ** pos
            assert boundary_matrix(K, k) == expected
            rows, cols = hodge_discrete._sparse_boundary(K, k)
            assert [dict(sorted(r.items())) for r in rows] == sparse_rows(expected)
            assert [dict(sorted(c.items())) for c in cols] == [
                {i: expected[i][j] for i in range(len(faces)) if expected[i][j]}
                for j in range(len(simplices))
            ]
    with pytest.raises(ValueError):
        boundary_matrix(catalog()["solid_triangle"], 4)


def test_boundaries_take_memory_in_proportion_to_their_nonzeros():
    # a dense 1728 x 1152 del_2 of this torus alone takes 15.4 MiB as lists;
    # all 6,912 boundary nonzeros, held by row and by column, need about 1.5 MiB
    K = torus_grid(24, 24)
    tracemalloc.start()
    try:
        bounds = hodge_discrete._boundaries(K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(len(col) for _, cols in bounds for col in cols) == 2 * 1728 + 3 * 1152
    assert peak < 4 * 2**20


def test_closure_budget_is_checked_before_the_closure(monkeypatch):
    assert torus_grid(48, 48).chain_dim(2) == 4608  # 4608 * 7 faces, under the limit
    with pytest.raises(ResourceError):
        from_maximal([list(range(30))])
    monkeypatch.setattr(hodge_discrete, "MAX_CLOSURE_FACES", 7)
    assert from_maximal([[0, 1, 2]]).chain_dim(1) == 3
    with pytest.raises(ResourceError):
        from_maximal([[0, 1, 2], [3]])


def test_disjoint_vertices_count_components():
    K = from_maximal([[0], [3]])
    assert betti_numbers(K) == (2,)


# ---------------------------------------------------------------------------
# Laplacians and the decomposition

def test_laplacian_equals_the_explicit_boundary_products():
    """L_k against del_k^T del_k + del_{k+1} del_{k+1}^T, multiplied out entry by entry."""
    complexes = list(catalog().values()) + [torus_grid(3, 3), torus_grid(3, 5), torus_grid(4, 4)]
    for K in complexes:
        for k in range(K.max_dim + 1):
            nk = K.chain_dim(k)
            down = boundary_matrix(K, k)  # (k-1)-faces x k-simplices
            up = boundary_matrix(K, k + 1)  # k-simplices x (k+1)-simplices
            expected = [
                [sum(row[i] * row[j] for row in down) + sum(a * b for a, b in zip(up[i], up[j]))
                 for j in range(nk)]
                for i in range(nk)
            ]
            assert hodge_laplacian(K, k) == expected


def test_laplacian_kernel_dims():
    hollow = catalog()["hollow_triangle"]
    L1 = hodge_laplacian(hollow, 1)
    assert hollow.chain_dim(1) - rref_rank(L1) == 1
    solid = catalog()["solid_triangle"]
    L1 = hodge_laplacian(solid, 1)
    assert solid.chain_dim(1) - rref_rank(L1) == 0


def test_laplacians_are_psd_with_nonnegative_diagonal():
    for K in catalog().values():
        for k in range(K.max_dim + 1):
            L = hodge_laplacian(K, k)
            assert is_psd(L)
            assert all(L[i][i] >= 0 for i in range(len(L)))


def test_laplacian_kernel_equals_betti_everywhere():
    for K in catalog().values():
        beta = betti_numbers(K)
        for k in range(K.max_dim + 1):
            L = hodge_laplacian(K, k)
            assert K.chain_dim(k) - rref_rank(L) == beta[k]


def _laplacian_rank(K, k):
    """rank L_k, the oracle for the stacked rank: its nonzeros go through the sparse
    elimination, since the torus Laplacians are too large for rref_rank."""
    return rank(sparse_rows(hodge_laplacian(K, k)))


ORACLE_COMPLEXES = (
    list(catalog().values())
    + [torus_grid(a, b) for a, b in ((3, 3), (3, 5), (4, 4), (8, 8), (12, 12))]
    + [sphere_boundary(n) for n in range(1, 7)]
)


@pytest.mark.parametrize("K", ORACLE_COMPLEXES, ids=lambda K: str([len(s) for s in K.simplices]))
def test_stacked_incidence_rank_equals_laplacian_rank(K):
    bounds = hodge_discrete._boundaries(K)
    split = hodge_decomposition_dims(K)
    for k in range(K.max_dim + 1):
        stacked = rank(bounds[k + 1][1] + bounds[k][0])
        assert stacked == _laplacian_rank(K, k)
        assert split[k][0] == K.chain_dim(k) - stacked


def test_twenty_four_torus_split():
    K = torus_grid(24, 24)
    assert hodge_decomposition_dims(K) == ((1, 0, 575), (2, 575, 1151), (1, 1151, 0))


def test_decomposition_dims():
    assert hodge_decomposition_dims(catalog()["hollow_triangle"])[1] == (1, 2, 0)
    assert hodge_decomposition_dims(catalog()["solid_triangle"])[1] == (0, 2, 1)


def test_decomposition_fills_chain_space():
    for K in catalog().values():
        beta = betti_numbers(K)
        split = hodge_decomposition_dims(K)
        for k in range(K.max_dim + 1):
            harmonic, exact, coexact = split[k]
            assert harmonic + exact + coexact == K.chain_dim(k)
            assert harmonic == beta[k]


def test_connected_complexes_have_one_harmonic_function():
    for name in ("hollow_triangle", "solid_triangle", "hollow_tetrahedron", "torus_7"):
        assert hodge_decomposition_dims(catalog()[name])[0][0] == 1


def test_each_exact_rank_is_computed_once(monkeypatch):
    calls = []
    original = hodge_discrete.rank

    def counted(matrix):
        calls.append(matrix)
        return original(matrix)

    monkeypatch.setattr(hodge_discrete, "rank", counted)
    K = catalog()["torus_7"]
    split = hodge_decomposition_dims(K)
    # every boundary of a surface is a signed graph's incidence matrix: del_0, del_1 and
    # the empty del_3 by their columns, del_2 by its rows (each edge on two triangles), so
    # the only eliminations are the stacked incidence matrices M_1 and M_2; M_0 is the
    # list of del_1's columns, whose rank is reused
    assert len(calls) == K.max_dim == 2
    calls.clear()
    assert betti_numbers(K) == tuple(harmonic for harmonic, _, _ in split) == (1, 2, 1)
    assert calls == []


@pytest.mark.parametrize("name, k, unfilled", [
    ("torus_7", 1, "C_1"),
    ("torus_7", 2, "C_1, C_2"),
    ("rp2_6", 2, "C_1, C_2"),
])
def test_a_wrong_signed_rank_is_caught_by_the_eliminations(monkeypatch, name, k, unfilled):
    # M_0 reuses rank del_1, so the k = 0 sum holds whatever that rank reads; the sums at
    # k >= 1, whose M_k are eliminated on their own, must catch a wrong union-find rank of
    # del_1 (lines: its columns) at C_1, and of the top del_2 (lines: its rows) at C_2
    K = catalog()[name]
    rows, cols = hodge_discrete._sparse_boundary(K, k)
    wrong = cols if k == 1 else rows
    original = hodge_discrete._signed_rank

    def off_by_one(lines, nodes):
        return original(lines, nodes) + (lines == wrong)

    monkeypatch.setattr(hodge_discrete, "_signed_rank", off_by_one)
    with pytest.raises(InvariantError, match=f"^decomposition of {unfilled} does not fill"):
        hodge_decomposition_dims(K)
    assert hodge_discrete._boundary_rank(rows, cols) == rref_rank(boundary_matrix(K, k)) + 1


@settings(max_examples=300, deadline=None)
@given(nodes=st.integers(0, 9), data=st.data())
def test_signed_rank_is_the_rank_of_its_lines(nodes, data):
    # empty, one-entry and two-entry lines of random signs, some drawn twice, whose cycles
    # are balanced or not, against rref_rank of the lines as dense rows and linalg.rank
    node = st.integers(0, max(nodes - 1, 0))
    sign = st.sampled_from((1, -1))
    line = st.dictionaries(node, sign, max_size=min(nodes, 2))
    lines = data.draw(st.lists(line, max_size=2 * nodes + 2))
    lines += data.draw(st.lists(st.sampled_from(lines), max_size=3)) if lines else []
    expected = rref_rank([[line.get(v, 0) for v in range(nodes)] for line in lines])
    assert hodge_discrete._signed_rank(lines, nodes) == expected
    assert rank(lines) == expected


def test_signed_rank_decides_the_pinned_and_unbalanced_cases():
    # x0 - x1, x1 + x2, x2 - x0: unbalanced, rank 3; balanced with x2 + x0 instead, rank 2
    assert hodge_discrete._signed_rank([{0: 1, 1: -1}, {1: 1, 2: 1}, {2: 1, 0: -1}], 3) == 3
    assert hodge_discrete._signed_rank([{0: 1, 1: -1}, {1: 1, 2: 1}, {2: 1, 0: 1}], 3) == 2
    # one path pinned by a one-entry line, a free pair, an isolated node, an empty line
    assert hodge_discrete._signed_rank([{0: 1, 1: 1}, {1: -1}, {2: 1, 3: 1}, {}], 5) == 3
    # a pinned component joined under a free root pins the whole
    assert hodge_discrete._signed_rank([{0: 1}, {1: 1, 0: 1}], 2) == 2
    assert hodge_discrete._signed_rank([], 4) == 0


def test_rp2_and_the_mobius_strip_are_ranked_by_their_rows(monkeypatch):
    # the only catalog complexes whose del_2 rows leave a component unbalanced (RP^2)
    # or pinned (the Mobius strip's boundary edges): both routes against rref_rank
    calls = []
    monkeypatch.setattr(hodge_discrete, "rank", lambda m: calls.append(m) or rank(m))
    for name, beta in (("rp2_6", (1, 0, 0)), ("mobius_5", (1, 1, 0))):
        K = catalog()[name]
        assert betti_numbers(K) == betti_oracle(K) == beta
        assert calls == []
        exact = [rref_rank(boundary_matrix(K, k)) for k in range(K.max_dim + 2)]
        assert hodge_decomposition_dims(K) == tuple(
            (beta[k], exact[k], exact[k + 1]) for k in range(K.max_dim + 1))
        assert len(calls) == 2
        calls.clear()


def test_each_boundary_is_built_once(monkeypatch):
    calls = []
    original = hodge_discrete._sparse_boundary

    def counted(K, k):
        calls.append(k)
        return original(K, k)

    monkeypatch.setattr(hodge_discrete, "_sparse_boundary", counted)
    K = catalog()["torus_7"]
    hodge_decomposition_dims(K)
    # del_0 .. del_{max_dim+1}, shared by the boundary ranks and the stacked ranks
    assert sorted(calls) == list(range(K.max_dim + 2)) == [0, 1, 2, 3]


def test_harmonic_cycle_is_orthogonal_to_both_images():
    # hollow triangle, edges (0,1), (0,2), (1,2): the oriented cycle below
    # spans ker L_1 and must be orthogonal to every row of the vertex
    # boundary and every column of the (empty) face boundary
    K = catalog()["hollow_triangle"]
    cycle = (1, -1, 1)
    d1 = boundary_matrix(K, 1)
    for row in d1:
        assert sum(a * b for a, b in zip(row, cycle)) == 0
    L = hodge_laplacian(K, 1)
    image = [sum(L[i][j] * cycle[j] for j in range(3)) for i in range(3)]
    assert all(v == 0 for v in image)


# ---------------------------------------------------------------------------
# Kronecker sums

def test_kron_kernel_diagonal_example():
    A = [[0, 0], [0, 1]]
    B = [[0, 0, 0], [0, 0, 0], [0, 0, 2]]
    assert kron_sum_kernel_dim(A, B) == (2, 2)


def test_kron_kernel_zero_matrices():
    A = [[0] * 2 for _ in range(2)]
    B = [[0] * 3 for _ in range(3)]
    assert kron_sum_kernel_dim(A, B) == (6, 6)


def test_kron_kernel_rejects_non_psd():
    A = [[-1]]
    B = [[1]]
    with pytest.raises(PsdContractError):
        kron_sum_kernel_dim(A, B)
    with pytest.raises(PsdContractError):
        kron_sum_kernel_dim(B, [[0, 1], [1, 0]])


@settings(max_examples=40, deadline=None)
@given(
    fa=st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3), min_size=2, max_size=4),
    fb=st.lists(st.lists(st.integers(-2, 2), min_size=2, max_size=2), min_size=2, max_size=4),
)
def test_kron_kernel_matches_from_scratch_nullity(fa, fb):
    A = gram(fa, len(fa[0]))
    B = gram(fb, len(fb[0]))
    computed, predicted = kron_sum_kernel_dim(A, B)
    assert computed == predicted
    ks = kron_sum(A, B)
    assert computed == (len(ks) - rref_rank(ks))


def test_sym_matrix_validation():
    with pytest.raises(ValueError, match="not symmetric"):
        kron_sum_kernel_dim([[1, 2], [3, 4]], [[1]])
    with pytest.raises(ValueError, match="not square"):
        kron_sum_kernel_dim([[1]], [[1, 2]])


def test_kron_kernel_refuses_a_fraction_matrix():
    half = Fraction(1, 2)
    with pytest.raises(TypeError, match="not an int"):
        kron_sum_kernel_dim([[half, 0], [0, 1]], [[1]])
    with pytest.raises(TypeError, match="not an int"):
        kron_sum_kernel_dim([[1]], [[1, half], [half, 1]])
