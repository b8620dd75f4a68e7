"""Finite simplicial stand-ins for Hodge-theoretic dimension identities.

Betti numbers from exact boundary ranks, combinatorial Hodge Laplacians
whose kernel dimensions equal those Betti numbers, the three-way split of
k-chains into harmonic / exact / coexact dimensions, and the kernel count of
Kronecker sums of positive-semidefinite matrices.  Everything is exact
rational arithmetic; there are no floating-point eigensolvers here.

Each boundary is built once per report, straight from the face index, as
its nonzeros by row (the k-simplices on each face) and by column (the k+1
faces of each k-simplex); no dense matrix is formed on the report path.
A boundary whose columns (del_0, del_1), or else whose rows (the top
boundary of a pseudomanifold), hold at most two nonzeros each is a signed
graph's incidence matrix, ranked by signed union-find; any other is
eliminated.  The harmonic dimension is dim C_k minus the rank of the stacked
incidence matrix M_k, the columns of del_{k+1} followed by the rows of del_k:
L_k = M_k^T M_k, so ker L_k = ker M_k.  Every M_k is eliminated, which checks
the union-find ranks, except M_0, del_1's columns alone, which reuses their
rank.  ``hodge_laplacian`` is literally M_k^T M_k, ``linalg.gram`` of those
same rows, and is the tests' oracle for that kernel.  ``torus_grid`` and
``sphere_boundary`` give complexes of any size with known homology, and
``from_maximal`` refuses a closure over MAX_CLOSURE_FACES before building it.

A finite complex is a surrogate: reduced L2-cohomology of a noncompact
manifold and simplicial cohomology of a complex can genuinely differ, and
this module makes no attempt to bridge that.  The complexes only supply
concrete beta_k inputs for which every identity checked here is exact.

Orientation convention: simplices are stored with sorted vertex lists, and
the boundary gives the face dropping vertex position j the sign (-1)^j, so
consecutive boundaries compose to zero entry by entry.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InvariantError, ResourceError, fields, strict_int
from .linalg import Matrix, gram, kron_sum, psd_rank, rank

Simplex = tuple[int, ...]

# Bound on sum(2^len(s) - 1) over the maximal simplices s of a complex, the
# most faces its closure can hold: torus_grid(48, 48) needs 32,256, and one
# 30-vertex simplex would need 2^30 - 1.
MAX_CLOSURE_FACES = 100_000


class PsdContractError(ValueError):
    """Kronecker-sum kernel counting requires positive-semidefinite inputs."""


@dataclass(frozen=True)
class SimplicialComplex:
    """Face-closed abstract simplicial complex; simplices[k] lists k-simplices.

    Build through from_maximal/load_complex, which canonicalize (sorted
    vertex tuples, sorted simplex lists) and take the face closure.
    """

    simplices: tuple[tuple[Simplex, ...], ...]

    @property
    def max_dim(self) -> int:
        return len(self.simplices) - 1

    @property
    def num_vertices(self) -> int:
        return len(self.simplices[0]) if self.simplices else 0

    def chain_dim(self, k: int) -> int:
        return len(self.simplices[k]) if 0 <= k <= self.max_dim else 0


def from_maximal(maximal, where: str = "maximal") -> SimplicialComplex:
    """Face closure of the given maximal simplices, canonically ordered; errors name ``where``.

    A simplex on r vertices has 2^r - 1 faces, so the closure is refused with
    ResourceError, before any face is enumerated, when those counts summed
    over the maximal simplices exceed MAX_CLOSURE_FACES.
    """
    if not isinstance(maximal, (list, tuple)):
        raise ValueError(f"{where} must be a list of vertex lists, got {maximal!r}")
    tops: list[Simplex] = []
    for i, simplex in enumerate(maximal):
        if not isinstance(simplex, (list, tuple)):
            raise ValueError(f"{where}[{i}] must be a list of vertex ids, got {simplex!r}")
        ints = simplex if all(type(v) is int for v in simplex) else [
            strict_int(v, f"{where}[{i}][{j}]") for j, v in enumerate(simplex)]
        if not ints:
            raise ValueError(f"{where}[{i}]: empty simplex")
        verts = tuple(sorted(ints))
        if verts[0] < 0:
            j = next(j for j, v in enumerate(ints) if v < 0)
            raise ValueError(f"{where}[{i}][{j}]: negative vertex id in {simplex}")
        if len(set(verts)) != len(verts):
            raise ValueError(f"{where}[{i}]: duplicate vertex in simplex {simplex}")
        tops.append(verts)
    faces = sum((1 << len(verts)) - 1 for verts in tops)
    if faces > MAX_CLOSURE_FACES:
        raise ResourceError(
            f"the face closure may reach {faces} simplices, over the limit of {MAX_CLOSURE_FACES}"
        )
    by_dim: list[set[Simplex]] = [set() for _ in range(max(map(len, tops), default=0))]
    for verts in tops:
        for r in range(1, len(verts) + 1):
            by_dim[r - 1].update(itertools.combinations(verts, r))
    return SimplicialComplex(tuple(tuple(sorted(level)) for level in by_dim))


def load_complex(document: dict, where: str = "complex") -> SimplicialComplex:
    """Parse {"maximal": [[v, ...], ...]} into a face-closed complex; errors name ``where``."""
    return from_maximal(fields(document, where, ("maximal",))["maximal"], f"{where}.maximal")


def boundary_matrix(K: SimplicialComplex, k: int) -> list[list[int]]:
    """Oriented boundary of k-chains as dense rows over the (k-1)-simplex basis.

    k = 0 yields the empty (0 x V) matrix; k = max_dim + 1 yields rows of
    length zero.  A densification of ``_sparse_boundary``, which holds the
    sign convention; no report builds this matrix.
    """
    rows, cols = _sparse_boundary(K, k)
    return [[row.get(j, 0) for j in range(len(cols))] for row in rows]


def _sparse_boundary(K: SimplicialComplex, k: int) -> tuple[list[dict[int, int]], list[dict[int, int]]]:
    """del_k as its nonzeros by row (per (k-1)-face) and by column (per k-simplex).

    One pass over the k-simplices looks each face up in the face index, so
    the cost and memory follow the (k+1) * dim C_k nonzeros.  ``combinations``
    drops the positions k, ..., 0 in turn, which is ascending face order, so
    every row and column dict lists its keys in ascending order.
    """
    if k < 0 or k > K.max_dim + 1:
        raise ValueError(f"degree {k} outside 0..{K.max_dim + 1}")
    simplices = K.simplices[k] if k <= K.max_dim else ()
    faces = K.simplices[k - 1] if k >= 1 else ()
    rows: list[dict[int, int]] = [{} for _ in faces]
    cols: list[dict[int, int]] = [{} for _ in simplices]
    if faces:
        index = {s: i for i, s in enumerate(faces)}
        signs = [-1 if pos % 2 else 1 for pos in range(k, -1, -1)]
        for j, simplex in enumerate(simplices):
            col = cols[j]
            for face, sign in zip(itertools.combinations(simplex, k), signs):
                i = index[face]
                col[i] = rows[i][j] = sign
    return rows, cols


def _boundaries(K: SimplicialComplex) -> list[tuple[list[dict[int, int]], list[dict[int, int]]]]:
    """del_k for k = 0..max_dim + 1, each built once, as its row and column nonzeros."""
    return [_sparse_boundary(K, k) for k in range(K.max_dim + 2)]


def _signed_rank(lines, nodes: int) -> int:
    """Rank of a matrix on ``nodes`` unknowns whose lines, its rows or its columns as
    ``{node: +-1}`` dicts, hold at most two entries each: a signed graph's incidence matrix.

    Signed union-find (Zaslavsky, 1982): a line a*x_u + b*x_v ties x_v = -ab*x_u, a line
    with one entry pins its component to zero, and so does a cycle whose signs contradict
    (an unbalanced one); an empty line says nothing.  The kernel has one dimension per
    component that is neither, so the rank is ``nodes`` minus those components.
    """
    parent = list(range(nodes))
    sign = [1] * nodes  # x_w = sign[w] * x_parent[w]; 1 at a root
    pinned = [False] * nodes  # read at roots only
    for line in lines:
        if len(line) == 2:
            (u, a), (v, b) = line.items()
            tie = -a * b  # x_v = tie * x_u, and x_rv = tie * x_ru once both reach their roots
            while (p := parent[u]) != u:  # path halving, the find inlined for speed
                parent[u] = g = parent[p]
                sign[u] *= sign[p]
                tie *= sign[u]
                u = g
            while (p := parent[v]) != v:
                parent[v] = g = parent[p]
                sign[v] *= sign[p]
                tie *= sign[v]
                v = g
            if u != v:
                parent[v], sign[v] = u, tie
                pinned[u] = pinned[u] or pinned[v]
            elif tie < 0:
                pinned[u] = True
        elif line:
            (u,) = line
            while parent[u] != u:
                u = parent[u]
            pinned[u] = True
    return nodes - sum(1 for w in range(nodes) if parent[w] == w and not pinned[w])


def _boundary_rank(rows: list[dict[int, int]], cols: list[dict[int, int]]) -> int:
    """rank del_k by ``_signed_rank`` over its columns if each holds at most two nonzeros
    (del_0, del_1 and the empty del_{max_dim+1}), else over its rows if each of those
    does (the top boundary of a pseudomanifold), else by ``rank`` of its columns."""
    if all(len(col) <= 2 for col in cols):
        return _signed_rank(cols, len(rows))
    if all(len(row) <= 2 for row in rows):
        return _signed_rank(rows, len(cols))
    return rank(cols)


def betti_numbers(K: SimplicialComplex) -> tuple[int, ...]:
    """beta_k = dim C_k - rank del_k - rank del_{k+1}, exact ranks; a negative one can
    only come from a wrong rank, never from input, and raises InvariantError."""
    ranks = [_boundary_rank(rows, cols) for rows, cols in _boundaries(K)]
    beta = tuple(K.chain_dim(k) - ranks[k] - ranks[k + 1] for k in range(K.max_dim + 1))
    if beta and min(beta) < 0:
        raise InvariantError(f"the boundary ranks give negative Betti numbers {list(beta)}")
    return beta


def hodge_laplacian(K: SimplicialComplex, k: int) -> list[list[int]]:
    """Combinatorial Hodge Laplacian del_{k+1} del_{k+1}^T + del_k^T del_k, dense int rows.

    It is ``gram`` of M_k, the rows ``hodge_decomposition_dims`` ranks: symmetric,
    positive semidefinite, and its kernel dimension is beta_k (Eckmann, 1944).
    """
    if not 0 <= k <= K.max_dim:
        raise ValueError(f"degree {k} outside 0..{K.max_dim}")
    return gram(_sparse_boundary(K, k + 1)[1] + _sparse_boundary(K, k)[0], K.chain_dim(k))


def hodge_decomposition_dims(K: SimplicialComplex) -> tuple[tuple[int, int, int], ...]:
    """(harmonic, exact, coexact) dimensions of C_k for every degree k.

    exact = rank del_k and coexact = rank del_{k+1}, each boundary built once
    and ranked once by ``_boundary_rank``.  harmonic = dim C_k - rank M_k for
    the stacked incidence matrix M_k = [del_{k+1}^T ; del_k]: L_k = M_k^T M_k
    over the rationals, so ker L_k = ker M_k (a chain is harmonic iff it is a
    cycle and a cocycle).  The Laplacian is never formed here;
    ``hodge_laplacian`` is the tests' oracle for this kernel.  The
    del_{k+1}^T rows go first, which measured faster on torus_grid(24, 24)
    than the other order.  M_0 is the very list of del_1's columns, so it
    reuses rank del_1, and the check below at k = 0 is then an identity.  The
    three must add up to dim C_k, which is the statement harmonic = beta_k;
    InvariantError names every degree where they do not.  Every other M_k is
    eliminated by ``rank``, so a wrong union-find rank of del_k still fails
    at C_k: two algorithms must agree there.
    """
    bounds = _boundaries(K)
    ranks = [_boundary_rank(rows, cols) for rows, cols in bounds]
    out = []
    for k in range(K.max_dim + 1):
        # del_0 has no rows, so M_0 is del_1's columns, ranked just above
        stacked = rank(bounds[k + 1][1] + bounds[k][0]) if bounds[k][0] else ranks[k + 1]
        out.append((K.chain_dim(k) - stacked, ranks[k], ranks[k + 1]))
    unfilled = [f"C_{k}" for k, split in enumerate(out) if sum(split) != K.chain_dim(k)]
    if unfilled:
        raise InvariantError(f"decomposition of {', '.join(unfilled)} does not fill the space")
    return tuple(out)


def kron_sum_kernel_dim(A: Matrix, B: Matrix) -> tuple[int, int]:
    """(computed, predicted) kernel dimensions of the Kronecker sum of A, B.

    A and B are square symmetric int matrices given by rows.  computed is the
    exact nullity of K = A (x) I + I (x) B; predicted is nullity(A) *
    nullity(B), which matches whenever both matrices are positive
    semidefinite; ``psd_rank`` ranks all three.  A non-square or
    non-symmetric input raises ValueError, a non-int entry TypeError, and a
    non-PSD one PsdContractError, since the prediction is not claimed there; a
    K that is not PSD, though A and B are, raises InvariantError.
    """
    nullities = []
    for name, M in (("A", A), ("B", B)):
        r = psd_rank(M)
        if r is None:
            raise PsdContractError(f"matrix {name} is not positive semidefinite")
        nullities.append(len(M) - r)
    sum_rank = psd_rank(kron_sum(A, B))
    if sum_rank is None:
        raise InvariantError("the Kronecker sum of two PSD matrices is not positive semidefinite")
    return len(A) * len(B) - sum_rank, nullities[0] * nullities[1]


def torus_grid(a: int, b: int) -> SimplicialComplex:
    """The a x b periodic grid, each square cut along its diagonal: a torus.

    a*b vertices, 3*a*b edges and 2*a*b triangles; both sides must be at
    least 3 for the quotient to stay a simplicial complex.
    """
    if a < 3 or b < 3:
        raise ValueError(f"a torus grid needs both sides at least 3, got {a} x {b}")

    def v(i, j):
        return (i % a) * b + j % b

    squares = [(i, j) for i in range(a) for j in range(b)]
    return from_maximal(
        [[v(i, j), v(i + 1, j), v(i + 1, j + 1)] for i, j in squares]
        + [[v(i, j), v(i, j + 1), v(i + 1, j + 1)] for i, j in squares]
    )


def sphere_boundary(n: int) -> SimplicialComplex:
    """The boundary of the n-simplex, an (n-1)-sphere, for n >= 1."""
    if n < 1:
        raise ValueError(f"a simplex boundary needs n >= 1, got {n}")
    return from_maximal(list(itertools.combinations(range(n + 1), n)))
