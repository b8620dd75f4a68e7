"""Finite simplicial stand-ins for Hodge-theoretic dimension identities.

Betti numbers from exact boundary ranks, combinatorial Hodge Laplacians
whose kernel dimensions equal those Betti numbers, the three-way split of
k-chains into harmonic / exact / coexact dimensions, and the kernel count of
Kronecker sums of positive-semidefinite matrices.  Everything is exact
rational arithmetic; there are no floating-point eigensolvers here.

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
from fractions import Fraction

from .errors import InvariantError, strict_int
from .linalg import gram, is_psd, kron_sum, nullity, outer_gram, rank

Simplex = tuple[int, ...]


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


def from_maximal(maximal) -> SimplicialComplex:
    """Face closure of the given maximal simplices, canonically ordered."""
    by_dim: dict[int, set[Simplex]] = {}
    for i, simplex in enumerate(maximal):
        if not isinstance(simplex, (list, tuple)):
            raise ValueError(f"maximal[{i}] must be a list of vertex ids, got {simplex!r}")
        verts = tuple(strict_int(v, f"maximal[{i}][{j}]") for j, v in enumerate(simplex))
        if not verts:
            raise ValueError("empty simplex")
        if any(v < 0 for v in verts):
            raise ValueError(f"negative vertex id in {simplex}")
        if len(set(verts)) != len(verts):
            raise ValueError(f"duplicate vertex in simplex {simplex}")
        verts = tuple(sorted(verts))
        for r in range(1, len(verts) + 1):
            for face in itertools.combinations(verts, r):
                by_dim.setdefault(r - 1, set()).add(face)
    top = max(by_dim) if by_dim else -1
    return SimplicialComplex(
        tuple(tuple(sorted(by_dim[k])) for k in range(top + 1))
    )


def load_complex(document: dict) -> SimplicialComplex:
    """Parse {"maximal": [[v, ...], ...]} into a face-closed complex."""
    if not isinstance(document, dict):
        raise ValueError(f"a complex document must be a JSON object, got {document!r}")
    if "maximal" not in document:
        raise ValueError('complex document needs a "maximal" list')
    maximal = document["maximal"]
    if not isinstance(maximal, list):
        raise ValueError('"maximal" must be a list of vertex lists')
    return from_maximal(maximal)


def boundary_matrix(K: SimplicialComplex, k: int) -> list[list[int]]:
    """Oriented boundary of k-chains as rows over the (k-1)-simplex basis.

    k = 0 yields the empty (0 x V) matrix; k = max_dim + 1 yields rows of
    length zero, so Laplacian assembly degrades gracefully at the ends.
    """
    if k < 0 or k > K.max_dim + 1:
        raise ValueError(f"degree {k} outside 0..{K.max_dim + 1}")
    cols = K.simplices[k] if k <= K.max_dim else ()
    rows = K.simplices[k - 1] if 1 <= k <= K.max_dim + 1 else ()
    matrix = [[0] * len(cols) for _ in rows]
    if rows:
        index = {s: i for i, s in enumerate(rows)}
        for j, simplex in enumerate(cols):
            for pos in range(len(simplex)):
                face = simplex[:pos] + simplex[pos + 1 :]
                matrix[index[face]][j] = -1 if pos % 2 else 1
    return matrix


def _boundaries(K: SimplicialComplex) -> list[list[list[int]]]:
    """del_k for k = 0..max_dim + 1, each built once."""
    return [boundary_matrix(K, k) for k in range(K.max_dim + 2)]


def betti_numbers(K: SimplicialComplex) -> tuple[int, ...]:
    """beta_k = dim C_k - rank del_k - rank del_{k+1}, exact ranks."""
    ranks = [rank(d) for d in _boundaries(K)]
    return tuple(
        K.chain_dim(k) - ranks[k] - ranks[k + 1] for k in range(K.max_dim + 1)
    )


@dataclass(frozen=True)
class SymMatrix:
    """Square matrix with exact rational entries, symmetric by construction."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(Fraction(e) for e in row) for row in self.entries)
        n = len(rows)
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError("matrix is not square")
            for j in range(i):
                if row[j] != rows[j][i]:
                    raise ValueError("matrix is not symmetric")
        object.__setattr__(self, "entries", rows)

    @property
    def size(self) -> int:
        return len(self.entries)

    @classmethod
    def from_rows(cls, rows) -> "SymMatrix":
        return cls(tuple(tuple(row) for row in rows))

    @classmethod
    def from_gram(cls, factor, ncols: int | None = None) -> "SymMatrix":
        """G^T G for an arbitrary factor G (always positive semidefinite)."""
        if ncols is None:
            ncols = len(factor[0]) if factor else 0
        return cls.from_rows(gram(factor, ncols))


def hodge_laplacian(K: SimplicialComplex, k: int) -> SymMatrix:
    """Combinatorial Hodge Laplacian on k-chains.

    del_{k+1} del_{k+1}^T + del_k^T del_k: symmetric, positive semidefinite,
    and its kernel dimension is the k-th Betti number.
    """
    if not 0 <= k <= K.max_dim:
        raise ValueError(f"degree {k} outside 0..{K.max_dim}")
    return _laplacian(boundary_matrix(K, k), boundary_matrix(K, k + 1), K.chain_dim(k))


def _laplacian(down, up, nk: int) -> SymMatrix:
    """up up^T + down^T down on the nk-dimensional chain space."""
    a = outer_gram(up)
    b = gram(down, nk)
    return SymMatrix.from_rows(
        [[a[i][j] + b[i][j] for j in range(nk)] for i in range(nk)]
    )


def hodge_decomposition_dims(K: SimplicialComplex) -> tuple[tuple[int, int, int], ...]:
    """(harmonic, exact, coexact) dimensions of C_k for every degree k.

    harmonic = kernel dimension of the Laplacian, exact = rank del_k,
    coexact = rank del_{k+1}, each boundary built and ranked once and shared
    with the Laplacians.  The three must add up to dim C_k, which is the
    statement harmonic = beta_k; a violation raises InvariantError.
    """
    bounds = _boundaries(K)
    ranks = [rank(d) for d in bounds]
    out = []
    for k in range(K.max_dim + 1):
        nk = K.chain_dim(k)
        harmonic = nk - rank(_laplacian(bounds[k], bounds[k + 1], nk).entries)
        if harmonic + ranks[k] + ranks[k + 1] != nk:
            raise InvariantError(f"decomposition of C_{k} does not fill the space")
        out.append((harmonic, ranks[k], ranks[k + 1]))
    return tuple(out)


def kron_sum_kernel_dim(A: SymMatrix, B: SymMatrix) -> tuple[int, int]:
    """(computed, predicted) kernel dimensions of the Kronecker sum of A, B.

    computed is the exact nullity of A (x) I + I (x) B; predicted is
    nullity(A) * nullity(B), which matches whenever both matrices are
    positive semidefinite.  Non-PSD input raises PsdContractError since the
    prediction is not claimed there.
    """
    for name, M in (("A", A), ("B", B)):
        if not is_psd(M.entries):
            raise PsdContractError(f"matrix {name} is not positive semidefinite")
    computed = nullity(kron_sum(A.entries, B.entries))
    predicted = nullity(A.entries) * nullity(B.entries)
    return computed, predicted


def catalog() -> dict[str, SimplicialComplex]:
    """Small complexes used throughout the tests, keyed by shape.

    hollow_triangle: circle.  solid_triangle: disk.  two_hollow_triangles:
    two circles.  hollow_tetrahedron: sphere.  torus_7: the 7-vertex
    triangulated torus (cyclic construction, 14 triangles).
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
    }
