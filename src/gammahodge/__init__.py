"""Configuration-space Betti numbers and the exact/stochastic checks behind them.

Modules:

* ``graded_algebra``: supercommutative tensor algebra over graded
  generators, with projector Gram ranks and closed-form dimension counts.
* ``betti``: the configuration-space Betti formula, vanishing threshold,
  product (convolution) rule, and the fiber dimension identity.
* ``hodge_discrete``: simplicial Betti numbers, combinatorial Hodge
  Laplacians, the harmonic/exact/coexact split, Kronecker-sum kernels.
* ``poisson_mc``: seeded Monte Carlo checks of Poisson identities.
* ``cli``: the ``gammahodge`` command.
"""

from .betti import (
    BettiVector,
    InfiniteVolumeWarning,
    beta_super,
    betti_report,
    config_betti,
    config_betti_series,
    fiber_decomposition_check,
    kunneth_product,
    vanishing_threshold,
)
from .errors import InvariantError, ResourceError
from .graded_algebra import (
    EnumerationCapError,
    GradedSpace,
    enumerate_words,
    gram_matrix_sym,
    project,
    project_vector,
    projected_norm_sq,
    super_sign,
    sym_component_dim_bruteforce,
    sym_component_dim_closed,
)
from .hodge_discrete import (
    PsdContractError,
    SimplicialComplex,
    betti_numbers,
    boundary_matrix,
    catalog,
    hodge_decomposition_dims,
    hodge_laplacian,
    kron_sum_kernel_dim,
    load_complex,
    sphere_boundary,
    torus_grid,
)
from .poisson_mc import (
    LocalFunctional,
    Polynomial,
    ScalarFunction,
    Window,
    check_laplace,
    check_local_expansion,
    check_mecke,
    run_check,
    sample_configuration,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
