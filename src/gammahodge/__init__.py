"""Configuration-space Betti numbers and the exact/stochastic checks behind them.

Modules:

* ``graded_algebra``: supercommutative tensor algebra over graded
  generators, with projector Gram ranks and closed-form dimension counts.
* ``betti``: the configuration-space Betti formula, vanishing threshold,
  product (convolution) rule.
* ``hodge_discrete``: simplicial Betti numbers, combinatorial Hodge
  Laplacians, the harmonic/exact/coexact split, Kronecker-sum kernels.
* ``poisson_mc``: seeded Monte Carlo checks of Poisson identities.
* ``cli``: the ``gammahodge`` command.

The package binds the API of the exact computations the commands serve;
functions only the tests call are read at their modules.  ``poisson_mc`` is
the one module that needs numpy, and importing this package does not load
it: import its names from ``gammahodge.poisson_mc``.
"""

from .betti import (
    BettiVector,
    InfiniteVolumeWarning,
    betti_report,
    config_betti_series,
    kunneth_product,
    vanishing_threshold,
)
from .errors import InvariantError, ResourceError
from .graded_algebra import EnumerationCapError, GradedSpace, sym_component_dims
from .hodge_discrete import (
    PsdContractError,
    SimplicialComplex,
    betti_numbers,
    hodge_decomposition_dims,
    kron_sum_kernel_dim,
    load_complex,
    sphere_boundary,
    torus_grid,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
