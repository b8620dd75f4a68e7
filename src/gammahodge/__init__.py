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

``poisson_mc`` is the one module that needs numpy, so importing this package
does not load it: ``gammahodge.poisson_mc`` and the names re-exported from
it (``Window``, ``run_check``, ...) load it on first access.
"""

from importlib import import_module as _import_module

from .betti import (
    BettiVector,
    InfiniteVolumeWarning,
    betti_report,
    config_betti,
    config_betti_series,
    kunneth_product,
    vanishing_threshold,
)
from .errors import InvariantError, ResourceError
from .graded_algebra import (
    EnumerationCapError,
    GradedSpace,
    enumerate_words,
    project,
    sym_component_dim_bruteforce,
    sym_component_dim_closed,
    sym_component_dims,
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

# poisson_mc and the names re-exported from it, loaded on first access
_LAZY = (
    "poisson_mc",
    "LocalFunctional",
    "Polynomial",
    "ScalarFunction",
    "Window",
    "check_laplace",
    "check_local_expansion",
    "check_mecke",
    "run_check",
    "sample_configuration",
)

__all__ = [name for name in dir() if not name.startswith("_")] + list(_LAZY)

__version__ = "0.1.0"


def __getattr__(name):
    """Import poisson_mc, and numpy with it, the first time one of _LAZY is read."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # not "from . import": that reads the attribute first and would land here again
    module = _import_module(".poisson_mc", __name__)
    return module if name == "poisson_mc" else getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
