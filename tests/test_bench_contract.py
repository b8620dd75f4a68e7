"""The benchmark's tracer wraps library functions by name from outside.

A rename in the library would silently leave a layer untraced (or break
``perfbench/run.py --trace 1``), so every name the tracer lists must
resolve here.  The tracer module is only read, never changed.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves_in_gammahodge():
    tracer = load_tracer()
    assert tracer.TRACED
    for module_name, attr, _ in tracer.TRACED:
        module = importlib.import_module(f"gammahodge.{module_name}")
        assert callable(getattr(module, attr, None)), f"gammahodge.{module_name}.{attr}"


def test_every_traced_quadrature_cache_resolves():
    tracer = load_tracer()
    poisson_mc = importlib.import_module("gammahodge.poisson_mc")
    for cache in tracer.QUAD_CACHES:
        assert callable(getattr(getattr(poisson_mc, cache), "cache_info", None)), cache
