"""Spans around the library's public functions, recorded from outside.

The tracer replaces each traced function in every ``gammahodge`` module that
binds it (modules import names directly, so ``hodge_discrete.rank`` and
``graded_algebra.rank`` are wrapped as well as ``linalg.rank``).  Spans stay
in memory until the run ends.  ``beta_super`` and ``_sign_unchecked`` are not
traced: they run millions of times per request and would swamp the trace.
"""

from __future__ import annotations

import json
import sys
import time
from math import factorial

# (module, attribute, span name).  The three check_* functions share a name.
TRACED = (
    ("betti", "betti_report", "betti.betti_report"),
    ("betti", "config_betti", "betti.config_betti"),
    ("betti", "config_betti_series", "betti.config_betti_series"),
    ("betti", "vanishing_threshold", "betti.vanishing_threshold"),
    ("graded_algebra", "sym_component_dim_bruteforce", "graded_algebra.sym_component_dim_bruteforce"),
    ("graded_algebra", "sym_component_dim_closed", "graded_algebra.sym_component_dim_closed"),
    ("graded_algebra", "project", "graded_algebra.project"),
    ("graded_algebra", "enumerate_words", "graded_algebra.enumerate_words"),
    ("graded_algebra", "count_words", "graded_algebra.count_words"),
    ("linalg", "rank", "linalg.rank"),
    ("linalg", "gram", "linalg.gram"),
    ("linalg", "outer_gram", "linalg.outer_gram"),
    ("linalg", "is_psd", "linalg.is_psd"),
    ("linalg", "kron_sum", "linalg.kron_sum"),
    ("hodge_discrete", "betti_numbers", "hodge_discrete.betti_numbers"),
    ("hodge_discrete", "boundary_matrix", "hodge_discrete.boundary_matrix"),
    ("hodge_discrete", "hodge_laplacian", "hodge_discrete.hodge_laplacian"),
    ("hodge_discrete", "hodge_decomposition_dims", "hodge_discrete.hodge_decomposition_dims"),
    ("hodge_discrete", "kron_sum_kernel_dim", "hodge_discrete.kron_sum_kernel_dim"),
    ("poisson_mc", "run_check", "poisson_mc.run_check"),
    ("poisson_mc", "check_laplace", "poisson_mc.check"),
    ("poisson_mc", "check_local_expansion", "poisson_mc.check"),
    ("poisson_mc", "check_mecke", "poisson_mc.check"),
    ("poisson_mc", "gauss_legendre_box", "poisson_mc.gauss_legendre_box"),
)
QUAD_CACHES = ("integral_of_power", "integral_expm1")


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "attrs")

    def __init__(self, name, parent, request):
        self.name = name
        self.parent = parent
        self.request = request
        self.attrs = None
        self.start = self.end = 0.0

    def to_json(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "request": self.request, "attrs": self.attrs}


def _matrix_shape(matrix) -> tuple[int, int]:
    rows = len(matrix)
    return rows, (len(matrix[0]) if rows else 0)


class Tracer:
    """Records spans of one run; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request: int | None = None
        self.request_n_max: int | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._hodge_matrices: list = []
        self.hodge_rank_calls = 0
        self.hodge_rank_distinct = 0
        self.quad_hits = 0
        self.quad_misses = 0
        self.request_scale: dict[int, float] = {}
        self.requests = 0

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name, fn, on_call=None, on_return=None):
        """fn wrapped in a span; on_call(span, args) may return replacement args."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self.request)
            if on_call is not None:
                args = on_call(span, args) or args
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if on_return is not None:
                on_return(span, result)
            return result

        return traced

    def install(self) -> None:
        from gammahodge import betti, graded_algebra, hodge_discrete, linalg, poisson_mc
        modules = {"betti": betti, "graded_algebra": graded_algebra,
                   "hodge_discrete": hodge_discrete, "linalg": linalg, "poisson_mc": poisson_mc}
        hooks = {
            "betti.config_betti": (self._on_config_betti, None),
            "graded_algebra.project": (self._on_project, None),
            "graded_algebra.enumerate_words": (None, self._count_result),
            "graded_algebra.sym_component_dim_bruteforce": (None, self._store_result),
            "linalg.rank": (self._on_rank, None),
            "hodge_discrete.boundary_matrix": (None, self._on_boundary),
            "poisson_mc.run_check": (self._on_run_check, None),
            "poisson_mc.gauss_legendre_box": (self._on_quadrature, None),
        }
        bound = [m for n, m in sys.modules.items() if n == "gammahodge" or n.startswith("gammahodge.")]
        for module_name, attr, name in TRACED:
            original = getattr(modules[module_name], attr)
            wrapper = self.wrap(name, original, *hooks.get(name, (None, None)))
            for module in bound:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._restore):
            setattr(module, key, original)
        self._restore.clear()

    # -- counters recorded at the layer boundaries ------------------------

    def _on_config_betti(self, span, args):
        n_max = self.request_n_max
        span.attrs = {"requested": n_max is None or args[1] <= n_max}

    def _on_project(self, span, args):
        span.attrs = {"perms": factorial(len(args[1]))}

    def _count_result(self, span, result):
        span.attrs = {"count": len(result)}

    def _store_result(self, span, result):
        span.attrs = {"value": result}

    def _on_rank(self, span, args):
        rows, cols = _matrix_shape(args[0])
        span.attrs = {"rows": rows, "cols": cols}
        # Ranks asked for by the Hodge layer (directly or through nullity) are
        # fingerprinted after the request, to count distinct matrices.
        for index in reversed(self._stack):
            caller = self.spans[index].name
            if not caller.startswith("linalg."):
                if caller.startswith("hodge_discrete."):
                    self._hodge_matrices.append(args[0])
                    self.hodge_rank_calls += 1
                break

    def _on_boundary(self, span, result):
        rows, cols = _matrix_shape(result)
        span.attrs = {"entries": rows * cols}

    def _on_run_check(self, span, args):
        spec = args[0]
        volume = 1.0
        for length in spec["window"]["lengths"]:
            volume *= float(length)
        span.attrs = {"points_computed": int(spec["samples"]) * volume}

    def _on_quadrature(self, span, args):
        span.attrs = {"points": 0}
        fn = args[0]

        def counted(points):
            span.attrs["points"] += len(points)
            return fn(points)

        return (counted,) + tuple(args[1:])

    # -- requests ---------------------------------------------------------

    def begin_request(self, index: int, n_max: int | None) -> None:
        self.request = index
        self.request_n_max = n_max

    def end_request(self, scale: float = 1.0) -> None:
        """Per-request bookkeeping, run between requests and outside every span.

        ``scale`` converts this request's wall seconds to reference-speed
        seconds; layer times are reported scaled.
        """
        self.request_scale[self.request] = scale
        from gammahodge import poisson_mc
        for cache in QUAD_CACHES:
            info = getattr(poisson_mc, cache).cache_info()
            self.quad_hits += info.hits
            self.quad_misses += info.misses
        fingerprints = {hash(tuple(tuple(row) for row in m)) for m in self._hodge_matrices}
        self.hodge_rank_distinct += len(fingerprints)
        self._hodge_matrices.clear()
        self.requests += 1
        self.request = None

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json()) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


# (metric, unit) in report order; every metric reads 0 where its layer is idle.
LAYER_METRICS = (
    ("cli.main.self_s", "s/req"),
    ("cli.output_bytes", "B/req"),
    ("betti.betti_report.calls", "count/req"),
    ("betti.config_betti.calls", "count/req"),
    ("betti.config_betti.self_s", "s/req"),
    ("betti.config_betti_series.self_s", "s/req"),
    ("betti.vanishing_threshold.total_s", "s/req"),
    ("betti.unrequested_calls", "count/req"),
    ("betti.requested_ratio", "ratio"),
    ("graded_algebra.sym_component_dim_bruteforce.calls", "count/req"),
    ("graded_algebra.sym_component_dim_bruteforce.self_s", "s/req"),
    ("graded_algebra.project.calls", "count/req"),
    ("graded_algebra.project.self_s", "s/req"),
    ("graded_algebra.project.perms", "count/req"),
    ("graded_algebra.enumerate_words.words", "count/req"),
    ("graded_algebra.enumerate_words.self_s", "s/req"),
    ("graded_algebra.count_words.self_s", "s/req"),
    ("graded_algebra.sym_component_dim_closed.self_s", "s/req"),
    ("graded_algebra.dim_per_word", "ratio"),
    ("linalg.rank.calls", "count/req"),
    ("linalg.rank.self_s", "s/req"),
    ("linalg.rank.entries", "count/req"),
    ("linalg.rank.max_side", "count"),
    ("linalg.gram.self_s", "s/req"),
    ("linalg.outer_gram.self_s", "s/req"),
    ("linalg.is_psd.self_s", "s/req"),
    ("linalg.kron_sum.self_s", "s/req"),
    ("hodge_discrete.betti_numbers.calls", "count/req"),
    ("hodge_discrete.betti_numbers.self_s", "s/req"),
    ("hodge_discrete.boundary_matrix.calls", "count/req"),
    ("hodge_discrete.boundary_matrix.self_s", "s/req"),
    ("hodge_discrete.boundary_matrix.entries", "count/req"),
    ("hodge_discrete.hodge_laplacian.self_s", "s/req"),
    ("hodge_discrete.hodge_decomposition_dims.self_s", "s/req"),
    ("hodge_discrete.kron_sum_kernel_dim.self_s", "s/req"),
    ("hodge_discrete.distinct_rank_ratio", "ratio"),
    ("poisson_mc.run_check.calls", "count/req"),
    ("poisson_mc.check.self_s", "s/req"),
    ("poisson_mc.points_sampled_computed", "count/req"),
    ("poisson_mc.gauss_legendre_box.calls", "count/req"),
    ("poisson_mc.gauss_legendre_box.self_s", "s/req"),
    ("poisson_mc.quad_points", "count/req"),
    ("poisson_mc.quad_cache_hit_ratio", "ratio"),
    ("trace_overhead_ratio", "ratio"),
)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, output_bytes: int, overhead_ratio: float) -> dict[str, float]:
    """Per-request layer figures from the finished trace, keyed as LAYER_METRICS."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    sums: dict[str, float] = {}
    max_side = 0
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        name = span.name
        scale = tracer.request_scale.get(span.request, 1.0)
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own * scale
        total_s[name] = total_s.get(name, 0.0) + (span.end - span.start) * scale
        attrs = span.attrs
        if attrs is None:
            continue
        if name == "betti.config_betti":
            if not attrs["requested"]:
                sums["unrequested"] = sums.get("unrequested", 0) + 1
        elif name == "linalg.rank":
            sums["rank_entries"] = sums.get("rank_entries", 0) + attrs["rows"] * attrs["cols"]
            max_side = max(max_side, attrs["rows"], attrs["cols"])
        else:
            for key, value in attrs.items():
                sums[f"{name}.{key}"] = sums.get(f"{name}.{key}", 0) + value

    n = max(tracer.requests, 1)
    config_calls = calls.get("betti.config_betti", 0)
    unrequested = sums.get("unrequested", 0)
    words = sums.get("graded_algebra.enumerate_words.count", 0)
    values = {
        "cli.main.self_s": self_s.get("cli.main", 0.0) / n,
        "cli.output_bytes": output_bytes / n,
        "betti.unrequested_calls": unrequested / n,
        "betti.requested_ratio": _ratio(config_calls - unrequested, config_calls),
        "betti.vanishing_threshold.total_s": total_s.get("betti.vanishing_threshold", 0.0) / n,
        "graded_algebra.project.perms": sums.get("graded_algebra.project.perms", 0) / n,
        "graded_algebra.enumerate_words.words": words / n,
        "graded_algebra.dim_per_word": _ratio(
            sums.get("graded_algebra.sym_component_dim_bruteforce.value", 0), words),
        "linalg.rank.entries": sums.get("rank_entries", 0) / n,
        "linalg.rank.max_side": float(max_side),
        "hodge_discrete.boundary_matrix.entries":
            sums.get("hodge_discrete.boundary_matrix.entries", 0) / n,
        "hodge_discrete.distinct_rank_ratio": _ratio(tracer.hodge_rank_distinct, tracer.hodge_rank_calls),
        "poisson_mc.points_sampled_computed":
            sums.get("poisson_mc.run_check.points_computed", 0.0) / n,
        "poisson_mc.quad_points": sums.get("poisson_mc.gauss_legendre_box.points", 0) / n,
        "poisson_mc.quad_cache_hit_ratio": _ratio(
            tracer.quad_hits, tracer.quad_hits + tracer.quad_misses),
        "trace_overhead_ratio": overhead_ratio,
    }
    for metric, _ in LAYER_METRICS:
        if metric in values:
            continue
        span_name, _, kind = metric.rpartition(".")
        values[metric] = calls.get(span_name, 0) / n if kind == "calls" else self_s.get(span_name, 0.0) / n
    return values
