"""Run one workload in this (fresh) process and print its figures as one JSON line.

One client, closed loop: each request is sent as ``gammahodge.cli.main(argv)``
only after the previous reply was received and checked by its oracle.  Before
each request the library's in-process caches are emptied and garbage is
collected, so every request starts as it would in a fresh CLI process; that
bookkeeping is outside the timed region.  Started by ``run.py``, which sets
the thread pins and the import path.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import platform
import resource
import statistics
import sys
import time

import oracles
import speed
import workloads
from tracer import Tracer, layer_metrics

WARMUP_SECONDS = 1.0
# Fixed per workload so runs of faster or slower code compare the same
# percentile: at the seed commit a run leaves at least ten requests beyond it,
# and it falls inside a cluster of request costs, not in a gap between size
# classes where it would jump from run to run.
TAIL_PERCENTILE = {"betti": 95, "algebra": 75, "hodge": 95, "poisson": 90}


def _clear_caches(modules) -> None:
    for module in modules:
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


class Client:
    """Sends requests, times them, checks every reply."""

    def __init__(self, main, modules):
        self.main = main
        self.modules = modules
        self.attempted = 0
        self.failures: list[str] = []
        self.output_bytes = 0
        self.probes: list[float] = []

    def send(self, request, tracer=None, index=0) -> tuple[float, float, str]:
        """Latency at reference speed (see speed.py), wall latency, reply text."""
        _clear_caches(self.modules)
        gc.collect()
        before = self.probes[-1] if self.probes else speed.probe()
        if tracer is not None:
            tracer.begin_request(index, request.expect.get("n_max"))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.main(list(request.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a traceback is a failed request, not a crash
                code = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        after = speed.probe()
        self.probes.append(after)
        scale = speed.scale(before, after)
        if tracer is not None:
            tracer.end_request(scale)
        reply = out.getvalue()
        self.output_bytes += len(reply.encode())
        self.attempted += 1
        reason = oracles.check(request, code, reply) if isinstance(code, int) else code
        if reason is not None:
            self.failures.append(f"{' '.join(request.argv)[:160]}: {reason}")
        return elapsed * scale, elapsed, reply

    def run_rounds(self, workload, seed, seconds):
        """Whole rounds until ``seconds`` have passed.

        Returns the requests, their latencies at reference speed, their wall
        latencies and the reply digests.

        The first-round digest covers the same requests in every run on a
        seed, so two versions of the library can be compared reply for reply.
        """
        requests, latencies, walls = [], [], []
        first_round, everything = hashlib.sha256(), hashlib.sha256()
        start = time.perf_counter()
        for number, batch in enumerate(workloads.rounds(workload, seed)):
            for request in batch:
                elapsed, wall, reply = self.send(request)
                requests.append(request)
                latencies.append(elapsed)
                walls.append(wall)
                everything.update(reply.encode())
                if number == 0:
                    first_round.update(reply.encode())
            if number == 0:
                first_count = len(requests)
            if time.perf_counter() - start >= seconds:
                break
        digests = {
            "first_round": {"sha256": first_round.hexdigest(), "replies": first_count},
            "run": {"sha256": everything.hexdigest(), "replies": len(requests)},
        }
        return requests, latencies, walls, digests

    def warm_up(self, workload, seed) -> None:
        start = time.perf_counter()
        for request in next(workloads.rounds(workload, seed, "warmup")):
            self.send(request)
            if time.perf_counter() - start >= WARMUP_SECONDS:
                break


def latency_figures(latencies: list[float], percentile: int) -> dict[str, float]:
    """Throughput, p50 and tail of one run's latencies (in seconds)."""
    return {
        "throughput_rps": len(latencies) / sum(latencies),
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_tail_ms": 1000 * tail(latencies, percentile)[0],
    }


def tail(latencies: list[float], percentile: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _blas() -> str:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the traced spans here as JSON lines")
    args = parser.parse_args(argv)

    import numpy as np
    import gammahodge
    from gammahodge import cli

    modules = [m for n, m in sys.modules.items() if n.startswith("gammahodge")]
    client = Client(cli.main, modules)
    client.warm_up(args.workload, args.seed)
    budget = args.seconds / 2 if args.trace else args.seconds
    requests, latencies, walls, digests = client.run_rounds(args.workload, args.seed, budget)
    probe_s = statistics.median(client.probes)
    result = {
        "requests": len(requests),
        "digest": digests,
        "meta": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": _blas(),
            "gammahodge": getattr(gammahodge, "__version__", "unknown"),
            "probe_us_median": 1e6 * probe_s,
            "probe_over_reference": probe_s / speed.REFERENCE_S,
        },
    }
    if args.trace:
        tracer = Tracer()
        traced_main = tracer.wrap("cli.main", cli.main)
        tracer.install()
        try:
            client.main = traced_main
            client.output_bytes = 0
            traced = [client.send(r, tracer, i)[:2] for i, r in enumerate(requests)]
        finally:
            tracer.uninstall()
        if args.spans:
            tracer.write(args.spans)
        result["spans"] = len(tracer.spans)
        result["per_layer"] = layer_metrics(
            tracer, client.output_bytes, sum(t[0] for t in traced) / sum(latencies))
        result["wall"] = {"request_seconds": sum(walls),
                          "traced_request_seconds": sum(t[1] for t in traced)}
    else:
        percentile = TAIL_PERCENTILE[args.workload]
        beyond = tail(latencies, percentile)[1]
        result["end_to_end"] = {
            **latency_figures(latencies, percentile),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        result["wall"] = {**latency_figures(walls, percentile), "request_seconds": sum(walls)}
        result["tail"] = {"percentile": percentile, "samples": len(latencies), "beyond": beyond}
    result["attempted"] = client.attempted
    result["failures"] = client.failures
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
