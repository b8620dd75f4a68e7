"""Traced spans nest, self times are sound, and wrapping is undone."""

import json
import sys

import pytest

import tracer as tracing
import worker
import workloads
from gammahodge import cli, graded_algebra, hodge_discrete, linalg

LOCAL_SPEC = {
    "check": "local", "window": {"lengths": [2.0, 1.5]},
    "f": {"kind": "poly_of_sum", "h": {"coeffs": [0.5, 1.0, -0.2]},
          "phi": {"kind": "gaussian", "scale": 0.8, "center": [1.0, 0.7], "width": [0.9, 0.8]}},
}
REQUESTS = [
    workloads.Request(("betti", "--input", '{"d":3,"beta":[0,3,0,2]}', "--n-max", "4"),
                      {"beta": [0, 3, 0, 2], "n_max": 4}),
    workloads.Request(("algebra-check", "--grid", json.dumps(
        {"l_max": 1, "degree_max": 2, "dim_max": 2, "m_max": 3, "n_max": 4,
         "betti_d_max": 2, "betti_beta_max": 1, "betti_n_max": 3})),
        {"grid": {"l_max": 1, "degree_max": 2, "dim_max": 2, "m_max": 3, "n_max": 4,
                  "betti_d_max": 2, "betti_beta_max": 1, "betti_n_max": 3}, "n_max": 3}),
    workloads.Request(("simplicial", "--input", json.dumps({"maximal": workloads.torus(3, 3)[0]}),
                       "--kron-probes", "2", "--seed", "4"),
                      {"betti": [1, 2, 1], "chain_dims": [9, 27, 18], "probes": 2}),
    workloads.Request(("pipeline", "--input", json.dumps({"maximal": workloads.wedge(3, 3)[0]}),
                       "--n-max", "5", "--infinite-volume"),
                      {"complex_betti": [1, 3], "n_max": 5, "infinite_volume": True}),
    workloads.Request(("poisson", "--input", json.dumps(LOCAL_SPEC),
                       "--seed", "3", "--samples", "20000"),
                      {"check": "local", "samples": 20000, "volume": 3.0, "spec": LOCAL_SPEC}),
]


@pytest.fixture(scope="module")
def traced_run():
    modules = [m for n, m in sys.modules.items() if n.startswith("gammahodge")]
    tracer = tracing.Tracer()
    client = worker.Client(tracer.wrap("cli.main", cli.main), modules)
    originals = (linalg.rank, hodge_discrete.rank, graded_algebra.rank)
    tracer.install()
    try:
        assert hodge_discrete.rank is linalg.rank is graded_algebra.rank
        assert linalg.rank is not originals[0]
        latencies = [client.send(r, tracer, i)[0] for i, r in enumerate(REQUESTS)]
    finally:
        tracer.uninstall()
    assert (linalg.rank, hodge_discrete.rank, graded_algebra.rank) == originals
    assert client.failures == []
    return tracer, client, latencies


def test_spans_nest_within_their_parent_and_request(traced_run):
    tracer, _, _ = traced_run
    spans = tracer.spans
    assert {s.request for s in spans} == set(range(len(REQUESTS)))
    for index, span in enumerate(spans):
        assert span.start <= span.end
        if span.parent < 0:
            assert span.name == "cli.main"
            continue
        parent = spans[span.parent]
        assert span.parent < index
        assert parent.request == span.request
        assert parent.start <= span.start and span.end <= parent.end


def test_self_times_are_non_negative_and_sum_to_at_most_the_wall_time(traced_run):
    tracer, _, _ = traced_run
    own = tracing.self_times(tracer.spans)
    assert min(own) >= 0
    for request in range(len(REQUESTS)):
        spans = [i for i, s in enumerate(tracer.spans) if s.request == request]
        root = tracer.spans[spans[0]]
        assert sum(own[i] for i in spans) <= (root.end - root.start) * (1 + 1e-9)


def test_every_layer_reports_and_idle_layers_read_zero(traced_run):
    tracer, client, _ = traced_run
    values = tracing.layer_metrics(tracer, client.output_bytes, 1.0)
    assert set(values) == {name for name, _ in tracing.LAYER_METRICS}
    assert values["betti.betti_report.calls"] == pytest.approx(2 / len(REQUESTS))
    assert values["poisson_mc.run_check.calls"] == pytest.approx(1 / len(REQUESTS))
    assert values["linalg.rank.max_side"] == 27
    assert 0 < values["hodge_discrete.distinct_rank_ratio"] < 1
    assert values["betti.unrequested_calls"] > 0  # the K_0 threshold confirmation
    assert values["poisson_mc.quad_points"] > 0
    assert all(v >= 0 for v in values.values())
