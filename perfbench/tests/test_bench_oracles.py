"""Oracles agree with the library on correct replies and reject perturbed ones."""

import contextlib
import io
import json

import pytest

import oracles
import workloads
from gammahodge import betti, cli, graded_algebra


def _reply(request):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(request.argv))
    assert code == 0, err.getvalue()
    return out.getvalue()


def _first(workload, command, predicate=lambda r: True):
    for batch in workloads.rounds(workload, 3):
        for request in batch:
            if request.command == command and predicate(request):
                return request


@pytest.mark.parametrize("beta", [(0, 3, 0, 2), (0, 1, 2, 0, 4), (0, 0, 3), (1, 2, 1)])
def test_betti_oracle_matches_the_library(beta):
    vector = betti.BettiVector(d=len(beta) - 1, beta=beta)
    with pytest.warns(betti.InfiniteVolumeWarning) if beta[0] else contextlib.nullcontext():
        expected = [betti.config_betti(vector, n) for n in range(9)]
    assert oracles.config_betti_oracle(list(beta), 8) == expected


@pytest.mark.parametrize("components", [((1, 2), (2, 1)), ((3, 2),), ((1, 1), (2, 2), (3, 1))])
def test_graded_dims_oracle_matches_the_closed_form(components):
    space = graded_algebra.GradedSpace(components)
    dims = oracles.graded_dims_oracle(components, 4, 6)
    for m in range(5):
        for n in range(7):
            assert dims[m][n] == graded_algebra.sym_component_dim_closed(space, m, n)


def test_algebra_oracle_counts_instances_from_the_grid():
    grid = {"l_max": 1, "degree_max": 2, "dim_max": 1, "m_max": 2, "n_max": 3,
            "betti_d_max": 2, "betti_beta_max": 1, "betti_n_max": 2}
    request = workloads.Request(argv=("algebra-check", "--grid", json.dumps(grid)),
                                expect={"grid": grid, "n_max": 2})
    reply = _reply(request)
    assert oracles.check(request, 0, reply) is None
    assert len(json.loads(reply)["rows"]) == oracles.grid_instances(grid)
    doc = json.loads(reply)
    doc["rows"][-1]["brute"] = str(int(doc["rows"][-1]["brute"]) + 1)
    assert oracles.check(request, 0, json.dumps(doc)) is not None


def test_betti_oracle_rejects_one_changed_b_n():
    request = _first("betti", "betti")
    reply = _reply(request)
    assert oracles.check(request, 0, reply) is None
    doc = json.loads(reply)
    doc["b"][1] = str(int(doc["b"][1]) + 1)
    assert "oracle" in oracles.check(request, 0, json.dumps(doc))


@pytest.mark.filterwarnings("ignore::gammahodge.betti.InfiniteVolumeWarning")
def test_pipeline_oracle_accepts_a_marked_product():
    request = _first("hodge", "pipeline", lambda r: "mark_betti" in r.expect)
    assert oracles.check(request, 0, _reply(request)) is None


def test_simplicial_oracle_rejects_a_wrong_harmonic_dimension():
    request = _first("hodge", "simplicial", lambda r: r.expect["probes"])
    reply = _reply(request)
    assert oracles.check(request, 0, reply) is None
    doc = json.loads(reply)
    row = doc["decomposition"][0]
    row["harmonic"] = str(int(row["harmonic"]) + 1)
    row["exact"] = str(int(row["exact"]) - 1)  # keeps harmonic + exact + coexact
    assert "decomposition" in oracles.check(request, 0, json.dumps(doc))


def _poisson_reply(check):
    request = _first("poisson", "poisson", lambda r: r.expect["check"] == check)
    reply = _reply(request)
    assert oracles.check(request, 0, reply) is None
    return request, json.loads(reply)


@pytest.mark.parametrize("check", ["laplace", "local", "mecke"])
def test_poisson_oracle_rejects_an_estimate_moved_by_ten_sigma(check):
    request, doc = _poisson_reply(check)
    sigma = doc["extra"]["pooled_std_error"] if check == "mecke" else doc["std_error"]
    doc["estimate"] = doc["reference"] + 10 * sigma
    assert "sigma" in oracles.check(request, 0, json.dumps(doc))


@pytest.mark.parametrize("check", ["laplace", "local", "mecke"])
def test_poisson_oracle_rejects_an_inflated_standard_error(check):
    request, doc = _poisson_reply(check)
    if check == "mecke":
        doc["extra"]["pooled_std_error"] *= 4
    else:
        doc["std_error"] *= 1.5
    assert "standard error" in oracles.check(request, 0, json.dumps(doc))


def test_poisson_oracle_rejects_a_wrong_reference():
    request, doc = _poisson_reply("local")
    doc["reference"] *= 1 + 1e-5
    assert "closed form" in oracles.check(request, 0, json.dumps(doc))


def test_nonzero_exit_is_a_failure():
    request = _first("betti", "betti")
    assert oracles.check(request, 1, _reply(request)) == "exit code 1"
