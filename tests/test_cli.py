"""CLI surfaces: subcommands, JSON round trips, exit codes, determinism."""

import contextlib
import hashlib
import json
import math
import os
import stat
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import pytest

import formula_oracles
import gammahodge
from gammahodge import betti, cli, graded_algebra, hodge_discrete, poisson_mc
from gammahodge.cli import (
    EXIT_INPUT,
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_RESOURCE,
    main,
)
from gammahodge.errors import ResourceError

HOLLOW = '{"maximal": [[0, 1], [1, 2], [0, 2]]}'
DISCONNECTED = '{"maximal": [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5], [7]]}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_OK, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# betti

def test_betti_surface_example(capsys):
    doc = run_json(capsys, "betti", "--input", '{"d":2,"beta":[0,3,0]}', "--n-max", "5")
    assert doc["b"] == ["1", "3", "3", "1", "0", "0"]
    assert doc["vanishing"] == {"K0": "3"}


def test_betti_trivial_base(capsys):
    doc = run_json(capsys, "betti", "--input", '{"d":1,"beta":[0,0]}', "--n-max", "4")
    assert doc["b"] == ["1", "0", "0", "0", "0"]


def test_betti_output_round_trips(capsys):
    doc = run_json(capsys, "betti", "--input", '{"d":3,"beta":[0,1,1,0]}', "--n-max", "6")
    vector = betti.BettiVector.from_json(doc["input"])
    assert doc["b"] == [str(betti.config_betti(vector, n)) for n in range(7)]


@pytest.mark.parametrize("argv, reason", [
    (("betti", "--input", '{"d":3,"beta":[0,2,1,3]}', "--n-max", "100000"), "budget"),
    (("betti", "--input", '{"d":2,"beta":[0,2,1]}', "--n-max", "99999999"), "budget"),
    # under the series budget, but a reply integer would pass 4,300 digits
    (("betti", "--input", '{"d":2,"beta":[0,1000000000,1000000000]}', "--n-max", "1000"),
     "decimal digits"),
    (("betti", "--input", '{"d":2,"beta":[0,0,1000000000]}', "--n-max", "1400"),
     "decimal digits"),
    # C(beta_1, 2) already passes the limit; the rest of the factor is never built
    (("betti", "--input", '{"d":1,"beta":[0,1%s]}' % ("0" * 100), "--n-max", "5476"),
     "decimal digits"),
    (("betti", "--input", '{"d":1,"beta":[0,1%s]}' % ("0" * 4299), "--n-max", "5476"),
     "decimal digits"),
    # about 2.5e13 rows: 7.1e11 graded spaces of 35 (m, n) components each
    (("algebra-check", "--grid", '{"l_max":9,"degree_max":9,"dim_max":9}'), "rows"),
    # one Betti vector, but of 10^9 entries
    (("algebra-check", "--grid", '{"betti_beta_max":0,"betti_d_max":1000000000}'),
     "Betti degrees"),
    # the work of a 400-digit n_max is past the float range (an OverflowError before)
    (("betti", "--input", '{"d":1,"beta":[0,1]}', "--n-max", "1" + "0" * 399), "budget"),
    # 6.0e6 steps of the product, but 1.5 million products of thousand-digit integers
    # (about 20 s before the work was weighted by operand size)
    (("betti", "--input", '{"d":3,"beta":[0,14000,0,14000]}', "--n-max", "3000"), "budget"),
    # b_1 = N has 4,300 digits and passes; K_0 = 4N has 4,301 (exit 2 before)
    (("betti", "--input", '{"d":3,"beta":[0,%s,0,%s]}' % ("9" * 4300, "9" * 4300),
      "--n-max", "1"), "decimal digits"),
])
def test_oversized_request_exits_4_at_once(argv, reason):
    start = time.perf_counter()
    done = run_subprocess(*argv, timeout=30)
    assert time.perf_counter() - start < 5
    assert done.returncode == EXIT_RESOURCE
    assert done.stdout == ""
    assert done.stderr.count("\n") == 1 and reason in done.stderr


def run_subprocess_at_digit_limit(limit, *argv):
    command, env = cli_command(*argv)
    command[1:1] = ["-X", f"int_max_str_digits={limit}"]
    return subprocess.run(command, capture_output=True, text=True, env=env, timeout=60)


@pytest.mark.parametrize("beta, n_max, code", [
    # one factor: max b_n = C(2400, 733) has 640 digits, C(2400, 734) has 641
    ([0, 2400], 733, EXIT_OK),
    ([0, 2400], 734, EXIT_RESOURCE),
    ([0, 2400], 800, EXIT_RESOURCE),
    # factor coefficients reach 610 digits at most; the product's reach 640, then 641
    ([0, 2400, 0, 2400], 654, EXIT_OK),
    ([0, 2400, 0, 2400], 655, EXIT_RESOURCE),
])
def test_digit_limit_is_exact(beta, n_max, code):
    vector = json.dumps({"d": len(beta) - 1, "beta": beta})
    done = run_subprocess_at_digit_limit(640, "betti", "--input", vector, "--n-max", str(n_max))
    assert done.returncode == code, done.stderr
    if code == EXIT_OK:
        assert max(len(b) for b in json.loads(done.stdout)["b"]) == 640
    else:
        assert done.stdout == ""
        assert done.stderr.count("\n") == 1 and "more than 640 decimal digits" in done.stderr


def test_a_reply_near_the_digit_limit_takes_seconds_not_tens():
    # 5,477 coefficients of up to 4,066 digits; comb called afresh for each took 10 s
    start = time.perf_counter()
    done = run_subprocess("betti", "--input", '{"d":1,"beta":[0,14000]}', "--n-max", "5476")
    assert time.perf_counter() - start < 5
    assert done.returncode == EXIT_OK, done.stderr
    assert json.loads(done.stdout)["b"][5476] == str(math.comb(14000, 5476))


def test_betti_malformed_json_exits_2(capsys):
    code, _, err = run(capsys, "betti", "--input", '{"d": 2, "beta": [0, 3')
    assert code == EXIT_INPUT
    assert "error" in err


def test_betti_bad_vector_exits_2(capsys):
    code, _, _ = run(capsys, "betti", "--input", '{"d": 2, "beta": [0, 3]}')
    assert code == EXIT_INPUT


def test_betti_file_input_and_atomic_output(tmp_path, capsys):
    src = tmp_path / "vector.json"
    src.write_text('{"d": 2, "beta": [0, 2, 0]}')
    out = tmp_path / "report.json"
    code, _, _ = run(capsys, "betti", "--input", str(src), "--output", str(out), "--n-max", "3")
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["b"] == ["1", "2", "1", "0"]
    assert not list(tmp_path.glob("*.tmp"))
    code, stdout, _ = run(capsys, "betti", "--input", str(src), "--n-max", "3")
    assert code == EXIT_OK
    assert out.read_bytes() == stdout.encode()


def assert_refused_output(done, path):
    assert done.returncode == EXIT_INPUT
    assert done.stdout == ""
    assert done.stderr.count("\n") == 1 and done.stderr.startswith("error: ")
    assert repr(str(path)) in done.stderr
    assert "Traceback" not in done.stderr


def test_output_into_a_missing_directory_exits_2_before_any_work(tmp_path):
    target = tmp_path / "missing" / "x.json"
    # the default sweep prints its summary line once computed; a refusal comes first
    assert_refused_output(run_subprocess("algebra-check", "--output", str(target)), target)
    assert not (tmp_path / "missing").exists()


def test_output_onto_a_directory_exits_2_before_any_work(tmp_path):
    assert_refused_output(run_subprocess("algebra-check", "--output", str(tmp_path)), tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_output_onto_a_fifo_exits_2_and_leaves_the_fifo(capsys, tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    code, out, err = run(capsys, "betti", "--input", '{"d":1,"beta":[0,2]}', "--output", str(fifo))
    assert (code, out) == (EXIT_INPUT, "")
    assert err == f"error: --output {str(fifo)!r} is not a regular file\n"
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo"]


def test_output_through_a_symlink_writes_its_target_and_keeps_the_link(capsys, tmp_path):
    target, link = tmp_path / "report.json", tmp_path / "link"
    target.write_text("old\n")
    link.symlink_to(target)
    code, stdout, _ = run(capsys, "betti", "--input", '{"d":1,"beta":[0,2]}', "--n-max", "3")
    assert run(capsys, "betti", "--input", '{"d":1,"beta":[0,2]}', "--n-max", "3",
               "--output", str(link)) == (code, "", "")
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text() == stdout
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "report.json"]


def test_output_write_failure_is_one_line_exit_2_and_leaves_no_temp_file(tmp_path, capsys, monkeypatch):
    def full_disk(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", full_disk)
    out = tmp_path / "report.json"
    code, stdout, err = run(capsys, "betti", "--input", '{"d":1,"beta":[0,2]}', "--output", str(out))
    assert code == EXIT_INPUT
    assert stdout == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and repr(str(out)) in err
    assert "No space left on device" in err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# algebra-check

def test_algebra_check_small_grid(capsys):
    grid = '{"l_max": 2, "degree_max": 2, "dim_max": 1, "m_max": 3, "n_max": 4, "betti_d_max": 2, "betti_beta_max": 1, "betti_n_max": 3}'
    code, out, err = run(capsys, "algebra-check", "--grid", grid)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["summary"]["mismatches"] == "0"
    assert doc["summary"]["skipped"] == "0"
    assert all(row["status"] == "ok" for row in doc["rows"])


def test_algebra_check_cap_skips_exit_3(capsys, monkeypatch):
    monkeypatch.setattr(graded_algebra, "MAX_WORDS", 2)
    grid = '{"l_max": 1, "degree_max": 1, "dim_max": 2, "m_max": 2, "n_max": 2, "betti_d_max": 1, "betti_beta_max": 1, "betti_n_max": 2}'
    code, out, _ = run(capsys, "algebra-check", "--grid", grid)
    assert code == EXIT_PARTIAL
    doc = json.loads(out)
    assert int(doc["summary"]["skipped"]) > 0
    assert any(row["status"] == "skipped" for row in doc["rows"])


def test_skipped_betti_row_takes_the_reason_of_its_first_capped_word_length(capsys, monkeypatch):
    # beta = [0, 1, 1], n = 4: the cells m = 3 and m = 4 are both over a budget of 2
    monkeypatch.setattr(graded_algebra, "MAX_PERMUTATIONS", 2)
    grid = '{"l_max":0,"betti_d_max":2,"betti_beta_max":1,"betti_n_max":5}'
    code, out, _ = run(capsys, "algebra-check", "--grid", grid)
    assert code == EXIT_PARTIAL
    rows = json.loads(out)["rows"]
    assert "component (m=3, n=4)" in rows[-2]["reason"]
    for row in rows:
        space = graded_algebra.GradedSpace(tuple(enumerate(row["beta"]))[1:])
        n = int(row["n"])
        try:
            brute = sum(graded_algebra.sym_component_dim_bruteforce(space, m, n)
                        for m in range(n + 1))
        except graded_algebra.EnumerationCapError as exc:
            assert row["status"] == "skipped" and row["reason"] == str(exc)
        else:
            assert row["brute"] == str(brute)


def test_algebra_check_permutation_budget_skips_exit_3_at_once():
    # one odd letter: the (m, m) component is one multiset of m! permutations,
    # 3.6 million at m = 10; rows over the budget are skipped, never started
    grid = ('{"l_max":1,"degree_max":1,"dim_max":1,"m_max":10,"n_max":10,'
            '"betti_d_max":1,"betti_beta_max":0,"betti_n_max":0}')
    started = time.perf_counter()
    done = run_subprocess("algebra-check", "--grid", grid, timeout=20)
    assert time.perf_counter() - started < 1.0
    assert done.returncode == EXIT_PARTIAL
    doc = json.loads(done.stdout)
    skipped = [row for row in doc["rows"] if row["status"] == "skipped"]
    assert {row["m"] for row in skipped} >= {"9", "10"}
    assert all("permutation budget" in row["reason"] for row in skipped)
    assert doc["summary"]["skipped"] == str(len(skipped))
    assert doc["summary"]["word_cap"] == str(graded_algebra.MAX_WORDS)


def test_betti_rows_of_a_long_series_take_seconds():
    # 904 rows up to n = 300: each row sums one column of its vector's
    # brute-force table over word lengths m <= n, and the table counts the
    # words of every length in one truncated_product step per m; an m-fold
    # product for every (m, n) made this grid run past 120 s
    grid = ('{"l_max":1,"degree_max":1,"dim_max":1,"m_max":0,"n_max":0,'
            '"betti_d_max":1,"betti_beta_max":2,"betti_n_max":300}')
    started = time.perf_counter()
    done = run_subprocess("algebra-check", "--grid", grid, timeout=120)
    assert time.perf_counter() - started < 30
    assert done.returncode == EXIT_PARTIAL
    summary = json.loads(done.stdout)["summary"]
    assert summary["instances"] == "904" and summary["mismatches"] == "0"


def test_betti_rows_a_thousand_letters_deep_skip_at_once():
    # beta_1 = 1: row n holds one word of n letters, over the permutation budget
    # from n = 8 on; the multiset walk recursed n levels deep and raised
    # RecursionError (exit 1) after 37 s
    grid = '{"l_max":0,"betti_d_max":1,"betti_beta_max":1,"betti_n_max":1000}'
    started = time.perf_counter()
    done = run_subprocess("algebra-check", "--grid", grid, timeout=60)
    assert time.perf_counter() - started < 30
    assert done.returncode == EXIT_PARTIAL, done.stderr
    rows = json.loads(done.stdout)["rows"]
    assert len(rows) == 2002
    low = [row for row in rows if int(row["n"]) < 8]
    assert len(low) == 16 and all(row["brute"] == row["formula"] for row in low)
    for row in rows[1001 + 8:]:
        assert row["beta"] == [0, 1] and row["status"] == "skipped"
        assert f"1 letter multisets x {row['n']}! = " in row["reason"]


def spy_on_the_brute_force(monkeypatch):
    calls = []
    monkeypatch.setattr(graded_algebra, "sym_component_rows_bruteforce",
                        lambda *args: calls.append(args) or [])
    return calls


def test_grid_whose_permutation_reason_passes_the_digit_limit_exits_4_before_any_work(
        capsys, monkeypatch):
    # row 1600 of beta_1 = 1 names 1600!, 4,434 digits: formatting it would
    # raise ValueError (exit 2) after the sweep
    calls = spy_on_the_brute_force(monkeypatch)
    grid = '{"l_max":0,"betti_d_max":1,"betti_beta_max":1,"betti_n_max":1600}'
    code, out, err = run(capsys, "algebra-check", "--grid", grid)
    assert code == EXIT_RESOURCE and out == "" and calls == []
    assert err.count("\n") == 1 and "more than 4300 decimal digits" in err


@pytest.mark.parametrize("n_max, code", [(310, EXIT_PARTIAL), (311, EXIT_RESOURCE)])
def test_grid_permutation_reasons_are_refused_at_the_digit_limit_exactly(n_max, code):
    # 310! has 640 digits and 311! has 642; no vector holds a letter at betti_beta_max 0
    grid = {"l_max": 0, "betti_d_max": 1, "betti_beta_max": 1, "betti_n_max": n_max}
    done = run_subprocess_at_digit_limit(640, "algebra-check", "--grid", json.dumps(grid))
    assert done.returncode == code, done.stderr
    grid["betti_beta_max"] = 0
    done = run_subprocess_at_digit_limit(640, "algebra-check", "--grid", json.dumps(grid))
    assert done.returncode == EXIT_OK, done.stderr


def test_grid_without_betti_degrees_is_refused_before_any_work(capsys, monkeypatch):
    # d = 0 was refused by BettiVector, after every brute-force row of the dims sweep
    calls = spy_on_the_brute_force(monkeypatch)
    code, out, err = run(capsys, "algebra-check", "--grid", '{"betti_d_max": 0}')
    assert code == EXIT_INPUT and out == "" and calls == []
    assert err == "error: grid.betti_d_max must be >= 1, got 0\n"


def test_grid_row_budget_counts_the_rows_before_the_first_and_is_inclusive(capsys, monkeypatch):
    grid = '{"l_max": 2, "degree_max": 2, "dim_max": 1, "m_max": 3, "n_max": 4, "betti_d_max": 2, "betti_beta_max": 1, "betti_n_max": 3}'
    rows = int(run_json(capsys, "algebra-check", "--grid", grid)["summary"]["instances"])
    monkeypatch.setattr(cli, "MAX_GRID_ROWS", rows)
    assert run_json(capsys, "algebra-check", "--grid", grid)["summary"]["instances"] == str(rows)
    monkeypatch.setattr(cli, "MAX_GRID_ROWS", rows - 1)
    monkeypatch.setattr(graded_algebra, "sym_component_dims", None)
    code, out, err = run(capsys, "algebra-check", "--grid", grid)
    assert code == EXIT_RESOURCE and out == ""
    assert err == f"error: the grid has more than {rows - 1} rows, the budget of one sweep\n"


def test_algebra_check_rejects_unknown_grid_keys(capsys):
    code, _, err = run(capsys, "algebra-check", "--grid", '{"bogus": 3}')
    assert code == EXIT_INPUT
    assert err == "error: grid takes no key 'bogus'\n"


# ---------------------------------------------------------------------------
# simplicial

def test_simplicial_hollow_triangle(capsys):
    doc = run_json(capsys, "simplicial", "--input", HOLLOW)
    assert doc["betti"] == ["1", "1"]
    rows = {row["k"]: row for row in doc["decomposition"]}
    assert rows["1"]["harmonic"] == "1"
    assert rows["1"]["exact"] == "2"
    assert rows["1"]["coexact"] == "0"


def test_simplicial_kron_probes_deterministic(capsys):
    args = ("simplicial", "--input", HOLLOW, "--kron-probes", "5", "--seed", "3")
    first = run_json(capsys, *args)
    second = run_json(capsys, *args)
    assert first == second
    assert len(first["kron_probes"]) == 5
    for row in first["kron_probes"]:
        assert row["computed"] == row["predicted"]


def test_an_off_by_one_psd_rank_makes_the_kron_probes_exit_1(capsys, monkeypatch):
    original = hodge_discrete.psd_rank

    def off_by_one(matrix):
        r = original(matrix)
        return None if r is None else r + 1

    monkeypatch.setattr(hodge_discrete, "psd_rank", off_by_one)
    code, out, _ = run(capsys, "simplicial", "--input", HOLLOW, "--kron-probes", "5", "--seed", "3")
    assert code == EXIT_INVARIANT
    assert any(row["computed"] != row["predicted"] for row in json.loads(out)["kron_probes"])


def test_a_negative_betti_number_of_a_pipeline_factor_exits_1(capsys, monkeypatch):
    # rank del_1 + 1 gives the 3-sphere mark beta_1 = -1: a wrong rank, which must exit 1,
    # never reach BettiVector's input check and exit 2 as if the request were malformed
    argv = REPLY_CASES["pipeline_torus_4x6_sphere_mark"]
    original = hodge_discrete._signed_rank
    del_1 = [hodge_discrete._sparse_boundary(K, 1)[1]
             for K in (hodge_discrete.torus_grid(4, 6), hodge_discrete.sphere_boundary(4))]

    def off_by_one(lines, nodes):
        return original(lines, nodes) + (lines in del_1)

    monkeypatch.setattr(hodge_discrete, "_signed_rank", off_by_one)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_INVARIANT, "")
    assert err == ("internal invariant violated: "
                   "the boundary ranks give negative Betti numbers [0, -1, 0, 1]\n")


def test_a_kronecker_sum_that_is_not_psd_exits_1_with_one_stderr_line(capsys, monkeypatch):
    monkeypatch.setattr(hodge_discrete, "kron_sum", lambda a, b: [[1, 2], [2, 1]])
    code, out, err = run(capsys, "simplicial", "--input", HOLLOW, "--kron-probes", "1")
    assert (code, out) == (EXIT_INVARIANT, "")
    assert err.count("\n") == 1
    assert err.startswith("internal invariant violated: ") and "Kronecker sum" in err


def test_simplicial_invalid_complex_exits_2(capsys):
    code, _, _ = run(capsys, "simplicial", "--input", '{"maximal": [[0, 0]]}')
    assert code == EXIT_INPUT


@pytest.mark.parametrize("argv, what", [
    (("simplicial", "--input", HOLLOW, "--kron-probes", "1", "--seed", "-1"), "seed must fit"),
    (("simplicial", "--input", HOLLOW, "--kron-probes", "1", "--seed", str(2**64)),
     "seed must fit"),
    (("simplicial", "--input", HOLLOW, "--seed", "1"), "--seed seeds the probes alone"),
    (("simplicial", "--input", HOLLOW, "--kron-probes", "0", "--seed", "1"),
     "it needs --kron-probes above 0"),
    (("simplicial", "--input", HOLLOW, "--kron-probes", "-1"), "--kron-probes: must be non-negative"),
    (("pipeline", "--input", HOLLOW, "--n-max", "-1"), "--n-max: must be non-negative, got -1"),
    (("betti", "--input", '{"d":1,"beta":[0,2]}', "--n-max", "-1"), "--n-max: must be non-negative"),
])
def test_flag_refusals_exit_2_before_any_rank(capsys, monkeypatch, argv, what):
    calls = []
    monkeypatch.setattr(hodge_discrete, "rank", lambda *args: calls.append(args) or 0)
    code, out, err = run(capsys, *argv)
    assert (code, out, calls) == (EXIT_INPUT, "", [])
    assert err.count("\n") == 1 and err.startswith("error: ") and what in err


def test_simplicial_negative_kron_probes_exits_2(capsys):
    code, out, err = run(capsys, "simplicial", "--input", HOLLOW, "--kron-probes", "-1")
    assert code == EXIT_INPUT
    assert out == ""
    assert err.count("\n") == 1 and "--kron-probes" in err


def test_simplicial_closure_over_the_budget_exits_4_without_a_traceback():
    # one 30-vertex simplex: 2^30 - 1 faces, refused before the closure starts
    doc = json.dumps({"maximal": [list(range(30))]})
    started = time.perf_counter()
    done = run_subprocess("simplicial", "--input", doc)
    assert time.perf_counter() - started < 1.0
    assert done.returncode == EXIT_RESOURCE
    assert done.stdout == ""
    assert done.stderr.count("\n") == 1 and done.stderr.startswith("error: ")
    assert "Traceback" not in done.stderr


# ---------------------------------------------------------------------------
# poisson

POISSON_SPEC = (
    '{"check":"mecke","m":2,"window":{"dim":2,"lengths":[1.0,2.0]},'
    '"samples":2000,"seed":42,"f":{"g":"indicator","h":"const"}}'
)


def test_poisson_spec_runs_and_is_deterministic(capsys):
    first = run_json(capsys, "poisson", "--input", POISSON_SPEC)
    second = run_json(capsys, "poisson", "--input", POISSON_SPEC)
    assert first == second
    assert first["samples"] == "2000"
    assert float(first["rel_error"]) < 0.25


def test_poisson_seed_flag_overrides(capsys):
    base = run_json(capsys, "poisson", "--input", POISSON_SPEC)
    other = run_json(capsys, "poisson", "--input", POISSON_SPEC, "--seed", "7")
    assert other["seed"] == "7"
    assert other["estimate"] != base["estimate"]


def test_poisson_flags_hand_their_text_to_the_sampling_plan_alone(capsys, monkeypatch):
    # argparse keeps the text: the check's plan reads it once, and the cli not at all
    seen = []
    for module in (cli, poisson_mc):
        for name in ("strict_int", "strict_seed"):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda value, *args, real=real, where=module.__name__:
                                seen.append((where, value)) or real(value, *args))
    doc = run_json(capsys, "poisson", "--input", POISSON_SPEC, "--seed", "7", "--samples", "300")
    assert (doc["seed"], doc["samples"]) == ("7", "300")
    flag_reads = [(where, value) for where, value in seen if value in ("7", "300", 7, 300)]
    assert flag_reads == [("gammahodge.poisson_mc", "300"), ("gammahodge.poisson_mc", "7")]


# a closed form whose terms cancel to 0: the series rounds by about 1e-17 of their size
@pytest.mark.parametrize("window, phi, coeffs", [
    ([1.0], "indicator", [-1, -1, 1.0]),
    ([1.0], "indicator", [2, -4, 1]),
    ([1.0, 2.0], {"kind": "box", "lo": [0.0, 0.0], "hi": [0.5, 1.0]}, [-0.5, -0.5, 1]),
])
def test_a_local_series_that_cancels_to_0_is_served(capsys, window, phi, coeffs):
    spec = {"check": "local", "window": {"lengths": window}, "samples": 2, "seed": 2,
            "f": {"kind": "poly_of_sum", "phi": phi, "h": {"coeffs": coeffs}}}
    doc = run_json(capsys, "poisson", "--input", json.dumps(spec))
    assert doc["reference"] == 0.0
    assert abs(doc["extra"]["series_reference"]) < 1e-15


def test_poisson_requires_seed(capsys):
    spec = '{"check":"laplace","window":{"dim":1,"lengths":[2.0]},"samples":100,"f":"indicator"}'
    code, _, err = run(capsys, "poisson", "--input", spec)
    assert code == EXIT_INPUT
    assert "seed" in err


def _foreign_axis_field_cases():
    """A scalar with an axis field of another kind, as laplace f, local phi and mecke g."""
    own = {"indicator": {}, "box": {"lo": [0.2], "hi": [0.5]},
           "gaussian": {"center": [0.5], "width": [0.3]}}
    for kind, axes in own.items():
        for name in ("lo", "hi", "center", "width"):
            if name in axes:
                continue
            scalar = {"kind": kind, "scale": 0.3, **axes, name: [0.5]}
            for field, spec in (
                ("f", {"check": "laplace", "f": scalar}),
                ("f.phi", {"check": "local", "f": {"kind": "poly_of_sum", "phi": scalar,
                                                    "h": "linear"}}),
                ("f.g", {"check": "mecke", "m": 1, "f": {"g": scalar, "h": "const"}}),
            ):
                spec["window"] = {"lengths": [2.0]}
                yield pytest.param(json.dumps(spec), f"{field}: {kind} function takes no {name}",
                                   id=f"{spec['check']}-{kind}-with-{name}")


@pytest.mark.parametrize(
    "spec, field",
    [
        ('{"check":"mecke","window":{"lengths":[1.0]}}', "'m'"),
        ('{"check":"laplace","window":{"lengths":[1.0]}}', "'f'"),
        ('{"check":"local","window":{"lengths":[1.0]}}', "'f'"),
        ('{"check":"laplace","window":{"lengths":5},"f":"indicator"}', "lengths"),
        ('{"check":"laplace","window":{"lengths":[NaN]},"f":"indicator"}', "lengths"),
        ('{"check":"mecke","m":2.9,"window":{"lengths":[1.0]}}', "m must"),
        ('{"check":"laplace","window":{"lengths":[1.0]},"f":"indicator","seed":1,'
         '"samples":100.7}', "samples"),
        ('{"check":"laplace","window":{"lengths":[1.0]},"f":"indicator","seed":1,'
         '"samples":[1]}', "samples"),
        ('{"check":"laplace","window":{"lengths":[1.0]},"f":5}', "f must"),
        ('{"check":"mecke","m":1,"window":{"lengths":[1.0]},"f":5}', "f must"),
        ('{"check":"local","window":{"lengths":[1.0]},"f":{"kind":"poly_of_sum",'
         '"phi":"indicator","h":{"coeffs":5}}}', "f.h.coeffs"),
        ('{"check":"mecke","m":1,"window":{"lengths":[1.0]},"f":{"h":{"coeffs":5}}}',
         "f.h.coeffs"),
        ('{"check":"laplace","window":{"dim":[1],"lengths":[1.0]},"f":"indicator"}',
         "window.dim"),
        ('{"check":"local","window":{"lengths":[1.0]},"f":{"kind":"count_indicator",'
         '"k":2.5}}', "f.k"),
        ('{"check":"laplace","window":{"lengths":[1.0, 1.0]},"f":{"kind":"box",'
         '"lo":[0.8, 0.0],"hi":[0.2, 1.0]}}', "f: box needs lo <= hi"),
        ('{"check":"laplace","window":{"lengths":[1.0, 1.0]},"f":{"kind":"gaussian",'
         '"center":[0.5],"width":[0.3, 0.3]}}', "f: gaussian needs one positive width per center axis"),
        ('{"check":"mecke","m":1,"window":{"lengths":[1.0, 1.0]},"f":{"g":{"kind":'
         '"gaussian","center":[0.5, 0.5],"width":[0.3]}}}',
         "f.g: gaussian needs one positive width per center axis"),
        ('{"check":"laplace","window":{"lengths":[1.0, 1.0]},"f":{"kind":"gaussian",'
         '"center":[0.5],"width":[0.3]}}', "f: gaussian function has 1 axes, the window has 2"),
        ('{"check":"mecke","m":1,"window":{"lengths":[1.0]},"f":{"phi":{"kind":"box",'
         '"lo":[0.0, 0.0],"hi":[0.5, 0.5]},"h":"linear"}}',
         "f.phi: box function has 2 axes, the window has 1"),
        # a null is no absent key: an indicator's null lo was once read as no lo
        ('{"check":"laplace","window":{"lengths":[1.0]},"f":{"kind":"indicator","lo":null}}',
         "f.lo must not be null"),
        ('{"check":"local","window":{"lengths":[1.0]},"f":{"kind":"count_indicator",'
         '"k":null}}', "f.k must not be null"),
        ('{"check":"laplace","window":{"lengths":null},"f":"indicator"}',
         "window.lengths must not be null"),
        ('{"check":"laplace","window":{"lengths":[true]},"f":"indicator"}', "window.lengths[0]"),
        pytest.param('{"check":"laplace","window":{"lengths":[1.0]},"f":{"kind":"indicator",'
                     '"scale":1' + "0" * 400 + "}}", "f.scale", id="scale-beyond-float"),
        ('{"check":"local","window":{"lengths":[1.0]},"f":{"kind":"poly_of_sum",'
         '"phi":"indicator","h":{"coeffs":[0, 0, 0, 1]}}}',
         "f.h: polynomial degree above 2"),
        ('{"check":"mecke","m":1,"window":{"lengths":[1.0]},"f":{"h":{"coeffs":[0, 0, 0, 1]}}}',
         "f.h: polynomial degree above 2"),
        *_foreign_axis_field_cases(),
    ],
)
def test_poisson_malformed_spec_exits_2_naming_the_field(capsys, spec, field):
    argv = ["poisson", "--input", spec]
    if "samples" not in spec:
        argv += ["--seed", "1", "--samples", "100"]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INPUT
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert field in err


def cli_command(*argv):
    src = str(Path(gammahodge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return [sys.executable, "-m", "gammahodge.cli", *argv], env


def run_subprocess(*argv, timeout=60):
    command, env = cli_command(*argv)
    return subprocess.run(command, capture_output=True, text=True, env=env, timeout=timeout)


def test_reader_closing_the_pipe_early_keeps_the_exit_code_and_stderr_clean():
    # about 220 KB of reply, well past the 64 KiB pipe buffer, so the write meets a closed pipe
    command, env = cli_command("betti", "--input", '{"d":1,"beta":[0,1000]}', "--n-max", "1000")
    with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.read(3) == b"{\n "
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    assert code == EXIT_OK
    assert err == ""


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_kron_probe_seed_outside_64_bits_exits_2_without_a_traceback(seed):
    done = run_subprocess("simplicial", "--input", HOLLOW, "--kron-probes", "1", "--seed", seed)
    assert done.returncode == EXIT_INPUT
    assert done.stdout == ""
    assert done.stderr.count("\n") == 1 and done.stderr.startswith("error: ") and "seed" in done.stderr


def test_kron_probes_over_the_budget_exit_4_at_once():
    started = time.perf_counter()
    done = run_subprocess("simplicial", "--input", HOLLOW, "--kron-probes", str(10**9), timeout=10)
    assert time.perf_counter() - started < 5.0
    assert done.returncode == EXIT_RESOURCE
    assert done.stdout == ""
    assert done.stderr.count("\n") == 1 and done.stderr.startswith("error: ")
    assert "--kron-probes" in done.stderr


def test_kron_probe_budget_is_inclusive_and_refuses_before_the_first_probe(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_KRON_PROBES", 2)
    args = ("simplicial", "--input", HOLLOW, "--kron-probes")
    assert len(run_json(capsys, *args, "2")["kron_probes"]) == 2

    def probe(*_):
        raise AssertionError("a probe ran")

    monkeypatch.setattr(cli.hodge, "kron_sum_kernel_dim", probe)
    code, out, err = run(capsys, *args, "3")
    assert (code, out) == (EXIT_RESOURCE, "")
    assert err.count("\n") == 1 and "budget of 2" in err


def test_a_configuration_over_the_slice_budget_exits_4_without_a_traceback():
    # volume 5e6 on a line: one configuration's points take about 38 MiB
    spec = '{"check":"mecke","m":1,"window":{"lengths":[5e6]},"samples":100,"seed":1}'
    done = run_subprocess("poisson", "--input", spec)
    assert done.returncode == EXIT_RESOURCE == 4
    assert done.stdout == ""
    assert done.stderr.count("\n") == 1 and done.stderr.startswith("error: ")
    assert "Traceback" not in done.stderr


# 16,385 samples: block 0 on the calling thread, block 1 (one sample) on a worker thread
TWO_BLOCK_MECKE = ('{"check":"mecke","m":1,"window":{"lengths":[2.0]},"samples":16385,'
                   '"seed":1,"f":{"g":"indicator"}}')


@pytest.mark.parametrize("error, exit_code", [(ResourceError, EXIT_RESOURCE),
                                              (ValueError, EXIT_INPUT)])
def test_an_error_in_the_worker_block_exits_as_one_in_the_calling_block(
        capsys, monkeypatch, error, exit_code):
    subset_sums, replies = poisson_mc._subset_sums, []
    for fail_on_main in (True, False):
        raised_on = []

        def kernel(*args):
            main = threading.current_thread() is threading.main_thread()
            if main == fail_on_main:
                raised_on.append(main)
                raise error("the slice kernel failed")
            return subset_sums(*args)

        monkeypatch.setattr(poisson_mc, "_subset_sums", kernel)
        before = threading.active_count()
        replies.append(run(capsys, "poisson", "--input", TWO_BLOCK_MECKE))
        assert raised_on == [fail_on_main]
        assert threading.active_count() == before
    assert replies[0] == replies[1] == (exit_code, "", "error: the slice kernel failed\n")


def test_sampling_budget_refuses_before_drawing(capsys):
    # volume 9e6: one configuration's points would take about 137 MiB
    spec = ('{"check":"laplace","window":{"lengths":[3000.0,3000.0]},"samples":100000,'
            '"seed":1,"f":{"kind":"indicator","scale":1e-7}}')
    tracemalloc.start()
    try:
        started = time.perf_counter()
        code, out, err = run(capsys, "poisson", "--input", spec)
        elapsed = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_RESOURCE
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "MiB" in err
    assert elapsed < 1.0
    assert peak < 2**20


def test_sampling_budget_is_one_configurations_expected_points(capsys, monkeypatch):
    # volume 3 in two dimensions: 3 * 2 * 8 = 48 bytes, so a budget of 48 passes it, and a
    # slice target of 48 takes one sample a slice and gives the reply of whole blocks
    spec = ('{"check":"laplace","window":{"lengths":[1.5,2.0]},"samples":100,"seed":1,'
            '"f":"indicator"}')
    unlimited = run(capsys, "poisson", "--input", spec)
    monkeypatch.setattr(poisson_mc, "SLICE_TARGET_BYTES", 48)
    monkeypatch.setattr(poisson_mc, "MAX_SLICE_BYTES", 48)
    assert run(capsys, "poisson", "--input", spec) == unlimited
    monkeypatch.setattr(poisson_mc, "MAX_SLICE_BYTES", 47)
    code, out, _ = run(capsys, "poisson", "--input", spec)
    assert (code, out) == (EXIT_RESOURCE, "")


@pytest.mark.parametrize("f, what", [
    ('"indicator"', "exp(1.71828e+06)"),  # window volume 1e6: the exponent is (e - 1) * 1e6
    ('{"kind":"indicator","scale":1000.0}', "f.scale"),
])
def test_laplace_reference_outside_float_range_exits_4(capsys, f, what):
    spec = ('{"check":"laplace","window":{"lengths":[1000.0,1000.0]},"samples":100,'
            '"seed":1,"f":%s}' % f)
    code, out, err = run(capsys, "poisson", "--input", spec)
    assert (code, out) == (EXIT_RESOURCE, "")
    assert err.count("\n") == 1 and err.startswith("error: ") and what in err


@pytest.mark.parametrize("spec, what", [
    # g^3 of scale 1e200 leaves the float range
    ('{"check":"mecke","m":3,"window":{"lengths":[1.0]},"samples":100,"seed":1,'
     '"f":{"g":{"kind":"indicator","scale":1e200},"h":"const"}}', "mecke g.scale^m"),
    # phi^2 of scale 1e200: refused before the quadrature, with no numpy RuntimeWarning
    ('{"check":"local","window":{"lengths":[1.0]},"samples":100,"seed":1,"f":{"kind":'
     '"poly_of_sum","phi":{"kind":"indicator","scale":1e200},"h":{"coeffs":[0,0,1]}}}',
     "integral indicator^2"),
])
def test_scale_beyond_the_float_range_exits_4_before_the_quadrature(spec, what):
    done = run_subprocess("poisson", "--input", spec)
    assert done.returncode == EXIT_RESOURCE
    assert done.stdout == ""
    assert done.stderr.count("\n") == 1 and done.stderr.startswith("error: ") and what in done.stderr
    assert "Traceback" not in done.stderr and "RuntimeWarning" not in done.stderr


@pytest.mark.parametrize("spec, code, what", [
    ('{"check":"local","window":{"lengths":[1000.0]},"f":"one"}', EXIT_RESOURCE, "e^-volume"),
    ('{"check":"local","window":{"lengths":[1.0]},"f":{"kind":"count_indicator","k":1'
     + "0" * 400 + "}}", EXIT_INPUT, "count_indicator"),
    ('{"check":"local","window":{"lengths":[1.0]},"f":{"kind":"poly_of_sum",'
     '"phi":"indicator","h":{"coeffs":[1e200]}}}', EXIT_RESOURCE, "local reference squared"),
    # inf - inf: a NaN reference is refused like an infinite one
    ('{"check":"local","window":{"lengths":[2.0]},"f":{"kind":"poly_of_sum","phi":'
     '{"kind":"indicator","scale":10.0},"h":{"coeffs":[0,1e308,-1e308]}}}',
     EXIT_RESOURCE, "exp(nan)"),
    ('{"check":"mecke","m":1,"window":{"lengths":[1.0]},"f":{"h":{"coeffs":[1e200]}}}',
     EXIT_RESOURCE, "mecke reference squared"),
    # |g.scale|^3 = 1e306 fits, (integral of g)^3 = 1e315 does not, in a window under the cap
    ('{"check":"mecke","m":3,"window":{"lengths":[1000.0]},'
     '"f":{"g":{"kind":"indicator","scale":1e102},"h":"const"}}',
     EXIT_RESOURCE, "(integral of g)^m"),
    ('{"check":"laplace","window":{"lengths":[1e200, 1e200]},"f":"indicator"}',
     EXIT_INPUT, "volume finite"),
    # a volume that underflows to 0 would divide by zero in the local series
    ('{"check":"local","window":{"lengths":[1e-200, 1e-200]},"f":{"kind":"poly_of_sum",'
     '"phi":"indicator","h":{"coeffs":[1,1,1]}}}', EXIT_INPUT, "above 0"),
    ('{"check":"laplace","window":{"lengths":[1.0]},"f":{"kind":"gaussian","center":[0.5],'
     '"width":[0.3],"scale":-1e200}}', EXIT_RESOURCE, "no e^f - 1 series"),
])
def test_poisson_values_beyond_the_float_range_are_refused(capsys, spec, code, what):
    code_seen, out, err = run(capsys, "poisson", "--input", spec, "--seed", "1", "--samples", "100")
    assert (code_seen, out) == (code, "")
    assert err.count("\n") == 1 and err.startswith("error: ") and what in err


@pytest.mark.parametrize("length", [1.0, 100.0, 700.0])
@pytest.mark.parametrize("f, mean", [
    ('"one"', lambda v: 1.0),  # at volume 100 this used to exit 2, its fixed 80 terms too few
    ('{"kind":"count_indicator","k":3}', lambda v: math.exp(-v) * v**3 / 6),
    ('{"kind":"poly_of_sum","phi":"indicator","h":{"coeffs":[0.5,-1,2]}}',
     lambda v: 0.5 - v + 2 * (v + v * v)),
])
def test_local_series_serves_every_volume_inside_the_float_range(capsys, f, mean, length):
    spec = ('{"check":"local","window":{"lengths":[%r]},"samples":100,"seed":1,"f":%s}'
            % (length, f))
    started = time.perf_counter()
    doc = run_json(capsys, "poisson", "--input", spec)
    assert time.perf_counter() - started < 1.0
    assert doc["reference"] == pytest.approx(mean(length), rel=1e-12)


def test_sample_budget_counts_every_variate(capsys, monkeypatch):
    # 100 samples at volume 3 in two dimensions: 100 * (1 + 3 * 2) = 700 variates
    spec = ('{"check":"laplace","window":{"lengths":[1.5,2.0]},"samples":100,"seed":1,'
            '"f":"indicator"}')
    unlimited = run_json(capsys, "poisson", "--input", spec)
    monkeypatch.setattr(poisson_mc, "MAX_DRAWS", 700)
    assert run_json(capsys, "poisson", "--input", spec) == unlimited
    monkeypatch.setattr(poisson_mc, "MAX_DRAWS", 699)
    code, out, err = run(capsys, "poisson", "--input", spec)
    assert (code, out) == (EXIT_RESOURCE, "") and "variates" in err


def test_huge_sample_count_exits_4_at_once(capsys):
    spec = ('{"check":"mecke","m":1,"window":{"lengths":[1.0]},"samples":1' + "0" * 30
            + ',"seed":1}')
    started = time.perf_counter()
    code, out, err = run(capsys, "poisson", "--input", spec)
    assert (code, out) == (EXIT_RESOURCE, "") and "variates" in err
    assert time.perf_counter() - started < 1.0


def test_narrow_gaussian_laplace_verifies(capsys):
    # e^f - 1 of width 0.01: over the whole window the quadrature read 2.4e-40 against the
    # series 0.0261435 and exited 1; over the box cut to the bump it matches
    spec = ('{"check":"laplace","window":{"lengths":[2.0]},"samples":20000,"seed":1,'
            '"f":{"kind":"gaussian","center":[1.0],"width":[0.01]}}')
    doc = run_json(capsys, "poisson", "--input", spec)
    assert doc["extra"]["integral_expm1"] == pytest.approx(0.0261435, rel=1e-6)
    assert doc == poisson_mc.run_check(json.loads(spec))


def test_narrow_gaussian_mecke_reference_verifies(capsys):
    # the integral of a peak of width 0.01 is sqrt(pi) * 0.01, where the whole-window
    # quadrature read 2.4e-40
    spec = ('{"check":"mecke","m":1,"window":{"lengths":[2.0]},"samples":20000,"seed":1,'
            '"f":{"g":{"kind":"gaussian","center":[1.0],"width":[0.01]},"h":"const"}}')
    doc = run_json(capsys, "poisson", "--input", spec)
    assert doc["reference"] == pytest.approx(math.sqrt(math.pi) * 0.01, rel=1e-14)


@pytest.mark.parametrize("center, width", [
    pytest.param("-1.0", "1e8", id="1e8"),
    pytest.param("-1.0", "1e200", id="1e200"),
    # b - c and a - c round to one float, so the erf difference did too: 0.0, and exit 1
    pytest.param(str(2**64), "1e200", id="2**64-1e200"),
    pytest.param(str(2**60), "1e200", id="2**60-1e200"),
])
def test_wide_gaussian_centred_outside_the_window_verifies(capsys, center, width):
    # both erf arguments lie near 0, where erfc(y) - erfc(x) cancels: the closed form read
    # 2.000000001391649 (exit 1) at width 1e8 and 0.0 at 1e200; the bump is flat, so about 2
    spec = ('{"check":"mecke","m":1,"window":{"lengths":[2.0]},"samples":100,"seed":1,'
            '"f":{"g":{"kind":"gaussian","center":[' + center + '],"width":[' + width + ']}}}')
    code, out, err = run(capsys, "poisson", "--input", spec)
    assert (code, err) == (EXIT_OK, "")
    assert json.loads(out)["reference"] == pytest.approx(2.0, rel=1e-14)


@pytest.mark.parametrize("budget, code", [(48, EXIT_OK), (47, EXIT_RESOURCE)])
@pytest.mark.parametrize("f", ['{"check":"laplace","f":"indicator"}', '{"check":"local","f":"one"}',
                               '{"check":"mecke","m":3}'])
def test_slice_budget_reads_the_spec_not_the_seed(capsys, monkeypatch, f, budget, code):
    # a sample of Poisson(3) points holds more or fewer than 3 by seed; the budget bounds
    # the mean, 3 * 2 * 8 = 48 bytes in two dimensions, so every seed gets the same answer
    spec = json.dumps({**json.loads(f), "window": {"lengths": [1.5, 2.0]}, "samples": 2, "seed": 1})
    monkeypatch.setattr(poisson_mc, "MAX_SLICE_BYTES", budget)
    for seed in range(1, 7):
        assert run(capsys, "poisson", "--input", spec, "--seed", str(seed))[0] == code


def test_a_reference_the_quadrature_disputes_is_refused_not_returned(capsys, monkeypatch):
    spec = ('{"check":"mecke","m":1,"window":{"lengths":[2.0]},"samples":20000,"seed":1,'
            '"f":{"g":{"kind":"gaussian","center":[1.0],"width":[0.3]},"h":"const"}}')
    closed = poisson_mc.ScalarFunction.closed_form_integral
    monkeypatch.setattr(poisson_mc.ScalarFunction, "closed_form_integral",
                        lambda *args: closed(*args) * (1 + 1e-9))
    with pytest.raises(poisson_mc.ReferenceMismatchError, match="vs closed form"):
        poisson_mc.run_check(json.loads(spec))
    code, out, err = run(capsys, "poisson", "--input", spec)
    assert (code, out) == (EXIT_INVARIANT, "")
    assert err.count("\n") == 1 and "closed form" in err


GAUSSIAN_SPECS = {
    "mecke-1e-17": '{"check":"mecke","m":1,"window":{"lengths":[2.0]},"samples":10,"seed":1,'
                   '"f":{"g":{"kind":"gaussian","center":[1.0],"width":[1e-17]}}}',
    "laplace-3e-17": '{"check":"laplace","window":{"lengths":[2.0]},"samples":10,"seed":1,'
                     '"f":{"kind":"gaussian","center":[1.0],"width":[3e-17]}}',
    "mecke-2**64": '{"check":"mecke","m":1,"window":{"lengths":[18446744073709551616, 1e-13]},'
                   '"samples":10,"seed":1,"f":{"g":{"kind":"gaussian",'
                   '"center":[18446744073709551616, 0],"width":[1, 1]}}}',
    # served: far off the window, or a window that is itself one ulp wide
    "laplace-2**64-off": '{"check":"laplace","window":{"lengths":[2.0]},"samples":10,"seed":1,'
                         '"f":{"kind":"gaussian","center":[18446744073709551616],"width":[0.3]}}',
    "laplace-subnormal": '{"check":"laplace","window":{"lengths":[5e-324]},"samples":10,"seed":1,'
                         '"f":{"kind":"gaussian","center":[1.0],"width":[0.3]}}',
    # its box collapses to [0, 0], where the bump and its closed form are both 0
    "laplace-1e200-off": '{"check":"laplace","window":{"lengths":[2.0]},"samples":10,"seed":1,'
                         '"f":{"kind":"gaussian","center":[-1e200],"width":[0.3]}}',
}


@pytest.mark.parametrize("name, code", [
    ("mecke-1e-17", EXIT_RESOURCE), ("laplace-3e-17", EXIT_RESOURCE), ("mecke-2**64", EXIT_RESOURCE),
    ("laplace-2**64-off", EXIT_OK), ("laplace-subnormal", EXIT_OK), ("laplace-1e200-off", EXIT_OK),
])
def test_a_gaussian_below_the_quadratures_float_resolution_exits_4(capsys, name, code):
    # the three refusals exited 1: quadrature and closed form disagreed over a box a few ulps wide
    got, out, err = run(capsys, "poisson", "--input", GAUSSIAN_SPECS[name])
    assert got == code
    if code == EXIT_RESOURCE:
        assert out == "" and err.count("\n") == 1 and "ulps wide" in err
    else:
        assert err == "" and json.loads(out)["check"] == "laplace"


# ---------------------------------------------------------------------------
# pipeline

def test_pipeline_hollow_triangle_infinite_volume(capsys):
    doc = run_json(
        capsys, "pipeline", "--input", HOLLOW, "--infinite-volume", "--n-max", "3"
    )
    assert doc["input"]["beta"] == [0, 1]
    assert doc["b"] == ["1", "1", "0", "0"]
    assert doc["beta_source"]["infinite_volume_override"] is True
    assert doc["beta_source"]["complex_betti"] == ["1", "1"]


def test_pipeline_without_override_records_beta0(capsys):
    with pytest.warns(betti.InfiniteVolumeWarning):
        doc = run_json(capsys, "pipeline", "--input", HOLLOW, "--n-max", "3")
    assert doc["input"]["beta"] == [1, 1]
    assert doc["beta_source"]["infinite_volume_override"] is False
    # the formula ignores beta_0 either way
    assert doc["b"] == ["1", "1", "0", "0"]


def test_pipeline_n_max_over_the_series_budget_exits_4(capsys):
    code, out, err = run(capsys, "pipeline", "--input", HOLLOW, "--n-max", "99999999")
    assert (code, out) == (EXIT_RESOURCE, "")
    assert err.count("\n") == 1 and err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ("betti", "--input", '{"d":2,"beta":[1,2,1]}'),
    ("pipeline", "--input", HOLLOW),
    # one cause, a compact base, one warning: the Kunneth product does not warn of it too
    ("pipeline", "--input", f'{{"complex": {HOLLOW}, "mark": {HOLLOW}}}'),
])
def test_a_warning_is_one_stderr_line_without_path_or_source(argv):
    done = run_subprocess(*argv)
    assert done.returncode == EXIT_OK
    assert done.stderr.startswith("warning: InfiniteVolumeWarning: beta_0 = 1 != 0: ")
    assert done.stderr.count("\n") == 1


def test_every_call_prints_its_warning_and_leaves_the_warnings_state_as_it_was():
    # outside pytest, whose own recorder would take the warnings before they print
    script = "\n".join([
        "import sys, warnings",
        "from gammahodge import cli",
        "state = lambda: (list(warnings.filters), warnings.showwarning, warnings.formatwarning)",
        "before = state()",
        "codes = [cli.main(['betti', '--input', '{\"d\":2,\"beta\":[1,2,1]}']) for _ in range(2)]",
        "print(codes, before == state(), file=sys.stderr)",
    ])
    _, env = cli_command()
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    lines = done.stderr.splitlines()
    assert len(lines) == 3, done.stderr
    assert all(line.startswith("warning: InfiniteVolumeWarning: ") for line in lines[:2])
    assert lines[2] == "[0, 0] True"


def test_pipeline_empty_complex(capsys):
    doc = run_json(capsys, "pipeline", "--input", '{"maximal": []}', "--n-max", "4")
    assert doc["b"] == ["1", "0", "0", "0", "0"]


@pytest.mark.parametrize(
    "doc", ['{"complex": 5}', '{"complex": {"maximal": [[0, 1]]}, "mark": 5}']
)
def test_pipeline_non_object_complex_exits_2(capsys, doc):
    code, out, err = run(capsys, "pipeline", "--input", doc)
    assert code == EXIT_INPUT
    assert out == ""
    assert err.count("\n") == 1 and "JSON object" in err


def test_pipeline_marked_path_matches_direct_convolution(capsys):
    marked = json.dumps(
        {
            "complex": {"maximal": [[0, 1], [1, 2], [0, 2]]},
            "mark": {"maximal": [[0, 1], [1, 2], [0, 2]]},
        }
    )
    doc = run_json(
        capsys, "pipeline", "--input", marked, "--infinite-volume", "--n-max", "6"
    )
    # base (0, 1) convolved with circle (1, 1) by hand
    assert doc["input"]["beta"] == [0, 1, 1]
    direct = run_json(
        capsys, "betti", "--input", '{"d": 2, "beta": [0, 1, 1]}', "--n-max", "6"
    )
    assert doc["b"] == direct["b"]
    assert doc["beta_source"]["mark_betti"] == ["1", "1"]


# ---------------------------------------------------------------------------
# strict integer input: never truncated, never a traceback

@pytest.mark.parametrize(
    "argv, field",
    [
        (("betti", "--input", '{"d":2,"beta":[0,2.7,0]}'), "beta[1]"),
        (("betti", "--input", '{"d":1,"beta":[false,true]}'), "beta[0]"),
        (("betti", "--input", '{"d":2.9,"beta":[0,1,0]}'), "d must"),
        (("betti", "--input", '{"d":2,"beta":[0,Infinity,0]}'), "beta[1]"),
        (("betti", "--input", '{"d":2,"beta":[0,NaN,0]}'), "beta[1]"),
        (("algebra-check", "--grid", '{"l_max":Infinity}'), "grid.l_max"),
        (("algebra-check", "--grid", '{"l_max":1.9}'), "grid.l_max"),
        (("algebra-check", "--grid", '{"betti_n_max":-1}'), "grid.betti_n_max"),
        (("simplicial", "--input", '{"maximal":[[0,1.5]]}'), "maximal[0][1]"),
        (("simplicial", "--input", '{"maximal":["012"]}'), "maximal[0]"),
        (("pipeline", "--input", '{"maximal":[[0,1],[1,true]]}'), "maximal[1][1]"),
        # integer flags follow the same rule: int() would read "1_0" as 10 and " 3" as 3;
        # --seed and --samples hand their text to the one reader of the value
        (("simplicial", "--input", HOLLOW, "--seed", "x"), "seed must be an integer, got 'x'"),
        (("simplicial", "--input", HOLLOW, "--kron-probes", "1.0"), "--kron-probes: invalid integer"),
        (("betti", "--input", '{"d":1,"beta":[0,1]}', "--n-max", "1_0"), "--n-max: invalid integer"),
        (("pipeline", "--input", HOLLOW, "--n-max", " 3"), "--n-max: invalid integer"),
        (("poisson", "--input", POISSON_SPEC, "--samples", "2e3"),
         "samples must be an integer, got '2e3'"),
        (("poisson", "--input", POISSON_SPEC, "--seed", "+1"), "seed must be an integer, got '+1'"),
    ],
)
def test_non_integer_input_exits_2_naming_the_field(capsys, argv, field):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INPUT
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert field in err


@pytest.mark.parametrize(
    "argv",
    [
        ("simplicial", "--input", HOLLOW, "--seed", "x"),
        ("betti", "--input", '{"d":1,"beta":[0,1]}', "--n-max", "1_0"),
        ("betti", "--input", '{"d":1,"beta":[0,1]}', "--n-max"),
        ("betti", "--input", '{"d":1,"beta":[0,1]}', "stray\nword"),
        ("betti",),
        ("bogus",),
        (),
    ],
)
def test_usage_errors_are_one_error_line_and_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INPUT
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    done = run_subprocess(*argv)
    assert done.returncode == EXIT_INPUT
    assert (done.stdout, done.stderr) == (out, err)


def test_help_still_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["betti", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: gammahodge betti")


# ---------------------------------------------------------------------------
# one parser per process: built by the first main call, reused by every later one

def run_any(capsys, *argv):
    """run, with --help's SystemExit read as its exit code and the warnings it
    raised (pytest's recorder takes them before they reach stderr) as a list."""
    with warnings.catch_warnings(record=True) as caught:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err, [str(w.message) for w in caught]


def first_call(capsys, monkeypatch, *argv):
    """The reply of a call that builds the parser afresh."""
    monkeypatch.setattr(cli, "_PARSER", None)
    return run_any(capsys, *argv)


@pytest.mark.parametrize("flagged, plain, default", [
    (("simplicial", "--input", HOLLOW, "--kron-probes", "2", "--seed", "7"),
     ("simplicial", "--input", HOLLOW), lambda doc: "kron_probes" not in doc),
    (("pipeline", "--input", HOLLOW, "--infinite-volume"), ("pipeline", "--input", HOLLOW),
     lambda doc: doc["beta_source"]["infinite_volume_override"] is False),
    (("betti", "--input", '{"d":2,"beta":[0,3,1]}', "--n-max", "3"),
     ("betti", "--input", '{"d":2,"beta":[0,3,1]}'), lambda doc: doc["n_max"] == "10"),
    (("poisson", "--input", POISSON_SPEC, "--seed", "5"), ("poisson", "--input", POISSON_SPEC),
     lambda doc: doc["seed"] == "42"),
], ids=["kron-probes", "infinite-volume", "n-max", "seed"])
def test_a_flag_of_one_call_leaves_no_trace_in_the_next(capsys, monkeypatch, flagged, plain,
                                                          default):
    fresh = first_call(capsys, monkeypatch, *plain)
    assert fresh[0] == EXIT_OK and default(json.loads(fresh[1]))
    flagged_reply = run_any(capsys, *flagged)
    assert flagged_reply[0] == EXIT_OK and not default(json.loads(flagged_reply[1]))
    assert run_any(capsys, *plain) == fresh


@pytest.mark.parametrize("before, code", [
    (("betti", "--input", '{"d":1,"beta":[0,1]}', "--n-max", "1_0"), EXIT_INPUT),
    (("betti", "--n-max", "3"), EXIT_INPUT),
    (("pipeline", "--input", HOLLOW, "--infinite-volume", "--n-max"), EXIT_INPUT),
    (("bogus",), EXIT_INPUT),
    (("betti", "--help"), EXIT_OK),
    (("--help",), EXIT_OK),
])
def test_a_usage_error_or_help_leaves_the_next_call_as_a_first_call(capsys, monkeypatch, before,
                                                                     code):
    valid = ("pipeline", "--input", HOLLOW, "--n-max", "5")
    fresh = first_call(capsys, monkeypatch, *valid)
    assert fresh[0] == EXIT_OK and len(fresh[3]) == 1  # beta_0 = 1 warns on every call
    assert first_call(capsys, monkeypatch, *before)[0] == code
    assert run_any(capsys, *valid) == fresh


def test_the_parser_is_built_once_over_many_calls(capsys, monkeypatch):
    builds = []

    def build():
        builds.append(None)
        return build_parser()

    build_parser = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", build)
    monkeypatch.setattr(cli, "_PARSER", None)
    for n_max in "0123":
        code, _, _ = run(capsys, "betti", "--input", '{"d":1,"beta":[0,2]}', "--n-max", n_max)
        assert code == EXIT_OK
    assert run_any(capsys, "bogus")[0] == EXIT_INPUT
    assert run_any(capsys, "betti", "--help")[0] == EXIT_OK
    assert run(capsys, "simplicial", "--input", HOLLOW)[0] == EXIT_OK
    assert len(builds) == 1


def test_main_is_reentrant(capsys, monkeypatch):
    inner = ("simplicial", "--input", HOLLOW)
    outer = ("betti", "--input", '{"d":2,"beta":[0,3,0]}', "--n-max", "5")
    alone = [run(capsys, *argv) for argv in (inner, outer)]

    def nested(args):
        assert main(list(inner)) == EXIT_OK
        return cli.cmd_betti(args)

    monkeypatch.setitem(cli._COMMANDS, "betti", nested)
    assert run(capsys, *outer) == (EXIT_OK, alone[0][1] + alone[1][1], "")


# ---------------------------------------------------------------------------
# exact reply text, recorded before the report types gave way to plain dicts:
# key order, indentation and integers as decimal strings

REPLIES = Path(__file__).resolve().parent / "replies"
REPLY_CASES = {
    "betti_vanishing": ("betti", "--input", '{"d": 2, "beta": [0, 3, 0]}', "--n-max", "5"),
    "betti_no_vanishing": ("betti", "--input", '{"d": 3, "beta": [0, 2, 1, 3]}', "--n-max", "8"),
    "pipeline_mark_infinite_volume": (
        "pipeline", "--input",
        json.dumps({"complex": json.loads(HOLLOW), "mark": json.loads(HOLLOW)}),
        "--infinite-volume", "--n-max", "4",
    ),
    "simplicial": (
        "simplicial", "--input", '{"maximal": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]}',
    ),
    # Recorded before integer rows skipped the Fraction pass and M_0 reused rank del_1:
    # a torus whose del_2 is 108 x 72 and whose M_1 is 108 x 108, four Kronecker probes,
    # whose sums are dense integer rows up to 36 x 36, and a pipeline with a 3-sphere mark.
    "simplicial_torus_6x6_probes": (
        "simplicial", "--input",
        json.dumps({"maximal": hodge_discrete.torus_grid(6, 6).simplices[2]}),
        "--kron-probes", "4", "--seed", "7",
    ),
    "pipeline_torus_4x6_sphere_mark": (
        "pipeline", "--input", json.dumps({
            "complex": {"maximal": hodge_discrete.torus_grid(4, 6).simplices[2]},
            "mark": {"maximal": hodge_discrete.sphere_boundary(4).simplices[3]},
        }),
        "--n-max", "8",
    ),
    # Recorded while rank del_1 still came from elimination: two hollow triangles and the
    # isolated vertex 7 (beta_0 = 3), whose del_1 rank is V minus the components.
    "simplicial_disconnected_probes": (
        "simplicial", "--input", DISCONNECTED, "--kron-probes", "3", "--seed", "5",
    ),
    "pipeline_disconnected_infinite_volume": (
        "pipeline", "--input", DISCONNECTED, "--infinite-volume", "--n-max", "4",
    ),
    # Recorded while every del_k with k >= 2 was still eliminated: RP^2, whose del_2 rows
    # form one unbalanced signed graph, and the Mobius strip, whose boundary edges pin it.
    "simplicial_rp2_6": (
        "simplicial", "--input", json.dumps({"maximal": formula_oracles.catalog()["rp2_6"].simplices[2]}),
    ),
    "pipeline_mobius_5": (
        "pipeline", "--input", json.dumps({"maximal": formula_oracles.catalog()["mobius_5"].simplices[2]}),
        "--n-max", "6",
    ),
    "algebra_check": ("algebra-check", "--grid", json.dumps({
        "l_max": 1, "degree_max": 2, "dim_max": 1, "m_max": 1, "n_max": 2,
        "betti_d_max": 1, "betti_beta_max": 1, "betti_n_max": 2,
    })),
}

# One reply per Poisson check pins the Philox stream (RNG_SCHEME) and what each check
# reduces from it.  numpy fixes a bit generator's stream, not the algorithms of the
# Generator methods that turn it into counts and points, so a numpy release may move
# these.  Recorded with numpy 2.4.6 on x86-64 with AVX-512; the Gaussian laplace case
# also runs numpy's float64 exp, whose vectorised form is chosen by the CPU.
POISSON_WINDOW = {"dim": 2, "lengths": [1.0, 2.0]}
MECKE_F = {"g": {"kind": "box", "scale": 0.7, "lo": [0.0, 0.0], "hi": [1.0, 1.5]},
           "phi": {"kind": "box", "scale": 0.7, "lo": [0.0, 0.5], "hi": [0.8, 1.7]},
           "h": {"coeffs": [0.5, -1.0, 0.25]}}
POISSON_REPLY_SPECS = {
    "poisson_laplace_gaussian": {"check": "laplace", "f": {
        "kind": "gaussian", "scale": 0.5, "center": [0.5, 1.0], "width": [0.3, 0.4]}},
    "poisson_local_count_indicator": {"check": "local", "f": {"kind": "count_indicator", "k": 2}},
    "poisson_local_one": {"check": "local", "f": "one"},
    **{f"poisson_mecke_m{m}": {"check": "mecke", "m": m, "f": MECKE_F} for m in (1, 2, 3)},
}
REPLY_CASES.update({
    name: ("poisson", "--input",
           json.dumps({**spec, "window": POISSON_WINDOW, "samples": 2000, "seed": 42}))
    for name, spec in POISSON_REPLY_SPECS.items()
})
# Windows of one and three axes, 20,000 samples each, so every reply spans two Philox
# blocks and the test functions reduce over one and three columns.
WINDOW_1D = {"dim": 1, "lengths": [2.0]}
WINDOW_3D = {"dim": 3, "lengths": [1.0, 2.0, 1.5]}
POISSON_AXES_SPECS = {
    "poisson_laplace_box_3d": {"check": "laplace", "window": WINDOW_3D, "f": {
        "kind": "box", "scale": 0.5, "lo": [0.2, 0.5, 0.0], "hi": [0.9, 1.5, 1.2]}},
    "poisson_local_gaussian_3d": {"check": "local", "window": WINDOW_3D, "f": {
        "kind": "poly_of_sum", "h": {"coeffs": [0.5, -1.0, 0.25]}, "phi": {
            "kind": "gaussian", "scale": 0.8, "center": [0.5, 1.0, 0.7],
            "width": [0.3, 0.6, 0.5]}}},
    "poisson_mecke_m1_1d": {"check": "mecke", "m": 1, "window": WINDOW_1D, "f": {
        "g": {"kind": "gaussian", "scale": 0.7, "center": [0.8], "width": [0.4]},
        "phi": {"kind": "box", "scale": 0.6, "lo": [0.3], "hi": [1.4]},
        "h": {"coeffs": [0.5, -1.0, 0.25]}}},
}
REPLY_CASES.update({
    name: ("poisson", "--input", json.dumps({**spec, "samples": 20000, "seed": 42}))
    for name, spec in POISSON_AXES_SPECS.items()
})
# The m = 2 and 3 subset sums are a float evaluation of e_m, and an algebraically equal
# rearrangement rounds differently: the Newton-identity form of _subset_sums moved these
# two replies by 1e-15 relative, with the same samples.  They are compared at REL_TOL,
# far below any change of the stream or of the identity they check.
ROUNDED_REPLIES = {"poisson_mecke_m2", "poisson_mecke_m3"}
REL_TOL = 1e-12


# beta_0 = 1 without --infinite-volume: each reply comes with one InfiniteVolumeWarning.
WARNING_REPLIES = {"pipeline_torus_4x6_sphere_mark", "pipeline_mobius_5"}


@pytest.mark.parametrize("name", sorted(set(REPLY_CASES) - ROUNDED_REPLIES))
def test_reply_text_is_unchanged(capsys, monkeypatch, name):
    warns = name in WARNING_REPLIES
    with pytest.warns(betti.InfiniteVolumeWarning) if warns else contextlib.nullcontext():
        code, out, _ = run(capsys, *REPLY_CASES[name])
    assert code == EXIT_OK
    assert out == (REPLIES / f"{name}.json").read_text()
    if name.startswith("poisson"):
        # 2,000 bytes in flight: 62 samples a slice at volume 2 in 2-D; the 20,000-sample
        # replies span two blocks, 1,000 bytes a slice: 62 at volume 2 in 1-D, 13 at 3 in 3-D
        monkeypatch.setattr(poisson_mc, "SLICE_TARGET_BYTES", 2000)
        assert run(capsys, *REPLY_CASES[name]) == (code, out, "")


# The recorded algebra_check grid stops at m = 1.  This one reaches m = 5 over
# mixed-parity spaces, where each brute-force row sums up to 5! = 120 signed
# permutations per letter multiset.  Its 146 KB reply is pinned by SHA-256,
# recorded when the projector still ran itertools.permutations with a per-order sign.
M5_GRID = {"l_max": 2, "degree_max": 2, "dim_max": 2, "m_max": 5, "n_max": 6,
           "betti_d_max": 2, "betti_beta_max": 2, "betti_n_max": 5}
M5_REPLY_SHA256 = "65e060fe7269efd9ae44ec437cfcfd9a2b20fb2a4535ecf9bbd617167bd647e3"


def test_m5_algebra_check_reply_is_unchanged(capsys):
    code, out, err = run(capsys, "algebra-check", "--grid", json.dumps(M5_GRID))
    assert code == EXIT_OK
    assert err == "algebra-check: 642/642 ok, 0 mismatches, 0 skipped\n"
    assert max(int(row["m"]) for row in json.loads(out)["rows"] if row["kind"] == "dims") == 5
    assert hashlib.sha256(out.encode()).hexdigest() == M5_REPLY_SHA256


# Two more algebra-check replies pinned by SHA-256, recorded before replies left
# json.dumps: the default grid, and a grid whose skipped rows carry reason strings.
PINNED_SWEEPS = {
    "default": ((), EXIT_OK, "algebra-check: 5929/5929 ok, 0 mismatches, 0 skipped",
                "c0db3ada65e0cffb9bf08835eb1bce229e019d1a2a8ce812361d13b249d894e2"),
    "skipped": (("--grid", '{"l_max":2,"degree_max":3,"dim_max":3,"m_max":8,"n_max":10}'),
                EXIT_PARTIAL, "algebra-check: 5386/5535 ok, 0 mismatches, 149 skipped",
                "21fd4a1f59b5c5ea12083dc5eaa0b19266f3c5b2673a4d346bd77f3b6a8eccf7"),
}


@pytest.mark.parametrize("name", sorted(PINNED_SWEEPS))
def test_pinned_algebra_check_sweep_reply_is_unchanged(capsys, name):
    argv, exit_code, summary, digest = PINNED_SWEEPS[name]
    code, out, err = run(capsys, "algebra-check", *argv)
    assert code == exit_code
    assert err.splitlines()[-1] == summary
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# The default grid's 6,225 letter multisets have 53 brute-force memo keys (shapes,
# their letters in order); the bound leaves room for another key, not for one orbit
# sum per multiset.
DEFAULT_GRID_ORBIT_SUMS = 64


def test_algebra_check_runs_few_orbit_sums_and_none_outlives_its_request(capsys, monkeypatch):
    calls = []
    orbit_sum = graded_algebra._orbit_sum
    monkeypatch.setattr(graded_algebra, "_orbit_sum",
                        lambda w, odd: calls.append(w) or orbit_sum(w, odd))
    replies, counts = [], []
    for _ in range(2):
        calls.clear()
        replies.append(run(capsys, "algebra-check"))
        counts.append(len(calls))
    # the second request sums every shape again: no verdict is kept between requests
    assert 0 < counts[0] == counts[1] <= DEFAULT_GRID_ORBIT_SUMS
    assert replies[0] == replies[1]


def close_floats(got, want):
    """Equal JSON, floats equal to REL_TOL relative and everything else exactly."""
    if isinstance(want, float):
        return isinstance(got, float) and math.isclose(got, want, rel_tol=REL_TOL)
    if isinstance(want, dict):
        return list(got) == list(want) and all(close_floats(got[k], want[k]) for k in want)
    return got == want


@pytest.mark.parametrize("name", sorted(ROUNDED_REPLIES))
def test_rounded_reply_is_unchanged_to_the_stated_tolerance(capsys, monkeypatch, name):
    code, out, _ = run(capsys, *REPLY_CASES[name])
    assert code == EXIT_OK
    want = (REPLIES / f"{name}.json").read_text()
    assert close_floats(json.loads(out), json.loads(want)), (out, want)
    monkeypatch.setattr(poisson_mc, "SLICE_TARGET_BYTES", 2000)  # 62 samples a slice
    assert run(capsys, *REPLY_CASES[name]) == (code, out, "")


@pytest.mark.parametrize("name", [name for name in sorted(REPLY_CASES) if name.startswith("betti")])
def test_recorded_betti_replies_pass_the_smallest_digit_limit(name):
    done = run_subprocess_at_digit_limit(640, *REPLY_CASES[name])
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stdout == (REPLIES / f"{name}.json").read_text()


# ---------------------------------------------------------------------------
# cold start: numpy is loaded by the poisson command and the Kronecker probes alone

PUBLIC_NAMES = {
    "BettiVector", "EnumerationCapError", "GradedSpace", "InfiniteVolumeWarning",
    "InvariantError", "PsdContractError", "ResourceError", "SimplicialComplex", "betti",
    "betti_numbers", "betti_report", "config_betti_series", "errors", "graded_algebra",
    "hodge_decomposition_dims", "hodge_discrete", "kron_sum_kernel_dim", "kunneth_product",
    "linalg", "load_complex", "sphere_boundary", "sym_component_dims", "torus_grid",
    "vanishing_threshold",
}

# names the package no longer binds, each still read at the module that defines it
MOVED_NAMES = {
    betti: ("config_betti",),
    graded_algebra: ("project", "sym_component_dim_bruteforce", "sym_component_dim_closed"),
    hodge_discrete: ("boundary_matrix", "hodge_laplacian"),
    formula_oracles: ("catalog",),
    poisson_mc: ("LocalFunctional", "Polynomial", "ScalarFunction", "Window", "check_laplace",
                 "check_local_expansion", "check_mecke", "run_check", "sample_configuration"),
}


def numpy_loaded_after(*commands):
    """In a fresh interpreter: [code, numpy loaded] after the import, then after each command."""
    script = "\n".join([
        "import contextlib, io, json, sys",
        "import gammahodge, gammahodge.cli",
        "seen = [[0, 'numpy' in sys.modules]]",
        f"for argv in {list(commands)!r}:",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        seen.append([gammahodge.cli.main(list(argv)), 'numpy' in sys.modules])",
        "print(json.dumps(seen))",
    ])
    _, env = cli_command()
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_exact_commands_never_load_numpy():
    seen = numpy_loaded_after(
        ("betti", "--input", '{"d":2,"beta":[0,3,1]}', "--n-max", "8"),
        REPLY_CASES["algebra_check"],
        ("simplicial", "--input", HOLLOW),
        ("pipeline", "--input", HOLLOW, "--n-max", "4"),
    )
    assert seen == [[EXIT_OK, False]] * 5


@pytest.mark.parametrize("argv", [
    ("poisson", "--input", POISSON_SPEC, "--samples", "100"),
    ("simplicial", "--input", HOLLOW, "--kron-probes", "1"),
])
def test_poisson_and_kron_probes_load_numpy(argv):
    assert numpy_loaded_after(argv) == [[EXIT_OK, False], [EXIT_OK, True]]


def test_import_loads_neither_numpy_nor_poisson_mc():
    script = "\n".join([
        "import importlib, json, sys",
        "seen = []",
        "for name in ('gammahodge', 'gammahodge.cli'):",
        "    importlib.import_module(name)",
        "    seen.append([m in sys.modules for m in ('numpy', 'gammahodge.poisson_mc')])",
        "print(json.dumps(seen))",
    ])
    _, env = cli_command()
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[False, False], [False, False]]


def test_public_names_are_pinned_and_all_resolve():
    assert set(gammahodge.__all__) == PUBLIC_NAMES
    assert PUBLIC_NAMES <= set(dir(gammahodge))
    for name in PUBLIC_NAMES:
        assert getattr(gammahodge, name) is not None
    with pytest.raises(AttributeError, match="no_such_name"):
        gammahodge.no_such_name


def test_dropped_names_resolve_at_their_module_paths():
    for module, names in MOVED_NAMES.items():
        for name in names:
            assert not hasattr(gammahodge, name), name
            assert callable(getattr(module, name)), (module.__name__, name)
