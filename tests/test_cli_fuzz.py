"""Fuzz of cli.main: any JSON document or integer flag text ends in a clean exit.

Every run must exit 0 (success), 2 (input error), 3 (partial run) or 4
(resource limit), and a document holding an unknown key gets no reply.  A
failure prints exactly one ``error:`` line and nothing on stdout; a reply is
strict JSON (no NaN or Infinity); no run raises a numpy RuntimeWarning.
Exit 1 is reserved for a broken invariant.  The one input that may reach it
is a Gaussian whose quadrature and closed form disagree, and the check
refuses the reference (exit 1, one line) rather than return a wrong one.
Narrow bumps no longer do, since the quadrature box is cut to the bump, nor
wide ones centred just outside the window, since the closed form takes erf
rather than erfc near 0, nor wide ones centred far out, where b - c and a - c
round to one float and the closed form takes the erf's first-order step.  A
quadrature box that collapses to a point at a center of 2**64 is out of
reach: every window drawn here with a length of 2**64 has a volume of at
least 0.3 * 2**64, over the slice budget, and is refused before quadrature.
What still reaches exit 1 is a width below the float resolution of its
center: width 1e-17 or 3e-17 centred at 1.0 on [2.0] (at 1e-16 the
quadrature exits 4, no convergence).
"""

import io
import json
import warnings
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gammahodge.cli import (
    EXIT_INPUT,
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_RESOURCE,
    MAX_KRON_PROBES,
    main,
)

# zero, negatives, values at the edge of the float range, integers beyond it,
# strings and bools, each field drawing one with chance 1/6 and an ordinary
# value otherwise, so that many specs get past validation and into the checks
ODD = st.sampled_from([0, -1, -2.5, 1e200, -1e200, 2**64, 10**30, 10**400, "3", "x", True, False])


def sometimes_odd(plain):
    return st.integers(0, 5).flatmap(lambda i: ODD if i == 0 else st.sampled_from(plain))


REAL = sometimes_odd([0.3, 1.0, 2.0, 3])
INTEGER = sometimes_odd([2, 3, 100])
SMALL = st.one_of(st.integers(-1, 2), st.sampled_from([1.5, "2", "x", True, None]))
# an integer flag's argv text: small integers or anything at all ("1_0", " 3", "x", "")
FLAG_TEXT = st.one_of(st.integers(-1, 2).map(str), st.text())
# an unknown key, added to a document object with chance 1/6; the reader must refuse it
STRAY = st.integers(0, 5).map(lambda i: {"bogus": 1} if i == 0 else {})
FUZZ = settings(max_examples=200, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])


def run_main(*argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue(), caught


def reject_constant(name):
    raise ValueError(f"reply carries {name}")


def missed_gaussian(argv, code, err):
    return (code == EXIT_INVARIANT and '"gaussian"' in argv[-1]
            and "quadrature" in err and "vs closed form" in err)


def assert_clean(*argv):
    code, out, err, caught = run_main(*argv)
    if missed_gaussian(argv, code, err):
        assert out == "" and err.count("\n") == 1, (argv, err)
        return
    assert code in (EXIT_OK, EXIT_INPUT, EXIT_PARTIAL, EXIT_RESOURCE), (argv, code, err)
    if '"bogus"' in argv[2]:  # the document: an unknown key never gets a reply
        assert code in (EXIT_INPUT, EXIT_RESOURCE), (argv, code, err)
    if code in (EXIT_INPUT, EXIT_RESOURCE):
        assert out == "", argv
        assert err.count("\n") == 1 and err.startswith("error: "), (argv, err)
    else:
        json.loads(out, parse_constant=reject_constant)
    assert "Traceback" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], (argv, caught)


def reals(size):
    return st.lists(REAL, min_size=size, max_size=size)


@st.composite
def scalar(draw, dim):
    kind = draw(st.sampled_from(["indicator", "box", "gaussian", "shorthand"]))
    if kind == "shorthand":
        return "indicator"
    spec = {"kind": kind, "scale": draw(REAL), **draw(STRAY)}
    if kind == "box":
        spec.update(lo=draw(reals(dim)), hi=draw(reals(dim)))
    if kind == "gaussian":
        spec.update(center=draw(reals(dim)), width=draw(reals(dim)))
    return spec


@st.composite
def poisson_spec(draw):
    dim = draw(st.integers(1, 3))
    spec = {
        "check": draw(st.sampled_from(["laplace", "local", "mecke"])),
        "window": {"lengths": draw(reals(dim)), **draw(STRAY)},
        "samples": draw(INTEGER),
        "seed": draw(INTEGER),
        **draw(STRAY),
    }
    h = {"coeffs": draw(st.lists(REAL, min_size=1, max_size=3)), **draw(STRAY)}
    if spec["check"] == "laplace":
        spec["f"] = draw(scalar(dim))
    elif spec["check"] == "local":
        spec["f"] = draw(st.sampled_from([
            "one",
            {"kind": "count_indicator", "k": draw(INTEGER), **draw(STRAY)},
            {"kind": "poly_of_sum", "phi": draw(scalar(dim)), "h": h, **draw(STRAY)},
        ]))
    else:
        spec["m"] = draw(INTEGER)
        spec["f"] = {"g": draw(scalar(dim)), "phi": draw(scalar(dim)), "h": h, **draw(STRAY)}
    return spec


@FUZZ
@given(poisson_spec())
def test_poisson_specs_exit_cleanly(spec):
    assert_clean("poisson", "--input", json.dumps(spec))


@st.composite
def complex_doc(draw):
    vertex = st.one_of(st.integers(0, 3), SMALL)
    return {"maximal": draw(st.lists(st.lists(vertex, max_size=3), max_size=3)), **draw(STRAY)}


@FUZZ
@given(d=SMALL, beta=st.lists(SMALL, max_size=4), stray=STRAY, n_max=FLAG_TEXT)
def test_betti_documents_exit_cleanly(d, beta, stray, n_max):
    doc = json.dumps({"d": d, "beta": beta, **stray})
    assert_clean("betti", "--input", doc, "--n-max", n_max)


@FUZZ
@given(doc=complex_doc(),
       probes=st.one_of(st.integers(-1, 2), st.sampled_from([MAX_KRON_PROBES + 1, 10**9])),
       seed=st.one_of(INTEGER.map(str), st.text()))
def test_simplicial_documents_exit_cleanly(doc, probes, seed):
    assert_clean("simplicial", "--input", json.dumps(doc),
                 "--kron-probes", str(probes), "--seed", seed)


@FUZZ
@given(base=complex_doc(), mark=st.one_of(st.none(), complex_doc()),
       stray=STRAY, infinite=st.booleans(), n_max=FLAG_TEXT)
def test_pipeline_documents_exit_cleanly(base, mark, stray, infinite, n_max):
    doc = base if mark is None else {"complex": base, "mark": mark, **stray}
    argv = ["pipeline", "--input", json.dumps(doc), "--n-max", n_max]
    assert_clean(*argv, *(["--infinite-volume"] if infinite else []))


GRID_KEYS = ["l_max", "degree_max", "dim_max", "m_max", "n_max",
             "betti_d_max", "betti_beta_max", "betti_n_max"]


@FUZZ
@given(st.fixed_dictionaries({key: SMALL for key in GRID_KEYS}, optional={"bogus": SMALL}))
def test_algebra_check_grids_exit_cleanly(grid):
    assert_clean("algebra-check", "--grid", json.dumps(grid))
