"""Every JSON reader refuses an unknown key and a missing required key.

Each case is one document that differs from a valid one by one key at one
nesting level.  The library reader raises a one-line ValueError naming the
field path; ``cli.main`` exits 2 with that message as its one stderr line.
"""

import copy
import json
import re
import sys
from argparse import Namespace

import pytest

from gammahodge import cli
from gammahodge.betti import BettiVector
from gammahodge.cli import EXIT_INPUT, EXIT_OK, main
from gammahodge.hodge_discrete import load_complex
from gammahodge.poisson_mc import run_check

BETTI = {"d": 2, "beta": [0, 1, 0]}
COMPLEX = {"maximal": [[0, 1], [1, 2], [0, 2]]}
PIPELINE = {"complex": COMPLEX, "mark": {"maximal": [[0, 1], [1, 2], [0, 2]]}}
GRID = {"l_max": 1, "degree_max": 1, "dim_max": 1, "m_max": 1, "n_max": 1,
        "betti_d_max": 1, "betti_beta_max": 1, "betti_n_max": 1}
CHECK = {"window": {"dim": 1, "lengths": [2.0]}, "samples": 100, "seed": 1}
LAPLACE = {"check": "laplace", **CHECK, "f": {"kind": "box", "scale": 0.3, "lo": [0.2], "hi": [0.5]}}
LOCAL_ONE = {"check": "local", **CHECK, "f": {"kind": "one"}}
LOCAL_COUNT = {"check": "local", **CHECK, "f": {"kind": "count_indicator", "k": 2}}
LOCAL_POLY = {"check": "local", **CHECK, "f": {"kind": "poly_of_sum", "phi": {
    "kind": "gaussian", "center": [1.0], "width": [0.5]}, "h": {"coeffs": [0.5, 1.0]}}}
MECKE = {"check": "mecke", "m": 2, **CHECK, "f": {
    "g": {"kind": "indicator"}, "phi": {"kind": "indicator", "scale": 0.5}, "h": {"coeffs": [1.0]}}}

# The library reader of each command's document.
READERS = {
    "betti": BettiVector.from_json,
    "simplicial": load_complex,
    "pipeline": lambda doc: cli.cmd_pipeline(
        Namespace(input=json.dumps(doc), n_max=3, infinite_volume=True)),
    "algebra-check": lambda doc: cli.cmd_algebra_check(Namespace(grid=json.dumps(doc))),
    "poisson": run_check,
}

VALID = [("betti", BETTI), ("simplicial", COMPLEX), ("pipeline", PIPELINE),
         ("pipeline", COMPLEX), ("algebra-check", GRID), ("poisson", LAPLACE),
         ("poisson", LOCAL_ONE), ("poisson", LOCAL_COUNT), ("poisson", LOCAL_POLY),
         ("poisson", MECKE)]

# (command, valid document, path to one of its objects, a key that object
# requires or None, the object's name in messages)
LEVELS = [
    ("betti", BETTI, (), "beta", "Betti vector"),
    ("simplicial", COMPLEX, (), "maximal", "complex"),
    ("pipeline", COMPLEX, (), "maximal", "complex"),
    ("pipeline", PIPELINE, (), None, "pipeline input"),
    ("pipeline", PIPELINE, ("complex",), "maximal", "complex"),
    ("pipeline", PIPELINE, ("mark",), "maximal", "mark"),
    ("algebra-check", GRID, (), None, "grid"),
    ("poisson", LAPLACE, (), "seed", "check spec"),
    ("poisson", LAPLACE, ("window",), "lengths", "window"),
    ("poisson", LAPLACE, ("f",), "kind", "f"),
    ("poisson", LOCAL_ONE, (), "f", "check spec"),
    ("poisson", LOCAL_ONE, ("f",), "kind", "f"),
    ("poisson", LOCAL_COUNT, ("f",), "k", "f"),
    ("poisson", LOCAL_POLY, ("f",), "phi", "f"),
    ("poisson", LOCAL_POLY, ("f", "phi"), "kind", "f.phi"),
    ("poisson", LOCAL_POLY, ("f", "h"), "coeffs", "f.h"),
    ("poisson", MECKE, (), "m", "check spec"),
    ("poisson", MECKE, ("f",), None, "f"),
    ("poisson", MECKE, ("f", "g"), "kind", "f.g"),
    ("poisson", MECKE, ("f", "phi"), "kind", "f.phi"),
    ("poisson", MECKE, ("f", "h"), "coeffs", "f.h"),
]


def edited(doc, path, edit):
    doc = copy.deepcopy(doc)
    target = doc
    for key in path:
        target = target[key]
    edit(target)
    return doc


def level_cases():
    for command, doc, path, required, where in LEVELS:
        name = "-".join((command, doc.get("check", "doc"), *path))
        yield pytest.param(command, edited(doc, path, lambda obj: obj.update(bogus=1)),
                           f"{where} takes no key 'bogus'", id=f"{name}-unknown")
        if required is not None:
            yield pytest.param(command, edited(doc, path, lambda obj: obj.pop(required)),
                               f"{where} needs key {required!r}", id=f"{name}-missing")


CASES = [
    *level_cases(),
    # a mark beside "maximal" is not read as a Kunneth factor: the document is a complex
    pytest.param("pipeline", {**COMPLEX, "mark": COMPLEX}, "complex takes no key 'mark'",
                 id="pipeline-mark-beside-maximal"),
    # a null mark is refused like a null in every other object slot, not read as no mark
    pytest.param("pipeline", {**PIPELINE, "mark": None}, "mark must be a JSON object, got None",
                 id="pipeline-mark-null"),
    pytest.param("poisson", {**LAPLACE, "f": {"kind": "indicator", "scael": 0.3}},
                 "f takes no key 'scael'", id="laplace-scael"),
    pytest.param("poisson", {**MECKE, "f": {"hh": "linear"}}, "f takes no key 'hh'",
                 id="mecke-hh"),
    pytest.param("poisson", {**LOCAL_ONE, "f": {"kind": "one", "k": 3}}, "f takes no key 'k'",
                 id="local-one-with-k"),
    pytest.param("poisson", {**LOCAL_COUNT, "f": {"kind": "count_indicator", "k": 2,
                                                  "phi": "indicator"}},
                 "f takes no key 'phi'", id="local-count-with-phi"),
    pytest.param("poisson", {**LAPLACE, "m": 2}, "check spec takes no key 'm'", id="laplace-m"),
    pytest.param("poisson", {**LOCAL_ONE, "m": 2}, "check spec takes no key 'm'", id="local-m"),
    pytest.param("poisson", {**LAPLACE, "check": "mecke"}, "check spec needs key 'm'",
                 id="mecke-without-m"),
    # a bad simplex or vertex id names the document it sits in
    pytest.param("pipeline", {**PIPELINE, "mark": {"maximal": [[0, 1.5]]}},
                 "mark.maximal[0][1] must be an integer, got 1.5", id="pipeline-mark-vertex"),
    pytest.param("simplicial", {"maximal": [[0, 1], "x"]},
                 "complex.maximal[1] must be a list of vertex ids, got 'x'", id="complex-simplex"),
]


def cli_argv(command, doc):
    argv = [command, "--grid" if command == "algebra-check" else "--input", json.dumps(doc)]
    return argv + ["--infinite-volume"] if command == "pipeline" else argv


@pytest.mark.parametrize("command, doc", VALID)
def test_the_documents_the_cases_edit_are_accepted(capsys, command, doc):
    assert main(cli_argv(command, doc)) == EXIT_OK


@pytest.mark.parametrize("command, doc, message", CASES)
def test_reader_refuses_naming_the_field(command, doc, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        READERS[command](doc)


@pytest.mark.parametrize("command, doc, message", CASES)
def test_cli_exits_2_with_one_line_naming_the_field(capsys, command, doc, message):
    code = main(cli_argv(command, doc))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (EXIT_INPUT, "", f"error: {message}\n")


@pytest.mark.parametrize("reader", [BettiVector.from_json, load_complex, run_check])
@pytest.mark.parametrize("doc", [5, "x", [1], None])
def test_a_document_that_is_not_an_object_is_refused(reader, doc):
    with pytest.raises(ValueError, match="must be a JSON object"):
        reader(doc)


# Python's integer-string digit limit: 0 (none) before 3.10.7 or when switched off
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
PAST_THE_LIMIT = "9" * (DIGIT_LIMIT + 700)
PAST_THE_LIMIT_MESSAGE = (f"seed has {DIGIT_LIMIT + 700} digits, over Python's limit of "
                          f"{DIGIT_LIMIT} for an integer string")


@pytest.mark.skipif(not DIGIT_LIMIT, reason="this Python converts strings of any length")
def test_a_spec_integer_past_the_digit_limit_is_refused_naming_the_field():
    with pytest.raises(ValueError, match=f"^{re.escape(PAST_THE_LIMIT_MESSAGE)}$"):
        run_check({**LAPLACE, "seed": PAST_THE_LIMIT})


@pytest.mark.skipif(not DIGIT_LIMIT, reason="this Python converts strings of any length")
@pytest.mark.parametrize("argv", [
    ["poisson", "--input", json.dumps({**LAPLACE, "seed": PAST_THE_LIMIT})],
    ["poisson", "--seed", PAST_THE_LIMIT, "--input", json.dumps(LAPLACE)],
    ["simplicial", "--kron-probes", "1", "--seed", PAST_THE_LIMIT, "--input", json.dumps(COMPLEX)],
], ids=["poisson-spec", "poisson-flag", "simplicial-flag"])
def test_a_seed_past_the_digit_limit_exits_2_with_one_line_naming_it(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    message = f"error: {PAST_THE_LIMIT_MESSAGE}\n"
    assert (code, captured.out, captured.err) == (EXIT_INPUT, "", message)
