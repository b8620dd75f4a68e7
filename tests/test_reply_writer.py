"""The reply writer cli._dumps against its oracle, json.dumps(obj, indent=2)."""

import argparse
import itertools
import json
import math
import tracemalloc
from contextlib import contextmanager, redirect_stderr
from io import StringIO

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formula_oracles import algebra_check_payload
from gammahodge import betti, cli, graded_algebra

# characters that JSON text gives a meaning to, escapes, control and non-ASCII text
TRICKY = '[]{},: "\\\n\r\t\x00\x1f\x7fé €\U0001f600'

texts = st.text(alphabet=st.sampled_from(TRICKY) | st.characters(), max_size=12)
floats = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e300])
integers = st.integers() | st.integers(min_value=-2**200, max_value=2**200)
scalars = st.none() | st.booleans() | integers | floats | texts


class Row(dict):
    """A dict subclass, which json.dumps writes as a dict."""


def containers(children):
    return (st.lists(children, max_size=5)
            | st.lists(children, max_size=5).map(tuple)
            | st.dictionaries(texts, children, max_size=5)
            | st.dictionaries(texts, children, max_size=5).map(Row))


trees = st.recursive(scalars, containers, max_leaves=30)


@st.composite
def shared_trees(draw):
    """A tree holding one object twice at one level and again at two deeper levels."""
    shared = draw(containers(trees))
    other = draw(trees)
    return draw(st.sampled_from([
        [shared, other, shared],
        {"a": shared, "b": [shared, {"c": (shared, other)}]},
        [other, [[shared]], {"d": shared}, shared],
    ]))


def assert_same_text(obj):
    assert cli._dumps(obj) == json.dumps(obj, indent=2)


@contextmanager
def without_c_encoder():
    """The writer as on interpreters without _json: strings go through the pure-Python encoder."""
    saved = cli.encode_basestring_ascii
    cli.encode_basestring_ascii = json.encoder.py_encode_basestring_ascii
    try:
        yield
    finally:
        cli.encode_basestring_ascii = saved


@settings(max_examples=300, deadline=None)
@given(trees)
def test_writer_matches_json_dumps_indent_2(obj):
    assert_same_text(obj)


@settings(max_examples=300, deadline=None)
@given(shared_trees())
def test_writer_matches_json_dumps_on_shared_subtrees(obj):
    assert_same_text(obj)


@pytest.mark.parametrize("obj", [
    [], {}, (), [[]], [{}], {"a": []}, {"a": {}}, [[], [[]], {}, [{}]], {"a": [[], {"b": {}}]},
    "", 0, -0.0, math.nan, None, True,
])
def test_writer_matches_json_dumps_on_edge_cases(obj):
    assert_same_text(obj)


@pytest.mark.parametrize("obj", [
    [1, object()], {"a": {1, 2}}, {"a": [1, {"b": b"bytes"}]}, [{"a": 1j}],
])
def test_unserialisable_values_raise_the_same_type_error(obj):
    with pytest.raises(TypeError) as want:
        json.dumps(obj, indent=2)
    with pytest.raises(TypeError) as got:
        cli._dumps(obj)
    assert str(got.value) == str(want.value)


@settings(max_examples=100, deadline=None)
@given(shared_trees())
def test_writer_without_the_c_encoder_gives_the_same_text(obj):
    with without_c_encoder():
        assert_same_text(obj)


@pytest.mark.parametrize("key", [1, 2.5, True, None, (1, 2)])
def test_a_key_that_is_not_a_str_raises_type_error(key):
    # no reply has one; json.dumps would write all but the tuple as a str
    with pytest.raises(TypeError):
        cli._dumps({"a": [{key: "value"}]})


@settings(max_examples=200, deadline=None)
@given(trees)
def test_writer_at_a_pad_is_json_dumps_text_moved_to_that_indent(obj):
    # _row_item writes a row at the rows' level 2 this way
    assert cli._dumps(obj, "\n    ") == json.dumps(obj, indent=2).replace("\n", "\n    ")


# texts that look like the text between two rows, "}" + separator + "{"
ROW_TEXTS = ["}", "{", "},", '"}, {"', "},\n  {", ""]
row_texts = st.text(alphabet=st.sampled_from(TRICKY), max_size=6) | st.sampled_from(ROW_TEXTS)
row_scalars = st.none() | st.booleans() | st.integers() | row_texts


@st.composite
def row_lists(draw):
    """1-300 non-empty dicts, such as the rows of a reply.

    The rows are drawn from a pool of dicts and dict subclasses, and their
    nested children from a pool that the rows share, as rows that name one
    space or Betti vector could.
    """
    shared = draw(st.lists(containers(trees), min_size=1, max_size=3))
    values = row_scalars | st.sampled_from(shared)
    dicts = st.dictionaries(row_texts, values, min_size=1, max_size=4)
    pool = draw(st.lists(dicts | dicts.map(Row), min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=10))
    return [pool[picks[i % len(picks)]] for i in range(draw(st.integers(1, 300)))]


@st.composite
def row_payloads(draw):
    """A list of rows as a reply holds it, as a tuple, or mixed with an empty dict or a scalar."""
    rows = draw(row_lists())
    odd = draw(st.sampled_from([{}, 0, "}", None, [], ()]))
    at = draw(st.integers(0, len(rows)))
    return draw(st.sampled_from([
        {"summary": {"instances": str(len(rows))}, "rows": rows},
        tuple(rows),
        [rows, {"again": rows}],
        rows[:at] + [odd] + rows[at:],
    ]))


@settings(max_examples=150, deadline=None)
@given(row_payloads())
def test_writer_matches_json_dumps_on_lists_of_rows(obj):
    assert_same_text(obj)


@settings(max_examples=50, deadline=None)
@given(row_payloads())
def test_writer_without_the_c_encoder_matches_json_dumps_on_lists_of_rows(obj):
    with without_c_encoder():
        assert_same_text(obj)


# a string that a writer splicing each child's text in at a stand-in could take
# for a child; the recursive writer gives it no meaning
MARKER = "@gammahodge-child@"


@pytest.mark.parametrize("obj", [
    {"rows": [{"a": MARKER, "space": [1, 2]}]},
    {"rows": [{MARKER: "1", "space": [1, 2]}]},
    {"rows": [{"a": "0", "space": [1]}] * 70 + [{"a": MARKER, "space": [1]}]},
    [{"a": MARKER}, {"b": "2"}],
    {"a": MARKER, "b": [1, {"c": [MARKER]}]},
    {MARKER: [1], "b": {MARKER: {}}},
    [MARKER, MARKER + "+", MARKER + "++", [2]],
    [{"a": 'x"' + MARKER, "b": [3]}],
    [[MARKER], {'"' + MARKER + '"': []}],
])
def test_a_payload_string_or_key_equal_to_the_marker_gives_the_same_text(obj):
    assert_same_text(obj)
    with without_c_encoder():
        assert_same_text(obj)


def default_grid_reply() -> str:
    with redirect_stderr(StringIO()):
        return cli.cmd_algebra_check(argparse.Namespace(grid=None))[0]


def traced_peak(call):
    """(call's result, the peak of the memory that tracemalloc saw it allocate)."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writer_peak_memory_on_the_default_grid_is_near_the_reply_length():
    # 5,929 rows of 1.6 MB with no subtree shared, as json.loads gives them: the
    # recursive writer reads 3.0x the text, the rows' texts, their join and the
    # reply's text each held once.  A level's whole text held twice adds 1x; the
    # marker-splicing writer read 4.0x, one that kept a memo entry per container
    # 5.8x, and one that encoded rows 64 to a C call 6.6x
    payload = json.loads(default_grid_reply())
    text, peak = traced_peak(lambda: cli._dumps(payload))
    assert text == json.dumps(payload, indent=2)
    assert peak <= 4.5 * len(text)


def test_algebra_check_peak_memory_on_the_default_grid_is_near_the_reply_length():
    # the sweep and its reply read 1.17x the reply's length; building one dict
    # per row and writing them read 3.87x
    default_grid_reply()
    text, peak = traced_peak(default_grid_reply)
    assert peak <= 1.5 * len(text)


# The nine grids of the benchmark's algebra workload: each word-dimension part
# (l_max, degree_max, dim_max, m_max, n_max) with each Betti part
# (betti_d_max, betti_beta_max, betti_n_max).
DIMS_CLASSES = ((2, 3, 2, 4, 6), (2, 4, 2, 4, 6), (3, 3, 2, 3, 5))
BETTI_GRID_CLASSES = ((2, 2, 4), (2, 2, 5), (3, 2, 5))
DIMS_KEYS = ("l_max", "degree_max", "dim_max", "m_max", "n_max")
BETTI_KEYS = ("betti_d_max", "betti_beta_max", "betti_n_max")
WORKLOAD_GRIDS = [{**dict(zip(DIMS_KEYS, dims_part)), **dict(zip(BETTI_KEYS, betti_part))}
                  for dims_part, betti_part in itertools.product(DIMS_CLASSES, BETTI_GRID_CLASSES)]


def assert_reply_is_the_row_dicts_text(grid: dict) -> tuple[int, dict]:
    """cmd_algebra_check's text, stderr and exit code against the row-dict oracle's."""
    got_err, want_err = StringIO(), StringIO()
    with redirect_stderr(got_err):
        text, code = cli.cmd_algebra_check(argparse.Namespace(grid=json.dumps(grid)))
    with redirect_stderr(want_err):
        payload, want_code = algebra_check_payload({**cli._DEFAULT_GRID, **grid})
    assert text == json.dumps(payload, indent=2)
    assert got_err.getvalue() == want_err.getvalue()
    assert code == want_code
    return code, payload["summary"]


@pytest.mark.parametrize("grid", WORKLOAD_GRIDS, ids=lambda grid: json.dumps(list(grid.values())))
def test_algebra_check_reply_on_the_workload_grids_is_the_row_dicts_text(grid):
    assert assert_reply_is_the_row_dicts_text(grid)[0] == cli.EXIT_OK


small_grids = st.fixed_dictionaries({
    "l_max": st.integers(0, 2), "degree_max": st.integers(0, 3), "dim_max": st.integers(0, 2),
    "m_max": st.integers(0, 4), "n_max": st.integers(0, 5),
    "betti_d_max": st.integers(1, 3), "betti_beta_max": st.integers(0, 2),
    "betti_n_max": st.integers(0, 6),
})


@settings(max_examples=40, deadline=None)
@given(small_grids)
def test_algebra_check_reply_on_small_grids_is_the_row_dicts_text(grid):
    assert_reply_is_the_row_dicts_text(grid)


@pytest.mark.parametrize("budget, value, grid", [
    ("MAX_WORDS", 2, {"l_max": 1, "degree_max": 1, "dim_max": 2, "m_max": 2, "n_max": 2,
                      "betti_d_max": 1, "betti_beta_max": 1, "betti_n_max": 2}),
    ("MAX_WORDS", 40, {"l_max": 2, "degree_max": 2, "dim_max": 2, "m_max": 4, "n_max": 5,
                       "betti_d_max": 2, "betti_beta_max": 2, "betti_n_max": 5}),
    ("MAX_PERMUTATIONS", 2, {"l_max": 0, "betti_d_max": 2, "betti_beta_max": 1,
                             "betti_n_max": 5}),
    ("MAX_PERMUTATIONS", 6, {"l_max": 2, "degree_max": 2, "dim_max": 2, "m_max": 4,
                             "n_max": 5, "betti_d_max": 2, "betti_beta_max": 2,
                             "betti_n_max": 5}),
])
def test_algebra_check_reply_with_skipped_rows_is_the_row_dicts_text(monkeypatch, budget, value,
                                                                      grid):
    monkeypatch.setattr(graded_algebra, budget, value)
    code, summary = assert_reply_is_the_row_dicts_text(grid)
    assert code == cli.EXIT_PARTIAL and summary["skipped"] != "0"


def bumped(function, cell):
    """function with 1 added to one cell of its result: cell picks the list and the index."""
    def wrong(*args):
        result = function(*args)
        target, index = cell(result)
        target[index] += 1
        return result
    return wrong


@pytest.mark.parametrize("closed_cell, series_cell, permutations, grid", [
    # the first row of every space, the reply's first row among them, and Betti rows n = 3
    (lambda dims: (dims[0], 0), lambda b: (b, 3), None,
     {"l_max": 2, "degree_max": 2, "dim_max": 1, "m_max": 3, "n_max": 4,
      "betti_d_max": 2, "betti_beta_max": 1, "betti_n_max": 3}),
    # the first row of a reply with no dims rows, a Betti row
    (None, lambda b: (b, 0), None,
     {"l_max": 0, "betti_d_max": 2, "betti_beta_max": 2, "betti_n_max": 4}),
    # mismatches among rows skipped over a permutation budget of 6: exit 1 all the same
    (lambda dims: (dims[1], 2), lambda b: (b, 1), 6,
     {"l_max": 2, "degree_max": 2, "dim_max": 2, "m_max": 4, "n_max": 5,
      "betti_d_max": 2, "betti_beta_max": 2, "betti_n_max": 5}),
])
def test_algebra_check_reply_with_mismatching_rows_is_the_row_dicts_text(
        monkeypatch, closed_cell, series_cell, permutations, grid):
    if closed_cell is not None:
        monkeypatch.setattr(graded_algebra, "sym_component_dims",
                            bumped(graded_algebra.sym_component_dims, closed_cell))
    monkeypatch.setattr(betti, "config_betti_series", bumped(betti.config_betti_series, series_cell))
    if permutations is not None:
        monkeypatch.setattr(graded_algebra, "MAX_PERMUTATIONS", permutations)
    code, summary = assert_reply_is_the_row_dicts_text(grid)
    assert code == cli.EXIT_INVARIANT and summary["mismatches"] != "0"
    assert (summary["skipped"] != "0") == (permutations is not None)
