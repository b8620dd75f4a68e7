"""The reply writer cli._dumps against its oracle, json.dumps(obj, indent=2)."""

import argparse
import json
import math
import tracemalloc
from contextlib import contextmanager, redirect_stderr
from io import StringIO

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammahodge import cli

# characters that JSON text gives a meaning to, escapes, control and non-ASCII text
TRICKY = '[]{},: "\\\n\r\t\x00\x1f\x7fé €\U0001f600'

texts = st.text(alphabet=st.sampled_from(TRICKY) | st.characters(), max_size=12)
floats = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e300])
integers = st.integers() | st.integers(min_value=-2**200, max_value=2**200)
scalars = st.none() | st.booleans() | integers | floats | texts
keys = texts | integers | floats | st.booleans() | st.none()


def containers(children):
    return (st.lists(children, max_size=5)
            | st.lists(children, max_size=5).map(tuple)
            | st.dictionaries(keys, children, max_size=5))


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
    """The writer as on interpreters without _json: each level's encoder is a JSONEncoder."""
    saved = cli.c_make_encoder, cli._LEVELS
    cli.c_make_encoder, cli._LEVELS = None, {}
    try:
        yield
    finally:
        cli.c_make_encoder, cli._LEVELS = saved


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
    {1: "int", 2.5: "float", True: "bool", None: "none", "s": "str"},
])
def test_writer_matches_json_dumps_on_edge_cases(obj):
    assert_same_text(obj)


@pytest.mark.parametrize("obj", [
    [1, object()], {"a": {1, 2}}, {"a": [1, {"b": b"bytes"}]}, {(1, 2): "tuple key"}, [{"a": 1j}],
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


class Row(dict):
    """A dict subclass, which json.dumps writes as a dict."""


# texts near the row joint "}" + separator + "{" that a batch of rows replaces
ROW_TEXTS = ["}", "{", "},", '"}, {"', "},\n  {", ""]
row_texts = st.text(alphabet=st.sampled_from(TRICKY), max_size=6) | st.sampled_from(ROW_TEXTS)
row_scalars = st.none() | st.booleans() | st.integers() | row_texts


@st.composite
def row_lists(draw):
    """1-300 non-empty dicts, so that batches of rows split at every offset.

    The rows are drawn from a pool of dicts and dict subclasses, and their
    nested children from a pool that the rows share, as the rows of an
    algebra-check reply share one space or Betti vector.
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


@pytest.mark.parametrize("obj", [
    {"rows": [{"a": cli._MARKER, "space": [1, 2]}]},
    {"rows": [{cli._MARKER: "1", "space": [1, 2]}]},
    {"rows": [{"a": "0", "space": [1]}] * 70 + [{"a": cli._MARKER, "space": [1]}]},
    [{"a": cli._MARKER}, {"b": "2"}],
    {"a": cli._MARKER, "b": [1, {"c": [cli._MARKER]}]},
    {cli._MARKER: [1], "b": {cli._MARKER: {}}},
    [cli._MARKER, cli._MARKER + "+", cli._MARKER + "++", [2]],
    [{"a": 'x"' + cli._MARKER, "b": [3]}],
    [[cli._MARKER], {'"' + cli._MARKER + '"': []}],
])
def test_a_payload_string_or_key_equal_to_the_marker_gives_the_same_text(obj):
    assert_same_text(obj)
    with without_c_encoder():
        assert_same_text(obj)


def test_writer_peak_memory_on_the_default_grid_is_near_the_reply_length():
    # a rendering copied at every level, or a level's whole text held twice, reads 3x or more
    with redirect_stderr(StringIO()):
        payload, _ = cli.cmd_algebra_check(argparse.Namespace(grid=None))
    cli._dumps(payload)  # build every level's encoder before tracing
    tracemalloc.start()
    try:
        text = cli._dumps(payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * len(text)
