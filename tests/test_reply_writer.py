"""The reply writer cli._dumps against its oracle, json.dumps(obj, indent=2)."""

import json
import math

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
    # interpreters without _json build each level's encoder from JSONEncoder instead
    saved = cli.c_make_encoder, cli._LEVELS
    cli.c_make_encoder, cli._LEVELS = None, {}
    try:
        assert_same_text(obj)
    finally:
        cli.c_make_encoder, cli._LEVELS = saved
