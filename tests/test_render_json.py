"""``report.render_json`` writes the bytes of ``json.dumps(x, indent=2)`` and a newline."""
import enum
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from punchplan.report import render_json

EDGE_STRINGS = ["", "\"", "\\", "\x00", "\x1f", "\x7f", " ", "é", "\U0001f600",
                "\ud800", "a\"b\\c\nd\te"]
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
               1.7976931348623157e308, 0.1, 1e16, 1e-7, math.nan, math.inf, -math.inf]

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-10**40, max_value=10**40)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(EDGE_FLOATS)
    | st.text()
    | st.sampled_from(EDGE_STRINGS)
)
keys = st.text() | st.sampled_from(EDGE_STRINGS)
trees = st.recursive(
    scalars,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=3).map(tuple)
                      | st.dictionaries(keys, children, max_size=4)),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(trees)
def test_render_json_matches_json_dumps(x):
    assert render_json(x) == json.dumps(x, indent=2) + "\n"


class _Kind(enum.IntEnum):
    TWO = 2


class _Name(str):
    pass


class _Length(float):
    pass


@pytest.mark.parametrize("x", [
    {}, [], (), {"a": {}, "b": [[]], "c": [{}]},
    {"kind": _Kind.TWO, "name": _Name("é"), "t": _Length(2.5), _Name("k"): [_Length(-0.0)]},
    [True, False, None, 0, -1, 10**400],
    [math.nan, math.inf, -math.inf], {"nan": math.nan, "inf": math.inf, "-inf": -math.inf},
], ids=["empty-dict", "empty-list", "empty-tuple", "nested-empties", "subclasses", "plain",
        "non-finite-items", "non-finite-values"])
def test_render_json_matches_json_dumps_on_examples(x):
    assert render_json(x) == json.dumps(x, indent=2) + "\n"


@pytest.mark.parametrize("x", [
    {1, 2}, object(), b"bytes", 1j, {"a": [1, {"b": frozenset()}]}, [bytearray(b"x")],
], ids=["set", "object", "bytes", "complex", "nested-frozenset", "nested-bytearray"])
def test_render_json_rejects_what_json_dumps_rejects(x):
    with pytest.raises(TypeError):
        json.dumps(x, indent=2)
    with pytest.raises(TypeError):
        render_json(x)


def test_render_json_takes_only_string_keys():
    with pytest.raises(TypeError):
        render_json({1: "one"})
