"""The JSON loader gives one outcome per document, whatever the layout of its text.

Every writer of the format writes the members ``name``, ``vertices``,
``edges``, ``loops`` and ``faces`` in that order. The same document with its
members in another order, with other members, with repeated or escaped keys,
or as bytes, must load to the same Solid, bit for bit and in map order, or
fail with the same SchemaError. Where a text is not JSON, the JSON error wins
over any schema error; at the recursion limit, nesting under a key the
loader ignores must be refused at the same depth in every layout. A text in
the writers' layout is read one member at a time, without ``json.loads``.
"""
import dataclasses
import json
import random

import pytest

import inputs
import modelzoo
from conftest import FIXTURE_DIR, INT_DIGIT_LIMIT
from punchplan import brep

MEMBERS = ("name", "vertices", "edges", "loops", "faces")


def _bits(value):
    """``value`` with each float as its ``float.hex`` and each record as its type and fields."""
    if type(value) is float:
        return value.hex()
    if dataclasses.is_dataclass(value):
        return (type(value).__name__, *(_bits(getattr(value, f.name)) for f in dataclasses.fields(value)))
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return value


def _outcome(text, default_name: str = "stem") -> tuple:
    """The Solid the loader builds from ``text``, every field in map order, or its SchemaError."""
    try:
        solid = brep.load_brep_json(text, default_name)
    except brep.SchemaError as exc:
        return "SchemaError", str(exc)
    maps = (solid.vertices, solid.edges, solid.loops, solid.faces, solid.edge_uses)
    return solid.name, *([(k, _bits(v)) for k, v in m.items()] for m in maps)


def _text(members: list[tuple[str, str]], blank: str = "") -> str:
    """An object text of ``(key text, value text)`` members, in that order."""
    return "{" + f",{blank}".join(f'{key}:{blank}{value}' for key, value in members) + "}"


def _members(doc: dict) -> list[tuple[str, str]]:
    return [(json.dumps(key), json.dumps(value)) for key, value in doc.items()]


def _reordered(doc: dict) -> str:
    """``doc``'s text with its members in reverse order."""
    return json.dumps(dict(reversed(doc.items())))


def _fixture(name: str) -> dict:
    return json.loads((FIXTURE_DIR / name).read_text(encoding="utf-8"))


DOCS = {
    **{path.stem: json.loads(path.read_text(encoding="utf-8"))
       for path in sorted(FIXTURE_DIR.glob("*.json"))},
    "grid_k03": inputs.grid_sheet(random.Random(7), 3, "grid_k03")[0],
    **{f"random{seed}": modelzoo.random_sheet(random.Random(seed), name=f"random{seed}")[0]
       for seed in range(4)},
}


@pytest.mark.parametrize("name", DOCS)
def test_a_document_loads_alike_in_the_writers_layout_and_in_any_other(name):
    doc = DOCS[name]
    assert tuple(doc) == MEMBERS
    want = _outcome(_reordered(doc))
    assert want[0] == doc["name"]
    assert _outcome(json.dumps(doc)) == want
    assert _outcome(json.dumps(doc, indent=1)) == want
    assert _outcome(_text(_members(doc), blank=" \t\r\n")) == want
    for wrap in (bytes, bytearray):
        assert _outcome(wrap(json.dumps(doc).encode())) == want


@pytest.mark.parametrize("name", DOCS)
def test_the_writers_layout_is_read_without_json_loads(name, monkeypatch):
    doc = DOCS[name]
    want = _outcome(_reordered(doc))

    def refuse(*args, **kwargs):
        raise AssertionError("json.loads called")

    monkeypatch.setattr(json, "loads", refuse)
    assert _outcome(json.dumps(doc)) == want
    assert _outcome(json.dumps(doc, indent=1)) == want
    with pytest.raises(AssertionError, match="json.loads called"):
        brep.load_brep_json(_reordered(doc))


def _flat(**changes) -> dict:
    return dict(_fixture("flat_sheet_100x80x2.json"), **changes)


def _layouts():
    """``(id, text, the text of the same document in another layout)``."""
    doc = _flat()
    members = _members(doc)
    reference = _reordered(doc)
    name, rest = members[0], members[1:]
    yield "extra member first", _text([('"units"', '"mm"'), *members]), reference
    yield "extra member between", _text([name, ('"units"', '"mm"'), *rest]), reference
    yield "extra member last", _text([*members, ('"units"', '[{"a": 1}]')]), reference
    yield "repeated name", _text([("\"name\"", '"first"'), *members]), reference
    yield "repeated section", _text([name, ('"vertices"', "[]"), *rest]), reference
    yield "repeated last section", _text([*members, ('"faces"', json.dumps(doc["faces"]))]), reference
    yield "escaped name key", _text([('"n\\u0061me"', name[1]), *rest]), reference
    yield "escaped section key", _text([name, ('"vertic\\u0065s"', rest[0][1]), *rest[1:]]), reference
    yield "blanks around", f" \n\t{json.dumps(doc)}\r\n ", reference
    yield "name with colons and brackets", json.dumps(_flat(name="a:{[b]}")), _reordered(_flat(name="a:{[b]}"))
    unnamed = {k: v for k, v in doc.items() if k != "name"}
    yield "missing name", json.dumps(unnamed), _reordered(unnamed)
    for kind in ("empty", "integer"):
        named = _flat(name="" if kind == "empty" else 7)
        yield f"{kind} name", json.dumps(named), _reordered(named)
    noted = _flat(vertices=[dict(v, note={"a": [1, {"b": ":"}]}) for v in doc["vertices"]])
    yield "ignored keys in elements", json.dumps(noted), _reordered(noted)
    escaped = json.dumps(doc).replace('"kind": "line"', '"kind": "l\\u0069ne"')
    yield "escaped curve kind", escaped, reference
    yield "BOM", "\ufeff" + json.dumps(doc), None
    yield "trailing data", json.dumps(doc) + " x", None
    yield "second object", json.dumps(doc) + "{}", None
    yield "missing close", json.dumps(doc)[:-1], None
    yield "top level array", json.dumps([doc]), None
    yield "empty text", "", None


LAYOUTS = list(_layouts())


@pytest.mark.parametrize("text, reference", [case[1:] for case in LAYOUTS], ids=[case[0] for case in LAYOUTS])
def test_other_layouts_give_the_outcome_of_the_document(text, reference):
    got = _outcome(text)
    if reference is not None:
        assert got == _outcome(reference)
        return
    try:
        json.loads(text)
    except ValueError as exc:
        assert got == ("SchemaError", f"/: not valid JSON: {exc}")
    else:
        assert got == ("SchemaError", "/: top level must be an object")


def test_a_bytes_text_with_a_bom_loads_as_json_loads_reads_it():
    doc = _flat()
    text = "\ufeff" + json.dumps(doc)
    assert _outcome(text.encode("utf-8")) == _outcome(_reordered(doc))
    assert _outcome(text)[0] == "SchemaError"


def test_a_syntax_error_in_the_last_section_wins_over_a_schema_error_in_the_first():
    doc = _flat()
    doc["vertices"][0]["x"] = "left"
    text = json.dumps(doc)
    assert text.endswith("}]}")
    bad = text[:-3] + "},]}"
    with pytest.raises(json.JSONDecodeError) as exc:
        json.loads(bad)
    assert _outcome(bad) == ("SchemaError", f"/: not valid JSON: {exc.value}")
    assert _outcome(text) == ("SchemaError", "/vertices/0/x: expected number, got str")


def test_a_name_that_is_not_a_string_wins_over_a_section_error_when_written_last():
    doc = _flat(name=["part"])
    doc["vertices"][0]["x"] = "left"
    assert _outcome(_reordered(doc)) == ("SchemaError", "/name: expected string")
    assert _outcome(json.dumps(doc)) == ("SchemaError", "/name: expected string")


def test_an_integer_past_the_digit_limit_is_refused_as_json_loads_refuses_it():
    doc = _flat()
    text = json.dumps(doc).replace('"x": 100.0', '"x": 1' + "0" * max(INT_DIGIT_LIMIT, 4300), 1)
    got = _outcome(text)
    if INT_DIGIT_LIMIT:
        assert got[0] == "SchemaError" and got[1].startswith("/: not valid JSON: Exceeds the limit")
    else:
        assert got == ("SchemaError", "/vertices/1/x: number must be finite")


def _nested(doc: dict, depth: int, opener: str) -> str:
    """``doc``'s text with ``depth`` levels of nesting under an ignored key of its last face."""
    inner = {"[": ("[" * depth, "]" * depth), "{": ('{"a":' * depth + "0", "}" * depth)}[opener]
    return json.dumps(doc).replace('"@"', "".join(inner))


@pytest.mark.parametrize("opener", ["[", "{"], ids=["arrays", "objects"])
def test_nesting_under_an_ignored_key_is_refused_at_the_same_depth_in_every_layout(opener):
    doc = _flat()
    doc["faces"] = [*doc["faces"][:-1], dict(doc["faces"][-1], note="@")]
    other = dict(reversed(doc.items()))
    lo, hi = 1, 1
    while _outcome(_nested(other, hi, opener))[0] != "SchemaError":
        lo, hi = hi, hi * 2
    while lo < hi:  # the least depth refused in the other layout
        mid = (lo + hi) // 2
        if _outcome(_nested(other, mid, opener))[0] == "SchemaError":
            hi = mid
        else:
            lo = mid + 1
    refused = ("SchemaError", "/: not valid JSON: nested too deeply")
    assert _outcome(_nested(other, lo, opener)) == refused
    for depth in range(lo - 3, lo + 4):
        assert _outcome(_nested(doc, depth, opener)) == _outcome(_nested(other, depth, opener)), depth
