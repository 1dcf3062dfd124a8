"""Material and tool databases: defaults, schema checks, lookup, merging."""
import json

import pytest

from conftest import INT_DIGIT_LIMIT, needs_digit_limit
from punchplan.resources import (
    DEFAULT_KD,
    DuplicateName,
    MaterialSpec,
    NotFound,
    ResourceError,
    ResourceSchemaError,
    ToolSpec,
    builtin_materials,
    builtin_tools,
    load_materials,
    load_tools,
    lookup,
    merge,
)

# Golden worked-example rows: (t, TLIIEs, TLCIEs, TLCEEs, Fs, Fd).
WORKED_ROWS = [
    (2, 130.0, 30.0, 0.0, 26000.0, 4200.0),
    (2, 0.0, 62.83, 0.0, 0.0, 8800.0),
    (2, 50.0, 71.0, 0.0, 10000.0, 9940.0),
    (2, 100.0, 60.0, 0.0, 20000.0, 8400.0),
]


def test_builtin_material_values():
    mat = lookup(builtin_materials(), "low_carbon_steel", "material")
    assert mat.shear_stress == 100.0
    assert mat.yield_stress == 210.0


def test_builtin_tool_kd_back_fits_worked_examples():
    tool = lookup(builtin_tools(), "punching_press", "tool")
    assert tool.force_coefficient == pytest.approx(1.0 / 3.0)
    assert tool.max_force == 0.0
    ys = 210.0
    for t, _tliie, tlcie, tlcee, _fs, fd in WORKED_ROWS:
        implied = fd / (ys * t * (tlcie + tlcee))
        # The tabulated row with the rounded circle length is ~0.4% off 1/3.
        assert implied == pytest.approx(DEFAULT_KD, rel=5e-3)


def test_load_materials_and_override_merge():
    text = json.dumps({"materials": [
        {"name": "Steel", "shear_stress": 120, "yield_stress": 250},
        {"name": "low_carbon_steel", "shear_stress": 90, "yield_stress": 200},
    ]})
    user = load_materials(text)
    merged = merge(builtin_materials(), user)
    assert merged["steel"].shear_stress == 120.0
    assert merged["low_carbon_steel"].shear_stress == 90.0  # user wins
    assert merge(merged, user) == merged  # idempotent


def test_duplicate_material_name():
    text = json.dumps({"materials": [
        {"name": "x", "shear_stress": 1, "yield_stress": 1},
        {"name": "X", "shear_stress": 2, "yield_stress": 2},
    ]})
    with pytest.raises(DuplicateName):
        load_materials(text)


def test_negative_shear_stress_rejected():
    text = json.dumps({"materials": [{"name": "bad", "shear_stress": -5, "yield_stress": 1}]})
    with pytest.raises(ResourceSchemaError) as exc:
        load_materials(text)
    assert "shear_stress" in exc.value.path
    assert "> 0" in exc.value.reason


def test_tool_missing_kd_rejected():
    text = json.dumps({"tools": [{"name": "press", "max_force": 100}]})
    with pytest.raises(ResourceSchemaError) as exc:
        load_tools(text)
    assert exc.value.path.endswith("force_coefficient")


def test_tool_max_force_stored():
    tools = load_tools(json.dumps({"tools": [
        {"name": "small_press", "force_coefficient": 0.5, "max_force": 50000},
    ]}))
    assert tools["small_press"].max_force == 50000.0


def test_lookup_case_insensitive():
    db = builtin_materials()
    assert lookup(db, "Low_Carbon_Steel", "material").name == "low_carbon_steel"


def test_lookup_suggestions_edit_distance():
    db = merge(builtin_materials(), load_materials(json.dumps(
        {"materials": [{"name": "steel", "shear_stress": 1, "yield_stress": 1}]}
    )))
    with pytest.raises(NotFound) as exc:
        lookup(db, "stele", "material")
    assert "steel" in exc.value.suggestions
    with pytest.raises(NotFound) as exc:
        lookup(db, "completely_else", "material")
    assert exc.value.suggestions == []


def test_not_json_rejected():
    with pytest.raises(ResourceSchemaError):
        load_materials("not json at all")
    with pytest.raises(ResourceSchemaError):
        load_tools(json.dumps({"nope": []}))


# Every check of the two database loaders, one malformed document each, in
# the order the loaders apply them: the exception class and full message.
MATERIAL = {"name": '"m"', "shear_stress": "100", "yield_stress": "200"}
TOOL = {"name": '"p"', "force_coefficient": "0.5"}
NUMBERS = {"shear_stress": MATERIAL, "yield_stress": MATERIAL,
           "force_coefficient": TOOL, "max_force": TOOL}
HUGE_INT = "1" + "0" * 400
LIMIT_DIGITS = "1" * (INT_DIGIT_LIMIT + 1)


def _entry(base: dict, **edits) -> str:
    """An entry's JSON text: ``base`` with fields replaced (raw JSON) or dropped (None)."""
    fields = {**base, **edits}
    return "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items() if v is not None) + "}"


def _doc(key: str, *entries: str) -> str:
    return f'{{"{key}": [{", ".join(entries)}]}}'


def _int_limit_message(digits: str) -> str:
    """What int() says of ``digits``; empty if it converts them."""
    try:
        int(digits)
    except ValueError as exc:
        return str(exc)
    return ""


LOADERS = {"materials": load_materials, "tools": load_tools}
LOADER_CASES = {
    "invalid-json": ("materials", "not json", ResourceSchemaError,
                     "/: not valid JSON: Expecting value: line 1 column 1 (char 0)"),
    "truncated-json": ("tools", '{"tools": [', ResourceSchemaError,
                       "/: not valid JSON: Expecting value: line 1 column 12 (char 11)"),
    "nested-too-deeply": ("materials", "[" * 100_000, ResourceSchemaError,
                          "/: not valid JSON: nested too deeply"),
    "int-past-digit-limit": pytest.param("materials",
                                         _doc("materials", _entry(MATERIAL, shear_stress=LIMIT_DIGITS)),
                                         ResourceSchemaError,
                                         f"/: not valid JSON: {_int_limit_message(LIMIT_DIGITS)}",
                                         marks=needs_digit_limit),
    "top-level-list": ("materials", "[]", ResourceSchemaError, "/materials: missing required key"),
    "top-level-string": ("tools", '"tools"', ResourceSchemaError, "/tools: missing required key"),
    "missing-list-key": ("materials", '{"tools": []}', ResourceSchemaError,
                         "/materials: missing required key"),
    "list-key-object": ("tools", '{"tools": {}}', ResourceSchemaError, "/tools: expected a list"),
    "list-key-null": ("materials", '{"materials": null}', ResourceSchemaError,
                      "/materials: expected a list"),
    "entry-number": ("materials", _doc("materials", "1"), ResourceSchemaError,
                     "/materials/0: expected an object"),
    "second-entry-list": ("tools", _doc("tools", _entry(TOOL), "[]"), ResourceSchemaError,
                          "/tools/1: expected an object"),
    "name-missing": ("materials", _doc("materials", _entry(MATERIAL, name=None)),
                     ResourceSchemaError, "/materials/0/name: expected a non-empty string"),
    "name-empty": ("tools", _doc("tools", _entry(TOOL, name='""')), ResourceSchemaError,
                   "/tools/0/name: expected a non-empty string"),
    "name-blank": ("materials", _doc("materials", _entry(MATERIAL, name='" \\t "')),
                   ResourceSchemaError, "/materials/0/name: expected a non-empty string"),
    "name-number": ("tools", _doc("tools", _entry(TOOL, name="5")), ResourceSchemaError,
                    "/tools/0/name: expected a non-empty string"),
    "name-before-keys": ("materials", _doc("materials", '{"name": null}'), ResourceSchemaError,
                         "/materials/0/name: expected a non-empty string"),
    "duplicate-material": ("materials",
                           _doc("materials", _entry(MATERIAL, name='"Steel"'),
                                _entry(MATERIAL, name='" steel "')),
                           DuplicateName, "name 'steel' defined more than once"),
    "duplicate-before-keys": ("tools", _doc("tools", _entry(TOOL, name='"P"'), '{"name": "p"}'),
                              DuplicateName, "name 'p' defined more than once"),
    "missing-shear-stress": ("materials", _doc("materials", _entry(MATERIAL, shear_stress=None)),
                             ResourceSchemaError, "/materials/0/shear_stress: missing required key"),
    "missing-yield-stress": ("materials", _doc("materials", _entry(MATERIAL, yield_stress=None)),
                             ResourceSchemaError, "/materials/0/yield_stress: missing required key"),
    "missing-both-stresses": ("materials", _doc("materials", '{"name": "m"}'), ResourceSchemaError,
                              "/materials/0/shear_stress: missing required key"),
    "missing-force-coefficient": ("tools", _doc("tools", _entry(TOOL, force_coefficient=None)),
                                  ResourceSchemaError,
                                  "/tools/0/force_coefficient: missing required key"),
    "missing-key-before-kind": ("tools", _doc("tools", '{"name": "p", "kind": 3}'),
                                ResourceSchemaError,
                                "/tools/0/force_coefficient: missing required key"),
    "missing-key-before-numbers": ("materials", _doc("materials", '{"name": "m", "shear_stress": "x"}'),
                                   ResourceSchemaError,
                                   "/materials/0/yield_stress: missing required key"),
    "kind-number": ("tools", _doc("tools", _entry(TOOL, kind="3")), ResourceSchemaError,
                    "/tools/0/kind: expected a string"),
    "kind-null": ("tools", _doc("tools", _entry(TOOL, kind="null")), ResourceSchemaError,
                  "/tools/0/kind: expected a string"),
    "kind-before-numbers": ("tools", _doc("tools", _entry(TOOL, kind="[]", force_coefficient="0")),
                            ResourceSchemaError, "/tools/0/kind: expected a string"),
    "shear-before-yield": ("materials",
                           _doc("materials", _entry(MATERIAL, shear_stress="0", yield_stress='"y"')),
                           ResourceSchemaError, "/materials/0/shear_stress: must be > 0, got 0"),
    "coefficient-before-max-force": ("tools",
                                     _doc("tools", _entry(TOOL, force_coefficient="-1",
                                                          max_force='"big"')),
                                     ResourceSchemaError,
                                     "/tools/0/force_coefficient: must be > 0, got -1"),
    "shear-stress-zero": ("materials", _doc("materials", _entry(MATERIAL, shear_stress="0")),
                          ResourceSchemaError, "/materials/0/shear_stress: must be > 0, got 0"),
    "yield-stress-negative": ("materials", _doc("materials", _entry(MATERIAL, yield_stress="-2.5")),
                              ResourceSchemaError, "/materials/0/yield_stress: must be > 0, got -2.5"),
    "yield-stress-zero-float": ("materials", _doc("materials", _entry(MATERIAL, yield_stress="0.0")),
                                ResourceSchemaError,
                                "/materials/0/yield_stress: must be > 0, got 0.0"),
    "force-coefficient-zero": ("tools", _doc("tools", _entry(TOOL, force_coefficient="0")),
                               ResourceSchemaError, "/tools/0/force_coefficient: must be > 0, got 0"),
    "force-coefficient-negative": ("tools", _doc("tools", _entry(TOOL, force_coefficient="-0.5")),
                                   ResourceSchemaError,
                                   "/tools/0/force_coefficient: must be > 0, got -0.5"),
    "max-force-negative": ("tools", _doc("tools", _entry(TOOL, max_force="-1")), ResourceSchemaError,
                           "/tools/0/max_force: must be >= 0, got -1"),
    "max-force-negative-float": ("tools", _doc("tools", _entry(TOOL, max_force="-1e-300")),
                                 ResourceSchemaError,
                                 "/tools/0/max_force: must be >= 0, got -1e-300"),
}
for _field, _base in NUMBERS.items():
    _key = "materials" if _base is MATERIAL else "tools"
    for _label, _raw, _shown in (("string", '"1"', "'1'"), ("bool", "true", "True"),
                                 ("1e999", "1e999", "inf"), ("-1e999", "-1e999", "-inf")):
        LOADER_CASES[f"{_field}-{_label}"] = (
            _key, _doc(_key, _entry(_base, **{_field: _raw})), ResourceSchemaError,
            f"/{_key}/0/{_field}: expected a finite number, got {_shown}")
    LOADER_CASES[f"{_field}-huge-int"] = (
        _key, _doc(_key, _entry(_base, **{_field: HUGE_INT})), ResourceSchemaError,
        f"/{_key}/0/{_field}: expected a finite number, got an integer too large for a float")


@pytest.mark.parametrize("key, text, error, message", LOADER_CASES.values(), ids=LOADER_CASES.keys())
def test_loader_error_message_pinned(key, text, error, message):
    with pytest.raises(ResourceError) as exc:
        LOADERS[key](text)
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_loaders_store_floats_and_defaults():
    mats = load_materials(_doc("materials", _entry(MATERIAL, name='" Mild Steel "')))
    assert mats == {"mild steel": MaterialSpec("mild steel", 100.0, 200.0)}
    assert type(mats["mild steel"].shear_stress) is float
    tools = load_tools(_doc("tools", _entry(TOOL), _entry(TOOL, name='"Q"', kind='"brake"',
                                                          max_force="0", force_coefficient="2")))
    assert tools == {"p": ToolSpec("p", "punching_press", 0.5, 0.0),
                     "q": ToolSpec("q", "brake", 2.0, 0.0)}
    assert type(tools["q"].max_force) is float and type(tools["q"].force_coefficient) is float
    assert load_materials('{"materials": []}') == {} == load_tools('{"tools": [], "x": 1}')
