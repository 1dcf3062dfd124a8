"""Command-line behaviour: output shapes, exit codes, determinism."""
import json
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import modelzoo
import punchplan
from conftest import INT_DIGIT_LIMIT, fixture_path, needs_digit_limit
from punchplan import cli
from punchplan.cli import main
from punchplan.report import CSV_HEADER
from test_step_parser import INCH_UNIT, INCH_WARNING

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import stepwriter  # noqa: E402


def write_doc(tmp_path: Path, doc: dict, name: str) -> Path:
    p = tmp_path / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return p


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# inspect
# ---------------------------------------------------------------------------

def test_inspect_valid_step(capsys):
    code, out, _ = run(capsys, "inspect", str(fixture_path("flat_sheet_100x80x2.step")))
    assert code == 0
    assert "thickness: 2 mm" in out
    assert "manifold: OK" in out
    assert "reference face:" in out


def test_inspect_truncated_step(capsys, tmp_path):
    bad = tmp_path / "broken.step"
    bad.write_text("ISO-10303-21;\nHEADER;\nENDSEC;\nDATA;\n#1=CARTESIAN_POINT('',(0.,0.,0.)")
    code, _, err = run(capsys, "inspect", str(bad))
    assert code == 2
    assert "line" in err


def test_inspect_open_shell_json(capsys, tmp_path):
    doc = modelzoo.box_doc()
    doc["faces"] = doc["faces"][:-1]
    path = write_doc(tmp_path, doc, "open.json")
    code, out, err = run(capsys, "inspect", str(path))
    assert code == 3
    assert "non_manifold_edge" in out
    assert re.fullmatch(r"error: model is not a closed manifold: [^\n]*\n", err)


@pytest.mark.parametrize("command", ["inspect", "features", "params"])
def test_arc_starting_on_its_centre_exits_3(capsys, tmp_path, command):
    # Arc edge 11 of the L-bend starts at vertex 2; move that vertex onto the
    # arc's circle centre, where no sweep angle can be measured.
    doc = json.loads(fixture_path("l_bend.json").read_text(encoding="utf-8"))
    arc = next(e for e in doc["edges"] if e["id"] == 11)
    start = next(v for v in doc["vertices"] if v["id"] == arc["start"])
    start["x"], start["y"], start["z"] = arc["curve"]["center"]
    path = write_doc(tmp_path, doc, "arc_on_centre.json")
    code, out, err = run(capsys, command, str(path))
    assert code == 3
    assert out == ""
    assert err.startswith("error: ")
    if command == "inspect":
        assert err == "error: arc start point coincides with the circle center\n"


def _hole_sheet_on_centres() -> dict:
    """A hole of radius 5e-7 whose two full circles start on their centres:
    within TOL of each circle, so the manifold checks pass, but no arc frame
    can be measured there."""
    doc = modelzoo.hole_sheet_doc(r=5e-7)
    for edge in doc["edges"]:
        if edge["curve"]["kind"] == "circle":
            vertex = next(v for v in doc["vertices"] if v["id"] == edge["start"])
            vertex["x"], vertex["y"], vertex["z"] = edge["curve"]["center"]
    return doc


@pytest.mark.parametrize("suffix", ["json", "step"])
@pytest.mark.parametrize("command", ["inspect", "features", "params"])
def test_full_circle_starting_on_its_centre_exits_3(capsys, tmp_path, command, suffix):
    doc = _hole_sheet_on_centres()
    path = tmp_path / f"on_centre.{suffix}"
    path.write_text(json.dumps(doc) if suffix == "json" else stepwriter.write_step(doc)[0],
                    encoding="utf-8")
    assert run(capsys, command, str(path)) == (
        3, "", "error: arc start point coincides with the circle center\n")


def test_inspect_measures_cylinder_faces_before_the_manifold_check(capsys, tmp_path):
    # The hole's circles start on their centres and only its cylinder face
    # bounds them: the planar faces around the hole are gone, so the solid is
    # open, but inspect measures every face first, as it does a planar one.
    doc = modelzoo.hole_sheet_doc()
    circles = {e["id"]: e for e in doc["edges"] if e["curve"]["kind"] == "circle"}
    for edge in circles.values():
        vertex = next(v for v in doc["vertices"] if v["id"] == edge["start"])
        vertex["x"], vertex["y"], vertex["z"] = edge["curve"]["center"]
    hole_loops = {loop["id"] for loop in doc["loops"]
                  if any(o["edge"] in circles for o in loop["oriented_edges"])}
    doc["faces"] = [f for f in doc["faces"] if f["surface"]["kind"] == "cylinder"
                    or not any(b["loop"] in hole_loops for b in f["bounds"])]
    path = write_doc(tmp_path, doc, "open_hole_on_centres.json")
    assert run(capsys, "inspect", str(path)) == (
        3, "", "error: arc start point coincides with the circle center\n")


def test_inspect_lists_cylinder_faces_without_area_or_normal(capsys):
    code, out, err = run(capsys, "inspect", str(fixture_path("l_bend.json")))
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[lines.index("  id    kind      area_mm2      outward_normal") + 3:][:3] == [
        "  3     plane     80            (-1,0,0)",
        "  4     cylinder  -             -",
        "  5     cylinder  -             -",
    ]


SI_METRE_WARNINGS = [
    "warning: entity #9001: SI_UNIT declares a non-millimetre length unit"
    " (coordinates are read as millimetres regardless)",
    "warning: ignored 1 SI_UNIT entities",
]


@pytest.mark.parametrize("old, new, last_finding, error", [
    ("#132=", "#132=", "reference face: 75 (area 8000 mm2, opposite face 86)", None),
    ("#75=ADVANCED_FACE('',(#74),#68,.T.);", "#75=ADVANCED_FACE('',(#74),#68,.F.);",
     "sheet metrics: unavailable (no planar face anti-parallel to face 75 at distance 80.0)",
     "no planar face anti-parallel to face 75 at distance 80.0"),
    ("(#75,#86,#97,#108,#119,#130)", "(#75,#86,#97,#108,#119)",
     "  non_manifold_edge: edge 64 used by 1 face loops (faces [119])",
     "model is not a closed manifold: 4 violation(s), first non_manifold_edge: "
     "edge 32 used by 1 face loops (faces [75])"),
], ids=["passes", "no-sheet-metrics", "not-manifold"])
def test_inspect_lists_the_warnings_whatever_the_outcome(capsys, tmp_path, old, new,
                                                         last_finding, error):
    path = _step_fixture_with(tmp_path, "#132=", "#9001=SI_UNIT($,.METRE.);\n#132=")
    path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
    code, out, err = run(capsys, "inspect", str(path))
    assert (code, err) == ((3, f"error: {error}\n") if error else (0, ""))
    assert out.splitlines()[-3:] == [last_finding] + SI_METRE_WARNINGS


@pytest.mark.parametrize("fixture, fmt, suffix", [
    ("flat_sheet_100x80x2.step", "step", ".txt"),
    ("row4_bridge.json", "brep-json", ".dat"),
])
@pytest.mark.parametrize("command", ["params", "inspect", "features"])
def test_input_format_reads_a_file_of_any_extension(capsys, tmp_path, command, fixture, fmt,
                                                    suffix):
    copy = tmp_path / (Path(fixture).stem + suffix)
    copy.write_bytes(fixture_path(fixture).read_bytes())
    expected = run(capsys, command, str(fixture_path(fixture)))
    assert expected[0] == 0
    assert run(capsys, command, str(copy), "--input-format", fmt) == expected


@pytest.mark.parametrize("command", ["params", "inspect", "features"])
def test_unknown_extension_without_input_format_exits_2(capsys, tmp_path, command):
    copy = tmp_path / "sheet.txt"
    copy.write_bytes(fixture_path("flat_sheet_100x80x2.step").read_bytes())
    assert run(capsys, command, str(copy)) == (
        2, "", f"error: {copy}: cannot infer input format from extension '.txt'; "
               "use --input-format\n")


# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------

def test_features_hole_fixture(capsys):
    code, out, _ = run(capsys, "features", str(fixture_path("hole_sheet_r10.json")))
    assert code == 0
    assert "kind=cut" in out
    assert "62.831853" in out


def test_features_bridge_fixture(capsys):
    code, out, _ = run(capsys, "features", str(fixture_path("row4_bridge.json")))
    assert code == 0
    assert "kind=mixed" in out
    assert "h=10" in out
    assert "TLIIEs=100.000000" in out
    assert "TLCIEs=60.000000" in out


def test_features_flat_sheet(capsys):
    code, out, _ = run(capsys, "features", str(fixture_path("flat_sheet_100x80x2.json")))
    assert code == 0
    assert "no features" in out


@pytest.mark.parametrize("value", ["0", "-2.5"])
def test_features_rejects_nonpositive_cut_height(capsys, value):
    code, out, err = run(capsys, "features", str(fixture_path("hole_sheet_r10.json")),
                         "--cut-height", value)
    assert (code, out, err) == (4, "", "error: --cut-height must be > 0\n")


def test_features_orders_edges_by_id(capsys):
    code, out, _ = run(capsys, "features", str(fixture_path("row4_bridge.json")))
    ids = [int(line.split()[2]) for line in out.splitlines() if line.startswith("  ") and " edge " in line]
    assert ids == sorted(ids)


def test_features_lists_the_loader_warnings(capsys, tmp_path):
    path = _step_fixture_with(tmp_path, "#132=", "#9001=SI_UNIT($,.METRE.);\n#132=")
    assert run(capsys, "features", str(path)) == (0, "\n".join([
        "part: flat_sheet_100x80x2",
        "thickness: 2 mm   reference face: 75",
        "no features",
        "part-level edges: 4 IEE (total length 360.000000)",
        *SI_METRE_WARNINGS,
    ]) + "\n", "")


# ---------------------------------------------------------------------------
# params
# ---------------------------------------------------------------------------

def test_params_bridge_json(capsys):
    code, out, _ = run(capsys, "params", str(fixture_path("row4_bridge.json")))
    assert code == 0
    doc = json.loads(out)
    block = doc["features"][0]
    assert block["params"]["Fs"] == pytest.approx(20000.0)
    assert block["params"]["Fd"] == pytest.approx(8400.0)
    assert block["params"]["Fh"] == pytest.approx(4000.0)
    assert block["params"]["H1"] == pytest.approx(2 / 3, abs=1e-12)
    assert block["params"]["H2"] == pytest.approx(10 - 2 / 3, abs=1e-12)
    assert block["capacity_ok"] is True


def test_params_csv_header_and_row(capsys):
    code, out, _ = run(capsys, "params", str(fixture_path("row4_bridge.json")),
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "1,mixed,2,0,2,2,100,60,0,10,20000,8400,4000,0.667,9.333,true"


HOOD_SHEAR_ERROR = ("feature height 10.0 mm is smaller than the shear travel 18 mm; "
                    "the tool cannot complete the shear before reaching the feature height")


def test_params_csv_row_of_a_failed_feature(capsys):
    code, out, err = run(capsys, "params", str(fixture_path("row3_hood.json")),
                         "--h1-fraction", "9", "--format", "csv")
    assert out == f"{CSV_HEADER}\n1,mixed,2,0,3,1,50,71,0,10,,,,,,\n"
    assert (code, err) == (
        5, f"error: none of 1 feature(s) produced parameters; first: {HOOD_SHEAR_ERROR}\n")


def test_params_table(capsys):
    code, out, err = run(capsys, "params", str(fixture_path("row4_bridge.json")),
                         "--format", "table")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "part: row4_bridge",
        "t = 2 mm   reference face 1   material low_carbon_steel   tool punching_press",
        "feature  kind   t  n_CEE  n_CIE  n_IIE  TLIIEs  TLCIEs  TLCEEs  h   Fs     Fd    Fh    H1"
        "     H2     capacity_ok",
        "1        mixed  2  0      2      2      100     60      0       10  20000  8400  4000  0.667"
        "  9.333  true",
    ]


def test_params_table_of_a_failed_feature(capsys):
    code, out, err = run(capsys, "params", str(fixture_path("row3_hood.json")),
                         "--h1-fraction", "9", "--format", "table")
    assert out.splitlines() == [
        "part: row3_hood",
        "t = 2 mm   reference face 1   material low_carbon_steel   tool punching_press",
        "feature  kind   t  n_CEE  n_CIE  n_IIE  TLIIEs  TLCIEs  TLCEEs  h   Fs  Fd  Fh  H1  H2"
        "  capacity_ok",
        "1        mixed  2  0      3      1      50      71      0       10",
        f"feature 1: ERROR {HOOD_SHEAR_ERROR}",
    ]
    assert (code, err) == (
        5, f"error: none of 1 feature(s) produced parameters; first: {HOOD_SHEAR_ERROR}\n")


def test_params_table_lists_the_loader_warnings(capsys, tmp_path):
    path = _step_fixture_with(tmp_path, "#132=", "#9001=SI_UNIT($,.METRE.);\n#132=")
    code, out, err = run(capsys, "params", str(path), "--format", "table")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "part: flat_sheet_100x80x2",
        "t = 2 mm   reference face 75   material low_carbon_steel   tool punching_press",
        "feature  kind  t  n_CEE  n_CIE  n_IIE  TLIIEs  TLCIEs  TLCEEs  h  Fs  Fd  Fh  H1  H2"
        "  capacity_ok",
        *SI_METRE_WARNINGS,
    ]


def test_params_kd_override_scales_fd(capsys):
    code, out, _ = run(capsys, "params", str(fixture_path("row4_bridge.json")),
                       "--kd", "0.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["features"][0]["params"]["Fd"] == pytest.approx(0.5 * 210 * 2 * 60)


def test_params_unknown_material_suggests(capsys, tmp_path):
    db = tmp_path / "materials.json"
    db.write_text(json.dumps({"materials": [
        {"name": "steel", "shear_stress": 100, "yield_stress": 210},
    ]}))
    code, _, err = run(capsys, "params", str(fixture_path("row4_bridge.json")),
                       "--materials-db", str(db), "--material", "stele")
    assert code == 4
    assert "steel" in err


def test_params_exit_5_when_no_feature_succeeds(capsys):
    code, out, err = run(capsys, "params", str(fixture_path("l_bend.json")))
    assert code == 5
    doc = json.loads(out)
    assert doc["features"][0]["error"]
    assert err == ("error: none of 1 feature(s) produced parameters; first: "
                   f"{doc['features'][0]['error']}\n")


# Past about 1.34e154 a component's square overflows; 2**600 puts every unit
# component there and changes no digit of it.
HUGE = 2.0 ** 600


def _scaled_directions(name: str, text: str) -> str:
    """A fixture with every normal, axis and DIRECTION scaled by HUGE."""
    if name.endswith(".step"):
        def scaled(m: re.Match) -> str:
            return f"DIRECTION('{m[1]}',({','.join(repr(float(c) * HUGE) for c in m[2].split(','))}))"
        return re.sub(r"DIRECTION\('([^']*)',\(([^)]*)\)\)", scaled, text)
    doc = json.loads(text)
    for face in doc["faces"]:
        for key in ("normal", "axis_dir"):
            if key in face["surface"]:
                face["surface"][key] = [c * HUGE for c in face["surface"][key]]
    for edge in doc["edges"]:
        if "axis" in edge["curve"]:
            edge["curve"]["axis"] = [c * HUGE for c in edge["curve"]["axis"]]
    return json.dumps(doc)


@pytest.mark.parametrize("name", [
    "flat_sheet_100x80x2.json", "hole_sheet_r10.json", "l_bend.json", "row1_shelf.json",
    "row2_boss.json", "row3_hood.json", "row4_bridge.json", "flat_sheet_100x80x2.step",
])
def test_params_report_ignores_the_length_of_directions(capsys, tmp_path, name):
    text = fixture_path(name).read_text(encoding="utf-8")
    scaled = _scaled_directions(name, text)
    assert scaled != text
    path = tmp_path / name
    path.write_text(scaled, encoding="utf-8")
    assert run(capsys, "params", str(path)) == run(capsys, "params", str(fixture_path(name)))


@pytest.mark.parametrize("argv, message", [
    (["params", "MODEL", "--no-such-flag"], "unrecognized arguments: --no-such-flag"),
    (["params"], "the following arguments are required: input"),
    (["params", "MODEL", "--kd", "-x"], "argument --kd: expected one argument"),
], ids=["unknown-flag", "missing-input", "option-for-value"])
def test_usage_error_is_one_line(capsys, argv, message):
    argv = [str(fixture_path("row4_bridge.json")) if a == "MODEL" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_params_flat_sheet_empty_report(capsys):
    code, out, _ = run(capsys, "params", str(fixture_path("flat_sheet_100x80x2.json")))
    assert code == 0
    assert json.loads(out)["features"] == []


def test_params_deterministic_bytes(capsys, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["params", str(fixture_path("row3_hood.json")), "--out", str(out1)]) == 0
    assert main(["params", str(fixture_path("row3_hood.json")), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_params_report_self_consistent(capsys):
    code, out, _ = run(capsys, "params", str(fixture_path("row1_shelf.json")))
    assert code == 0
    doc = json.loads(out)
    mat = doc["material"]
    kd = doc["settings"]["kd"]
    h1_frac = doc["settings"]["h1_fraction"]
    hold_frac = doc["settings"]["holding_fraction"]
    for block in doc["features"]:
        if block["error"]:
            continue
        t = block["t"]
        fs = mat["shear_stress"] * t * block["totals"]["TLIIEs"]
        fd = kd * mat["yield_stress"] * t * (block["totals"]["TLCIEs"] + block["totals"]["TLCEEs"])
        fh = hold_frac * max(fs, fd)
        assert block["params"]["Fs"] == fs
        assert block["params"]["Fd"] == fd
        assert block["params"]["Fh"] == fh
        if block["counts"]["IIE"] > 0:
            assert block["params"]["H1"] == h1_frac * t
            assert block["params"]["H1"] + block["params"]["H2"] == pytest.approx(block["h"])
        else:
            assert block["params"]["H1"] == 0.0
            assert block["params"]["H2"] == block["h"]


def test_params_step_input(capsys):
    code, out, _ = run(capsys, "params", str(fixture_path("flat_sheet_100x80x2.step")))
    assert code == 0
    doc = json.loads(out)
    assert doc["metrics"]["thickness"] == pytest.approx(2.0)


def test_params_report_warns_of_an_inch_unit(capsys, tmp_path):
    path = _step_fixture_with(tmp_path, "#132=", INCH_UNIT + "#132=")
    code, out, _ = run(capsys, "params", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["warnings"][0] == INCH_WARNING
    assert doc["metrics"]["thickness"] == pytest.approx(2.0)  # read as millimetres regardless


def _step_fixture_with(tmp_path, old: str, new: str) -> Path:
    text = fixture_path("flat_sheet_100x80x2.step").read_text(encoding="utf-8")
    assert old in text
    path = tmp_path / "edited.step"
    path.write_text(text.replace(old, new), encoding="utf-8")
    return path


@pytest.mark.parametrize("old, new", [
    ("#17=DIRECTION('',(1.0,0.0,0.0));", "#17=DIRECTION('',(0.,0.,0.));"),
    ("#1=CARTESIAN_POINT('',(0.0,0.0,0.0));", "#1=CARTESIAN_POINT('',('a',0.0,0.0));"),
    ("#1=CARTESIAN_POINT('',(0.0,0.0,0.0));", "#1=CARTESIAN_POINT('',(#2,0.0,0.0));"),
    ("#9=VERTEX_POINT('',#1);", "#9=VERTEX_POINT('');"),
    ("#20=EDGE_CURVE('',#9,#10,#19,.T.);", "#20=EDGE_CURVE('');"),
    ("#67=AXIS2_PLACEMENT_3D('',#1,#65,#66);", "#67=AXIS2_PLACEMENT_3D('',#1);"),
    ("#75=ADVANCED_FACE('',(#74),#68,.T.);", "#75=ADVANCED_FACE('',#74,#68,.T.);"),
    ("#19=LINE('',#1,#18);", "#19=CIRCLE('',#67,0.);"),
    ("#19=LINE('',#1,#18);", "#19=CIRCLE('',#67,-5.);"),
    ("#68=PLANE('',#67);", "#68=CYLINDRICAL_SURFACE('',#67,0.);"),
    ("#68=PLANE('',#67);", "#68=CYLINDRICAL_SURFACE('',#67,-2.);"),
    ("#69=ORIENTED_EDGE('',*,*,#32,.F.);", "#69=ORIENTED_EDGE('',*,*,#32,0);"),
], ids=[
    "zero-direction", "string-coordinate", "reference-coordinate", "short-vertex-point",
    "short-edge-curve", "short-axis2-placement", "face-bounds-not-a-list",
    "zero-circle-radius", "negative-circle-radius", "zero-cylinder-radius",
    "negative-cylinder-radius", "integer-orientation",
])
def test_params_step_outside_geometry_subset_exits_2(capsys, tmp_path, old, new):
    code, _, err = run(capsys, "params", str(_step_fixture_with(tmp_path, old, new)))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "outside the supported geometry subset" in err


def test_params_deeply_nested_step_exits_2(capsys, tmp_path):
    # One entity with 5000 nested lists used to exhaust the interpreter stack.
    nested = "(" * 5000 + ")" * 5000
    path = _step_fixture_with(tmp_path, "#1=CARTESIAN_POINT('',(0.0,0.0,0.0));",
                              f"#1=CARTESIAN_POINT('',{nested});")
    code, out, err = run(capsys, "params", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "expected at most 64 nested parameter lists" in err


LONG_DIGITS = "9" * (INT_DIGIT_LIMIT + 1)  # one past the int() digit limit


@pytest.mark.parametrize("command", ["params", "inspect"])
@pytest.mark.parametrize("old, new, column", [
    ("#1=CARTESIAN_POINT(", f"#{LONG_DIGITS}=CARTESIAN_POINT(", 1),
    ("#9=VERTEX_POINT('',#1);", f"#9=VERTEX_POINT('',#{LONG_DIGITS});", 20),
    ("#1=CARTESIAN_POINT('',(0.0,", f"#1=CARTESIAN_POINT('',({LONG_DIGITS},", 24),
], ids=["instance-name", "reference", "integer"])
@needs_digit_limit
def test_step_integer_past_digit_limit_exits_2(capsys, tmp_path, command, old, new, column):
    path = _step_fixture_with(tmp_path, old, new)
    text = path.read_text(encoding="utf-8")
    line = text.count("\n", 0, text.index(new)) + 1
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (2, "")
    assert err == (f"error: {path}: line {line}, column {column}: expected an integer "
                   f"of at most {INT_DIGIT_LIMIT} digits\n")


def _json_box_without_last_face(tmp_path) -> Path:
    doc = modelzoo.box_doc()
    doc["faces"].pop()
    return write_doc(tmp_path, doc, "open.json")


def _json_box_with_face_twice(tmp_path) -> Path:
    doc = modelzoo.box_doc()
    doc["faces"].append(dict(doc["faces"][0], id=99))
    return write_doc(tmp_path, doc, "doubled.json")


def _step_sheet_with_face_twice(tmp_path) -> Path:
    return _step_fixture_with(tmp_path, "#131=CLOSED_SHELL('',(#75,",
                              "#200=ADVANCED_FACE('',(#74),#68,.T.);\n#131=CLOSED_SHELL('',(#200,#75,")


@pytest.mark.parametrize("build", [
    _json_box_without_last_face, _json_box_with_face_twice, _step_sheet_with_face_twice,
])
def test_params_shell_not_manifold_exits_3(capsys, tmp_path, build):
    code, _, err = run(capsys, "params", str(build(tmp_path)))
    assert code == 3
    assert re.fullmatch(r"error: model is not a closed manifold: \d+ violation\(s\), "
                        r"first non_manifold_edge: [^\n]*\n", err)


def test_params_slit_in_reference_face_exits_3(capsys, tmp_path):
    # An inner loop that runs along one edge and back is a closed 2-manifold
    # loop, but the reference face then meets that edge twice and no other face.
    doc = modelzoo.box_doc()
    doc["vertices"] += [{"id": 101, "x": 40.0, "y": 40.0, "z": 0.0},
                        {"id": 102, "x": 41.0, "y": 40.0, "z": 0.0}]
    doc["edges"].append({"id": 101, "start": 101, "end": 102, "curve": {"kind": "line"}})
    doc["loops"].append({"id": 101, "oriented_edges": [{"edge": 101, "sense": True},
                                                       {"edge": 101, "sense": False}]})
    doc["faces"][0]["bounds"].append({"loop": 101, "outer": False})
    code, _, err = run(capsys, "params", str(write_doc(tmp_path, doc, "slit.json")))
    assert code == 3
    assert "edge 101" in err


def test_params_json_line_between_coincident_vertices_exits_2(capsys, tmp_path):
    doc = modelzoo.box_doc()
    first, second = doc["vertices"][:2]
    second.update(x=first["x"], y=first["y"], z=first["z"])
    code, _, err = run(capsys, "params", str(write_doc(tmp_path, doc, "coincident.json")))
    assert code == 2
    assert "line edge with coincident endpoints" in err


HUGE_INT = "1" + "0" * 400  # a JSON integer past the float range
ONE_ERROR_LINE = re.compile(r"error: [^\n]*\n")


@pytest.mark.parametrize("command", ["params", "inspect"])
def test_json_integer_past_float_range_exits_2(capsys, tmp_path, command):
    text = json.dumps(modelzoo.box_doc()).replace('"x": 0.0', f'"x": {HUGE_INT}', 1)
    path = tmp_path / "huge.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: /vertices/0/x: number must be finite\n"


@pytest.mark.parametrize("option", [None, "--materials-db"], ids=["model", "materials-db"])
def test_json_integer_past_digit_limit_exits_cleanly(capsys, tmp_path, option):
    # Interpreters with an integer digit limit refuse such a number while
    # decoding ("not valid JSON"); others read it and find it too large.
    digits = "1" + "0" * 5000
    if option is None:
        path = tmp_path / "long.json"
        path.write_text(json.dumps(modelzoo.box_doc()).replace('"x": 0.0', f'"x": {digits}', 1))
        code, out, err = run(capsys, "params", str(path))
        expected_code = 2
    else:
        db = tmp_path / "db.json"
        db.write_text(f'{{"materials": [{{"name": "m", "shear_stress": {digits}, "yield_stress": 1}}]}}')
        code, out, err = run(capsys, "params", str(fixture_path("row4_bridge.json")), option, str(db))
        expected_code = 4
    assert (code, out) == (expected_code, "")
    assert ONE_ERROR_LINE.fullmatch(err)
    assert "not valid JSON" in err or "finite" in err


@pytest.mark.parametrize("command", ["params", "inspect", "features"])
def test_deeply_nested_json_model_exits_2(capsys, tmp_path, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000, encoding="utf-8")
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: /: not valid JSON: nested too deeply\n"


@pytest.mark.parametrize("option, text, message", [
    ("--materials-db",
     f'{{"materials": [{{"name": "m", "shear_stress": {HUGE_INT}, "yield_stress": 1}}]}}',
     "/materials/0/shear_stress: expected a finite number, got an integer too large for a float"),
    ("--tools-db",
     f'{{"tools": [{{"name": "t", "force_coefficient": 0.3, "max_force": {HUGE_INT}}}]}}',
     "/tools/0/max_force: expected a finite number, got an integer too large for a float"),
    ("--materials-db", "[" * 100000, "/: not valid JSON: nested too deeply"),
    ("--tools-db", '{"tools": ' + "[" * 100000, "/: not valid JSON: nested too deeply"),
], ids=["material-huge-int", "tool-huge-int", "materials-deep", "tools-deep"])
def test_resource_db_number_and_nesting_errors_exit_4(capsys, tmp_path, option, text, message):
    db = tmp_path / "db.json"
    db.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "params", str(fixture_path("row4_bridge.json")), option, str(db))
    assert (code, out) == (4, "")
    assert err == f"error: {message}\n"


def _undecodable(path: Path, data: bytes, at: int) -> Path:
    """Write ``data`` with a 0xff byte, which UTF-8 never uses, inserted at offset ``at``."""
    path.write_bytes(data[:at] + b"\xff" + data[at:])
    return path


@pytest.mark.parametrize("fixture", ["row4_bridge.json", "flat_sheet_100x80x2.step"])
@pytest.mark.parametrize("command", ["params", "inspect", "features"])
def test_undecodable_model_exits_2(capsys, tmp_path, command, fixture):
    path = _undecodable(tmp_path / fixture, fixture_path(fixture).read_bytes(), 40)
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: not valid UTF-8: invalid start byte at byte 40\n"


@pytest.mark.parametrize("source", ["--materials-db", "--tools-db", "PUNCHPLAN_DB_DIR"])
def test_undecodable_database_exits_4(capsys, tmp_path, monkeypatch, source):
    # A Latin-1 "e acute" (0xe9) followed by ASCII is a broken UTF-8 sequence.
    if source == "--tools-db":
        text = b'{"tools": [{"name": "pr\xe9ss", "force_coefficient": 0.3}]}'
    else:
        text = b'{"materials": [{"name": "st\xe9el", "shear_stress": 1, "yield_stress": 1}]}'
    db = tmp_path / "materials.json"
    db.write_bytes(text)
    argv = ["params", str(fixture_path("row4_bridge.json"))]
    if source == "PUNCHPLAN_DB_DIR":
        monkeypatch.setenv(source, str(tmp_path))
    else:
        argv += [source, str(db)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (4, "")
    assert err == f"error: {db}: not valid UTF-8: invalid continuation byte at byte {text.index(0xe9)}\n"


def _leftovers(directory: Path) -> list[str]:
    return sorted(p.name for p in directory.iterdir() if p.name.endswith(".tmp"))


def test_out_with_a_long_file_name(capsys, tmp_path):
    # 250 bytes, within the usual 255-byte limit on one file name.
    target = tmp_path / ("r" * 245 + ".json")
    bridge = str(fixture_path("row4_bridge.json"))
    assert run(capsys, "params", bridge, "--out", str(target)) == (0, "", "")
    assert target.read_text(encoding="utf-8") == run(capsys, "params", bridge)[1]
    assert _leftovers(tmp_path) == []


@pytest.mark.parametrize("command", ["params", "inspect", "features"])
def test_out_naming_a_directory_exits_2(capsys, tmp_path, command):
    target = tmp_path / "reports"
    target.mkdir()
    code, out, err = run(capsys, command, str(fixture_path("row4_bridge.json")), "--out", str(target))
    assert (code, out) == (2, "")
    assert err == f"error: {target}: cannot write: Is a directory\n"
    assert _leftovers(tmp_path) == [] and list(target.iterdir()) == []


def test_out_whose_temporary_file_cannot_be_removed_exits_2(capsys, tmp_path, monkeypatch):
    # The rename fails and so does the clean-up after it: the run still ends
    # with one error line, and the temporary file is what is left.
    def refuse(*args):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(cli.os, "replace", refuse)
    monkeypatch.setattr(cli.os, "unlink", refuse)
    target = tmp_path / "report.json"
    code, out, err = run(capsys, "params", str(fixture_path("row4_bridge.json")), "--out", str(target))
    monkeypatch.undo()
    assert (code, out) == (2, "")
    assert err == f"error: {target}: cannot write: Permission denied\n"
    assert not target.exists() and len(_leftovers(tmp_path)) == 1


def test_out_under_a_regular_file_exits_2(capsys, tmp_path):
    blocker = tmp_path / "notes.txt"
    blocker.write_text("a file, not a directory\n")
    code, out, err = run(capsys, "params", str(fixture_path("row4_bridge.json")),
                         "--out", str(blocker / "report.json"))
    assert (code, out) == (2, "")
    assert err == f"error: {blocker}: cannot create directory: File exists\n"
    assert blocker.read_text() == "a file, not a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["notes.txt"]


def test_batch_out_dir_naming_a_file_exits_2(capsys, tmp_path):
    src = tmp_path / "models"
    src.mkdir()
    src.joinpath("row4_bridge.json").write_bytes(fixture_path("row4_bridge.json").read_bytes())
    blocker = tmp_path / "reports"
    blocker.write_text("")
    code, out, err = run(capsys, "batch", str(src), "--out-dir", str(blocker))
    assert (code, out) == (2, "")
    assert err == f"error: {blocker}: cannot create directory: File exists\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["models", "reports"]


def test_batch_report_that_cannot_be_written_is_an_error_entry(capsys, tmp_path):
    src = tmp_path / "models"
    src.mkdir()
    for name in ("row1_shelf", "row4_bridge"):
        src.joinpath(f"{name}.json").write_bytes(fixture_path(f"{name}.json").read_bytes())
    out_dir = tmp_path / "reports"
    (out_dir / "row1_shelf.report.json").mkdir(parents=True)
    code, out, err = run(capsys, "batch", str(src), "--out-dir", str(out_dir))
    assert (code, out, err) == (1, "processed 2 model(s), 1 ok, 1 failed\n", "")
    results = json.loads((out_dir / "index.json").read_text())["results"]
    assert [(r["file"], r["status"], r["error"]) for r in results] == [
        ("row1_shelf.json", "error",
         f"{out_dir / 'row1_shelf.report.json'}: cannot write: Is a directory"),
        ("row4_bridge.json", "ok", None),
    ]
    assert _leftovers(out_dir) == []


def test_step_cut_off_mid_list_names_end_of_input(capsys, tmp_path):
    path = tmp_path / "cut.step"
    path.write_text("ISO-10303-21;\nHEADER;\nENDSEC;\nDATA;\n#1=A(1,", encoding="utf-8")
    code, out, err = run(capsys, "inspect", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: line 5, column 8: expected an argument (found end of input)\n"


def test_params_env_db_dir(capsys, tmp_path, monkeypatch):
    (tmp_path / "materials.json").write_text(json.dumps({"materials": [
        {"name": "copper", "shear_stress": 45, "yield_stress": 70},
    ]}))
    monkeypatch.setenv("PUNCHPLAN_DB_DIR", str(tmp_path))
    code, out, _ = run(capsys, "params", str(fixture_path("row4_bridge.json")),
                       "--material", "copper")
    assert code == 0
    assert json.loads(out)["material"]["name"] == "copper"


def test_params_rejects_nonpositive_override(capsys):
    code, _, err = run(capsys, "params", str(fixture_path("row4_bridge.json")),
                       "--kd", "-1")
    assert code == 4
    assert "kd" in err


PARAM_FLAGS = ["--kd", "--h1-fraction", "--holding-fraction", "--cut-height"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command, flag", [
    *(("params", flag) for flag in PARAM_FLAGS),
    ("features", "--cut-height"),
    *(("batch", flag) for flag in PARAM_FLAGS),
])
def test_non_finite_override_exits_4(capsys, tmp_path, command, flag, value):
    if command == "batch":
        models = tmp_path / "models"
        models.mkdir()
        models.joinpath("bridge.json").write_text(fixture_path("row4_bridge.json").read_text())
        argv = [command, str(models), "--out-dir", str(tmp_path / "reports")]
    else:
        argv = [command, str(fixture_path("row4_bridge.json"))]
    code, out, err = run(capsys, *argv, f"{flag}={value}")
    assert (code, out) == (4, "")
    assert err == f"error: {flag} must be a finite number, got {float(value)}\n"
    assert not (tmp_path / "reports").exists()


@pytest.mark.parametrize("value, message", [
    ("-1e3", "must be > 0"),
    ("-.5e1", "must be > 0"),
    ("-2.5E+2", "must be > 0"),
    ("-1_000", "must be > 0"),
    ("-inf", "must be a finite number, got -inf"),
    ("-Infinity", "must be a finite number, got -inf"),
    ("-nan", "must be a finite number, got nan"),
])
@pytest.mark.parametrize("command, flag", [("params", "--kd"), ("params", "--cut-height"),
                                           ("features", "--cut-height"), ("batch", "--kd")])
def test_negative_override_as_separate_argument_exits_4(capsys, tmp_path, command, flag, value,
                                                        message):
    # argparse alone reads only -N and -N.N as numbers; any other spelling was
    # taken for an option and left the flag without its value (exit 2).
    if command == "batch":
        models = tmp_path / "models"
        models.mkdir()
        models.joinpath("bridge.json").write_text(fixture_path("row4_bridge.json").read_text())
        argv = [command, str(models), "--out-dir", str(tmp_path / "reports")]
    else:
        argv = [command, str(fixture_path("row4_bridge.json"))]
    code, out, err = run(capsys, *argv, flag, value)
    assert (code, out, err) == (4, "", f"error: {flag} {message}\n")
    assert not (tmp_path / "reports").exists()


def test_batch_rejects_nonpositive_override_before_any_model(capsys, tmp_path):
    models = tmp_path / "models"
    models.mkdir()
    models.joinpath("bridge.json").write_text(fixture_path("row4_bridge.json").read_text())
    code, out, err = run(capsys, "batch", str(models), "--out-dir", str(tmp_path / "reports"),
                         "--kd", "-1")
    assert (code, out, err) == (4, "", "error: --kd must be > 0\n")
    assert not (tmp_path / "reports").exists()


# ---------------------------------------------------------------------------
# batch
# ---------------------------------------------------------------------------

def test_batch_has_no_format_flag(capsys, tmp_path):
    models = tmp_path / "models"
    models.mkdir()
    for flag, value in (("--format", "csv"), ("--input-format", "step")):
        with pytest.raises(SystemExit) as exc:
            main(["batch", str(models), "--out-dir", str(tmp_path / "reports"), flag, value])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert (captured.out, captured.err) == ("", f"error: unrecognized arguments: {flag} {value}\n")
        assert not (tmp_path / "reports").exists()


def test_batch_plans_once_before_any_model(capsys, tmp_path, monkeypatch):
    models = tmp_path / "models"
    models.mkdir()
    for name in ("row1_shelf.json", "row4_bridge.json", "flat_sheet_100x80x2.step"):
        models.joinpath(name).write_bytes(fixture_path(name).read_bytes())
    db = tmp_path / "materials.json"
    db.write_text(json.dumps({"materials": [
        {"name": "copper", "shear_stress": 45, "yield_stress": 70}]}))
    loads = []
    load = cli.load_materials
    monkeypatch.setattr(cli, "load_materials", lambda text: loads.append(text) or load(text))
    reports = tmp_path / "reports"
    argv = ["batch", str(models), "--out-dir", str(reports), "--materials-db", str(db)]
    assert run(capsys, *argv, "--material", "copper")[:2] == (
        0, "processed 3 model(s), 3 ok, 0 failed\n")
    assert len(loads) == 1
    # An unknown material exits 4 before any model is read or --out-dir made.
    monkeypatch.setattr(cli, "_load_solid", None)
    code, out, err = run(capsys, *argv, "--material", "nope", "--out-dir", str(tmp_path / "new"))
    assert (code, out) == (4, "") and err.startswith("error: unknown material 'nope'")
    assert err.count("\n") == 1 and not (tmp_path / "new").exists()


@pytest.mark.parametrize("argv", [
    ["params", "--material", "nope"], ["params", "--kd", "0"], ["features", "--cut-height", "0"],
], ids=["params-material", "params-override", "features-override"])
def test_flags_are_checked_before_the_model_is_read(capsys, tmp_path, argv):
    code, out, err = run(capsys, argv[0], str(tmp_path / "missing.json"), *argv[1:])
    assert (code, out) == (4, "") and err.count("\n") == 1


def test_batch_over_fixture_rows(capsys, tmp_path):
    src = tmp_path / "models"
    src.mkdir()
    for name in ("row1_shelf", "row2_boss", "row3_hood", "row4_bridge"):
        src.joinpath(f"{name}.json").write_text(
            fixture_path(f"{name}.json").read_text(encoding="utf-8"))
    out_dir = tmp_path / "reports"
    code, out, _ = run(capsys, "batch", str(src), "--out-dir", str(out_dir))
    assert code == 0
    index = json.loads((out_dir / "index.json").read_text())
    assert index["count"] == 4
    assert [r["status"] for r in index["results"]] == ["ok"] * 4
    assert [r["file"] for r in index["results"]] == sorted(r["file"] for r in index["results"])
    expected = {
        "row1_shelf": (26000.0, 4200.0, 5200.0),
        "row2_boss": (0.0, 8796.459430051421, 1759.2918860102841),
        "row3_hood": (10000.0, 9940.0, 2000.0),
        "row4_bridge": (20000.0, 8400.0, 4000.0),
    }
    for name, (fs, fd, fh) in expected.items():
        doc = json.loads((out_dir / f"{name}.report.json").read_text())
        params = doc["features"][0]["params"]
        assert params["Fs"] == pytest.approx(fs, abs=1e-6)
        assert params["Fd"] == pytest.approx(fd, abs=1e-6)
        assert params["Fh"] == pytest.approx(fh, abs=1e-6)


def test_batch_empty_directory(capsys, tmp_path):
    src = tmp_path / "empty"
    src.mkdir()
    out_dir = tmp_path / "reports"
    code, out, _ = run(capsys, "batch", str(src), "--out-dir", str(out_dir))
    assert code == 0
    assert json.loads((out_dir / "index.json").read_text())["count"] == 0


def test_batch_continues_past_corrupt_file(capsys, tmp_path):
    src = tmp_path / "models"
    src.mkdir()
    src.joinpath("good1.json").write_text(fixture_path("row4_bridge.json").read_text())
    src.joinpath("bad.json").write_text("{ not json")
    src.joinpath("good2.json").write_text(fixture_path("row2_boss.json").read_text())
    undecodable = _undecodable(src / "latin1.json", fixture_path("row1_shelf.json").read_bytes(), 9)
    out_dir = tmp_path / "reports"
    code, out, _ = run(capsys, "batch", str(src), "--out-dir", str(out_dir))
    assert code == 1
    index = json.loads((out_dir / "index.json").read_text())
    statuses = {r["file"]: r["status"] for r in index["results"]}
    assert statuses == {"bad.json": "error", "good1.json": "ok", "good2.json": "ok",
                        "latin1.json": "error"}
    assert index["results"][-1]["error"] == (
        f"{undecodable}: not valid UTF-8: invalid start byte at byte 9")
    assert (out_dir / "good1.report.json").exists()
    assert (out_dir / "good2.report.json").exists()


def test_batch_full_circle_starting_on_its_centre_is_an_error_entry(capsys, tmp_path):
    src = tmp_path / "models"
    src.mkdir()
    src.joinpath("a.json").write_text(fixture_path("row4_bridge.json").read_text())
    write_doc(src, _hole_sheet_on_centres(), "b.json")
    src.joinpath("c.json").write_text(fixture_path("row2_boss.json").read_text())
    out_dir = tmp_path / "reports"
    code, _, _ = run(capsys, "batch", str(src), "--out-dir", str(out_dir))
    assert code == 1
    index = json.loads((out_dir / "index.json").read_text())
    assert [(r["file"], r["status"]) for r in index["results"]] == [
        ("a.json", "ok"), ("b.json", "error"), ("c.json", "ok")]
    assert index["results"][1]["error"] == "arc start point coincides with the circle center"
    assert (out_dir / "a.report.json").exists()
    assert (out_dir / "c.report.json").exists()


def test_batch_report_name_taken_by_earlier_file(capsys, tmp_path):
    src = tmp_path / "models"
    src.mkdir()
    src.joinpath("a.json").write_text(fixture_path("row4_bridge.json").read_text())
    src.joinpath("a.step").write_text(fixture_path("flat_sheet_100x80x2.step").read_text())
    src.joinpath("b.json").write_text(fixture_path("row2_boss.json").read_text())
    out_dir = tmp_path / "reports"
    code, out, _ = run(capsys, "batch", str(src), "--out-dir", str(out_dir))
    assert code == 1
    assert out == "processed 3 model(s), 2 ok, 1 failed\n"
    results = json.loads((out_dir / "index.json").read_text())["results"]
    assert [(r["file"], r["status"], r["report"]) for r in results] == [
        ("a.json", "ok", "a.report.json"),
        ("a.step", "error", None),
        ("b.json", "ok", "b.report.json"),
    ]
    assert "a.report.json" in results[1]["error"]
    assert "a.json" in results[1]["error"]
    # The report is a.json's, not overwritten by a.step's.
    report = json.loads((out_dir / "a.report.json").read_text())
    assert report["part"] == json.loads(fixture_path("row4_bridge.json").read_text())["name"]
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "a.report.json", "b.report.json", "index.json"]


def test_batch_into_its_own_input_directory_twice(capsys, tmp_path):
    src = tmp_path / "models"
    src.mkdir()
    for name in ("row1_shelf", "row4_bridge"):
        src.joinpath(f"{name}.json").write_text(fixture_path(f"{name}.json").read_text())
    first = run(capsys, "batch", str(src), "--out-dir", str(src))
    index = (src / "index.json").read_text()
    reports = {n: (src / n).read_text() for n in ("row1_shelf.report.json",
                                                  "row4_bridge.report.json")}
    second = run(capsys, "batch", str(src), "--out-dir", str(src))
    assert first == second == (0, "processed 2 model(s), 2 ok, 0 failed\n", "")
    assert (src / "index.json").read_text() == index
    assert {n: (src / n).read_text() for n in reports} == reports
    assert [r["file"] for r in json.loads(index)["results"]] == [
        "row1_shelf.json", "row4_bridge.json"]


def _bridge_models(tmp_path: Path) -> Path:
    models = tmp_path / "models"
    models.mkdir()
    models.joinpath("row4_bridge.json").write_bytes(fixture_path("row4_bridge.json").read_bytes())
    return models


def test_batch_on_a_regular_file_exits_2(capsys, tmp_path):
    model = _bridge_models(tmp_path) / "row4_bridge.json"
    code, out, err = run(capsys, "batch", str(model), "--out-dir", str(tmp_path / "reports"))
    assert (code, out, err) == (2, "", f"error: {model}: not a directory\n")
    assert not (tmp_path / "reports").exists()


@pytest.mark.parametrize("layout, problem", [
    ("missing", "not a directory"),
    ("file", "not a directory"),
    ("other-files", "holds neither materials.json nor tools.json"),
])
@pytest.mark.parametrize("command", ["params", "batch"])
def test_db_dir_without_a_database_exits_4(capsys, tmp_path, monkeypatch, command, layout,
                                           problem):
    db_dir = tmp_path / "db"
    if layout == "file":
        db_dir.write_text("{}")
    elif layout == "other-files":
        db_dir.mkdir()
        db_dir.joinpath("material.json").write_text("{}")
    monkeypatch.setenv("PUNCHPLAN_DB_DIR", str(db_dir))
    if command == "batch":
        argv = [command, str(_bridge_models(tmp_path)), "--out-dir", str(tmp_path / "reports")]
    else:
        argv = [command, str(fixture_path("row4_bridge.json"))]
    assert run(capsys, *argv) == (4, "", f"error: PUNCHPLAN_DB_DIR={db_dir}: {problem}\n")
    assert not (tmp_path / "reports").exists()


def test_db_dir_with_one_database_keeps_the_other_built_in(capsys, tmp_path, monkeypatch):
    (tmp_path / "tools.json").write_text(json.dumps({"tools": [
        {"name": "small_press", "force_coefficient": 0.3},
    ]}))
    monkeypatch.setenv("PUNCHPLAN_DB_DIR", str(tmp_path))
    code, out, err = run(capsys, "params", str(fixture_path("row4_bridge.json")),
                         "--tool", "small_press")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert (doc["material"]["name"], doc["tool"]["name"]) == ("low_carbon_steel", "small_press")


def test_empty_db_dir_means_unset(capsys, monkeypatch):
    argv = ["params", str(fixture_path("row4_bridge.json"))]
    expected = run(capsys, *argv)
    monkeypatch.setenv("PUNCHPLAN_DB_DIR", "")
    assert run(capsys, *argv) == expected


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask-022", "umask-077"])
def test_reports_get_the_mode_of_a_new_file(capsys, tmp_path, umask, mode):
    models = _bridge_models(tmp_path)
    previous = os.umask(umask)
    try:
        assert run(capsys, "params", str(models / "row4_bridge.json"),
                   "--out", str(tmp_path / "report.json"))[0] == 0
        assert run(capsys, "batch", str(models), "--out-dir", str(tmp_path / "reports"))[0] == 0
    finally:
        os.umask(previous)
    written = [tmp_path / "report.json", tmp_path / "reports" / "row4_bridge.report.json",
               tmp_path / "reports" / "index.json"]
    assert [oct(stat.S_IMODE(p.stat().st_mode)) for p in written] == [oct(mode)] * 3


# ---------------------------------------------------------------------------
# Repeated calls in one process
# ---------------------------------------------------------------------------

def _run_alone(argv: list[str]) -> tuple[int, str, str]:
    src = Path(punchplan.__file__).parents[1]
    proc = subprocess.run([sys.executable, "-m", "punchplan.cli", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def test_repeated_main_calls_match_calls_made_alone(capsys):
    bridge = str(fixture_path("row4_bridge.json"))
    sequence = [
        ["params", bridge, "--kd", "0.5"],
        ["params", bridge],
        ["params", bridge, "--format", "csv"],
        ["params", bridge, "--format", "json"],
        ["features", str(fixture_path("hole_sheet_r10.json")), "--cut-height", "3"],
        ["params", bridge, "--no-such-flag"],
        ["inspect", str(fixture_path("flat_sheet_100x80x2.step"))],
        ["params", bridge],
    ]
    in_process = []
    for argv in sequence:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    assert in_process[5][0] == 2
    alone = {}
    for argv, result in zip(sequence, in_process):
        key = tuple(argv)
        if key not in alone:
            alone[key] = _run_alone(argv)
        assert result == alone[key], argv


# ---------------------------------------------------------------------------
# Inputs that take only the general paths of resolving and recognition
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("command", ["features", "params"])
def test_bend_skin_with_reversed_axis_gives_the_fixture_output(capsys, tmp_path, command):
    # The L-bend's outer skin, face 4, then runs its axis against its
    # partner's: the skins' axial overlap is measured along face 4's axis.
    doc = json.loads(fixture_path("l_bend.json").read_text(encoding="utf-8"))
    surface = next(f for f in doc["faces"] if f["id"] == 4)["surface"]
    surface["axis_dir"] = [-c for c in surface["axis_dir"]]
    path = write_doc(tmp_path, doc, "l_bend.json")
    expected = run(capsys, command, str(fixture_path("l_bend.json")))
    # params: the tab's wall faces no way the reference face does, so no height.
    assert expected[0] == {"features": 0, "params": 5}[command]
    assert run(capsys, command, str(path)) == expected


@pytest.mark.parametrize("command", ["params", "inspect"])
def test_face_listed_twice_in_the_shell_gives_the_fixture_output(capsys, tmp_path, command):
    path = tmp_path / "flat_sheet_100x80x2.step"
    text = fixture_path("flat_sheet_100x80x2.step").read_text(encoding="utf-8")
    path.write_text(text.replace("CLOSED_SHELL('',(#75,", "CLOSED_SHELL('',(#75,#75,"),
                    encoding="utf-8")
    expected = run(capsys, command, str(fixture_path("flat_sheet_100x80x2.step")))
    assert expected[0] == 0
    assert run(capsys, command, str(path)) == expected


def test_integer_coordinates_give_the_fixture_report(capsys, tmp_path):
    path = _step_fixture_with(tmp_path, "#2=CARTESIAN_POINT('',(100.0,0.0,0.0));",
                              "#2=CARTESIAN_POINT('',(100,0,0));")
    expected = run(capsys, "params", str(fixture_path("flat_sheet_100x80x2.step")))
    assert expected[0] == 0
    assert run(capsys, "params", str(path)) == expected


def test_ellipse_edge_curve_exits_2(capsys, tmp_path):
    path = _step_fixture_with(tmp_path, "#19=LINE('',#1,#18);", "#19=ELLIPSE('',#67,5.,3.);")
    assert run(capsys, "params", str(path)) == (
        2, "", f"error: {path}: entity #19 (ELLIPSE) is outside the supported geometry subset\n")


# ---------------------------------------------------------------------------
# Values and parts too large to compute with
# ---------------------------------------------------------------------------

def _huge_stress_db(tmp_path) -> Path:
    db = tmp_path / "materials.json"
    db.write_text(json.dumps({"materials": [
        {"name": "low_carbon_steel", "shear_stress": 1e308, "yield_stress": 210}]}),
        encoding="utf-8")
    return db


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
@pytest.mark.parametrize("option, force", [
    (lambda tmp_path: ["--kd", "1e308"], "Fd"),
    (lambda tmp_path: ["--holding-fraction", "1e308"], "Fh"),
    (lambda tmp_path: ["--materials-db", str(_huge_stress_db(tmp_path))], "Fs"),
], ids=["kd", "holding-fraction", "shear-stress"])
def test_force_that_overflows_fails_its_feature(capsys, tmp_path, option, force, fmt):
    message = f"force {force} is not finite (inf): the inputs are too large"
    code, out, err = run(capsys, "params", str(fixture_path("row4_bridge.json")),
                         *option(tmp_path), "--format", fmt)
    assert (code, err) == (5, f"error: none of 1 feature(s) produced parameters; "
                              f"first: {message}\n")
    if fmt == "json":
        assert "Infinity" not in out and "NaN" not in out
        (block,) = json.loads(out)["features"]
        assert (block["params"], block["capacity_ok"], block["error"]) == (None, None, message)
    elif fmt == "csv":
        assert out.splitlines()[1] == "1,mixed,2,0,2,2,100,60,0,10,,,,,,"
    else:
        assert f"feature 1: ERROR {message}\n" in out


# Past about 1e154 mm the shoelace products of a part's face areas overflow;
# at 1e307 the coordinates themselves do.
HUGE_SCALES = [150, 155, 200, 300, 307]
JSON_FIXTURES = sorted(p.name for p in fixture_path(".").glob("*.json"))


@pytest.mark.parametrize("suffix", [".json", ".step"])
@pytest.mark.parametrize("k", HUGE_SCALES)
@pytest.mark.parametrize("name", JSON_FIXTURES)
def test_fixture_scaled_past_measure_ends_with_a_documented_exit(capsys, tmp_path, name, k,
                                                                  suffix):
    doc = modelzoo.scale_doc(json.loads(fixture_path(name).read_text(encoding="utf-8")), 10 ** k)
    path = tmp_path / (Path(name).stem + suffix)
    path.write_text(json.dumps(doc) if suffix == ".json" else stepwriter.write_step(doc)[0],
                    encoding="utf-8")
    for command in ("inspect", "features", "params"):
        code, _, err = run(capsys, command, str(path))
        if code == 0:
            assert err == ""
        else:
            assert code in (2, 3, 5)
            assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["inspect", "features", "params"])
def test_part_too_large_to_measure_exits_3(capsys, tmp_path, command):
    doc = modelzoo.scale_doc(modelzoo.fixture_row4_bridge(), 1e155)
    path = write_doc(tmp_path, doc, "row4_bridge.json")
    assert run(capsys, command, str(path)) == (
        3, "", "error: face 1 is too large to measure: its area is not finite (nan)\n")


def test_batch_records_a_part_too_large_to_measure(capsys, tmp_path):
    models = tmp_path / "models"
    models.mkdir()
    write_doc(models, modelzoo.scale_doc(modelzoo.fixture_row4_bridge(), 1e155), "huge.json")
    code, out, _ = run(capsys, "batch", str(models), "--out-dir", str(tmp_path / "reports"))
    assert (code, out) == (1, "processed 1 model(s), 0 ok, 1 failed\n")
    index = json.loads((tmp_path / "reports" / "index.json").read_text(encoding="utf-8"))
    assert index["results"] == [{
        "file": "huge.json", "status": "error", "report": None,
        "error": "face 1 is too large to measure: its area is not finite (nan)"}]


# ---------------------------------------------------------------------------
# The module's entry point
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["params", "row4_bridge.json"],
    ["params", "row4_bridge.json", "--kd", "1e308", "--format", "csv"],
    ["params", "l_bend.json", "--format", "table"],
], ids=["ok", "overflow", "no-feature"])
def test_module_entry_point_matches_main(capsys, argv):
    argv = [argv[0], str(fixture_path(argv[1])), *argv[2:]]
    code, out, _ = run(capsys, *argv)
    assert _run_alone(argv)[:2] == (code, out)
