"""Metric queries, manifold validation, and the native JSON loader."""
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modelzoo
import oracles
from conftest import solid_from
from punchplan import load_brep_json, load_step
from punchplan.brep import (
    BrepError,
    Circle,
    Cylinder,
    DegenerateEdge,
    Edge,
    Face,
    Line,
    Loop,
    NonPlanarFace,
    Plane,
    SchemaError,
    Solid,
    UnknownEdge,
    edge_length,
    face_area,
    face_normal,
    validate_manifold,
)
from punchplan.geom import ENVELOPE, vec


def tiny_solid(edges_spec):
    """Solid holding loose edges (no faces); enough for edge_length tests."""
    vertices = {}
    edges = {}
    vid = 0

    def add_vertex(p):
        nonlocal vid
        vid += 1
        vertices[vid] = vec(*p)
        return vid

    for i, (curve, a, b) in enumerate(edges_spec, start=1):
        va = add_vertex(a)
        vb = va if a == b else add_vertex(b)
        edges[i] = Edge(i, curve, va, vb)
    return Solid("tiny", vertices, edges, {}, {})


# ---------------------------------------------------------------------------
# edge_length
# ---------------------------------------------------------------------------

def test_line_length_3_4_5():
    s = tiny_solid([(Line(vec(0, 0, 0), vec(0.6, 0.8, 0)), (0, 0, 0), (3, 4, 0))])
    assert edge_length(s.edges[1], s) == pytest.approx(5.0)


@pytest.mark.parametrize("radius", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("kind, make", [("circle", Circle), ("cylinder", Cylinder)])
def test_curved_geometry_needs_a_positive_radius(kind, make, radius):
    # Both loaders reject such a radius first; a library caller meets these.
    with pytest.raises(ValueError, match=f"^{kind} radius must be positive, got {radius}$"):
        make(vec(0, 0, 0), vec(0, 0, 1), radius)


def test_full_circle_length():
    circ = Circle(vec(0, 0, 0), vec(0, 0, 1), 10.0)
    s = tiny_solid([(circ, (10, 0, 0), (10, 0, 0))])
    assert edge_length(s.edges[1], s) == pytest.approx(62.83185307179586, abs=1e-9)


def test_quarter_arc_length():
    circ = Circle(vec(0, 0, 0), vec(0, 0, 1), 2.0)
    s = tiny_solid([(circ, (2, 0, 0), (0, 2, 0))])
    assert edge_length(s.edges[1], s) == pytest.approx(math.pi, abs=1e-9)


def test_three_quarter_arc_uses_axis_orientation():
    # Same endpoints as the quarter arc but swept the other way round.
    circ = Circle(vec(0, 0, 0), vec(0, 0, -1), 2.0)
    s = tiny_solid([(circ, (2, 0, 0), (0, 2, 0))])
    assert edge_length(s.edges[1], s) == pytest.approx(3 * math.pi, abs=1e-9)


def test_degenerate_line_edge_rejected():
    s = tiny_solid([(Line(vec(0, 0, 0), vec(1, 0, 0)), (1, 1, 1), (1, 1, 1))])
    with pytest.raises(DegenerateEdge):
        edge_length(s.edges[1], s)


@given(st.floats(0.1, 0.9))
def test_line_split_lengths_add_up(frac):
    a, b = (0.0, 0.0, 0.0), (7.0, 3.0, 1.0)
    mid = tuple(a[i] + frac * (b[i] - a[i]) for i in range(3))
    d = vec(*b).normalized()
    whole = tiny_solid([(Line(vec(*a), d), a, b)])
    split = tiny_solid([(Line(vec(*a), d), a, mid), (Line(vec(*mid), d), mid, b)])
    total = edge_length(split.edges[1], split) + edge_length(split.edges[2], split)
    assert total == pytest.approx(edge_length(whole.edges[1], whole), rel=1e-9)


# ---------------------------------------------------------------------------
# face_area / face_normal
# ---------------------------------------------------------------------------

def test_unit_square_area():
    doc = modelzoo.flat_face_doc([(0, 0), (1, 0), (1, 1), (0, 1)])
    s = solid_from(doc)
    assert face_area(s.faces[1], s) == pytest.approx(1.0, abs=1e-12)


def test_rect_with_circular_hole_area():
    doc = modelzoo.flat_face_doc([(0, 0), (100, 0), (100, 80), (0, 80)],
                                 circle_holes=[(50, 40, 10)])
    s = solid_from(doc)
    expected = 8000.0 - math.pi * 100.0
    assert face_area(s.faces[1], s) == pytest.approx(expected, abs=1e-9)
    grid = oracles.grid_area([(0, 0), (100, 0), (100, 80), (0, 80)],
                             circle_holes=[(50, 40, 10)])
    assert face_area(s.faces[1], s) == pytest.approx(grid, rel=1e-3)


def test_l_hexagon_area():
    # Shoelace by hand: 4*2 + 2*2 = 12.
    doc = modelzoo.flat_face_doc([(0, 0), (4, 0), (4, 2), (2, 2), (2, 4), (0, 4)])
    s = solid_from(doc)
    assert face_area(s.faces[1], s) == pytest.approx(12.0, abs=1e-12)


def test_area_orientation_insensitive():
    cw = modelzoo.flat_face_doc([(0, 4), (2, 4), (2, 2), (4, 2), (4, 0), (0, 0)])
    s = solid_from(cw)
    assert face_area(s.faces[1], s) == pytest.approx(12.0, abs=1e-12)


def test_hole_subtraction_matches_standalone_areas():
    outer = [(0, 0), (100, 0), (100, 80), (0, 80)]
    rects = [(10, 10, 20, 18), (40, 30, 60, 50)]
    circles = [(80, 60, 6)]
    with_holes = solid_from(modelzoo.flat_face_doc(outer, rects, circles))
    outer_alone = solid_from(modelzoo.flat_face_doc(outer))
    hole_areas = 0.0
    for x0, y0, x1, y1 in rects:
        s = solid_from(modelzoo.flat_face_doc([(x0, y0), (x1, y0), (x1, y1), (x0, y1)]))
        hole_areas += face_area(s.faces[1], s)
    hole_areas += math.pi * 36.0
    assert face_area(with_holes.faces[1], with_holes) == pytest.approx(
        face_area(outer_alone.faces[1], outer_alone) - hole_areas, rel=1e-9
    )


def test_area_rigid_motion_invariant(bridge_sheet):
    doc = modelzoo.fixture_row4_bridge()
    rot = modelzoo.rot_axis_angle((1, 2, 3), 0.7)
    moved = solid_from(modelzoo.transform_doc(doc, rot, translate=(11.0, -3.0, 5.5)))
    for fid in bridge_sheet.faces:
        f = bridge_sheet.faces[fid]
        if isinstance(f.surface, Plane):
            assert face_area(moved.faces[fid], moved) == pytest.approx(
                face_area(f, bridge_sheet), rel=1e-6
            )


def test_arc_bounded_profile_area(l_bend):
    # 60x2 strip + quarter annulus between radii 5 and 7 + 20x2 leg.
    profile = next(
        f for f in l_bend.faces.values()
        if isinstance(f.surface, Plane) and abs(f.surface.normal.y) == 1.0
    )
    expected = 120.0 + (math.pi / 4) * (49.0 - 25.0) + 40.0
    assert face_area(profile, l_bend) == pytest.approx(expected, abs=1e-9)


def test_face_normal_respects_same_sense(flat_sheet):
    bottom = flat_sheet.faces[1]
    n = face_normal(bottom)
    assert (n.x, n.y, n.z) == pytest.approx((0, 0, -1))
    flipped = bottom.__class__(bottom.id, bottom.surface, False, bottom.bounds)
    nf = face_normal(flipped)
    assert (nf.x, nf.y, nf.z) == pytest.approx((0, 0, 1))


def test_face_normal_rejects_cylinder(hole_sheet):
    wall = next(f for f in hole_sheet.faces.values() if not isinstance(f.surface, Plane))
    with pytest.raises(NonPlanarFace):
        face_normal(wall)
    with pytest.raises(NonPlanarFace):
        face_area(wall, hole_sheet)


# ---------------------------------------------------------------------------
# adjacency and validation
# ---------------------------------------------------------------------------

def test_box_edge_adjacency(flat_sheet):
    # Edge 1 is the bottom y=0 edge, bounded by the bottom face and the y=0 wall.
    assert sorted(flat_sheet.edge_uses[1]) == [1, 3]


def test_hole_edge_adjacency(hole_sheet):
    circle_edge = next(e for e in hole_sheet.edges.values() if isinstance(e.curve, Circle))
    uses = sorted(hole_sheet.edge_uses[circle_edge.id])
    wall = next(f.id for f in hole_sheet.faces.values() if not isinstance(f.surface, Plane))
    assert uses in (sorted([1, wall]), sorted([2, wall]))


def test_unknown_and_non_manifold_edge(flat_sheet):
    stray = Edge(999, Line(vec(0, 0, 0), vec(1, 0, 0)), 1, 2)
    with pytest.raises(UnknownEdge):
        edge_length(stray, flat_sheet)
    doc = modelzoo.box_doc()
    doc["faces"] = doc["faces"][:-1]
    open_shell = solid_from(doc)
    bad = next(eid for eid, uses in open_shell.edge_uses.items() if len(uses) != 2)
    assert len(open_shell.edge_uses[bad]) == 1


def test_validate_clean_box(flat_sheet):
    assert validate_manifold(flat_sheet) == []


def test_validate_box_with_missing_face():
    doc = modelzoo.box_doc()
    doc["faces"] = doc["faces"][:-1]  # drop the x=0 wall
    report = validate_manifold(solid_from(doc))
    non_manifold = [v for v in report if v.kind == "non_manifold_edge"]
    assert len(non_manifold) == 4


def test_validate_open_loop():
    doc = modelzoo.box_doc()
    # Swap the sense of one oriented edge so the loop no longer chains.
    oe = doc["loops"][0]["oriented_edges"][1]
    oe["sense"] = not oe["sense"]
    report = validate_manifold(solid_from(doc))
    assert any(v.kind == "open_loop" for v in report)


def test_validate_endpoint_off_curve():
    circ = Circle(vec(0, 0, 0), vec(0, 0, 1), 5.0)
    s = tiny_solid([(circ, (5.5, 0, 0), (0, 5, 0))])
    report = validate_manifold(s)
    assert any(v.kind == "endpoint_off_curve" for v in report)


def test_oriented_edge_uses_are_twice_edge_count(flat_sheet, bridge_sheet, boss_sheet):
    for solid in (flat_sheet, bridge_sheet, boss_sheet):
        uses = sum(len(u) for u in solid.edge_uses.values())
        assert uses == 2 * len(solid.edges)


# ---------------------------------------------------------------------------
# native JSON loader
# ---------------------------------------------------------------------------

def test_load_box_json():
    s = solid_from(modelzoo.box_doc())
    assert len(s.faces) == 6


def test_schema_error_missing_faces():
    doc = modelzoo.box_doc()
    del doc["faces"]
    with pytest.raises(SchemaError) as exc:
        load_brep_json(json.dumps(doc))
    assert exc.value.path == "/faces"


def test_schema_error_paths():
    doc = modelzoo.box_doc()
    doc["edges"][0]["start"] = 999
    with pytest.raises(SchemaError) as exc:
        load_brep_json(json.dumps(doc))
    assert "start" in exc.value.path

    doc = modelzoo.box_doc()
    doc["faces"][0]["surface"]["kind"] = "sphere"
    with pytest.raises(SchemaError) as exc:
        load_brep_json(json.dumps(doc))
    assert exc.value.path.endswith("surface/kind")


def test_json_and_step_encodings_agree(step_sheet_text):
    from_step = load_step(step_sheet_text)
    from_json = solid_from(modelzoo.box_doc())
    areas_step = sorted(
        face_area(f, from_step) for f in from_step.faces.values()
    )
    areas_json = sorted(
        face_area(f, from_json) for f in from_json.faces.values()
    )
    for a, b in zip(areas_step, areas_json):
        assert a == pytest.approx(b, abs=1e-9)
    lens_step = sorted(edge_length(e, from_step) for e in from_step.edges.values())
    lens_json = sorted(edge_length(e, from_json) for e in from_json.edges.values())
    for a, b in zip(lens_step, lens_json):
        assert a == pytest.approx(b, abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_area_grid_oracle_property(seed):
    rng = random.Random(seed)
    outer, rects, circles, exact = oracles.random_polygon_with_holes(rng)
    s = solid_from(modelzoo.flat_face_doc(outer, rects, circles))
    area = face_area(s.faces[1], s)
    assert area == pytest.approx(exact, rel=1e-9)


# ---------------------------------------------------------------------------
# pinned loader and validator messages
# ---------------------------------------------------------------------------

_DROP = object()  # edit value: delete the key or list item

# (JSON-pointer edit -> new value, ...) applied to the L-bend document, and the
# exact message of the first check that fails, in document order. Edge 10 is
# the first arc and face 3 the first cylinder of that document.
SCHEMA_CASES = {
    "name-not-string": ({"name": 5}, "/name: expected string"),
    "no-vertices": ({"vertices": _DROP}, "/vertices: missing required key"),
    "vertices-not-list": ({"vertices": {}}, "/vertices: expected list"),
    "vertex-not-object": ({"vertices/0": 5}, "/vertices/0: expected object, got int"),
    "vertex-no-id": ({"vertices/1/id": _DROP}, "/vertices/1/id: missing required key"),
    "vertex-bool-id": ({"vertices/0/id": True}, "/vertices/0/id: expected integer id, got True"),
    "vertex-float-id": ({"vertices/0/id": 1.0}, "/vertices/0/id: expected integer id, got 1.0"),
    "vertex-null-id": ({"vertices/2/id": None}, "/vertices/2/id: expected integer id, got None"),
    "duplicate-vertex": ({"vertices/1/id": 1}, "/vertices/1/id: duplicate vertex id 1"),
    "vertex-no-y": ({"vertices/0/y": _DROP}, "/vertices/0/y: missing required key"),
    "vertex-string-x": ({"vertices/0/x": "0"}, "/vertices/0/x: expected number, got str"),
    "vertex-bool-z": ({"vertices/3/z": False}, "/vertices/3/z: expected number, got bool"),
    "vertex-null-y": ({"vertices/0/y": None}, "/vertices/0/y: expected number, got NoneType"),
    "vertex-nan": ({"vertices/0/x": math.nan}, "/vertices/0/x: number must be finite"),
    "vertex-infinite": ({"vertices/5/z": -math.inf}, "/vertices/5/z: number must be finite"),
    "vertex-id-before-x": ({"vertices/0/id": "1", "vertices/0/x": _DROP},
                           "/vertices/0/id: expected integer id, got '1'"),
    "vertex-x-before-y": ({"vertices/0/x": [], "vertices/0/y": _DROP},
                          "/vertices/0/x: expected number, got list"),
    "no-edges": ({"edges": _DROP}, "/edges: missing required key"),
    "edges-not-list": ({"edges": "x"}, "/edges: expected list"),
    "edge-not-object": ({"edges/0": []}, "/edges/0: expected object, got list"),
    "edge-no-start": ({"edges/0/start": _DROP}, "/edges/0/start: missing required key"),
    "edge-string-end": ({"edges/0/end": "2"}, "/edges/0/end: expected integer id, got '2'"),
    "duplicate-edge": ({"edges/3/id": 2}, "/edges/3/id: duplicate edge id 2"),
    "edge-unknown-start": ({"edges/0/start": 999}, "/edges/0/start: unknown vertex 999"),
    "edge-unknown-end": ({"edges/0/end": -1}, "/edges/0/end: unknown vertex -1"),
    "edge-end-type-before-start-ref": ({"edges/0/start": 999, "edges/0/end": 1.5},
                                       "/edges/0/end: expected integer id, got 1.5"),
    "edge-no-curve": ({"edges/0/curve": _DROP}, "/edges/0/curve: missing required key"),
    "curve-not-object": ({"edges/0/curve": "line"}, "/edges/0/curve: expected object, got str"),
    "curve-no-kind": ({"edges/0/curve/kind": _DROP}, "/edges/0/curve/kind: missing required key"),
    "unknown-curve": ({"edges/0/curve/kind": "spline"}, "/edges/0/curve/kind: unknown curve kind 'spline'"),
    "curve-kind-null": ({"edges/0/curve/kind": None}, "/edges/0/curve/kind: unknown curve kind None"),
    "coincident-line": ({"edges/0/end": 1}, "/edges/0: line edge with coincident endpoints"),
    "arc-no-radius": ({"edges/10/curve/radius": _DROP}, "/edges/10/curve/radius: missing required key"),
    "arc-zero-radius": ({"edges/10/curve/radius": 0}, "/edges/10/curve/radius: radius must be > 0"),
    "arc-negative-radius": ({"edges/10/curve/radius": -7.0}, "/edges/10/curve/radius: radius must be > 0"),
    "arc-string-radius": ({"edges/10/curve/radius": "7"}, "/edges/10/curve/radius: expected number, got str"),
    "arc-short-center": ({"edges/10/curve/center": [60, 0]}, "/edges/10/curve/center: expected [x, y, z]"),
    "arc-center-object": ({"edges/10/curve/center": {}}, "/edges/10/curve/center: expected [x, y, z]"),
    "arc-center-string": ({"edges/10/curve/center/1": "0"}, "/edges/10/curve/center/1: expected number, got str"),
    "arc-no-axis": ({"edges/10/curve/axis": _DROP}, "/edges/10/curve/axis: missing required key"),
    "arc-zero-axis": ({"edges/10/curve/axis": [0, 0, 0.0]}, "/edges/10/curve/axis: direction must be non-zero"),
    "arc-infinite-axis": ({"edges/10/curve/axis/0": math.inf}, "/edges/10/curve/axis/0: number must be finite"),
    "no-loops": ({"loops": _DROP}, "/loops: missing required key"),
    "loop-not-object": ({"loops/1": None}, "/loops/1: expected object, got NoneType"),
    "loop-bool-id": ({"loops/0/id": False}, "/loops/0/id: expected integer id, got False"),
    "duplicate-loop": ({"loops/1/id": 1}, "/loops/1/id: duplicate loop id 1"),
    "loop-no-edges": ({"loops/0/oriented_edges": _DROP}, "/loops/0/oriented_edges: missing required key"),
    "loop-empty": ({"loops/0/oriented_edges": []}, "/loops/0/oriented_edges: expected non-empty list"),
    "loop-edges-object": ({"loops/0/oriented_edges": {}}, "/loops/0/oriented_edges: expected non-empty list"),
    "use-not-object": ({"loops/0/oriented_edges/2": 3}, "/loops/0/oriented_edges/2: expected object, got int"),
    "use-no-edge": ({"loops/0/oriented_edges/1/edge": _DROP},
                    "/loops/0/oriented_edges/1/edge: missing required key"),
    "use-bool-edge": ({"loops/0/oriented_edges/1/edge": True},
                      "/loops/0/oriented_edges/1/edge: expected integer id, got True"),
    "use-unknown-edge": ({"loops/0/oriented_edges/1/edge": 999},
                         "/loops/0/oriented_edges/1/edge: unknown edge 999"),
    "use-int-sense": ({"loops/0/oriented_edges/0/sense": 1},
                      "/loops/0/oriented_edges/0/sense: expected boolean"),
    "use-no-sense": ({"loops/2/oriented_edges/3/sense": _DROP},
                     "/loops/2/oriented_edges/3/sense: missing required key"),
    "no-faces": ({"faces": _DROP}, "/faces: missing required key"),
    "face-not-object": ({"faces/0": "face"}, "/faces/0: expected object, got str"),
    "duplicate-face": ({"faces/1/id": 1}, "/faces/1/id: duplicate face id 1"),
    "face-no-surface": ({"faces/0/surface": _DROP}, "/faces/0/surface: missing required key"),
    "surface-not-object": ({"faces/0/surface": [1]}, "/faces/0/surface: expected object, got list"),
    "surface-no-kind": ({"faces/0/surface/kind": _DROP}, "/faces/0/surface/kind: missing required key"),
    "unknown-surface": ({"faces/0/surface/kind": "sphere"}, "/faces/0/surface/kind: unknown surface kind 'sphere'"),
    "plane-no-origin": ({"faces/0/surface/origin": _DROP}, "/faces/0/surface/origin: missing required key"),
    "plane-origin-nan": ({"faces/0/surface/origin/2": math.nan}, "/faces/0/surface/origin/2: number must be finite"),
    "plane-zero-normal": ({"faces/0/surface/normal": [0, 0, 0]}, "/faces/0/surface/normal: direction must be non-zero"),
    "plane-long-normal": ({"faces/0/surface/normal": [0, 0, 1, 0]}, "/faces/0/surface/normal: expected [x, y, z]"),
    "cylinder-no-radius": ({"faces/3/surface/radius": _DROP}, "/faces/3/surface/radius: missing required key"),
    "cylinder-zero-radius": ({"faces/3/surface/radius": 0.0}, "/faces/3/surface/radius: radius must be > 0"),
    "cylinder-null-point": ({"faces/3/surface/axis_point": None}, "/faces/3/surface/axis_point: expected [x, y, z]"),
    "cylinder-bool-axis": ({"faces/3/surface/axis_dir/1": True}, "/faces/3/surface/axis_dir/1: expected number, got bool"),
    "cylinder-tiny-axis": ({"faces/3/surface/axis_dir": [1e-13, 0, 0]},
                           "/faces/3/surface/axis_dir: direction must be non-zero"),
    "face-no-sense": ({"faces/0/same_sense": _DROP}, "/faces/0/same_sense: missing required key"),
    "face-string-sense": ({"faces/0/same_sense": "true"}, "/faces/0/same_sense: expected boolean"),
    "face-no-bounds": ({"faces/0/bounds": _DROP}, "/faces/0/bounds: missing required key"),
    "face-empty-bounds": ({"faces/0/bounds": []}, "/faces/0/bounds: expected non-empty list"),
    "bound-not-object": ({"faces/0/bounds/0": 1}, "/faces/0/bounds/0: expected object, got int"),
    "bound-float-loop": ({"faces/0/bounds/0/loop": 1.0}, "/faces/0/bounds/0/loop: expected integer id, got 1.0"),
    "bound-unknown-loop": ({"faces/0/bounds/0/loop": 999}, "/faces/0/bounds/0/loop: unknown loop 999"),
    "bound-null-outer": ({"faces/0/bounds/0/outer": None}, "/faces/0/bounds/0/outer: expected boolean"),
    "no-outer-bound": ({"faces/0/bounds/0/outer": False}, "/faces/0/bounds: exactly one outer bound required"),
    "two-outer-bounds": ({"faces/0/bounds/1": {"loop": 2, "outer": True}},
                         "/faces/0/bounds: exactly one outer bound required"),
    "bound-check-before-outer-count": ({"faces/0/bounds/1": {"loop": 2, "outer": True},
                                        "faces/0/bounds/0/outer": "yes"},
                                       "/faces/0/bounds/0/outer: expected boolean"),
    "surface-before-sense": ({"faces/0/surface/kind": "cone", "faces/0/same_sense": 1},
                             "/faces/0/surface/kind: unknown surface kind 'cone'"),
}


def _edited_lbend(edits: dict) -> str:
    doc = modelzoo.lbend_doc()
    for pointer, value in edits.items():
        *parents, last = pointer.split("/")
        obj = doc
        for part in parents:
            obj = obj[int(part) if isinstance(obj, list) else part]
        key = int(last) if isinstance(obj, list) else last
        if value is _DROP:
            del obj[key]
        elif isinstance(obj, list) and key == len(obj):
            obj.append(value)
        else:
            obj[key] = value
    return json.dumps(doc)


@pytest.mark.parametrize("edits, message", SCHEMA_CASES.values(), ids=SCHEMA_CASES.keys())
def test_schema_error_message_pinned(edits, message):
    with pytest.raises(SchemaError) as exc:
        load_brep_json(_edited_lbend(edits))
    assert str(exc.value) == message
    assert f"{exc.value.path}: {exc.value.reason}" == message


@pytest.mark.parametrize("text, message", [
    ("{", "/: not valid JSON: Expecting property name enclosed in double quotes: "
          "line 1 column 2 (char 1)"),
    ("", "/: not valid JSON: Expecting value: line 1 column 1 (char 0)"),
    ("[]", "/: top level must be an object"),
    ("null", "/: top level must be an object"),
], ids=["truncated", "empty", "list", "null"])
def test_schema_error_message_pinned_for_text(text, message):
    with pytest.raises(SchemaError) as exc:
        load_brep_json(text)
    assert str(exc.value) == message


def test_loader_accepts_integer_numbers_as_floats():
    doc = json.loads(_edited_lbend({"vertices/0/x": 0, "edges/10/curve/radius": 7,
                                    "faces/3/surface/axis_dir": [0, 1, 0]}))
    solid = load_brep_json(json.dumps(doc))
    assert solid.vertices[1] == (0.0, 0.0, 0.0) and type(solid.vertices[1][0]) is float
    assert type(solid.edges[11].curve.radius) is float
    assert all(type(c) is float for c in solid.faces[4].surface.axis_dir)


def _violations(solid):
    return [(v.kind, v.message, v.subject_id) for v in validate_manifold(solid)]


def _with_face(solid, face):
    return Solid(solid.name, solid.vertices, solid.edges, solid.loops, {**solid.faces, face.id: face})


def test_violations_pinned_non_manifold_edge():
    doc = modelzoo.box_doc()
    doc["faces"] = doc["faces"][:-1]
    assert _violations(solid_from(doc)) == [
        ("non_manifold_edge", "edge 4 used by 1 face loops (faces [1])", 4),
        ("non_manifold_edge", "edge 8 used by 1 face loops (faces [2])", 8),
        ("non_manifold_edge", "edge 9 used by 1 face loops (faces [3])", 9),
        ("non_manifold_edge", "edge 12 used by 1 face loops (faces [5])", 12),
    ]


def test_violations_pinned_open_loop():
    doc = modelzoo.box_doc()
    doc["loops"][0]["oriented_edges"][1]["sense"] = False
    assert _violations(solid_from(doc)) == [
        ("open_loop", "loop 1 does not chain into a closed cycle", 1),
    ]


def test_violations_pinned_bad_outer_bound(flat_sheet):
    bottom = flat_sheet.faces[1]
    no_outer = Face(1, bottom.surface, True, ((bottom.bounds[0][0], False),))
    two_outer = Face(2, flat_sheet.faces[2].surface, True, ((2, True), (2, True)))
    solid = _with_face(_with_face(flat_sheet, no_outer), two_outer)
    assert _violations(solid) == [
        ("non_manifold_edge", "edge 5 used by 3 face loops (faces [2, 3])", 5),
        ("non_manifold_edge", "edge 6 used by 3 face loops (faces [2, 4])", 6),
        ("non_manifold_edge", "edge 7 used by 3 face loops (faces [2, 5])", 7),
        ("non_manifold_edge", "edge 8 used by 3 face loops (faces [2, 6])", 8),
        ("bad_outer_bound", "face 1 has 0 outer bounds, expected 1", 1),
        ("bad_outer_bound", "face 2 has 2 outer bounds, expected 1", 2),
    ]


def test_violations_pinned_endpoint_off_line():
    s = tiny_solid([(Line(vec(0, 1, 0), vec(1, 0, 0)), (0, 0, 0), (3, 4, 0))])
    assert _violations(s) == [
        ("non_manifold_edge", "edge 1 used by 0 face loops (faces [])", 1),
        ("endpoint_off_curve", "edge 1: vertex 1 is 1 mm off its line", 1),
        ("endpoint_off_curve", "edge 1: vertex 2 is 3 mm off its line", 1),
    ]


def test_violations_pinned_endpoint_off_circle():
    s = tiny_solid([(Circle(vec(0, 0, 0), vec(0, 0, 1), 5.0), (5.5, 0, 0), (0, 5, 0.25)),
                    (Circle(vec(0, 0, 1), vec(0, 0, 1), 2.0), (2, 0, 0), (2, 0, 0))])
    assert _violations(s) == [
        ("non_manifold_edge", "edge 1 used by 0 face loops (faces [])", 1),
        ("non_manifold_edge", "edge 2 used by 0 face loops (faces [])", 2),
        ("endpoint_off_curve", "edge 1: vertex 1 is off its circle by (plane 0, radius 0.5) mm", 1),
        ("endpoint_off_curve", "edge 1: vertex 2 is off its circle by (plane 0.25, radius 0) mm", 1),
        ("endpoint_off_curve", "edge 2: vertex 3 is off its circle by (plane 1, radius 0) mm", 2),
        ("endpoint_off_curve", "edge 2: vertex 3 is off its circle by (plane 1, radius 0) mm", 2),
    ]


def test_violations_pinned_vertex_off_plane():
    doc = modelzoo.box_doc()
    doc["vertices"][6]["x"] += 0.5
    doc["vertices"][6]["z"] += 0.25
    assert _violations(solid_from(doc)) == [
        ("vertex_off_surface", "face 2: vertex 7 is 0.25 mm off the face plane", 2),
        ("vertex_off_surface", "face 4: vertex 7 is 0.5 mm off the face plane", 4),
    ]


def test_violations_pinned_vertex_off_cylinder(l_bend):
    wall = l_bend.faces[4]
    wider = Face(4, Cylinder(wall.surface.axis_point, wall.surface.axis_dir, 7.25), True, wall.bounds)
    assert _violations(_with_face(l_bend, wider)) == [
        ("vertex_off_surface", "face 4: vertex 3 is 0.25 mm off the cylinder", 4),
        ("vertex_off_surface", "face 4: vertex 9 is 0.25 mm off the cylinder", 4),
        ("vertex_off_surface", "face 4: vertex 2 is 0.25 mm off the cylinder", 4),
        ("vertex_off_surface", "face 4: vertex 10 is 0.25 mm off the cylinder", 4),
    ]


def test_line_end_vertex_can_be_off_its_line():
    # Within the envelope a JSON line, which runs from its start vertex's own
    # Vec3 along the normalized difference of its endpoints, passes within
    # 3.6e-7 mm of its end vertex. A line with a point of its own, as a
    # Part-21 LINE has, can miss its end vertex by more than TOL: that is the
    # case the end-vertex test serves.
    point = vec(0, 0, 0)
    s = tiny_solid([(Line(point, vec(1, 2e-8, 0).normalized()), (0, 0, 0), (100, 0, 0))])
    assert s.vertices[1] == point and s.vertices[1] is not point
    found = [v for v in _violations(s) if v[0] == "endpoint_off_curve"]
    assert found == [("endpoint_off_curve", "edge 1: vertex 2 is 2e-06 mm off its line", 1)]


def test_solid_reference_errors_pinned(flat_sheet):
    s = flat_sheet
    bad_edge = {**s.edges, 3: Edge(3, s.edges[3].curve, s.edges[3].start, 99)}
    bad_loop = {**s.loops, 2: Loop(2, ((1, True), (77, False)))}
    bad_face = {**s.faces, 1: Face(1, s.faces[1].surface, True, ((1, True), (55, False)))}
    cases = [
        (bad_edge, s.loops, s.faces, "edge 3 references unknown vertex 99"),
        (s.edges, bad_loop, s.faces, "loop 2 references unknown edge 77"),
        (s.edges, s.loops, bad_face, "face 1 references unknown loop 55"),
        # Vertex references are checked before edge references, and those
        # before loop references, whatever the order of the tables.
        (bad_edge, bad_loop, bad_face, "edge 3 references unknown vertex 99"),
        (s.edges, bad_loop, bad_face, "loop 2 references unknown edge 77"),
    ]
    for edges, loops, faces, message in cases:
        with pytest.raises(BrepError) as exc:
            Solid("bad", s.vertices, edges, loops, faces)
        assert str(exc.value) == message


# ---------------------------------------------------------------------------
# Coordinate envelope
# ---------------------------------------------------------------------------

PAST = math.nextafter(ENVELOPE, math.inf)


def _outside(name: str, value: float) -> str:
    return f"{name} = {value!r} is outside the coordinate envelope [-1e+09, 1e+09] mm"


def _with_vertex(s, vid, p):
    return Solid(s.name, {**s.vertices, vid: p}, s.edges, s.loops, s.faces)


def _with_edge_curve(s, eid, curve):
    e = s.edges[eid]
    return Solid(s.name, s.vertices, {**s.edges, eid: Edge(eid, curve, e.start, e.end)}, s.loops, s.faces)


def _with_surface(s, fid, surface):
    f = s.faces[fid]
    return _with_face(s, Face(fid, surface, f.same_sense, f.bounds))


@pytest.mark.parametrize("build, message", [
    (lambda s: _with_vertex(s, 3, vec(100, math.nan, 0)), _outside("vertex 3: y", math.nan)),
    (lambda s: _with_vertex(s, 1, vec(-PAST, 0, 0)), _outside("vertex 1: x", -PAST)),
    (lambda s: _with_surface(s, 2, Plane(vec(0, 0, math.inf), vec(0, 0, 1))),
     _outside("face 2: origin z", math.inf)),
    (lambda s: _with_edge_curve(s, 5, Circle(vec(50, 40, 0), vec(0, 0, 1), PAST)),
     _outside("edge 5: radius", PAST)),
    (lambda s: _with_edge_curve(s, 5, Circle(vec(50, 40, -PAST), vec(0, 0, 1), 10.0)),
     _outside("edge 5: center z", -PAST)),
    (lambda s: _with_surface(s, 7, Cylinder(vec(50, PAST, 0), vec(0, 0, 1), 10.0)),
     _outside("face 7: axis_point y", PAST)),
    (lambda s: _with_surface(s, 7, Cylinder(vec(50, 40, 0), vec(0, 0, 1), math.inf)),
     _outside("face 7: radius", math.inf)),
    (lambda s: _with_edge_curve(s, 1, Line(vec(math.nan, 0, 0), vec(1, 0, 0))),
     _outside("edge 1: point x", math.nan)),
], ids=["nan-vertex", "vertex-past", "inf-plane-origin", "circle-radius-past", "circle-center-past",
        "cylinder-axis-point-past", "cylinder-radius-inf", "nan-line-point"])
def test_solid_refuses_a_value_outside_the_envelope(hole_sheet, build, message):
    with pytest.raises(BrepError) as exc:
        build(hole_sheet)
    assert str(exc.value) == message


def test_solid_names_a_vertex_then_an_edge_then_a_face_outside_the_envelope(hole_sheet):
    s = hole_sheet
    e, f, last = s.edges[5], s.faces[1], max(s.vertices)
    vertices = {**s.vertices, last: vec(math.inf, 0, 0)}
    edges = {**s.edges, 5: Edge(5, Circle(vec(50, 40, 0), vec(0, 0, 1), PAST), e.start, e.end)}
    faces = {**s.faces, 1: Face(1, Plane(vec(0, 0, -PAST), vec(0, 0, -1)), f.same_sense, f.bounds)}
    for maps, message in [
        ((vertices, edges, faces), _outside(f"vertex {last}: x", math.inf)),
        ((s.vertices, edges, faces), _outside("edge 5: radius", PAST)),
        ((s.vertices, s.edges, faces), _outside("face 1: origin z", -PAST)),
    ]:
        with pytest.raises(BrepError) as exc:
            Solid("far", maps[0], maps[1], s.loops, maps[2])
        assert str(exc.value) == message


def test_solid_takes_values_on_the_envelope(hole_sheet):
    # Every bound is inclusive, radii and line points included; directions are not bounded.
    s = _with_vertex(hole_sheet, 1, vec(-ENVELOPE, ENVELOPE, -ENVELOPE))
    s = _with_edge_curve(s, 5, Circle(vec(50, 40, ENVELOPE), vec(0, 0, 1e300), ENVELOPE))
    s = _with_edge_curve(s, 1, Line(vec(ENVELOPE, 0, 0), vec(1, 0, 0)))
    s = _with_surface(s, 1, Plane(vec(0, 0, -ENVELOPE), vec(0, 0, -1)))
    _with_surface(s, 7, Cylinder(vec(ENVELOPE, -ENVELOPE, 0), vec(0, 0, 1), ENVELOPE))


def test_solid_checks_references_before_the_envelope(flat_sheet):
    e = flat_sheet.edges[3]
    edges = {**flat_sheet.edges, 3: Edge(3, e.curve, e.start, 99)}
    with pytest.raises(BrepError, match="^edge 3 references unknown vertex 99$"):
        Solid("bad", {**flat_sheet.vertices, 1: vec(math.nan, 0, 0)}, edges, flat_sheet.loops, flat_sheet.faces)
