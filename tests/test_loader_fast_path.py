"""The JSON loader's inline fast path builds the doubles of the checked helpers.

``brep.load_brep_json`` builds each vertex from three finite floats, each
line direction, and each other unit direction whose length lies strictly
between TOL**2 and inf, with inline arithmetic; anything else goes to
``brep._coords`` and ``Vec3.normalized``. Every record must come out bit for
bit as those two would build it from the document.
"""
import json
import math
import random

import pytest

import modelzoo
from conftest import FIXTURE_DIR, solid_from
from punchplan import brep
from punchplan.brep import Circle, Cylinder, Line, Plane
from punchplan.geom import Vec3


def _checked(value: list) -> Vec3:
    return brep._coords(*value, range(3))


def _bits(v: Vec3) -> tuple:
    assert type(v) is Vec3
    return tuple(c.hex() for c in v)


def _assert_checked(doc: dict) -> None:
    """Every vertex, line direction, circle center and axis and surface point
    and direction of ``doc``'s solid, against the checked helpers."""
    solid = solid_from(doc)
    vertices = {v["id"]: brep._coords(v["x"], v["y"], v["z"], "xyz") for v in doc["vertices"]}
    for vid, v in vertices.items():
        assert _bits(solid.vertices[vid]) == _bits(v), vid
    for e in doc["edges"]:
        curve, c = solid.edges[e["id"]].curve, e["curve"]
        if c["kind"] == "line":
            assert type(curve) is Line
            a, b = vertices[e["start"]], vertices[e["end"]]
            assert _bits(curve.point) == _bits(a)
            assert _bits(curve.direction) == _bits((b - a).normalized()), e["id"]
        else:
            assert type(curve) is Circle
            assert _bits(curve.center) == _bits(_checked(c["center"]))
            assert _bits(curve.axis) == _bits(_checked(c["axis"]).normalized()), e["id"]
    for f in doc["faces"]:
        surface, s = solid.faces[f["id"]].surface, f["surface"]
        if s["kind"] == "plane":
            assert type(surface) is Plane
            assert _bits(surface.origin) == _bits(_checked(s["origin"])), f["id"]
            assert _bits(surface.normal) == _bits(_checked(s["normal"]).normalized()), f["id"]
        else:
            assert type(surface) is Cylinder
            assert _bits(surface.axis_point) == _bits(_checked(s["axis_point"])), f["id"]
            assert _bits(surface.axis_dir) == _bits(_checked(s["axis_dir"]).normalized()), f["id"]


def _posed(doc: dict, rng: random.Random) -> dict:
    axis = (rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.05, 1))
    shift = (rng.uniform(-500, 500), rng.uniform(-500, 500), rng.uniform(-500, 500))
    return modelzoo.transform_doc(doc, modelzoo.rot_axis_angle(axis, rng.uniform(0, 2 * math.pi)),
                                  shift)


@pytest.mark.parametrize("path", sorted(FIXTURE_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_fixtures_load_as_the_checked_helpers_build_them(path):
    _assert_checked(json.loads(path.read_text(encoding="utf-8")))


@pytest.mark.parametrize("seed", range(20))
def test_random_sheets_and_their_poses_load_as_the_checked_helpers_build_them(seed):
    rng = random.Random(seed)
    doc, _ = modelzoo.random_sheet(rng, name=f"sheet{seed}")
    _assert_checked(doc)
    _assert_checked(_posed(doc, rng))


def test_a_sheet_whose_squared_lengths_overflow_is_refused_at_its_first_vertex():
    # At 1e155 every squared edge length overflows, which the inline line
    # direction does not rescale: the Solid refuses such vertices, past the
    # envelope, before any direction is used. Within it no square overflows.
    doc = modelzoo.scale_doc(modelzoo.random_sheet(random.Random(3))[0], 1e155)
    with pytest.raises(brep.BrepError) as exc:
        solid_from(doc)
    assert str(exc.value) == "vertex 2: x = 8.8e+156 is outside the coordinate envelope [-1e+09, 1e+09] mm"


def test_integer_coordinates_load_as_the_checked_helpers_build_them():
    doc = modelzoo.box_doc()
    as_int = lambda c: int(c) if c == int(c) else c  # noqa: E731
    for v in doc["vertices"]:
        v.update({k: as_int(v[k]) for k in "xyz"})
    for f in doc["faces"]:
        s = f["surface"]
        s.update({k: [as_int(c) for c in s[k]] for k in ("origin", "normal") if k in s})
    assert all(type(v[k]) is int for v in doc["vertices"] for k in "xyz")
    _assert_checked(doc)


def test_negative_zero_coordinates_load_as_the_checked_helpers_build_them():
    doc = modelzoo.scale_doc(modelzoo.box_doc(), -1.0)
    assert any(v["x"] == 0 and math.copysign(1.0, v["x"]) < 0 for v in doc["vertices"])
    _assert_checked(doc)
