"""The face table's one plane query, FaceTable.opposed, and the thickness that reads it."""
import json
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import inputs
import modelzoo
from conftest import fixture_path, solid_from
from punchplan import features
from punchplan.brep import BrepError, Face, Loop, Plane, Solid
from punchplan.features import SheetMetrics, anti_parallel_pair_distances, compute_thickness, sheet_metrics
from punchplan.geom import ENVELOPE, is_anti_parallel, vec
from test_features import FAR, POSES, _TILT, _jitter_directions, _straddling_skins, _turned


def _assert_opposed_finds_every_anti_parallel_class(solid):
    """From every planar face a, ``opposed`` over every offset yields each plane
    class at most once, every class with a member anti-parallel to a within
    ANGULAR_TOL among them, and marks a class exact just when its normal is
    a's negation. Over the thickness's range around a's plane it yields just
    those classes whose offset lies in that range."""
    table = features.face_table(solid)
    t = compute_thickness(solid)
    for a in table.planes:
        found = list(table.opposed(a, -math.inf, math.inf))
        assert len({id(c) for c, _ in found}) == len(found)
        assert ({id(c) for c in table.classes if any(is_anti_parallel(a.normal, g.normal) for g in c)}
                <= {id(c) for c, _ in found})
        assert all(exact == (c[0].normal == -a.normal) for c, exact in found)
        x, r = -a.offset, t + table.window
        assert ([id(c) for c, _ in table.opposed(a, x - r, x + r)]
                == [id(c) for c, _ in found if x - r <= c[0].offset <= x + r])


@settings(max_examples=12, deadline=None)
@given(st.integers(2, 4), *POSES)
@example(4, 7, (0.0, 0.0, 1.0), 0.0, (0.0, 0.0, 0.0), 1.0, 0.0)
@example(3, 11, (0.0, 0.0, 1.0), 0.0, (100.0, -40.0, 3.0), 0.05, 1e-7)
def test_opposed_finds_every_class_on_grid_sheets(k, seed, axis, angle, shift, scale, jitter):
    rng = random.Random(seed)
    doc = modelzoo.transform_doc(modelzoo.scale_doc(inputs.grid_sheet(rng, k, "grid")[0], scale),
                                 modelzoo.rot_axis_angle(axis, angle), shift)
    _assert_opposed_finds_every_anti_parallel_class(solid_from(_jitter_directions(doc, rng, jitter)))


@pytest.mark.parametrize("name", ["row1_shelf", "row2_boss", "row3_hood", "row4_bridge", "l_bend"])
def test_opposed_finds_every_class_far_from_the_origin(name):
    doc = json.loads(fixture_path(f"{name}.json").read_text(encoding="utf-8"))
    _assert_opposed_finds_every_anti_parallel_class(solid_from(modelzoo.transform_doc(doc, None, (2e6, 2e6, 2e6))))


@pytest.mark.parametrize("solid", [
    _straddling_skins(extra_skin=False),
    _straddling_skins(extra_skin=True),
    _straddling_skins(extra_skin=True, shift=FAR),
    solid_from(_turned(modelzoo.box_doc(), 2, "normal", [0.0, math.sin(_TILT), math.cos(_TILT)])),
    solid_from(_turned(modelzoo.lbend_doc(), 7, "normal", [-math.cos(_TILT), 0.0, math.sin(_TILT)])),
], ids=["straddling", "straddling-third", "straddling-third-far", "tilted-box", "tilted-wall"])
def test_opposed_finds_every_class_on_skins_near_a_tolerance(solid):
    _assert_opposed_finds_every_anti_parallel_class(solid)


def _opposed_planes(z: float) -> Solid:
    """Two faces without edges on the planes z = -z and z = +z, facing away."""
    surfaces = (Plane(vec(0, 0, -z), vec(0, 0, -1)), Plane(vec(0, 0, z), vec(0, 0, 1)))
    faces = {fid: Face(fid, surface, True, ((1, True),)) for fid, surface in enumerate(surfaces, 1)}
    return Solid("far", {}, {}, {1: Loop(1, ())}, faces)


def test_planes_whose_separation_would_overflow_are_refused():
    # At z = -1.7e308 and +1.7e308 the separation would overflow to inf; the
    # Solid refuses the first origin, outside the envelope. At its edge the
    # separation, 2e9, is finite, and it is the thickness, which the search,
    # starting from inf, finds as any other.
    with pytest.raises(BrepError) as exc:
        _opposed_planes(1.7e308)
    assert str(exc.value) == "face 1: origin z = -1.7e+308 is outside the coordinate envelope [-1e+09, 1e+09] mm"
    solid = _opposed_planes(ENVELOPE)
    assert anti_parallel_pair_distances(solid) == [(1, 2, 2e9)]
    assert compute_thickness(solid) == 2e9
    assert sheet_metrics(solid) == SheetMetrics(2e9, 1, vec(0, 0, -1), 2)
