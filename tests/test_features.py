"""Face table, thickness, reference face selection, pairing, grouping, and heights."""
import json
import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import inputs
import modelzoo
import oracles
from conftest import fixture_path, solid_from
from punchplan import brep, features
from punchplan.brep import Circle, Cylinder, Face, Loop, Plane, Solid
from punchplan.cli import main
from punchplan.features import (
    AmbiguousPairing,
    FacePairing,
    FeatureKind,
    NoOppositeFace,
    NoParallelFeatureFace,
    NoParallelPairs,
    NoPlanarFace,
    Role,
    SheetFeature,
    SheetMetrics,
    anti_parallel_pair_distances,
    compute_thickness,
    feature_height,
    group_features,
    measure_heights,
    pair_faces,
    select_reference_face,
    sheet_metrics,
)
from punchplan.geom import ANGULAR_TOL, is_anti_parallel, plane_basis, vec


# ---------------------------------------------------------------------------
# Thickness
# ---------------------------------------------------------------------------

def test_box_thickness(flat_sheet):
    assert compute_thickness(flat_sheet) == pytest.approx(2.0, abs=1e-9)


def test_small_box_pair_distances():
    s = solid_from(modelzoo.box_doc(10, 10, 2))
    dists = sorted(d for _, _, d in anti_parallel_pair_distances(s))
    assert dists == pytest.approx([2.0, 10.0, 10.0])
    assert compute_thickness(s) == pytest.approx(2.0)


def test_lbend_pair_distances(l_bend):
    # Hand enumeration: top/bottom 2, wall skins 2, bend cylinders 2,
    # bottom vs leg end 27, the two profile faces 40, left end vs outer skin 67.
    dists = sorted(d for _, _, d in anti_parallel_pair_distances(l_bend))
    assert dists == pytest.approx([2.0, 2.0, 2.0, 27.0, 40.0, 67.0])
    assert compute_thickness(l_bend) == pytest.approx(2.0)


def test_thickness_is_minimal_over_enumeration(bridge_sheet, boss_sheet):
    for s in (bridge_sheet, boss_sheet):
        t = compute_thickness(s)
        for _, _, d in anti_parallel_pair_distances(s):
            assert t <= d + 1e-12


def _jitter_directions(doc: dict, rng: random.Random, amount: float) -> dict:
    """Tilt every plane normal and cylinder axis by up to ``amount`` per
    component (well inside ANGULAR_TOL for pairs), so that opposed normals are
    no longer exact negatives nor coaxial axes exactly one line."""
    faces = []
    for f in doc["faces"]:
        surface = dict(f["surface"])
        key = "normal" if surface["kind"] == "plane" else "axis_dir"
        surface[key] = [c + rng.uniform(-amount, amount) for c in surface[key]]
        faces.append({**f, "surface": surface})
    return {**doc, "faces": faces}


def _random_posed_sheet(seed, axis, angle, shift, scale, jitter):
    rng = random.Random(seed)
    doc, _ = modelzoo.random_sheet(rng)
    doc = modelzoo.transform_doc(modelzoo.scale_doc(doc, scale),
                                 modelzoo.rot_axis_angle(axis, angle), shift)
    return solid_from(_jitter_directions(doc, rng, jitter))


POSES = (
    st.integers(0, 10_000),
    st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(0.05, 1)),
    st.floats(0, 2 * math.pi),
    st.tuples(st.floats(-500, 500), st.floats(-500, 500), st.floats(-500, 500)),
    st.sampled_from([0.05, 1.0, 7.5]),
    st.sampled_from([0.0, 1e-7]),
)


@settings(max_examples=40, deadline=None)
@given(*POSES)
def test_thickness_matches_pair_enumeration(seed, axis, angle, shift, scale, jitter):
    # The bucketed search returns the very double the full enumeration does.
    s = _random_posed_sheet(seed, axis, angle, shift, scale, jitter)
    assert compute_thickness(s) == min(d for *_, d in anti_parallel_pair_distances(s))


def _reference_pairing(solid, t):
    """Face roles by the full quadratic scan: every face tested against every other."""
    from punchplan.brep import face_area, face_normal
    from punchplan.features import _coaxial, _overlaps

    def extent(face, d):
        values = [d.dot(vec(*p)) for p in oracles.face_samples(solid, face)]
        return min(values), max(values)

    def qualifies(a, b):
        if isinstance(a.surface, Plane) and isinstance(b.surface, Plane):
            na = face_normal(a)
            if not is_anti_parallel(na, face_normal(b)):
                return False
            u, v = plane_basis(na)
            return (abs(abs((b.surface.origin - a.surface.origin).dot(na)) - t) <= 1e-6
                    and _overlaps(*extent(a, u), *extent(b, u))
                    and _overlaps(*extent(a, v), *extent(b, v)))
        if isinstance(a.surface, Cylinder) and isinstance(b.surface, Cylinder):
            axis = a.surface.axis_dir
            return (_coaxial(a.surface, b.surface)
                    and abs(abs(a.surface.radius - b.surface.radius) - t) <= 1e-6
                    and _overlaps(*extent(a, axis), *extent(b, axis)))
        return False

    def measure(f):
        if isinstance(f.surface, Plane):
            return face_area(f, solid)
        lo, hi = extent(f, f.surface.axis_dir)
        return 2.0 * math.pi * f.surface.radius * (hi - lo)

    faces = sorted(solid.faces.values(), key=lambda f: (-measure(f), f.id))
    pairs, paired = [], set()
    for f in faces:
        if f.id not in paired:
            found = [g.id for g in faces if g.id != f.id and g.id not in paired and qualifies(f, g)]
            if len(found) > 1:
                return ("ambiguous", f.id, sorted(found))
            if found:
                pairs.append((f.id, found[0]))
                paired.update((f.id, found[0]))
    return pairs


@settings(max_examples=25, deadline=None)
@given(*POSES)
def test_pairing_matches_full_scan(seed, axis, angle, shift, scale, jitter):
    # With no reference pair held back, every face competes, so any pair the
    # buckets failed to shortlist would change the result.
    s = _random_posed_sheet(seed, axis, angle, shift, scale, jitter)
    t = compute_thickness(s)
    try:
        pairing = pair_faces(s, SheetMetrics(t, -1, vec(0, 0, 1), -2))
        got = list(pairing.pairs.values())
    except AmbiguousPairing as exc:
        got = ("ambiguous", exc.face_id, exc.candidates)
    assert got == _reference_pairing(s, t)


def _feature_kinds(solid) -> list[str]:
    metrics = sheet_metrics(solid)
    return sorted(f.kind.name for f in group_features(solid, pair_faces(solid, metrics), metrics))


@pytest.mark.xfail(strict=True, raises=AmbiguousPairing,
                   reason="FOUND 33: the planes' overlap test runs along plane_basis(normal), "
                          "which turns with the pose")
def test_a_turned_sheet_gives_the_features_of_the_unturned_one():
    # The 12th sheet drawn; turned 0.7 rad about (0.3, 0.5, 0.8), face 10
    # qualifies for both faces 9 and 23.
    rng = random.Random(5)
    doc = [modelzoo.random_sheet(rng)[0] for _ in range(12)][-1]
    turned = modelzoo.transform_doc(doc, modelzoo.rot_axis_angle((0.3, 0.5, 0.8), 0.7))
    assert _feature_kinds(solid_from(turned)) == _feature_kinds(solid_from(doc))


def test_no_parallel_pairs():
    # A single loose planar face pairs with nothing.
    doc = modelzoo.flat_face_doc([(0, 0), (1, 0), (1, 1), (0, 1)])
    with pytest.raises(NoParallelPairs):
        compute_thickness(solid_from(doc))


def test_thickness_scales_with_model(bridge_sheet):
    doc = modelzoo.scale_doc(modelzoo.fixture_row4_bridge(), 3.0)
    scaled = solid_from(doc)
    assert compute_thickness(scaled) == pytest.approx(6.0, abs=1e-9)
    assert select_reference_face(scaled) == select_reference_face(bridge_sheet)


# ---------------------------------------------------------------------------
# Reference face
# ---------------------------------------------------------------------------

def test_flat_sheet_reference_tie_break(flat_sheet):
    # Both large faces measure 8000; the smaller id wins.
    assert select_reference_face(flat_sheet) == 1


def test_bridge_reference_is_larger_bottom(bridge_sheet):
    # Bottom keeps more area than the top (leg footprints shrink the opening).
    assert select_reference_face(bridge_sheet) == 1
    m = sheet_metrics(bridge_sheet)
    assert m.opposite_face == 2
    assert (m.reference_normal.x, m.reference_normal.y, m.reference_normal.z) == \
        pytest.approx((0, 0, -1))


def test_no_planar_face():
    cyl = Face(1, Cylinder(vec(0, 0, 0), vec(0, 0, 1), 5.0), True, ((1, True),))
    solid = Solid("c", {1: vec(5, 0, 0)}, {}, {1: Loop(1, ())}, {1: cyl})
    with pytest.raises(NoPlanarFace):
        select_reference_face(solid)


def test_no_opposite_face():
    doc = modelzoo.flat_face_doc([(0, 0), (10, 0), (10, 10), (0, 10)])
    with pytest.raises(NoOppositeFace):
        # A lone face has no anti-parallel partner one thickness away.
        from punchplan.features import _opposite_face
        _opposite_face(solid_from(doc), 1, 2.0)


# ---------------------------------------------------------------------------
# Pairing
# ---------------------------------------------------------------------------

def test_flat_sheet_roles(flat_sheet):
    pairing = pair_faces(flat_sheet, sheet_metrics(flat_sheet))
    roles = [pairing.role_of(fid) for fid in sorted(flat_sheet.faces)]
    assert roles[:2] == [Role.REFERENCE, Role.REFERENCE]
    assert roles[2:] == [Role.SIDE] * 4


def test_lbend_roles(l_bend):
    pairing = pair_faces(l_bend, sheet_metrics(l_bend))
    counts = {}
    for fid in l_bend.faces:
        counts[pairing.role_of(fid)] = counts.get(pairing.role_of(fid), 0) + 1
    assert counts == {Role.REFERENCE: 2, Role.WALL: 2, Role.BEND: 2, Role.SIDE: 4}
    bend_pair = next(p for p, (a, b) in pairing.pairs.items()
                     if pairing.roles[a] is Role.BEND)
    a, b = pairing.pairs[bend_pair]
    radii = sorted(l_bend.faces[f].surface.radius for f in (a, b))
    assert radii == pytest.approx([5.0, 7.0])


def test_hole_wall_is_side_face(hole_sheet):
    pairing = pair_faces(hole_sheet, sheet_metrics(hole_sheet))
    wall = next(f.id for f in hole_sheet.faces.values()
                if isinstance(f.surface, Cylinder))
    assert pairing.role_of(wall) is Role.SIDE


def test_roles_partition_faces(bridge_sheet, boss_sheet, shelf_sheet):
    for solid in (bridge_sheet, boss_sheet, shelf_sheet):
        pairing = pair_faces(solid, sheet_metrics(solid))
        assert set(pairing.roles) == set(solid.faces)
        assert sum(1 for r in pairing.roles.values() if r is Role.REFERENCE) == 2
        paired = [fid for pair in pairing.pairs.values() for fid in pair]
        assert len(paired) == len(set(paired))
        for a, b in pairing.pairs.values():
            assert pairing.roles[a] is pairing.roles[b]
            assert pairing.is_member(a)


def test_ambiguous_pairing_reported():
    # Three wall skins in arithmetic progression: the middle one (largest,
    # processed first) qualifies against both neighbours at the thickness.
    b = modelzoo.DocBuilder("ambiguous")
    b.plane_face((0, 0, 0), (0, 0, -1), modelzoo.rect_xy(0, 0, 40, 40, 0))
    b.plane_face((0, 0, 2), (0, 0, 1), modelzoo.rect_xy(0, 0, 40, 40, 2))
    b.plane_face((10, 0, 0), (1, 0, 0),
                 modelzoo.poly([(10, 0, 4), (10, 30, 4), (10, 30, 24), (10, 0, 24)]))
    b.plane_face((8, 0, 0), (-1, 0, 0),
                 modelzoo.poly([(8, 0, 4), (8, 28, 4), (8, 28, 24), (8, 0, 24)]))
    b.plane_face((12, 0, 0), (-1, 0, 0),
                 modelzoo.poly([(12, 0, 4), (12, 28, 4), (12, 28, 24), (12, 0, 24)]))
    solid = solid_from(b.doc())
    metrics = SheetMetrics(2.0, 1, vec(0, 0, -1), 2)
    with pytest.raises(AmbiguousPairing) as exc:
        pair_faces(solid, metrics)
    assert len(exc.value.candidates) == 2


# Wall skins whose outward normals tilt toward +y or -y by about half a
# bucket cell, so their normal components fall either side of a cell edge.
_EDGE = 0.5 * features._CELL
# Far from the coordinate origin, plane offsets of nearly opposed skins no
# longer add up to their separation within TOL; the search window must widen.
FAR = (0.0, 5000.0, 0.0)


def _straddling_skins(extra_skin: bool, shift=(0.0, 0.0, 0.0)):
    b = modelzoo.DocBuilder("straddle")
    b.plane_face((0, 0, 0), (0, 0, -1), modelzoo.rect_xy(0, 0, 40, 40, 0))
    b.plane_face((0, 0, 2), (0, 0, 1), modelzoo.rect_xy(0, 0, 40, 40, 2))
    b.plane_face((10, 0, 0), (1, _EDGE - 2e-7, 0),
                 modelzoo.poly([(10, 0, 4), (10, 30, 4), (10, 30, 24), (10, 0, 24)]))
    b.plane_face((8, 0, 0), (-1, -_EDGE - 2e-7, 0),
                 modelzoo.poly([(8, 0, 4), (8, 28, 4), (8, 28, 24), (8, 0, 24)]))
    if extra_skin:
        # Reaches lower than face 3 but still overlaps it in projection,
        # so it qualifies as well.
        b.plane_face((12, 0, 0), (-1, -_EDGE + 2e-7, 0),
                     modelzoo.poly([(12, 0, 3), (12, 28, 3), (12, 28, 23), (12, 0, 23)]))
    return solid_from(modelzoo.transform_doc(b.doc(), None, shift))


@pytest.mark.parametrize("shift", [(0.0, 0.0, 0.0), FAR], ids=["near", "far"])
def test_skins_straddling_a_bucket_edge_pair(shift):
    solid = _straddling_skins(extra_skin=False, shift=shift)
    a, b = (solid.faces[fid].surface.normal for fid in (3, 4))
    # Within ANGULAR_TOL of anti-parallel, yet in different normal cells.
    assert is_anti_parallel(a, b) and (a + b).norm() < ANGULAR_TOL
    assert features._cell(-a) != features._cell(b)
    pairing = pair_faces(solid, SheetMetrics(2.0, 1, vec(0, 0, -1), 2))
    assert pairing.pairs == {1: (3, 4)}
    assert pairing.role_of(4) is Role.WALL


@pytest.mark.parametrize("shift", [(0.0, 0.0, 0.0), FAR], ids=["near", "far"])
def test_third_skin_across_a_bucket_edge_is_ambiguous(shift):
    # Face 5 sits in face 3's exactly opposite cell, face 4 in the next one.
    solid = _straddling_skins(extra_skin=True, shift=shift)
    with pytest.raises(AmbiguousPairing) as exc:
        pair_faces(solid, SheetMetrics(2.0, 1, vec(0, 0, -1), 2))
    assert (exc.value.face_id, exc.value.candidates) == (3, [4, 5])


def test_laterally_offset_walls_do_not_pair():
    # Two anti-parallel skins one thickness apart but with disjoint spans
    # must both stay side faces: the planes face each other, the faces do not.
    b = modelzoo.DocBuilder("offset")
    b.plane_face((0, 0, 0), (0, 0, -1), modelzoo.rect_xy(0, 0, 60, 40, 0))
    b.plane_face((0, 0, 2), (0, 0, 1), modelzoo.rect_xy(0, 0, 60, 40, 2))
    b.plane_face((20, 0, 0), (1, 0, 0),
                 modelzoo.poly([(20, 0, 4), (20, 15, 4), (20, 15, 20), (20, 0, 20)]))
    b.plane_face((18, 0, 0), (-1, 0, 0),
                 modelzoo.poly([(18, 25, 4), (18, 40, 4), (18, 40, 20), (18, 25, 20)]))
    solid = solid_from(b.doc())
    pairing = pair_faces(solid, SheetMetrics(2.0, 1, vec(0, 0, -1), 2))
    assert pairing.role_of(3) is Role.SIDE
    assert pairing.role_of(4) is Role.SIDE


# A unit vector turned this far stays in reach of the normal buckets
# (2 * ANGULAR_TOL) but fails the exact angular tests (ANGULAR_TOL).
_TILT = 1.5e-6


def _turned(doc: dict, face_id: int, key: str, direction: list[float]) -> dict:
    next(f for f in doc["faces"] if f["id"] == face_id)["surface"][key] = direction
    return doc


def test_skins_just_outside_the_angular_tolerance_set_no_thickness():
    # The box's top skin turned about x: the bottom skin's buckets still
    # shortlist it, and the thickness falls to the next pair, the y-sides.
    doc = _turned(modelzoo.box_doc(), 2, "normal", [0.0, math.sin(_TILT), math.cos(_TILT)])
    solid = solid_from(doc)
    table = features.face_table(solid)
    assert any(table.faces[2] in c for _, cs in table.opposite[table.faces[1].normal][1] for c in cs)
    assert not is_anti_parallel(table.faces[1].normal, table.faces[2].normal)
    assert compute_thickness(solid) == 80.0


def test_wall_skins_just_outside_the_angular_tolerance_do_not_pair():
    # The L-bend's wall skins 6 and 7, face 7 turned about y.
    doc = _turned(modelzoo.lbend_doc(), 7, "normal", [-math.cos(_TILT), 0.0, math.sin(_TILT)])
    solid = solid_from(doc)
    metrics = sheet_metrics(solid)
    table = features.face_table(solid)
    assert any(table.faces[7] in c for _, cs in table.opposite[table.faces[6].normal][1] for c in cs)
    pairing = pair_faces(solid, metrics)
    assert (pairing.role_of(6), pairing.role_of(7)) == (Role.SIDE, Role.SIDE)
    assert [pairing.role_of(f) for f in (4, 5)] == [Role.BEND, Role.BEND]


def test_bend_skins_just_outside_the_angular_tolerance_do_not_pair():
    # The L-bend's bend skins 4 and 5, face 5's axis turned about z.
    doc = _turned(modelzoo.lbend_doc(), 5, "axis_dir", [-math.sin(_TILT), math.cos(_TILT), 0.0])
    solid = solid_from(doc)
    inner, outer = (solid.faces[f].surface for f in (5, 4))
    assert abs(outer.radius - inner.radius) == 2.0
    assert not features._coaxial(outer, inner)
    metrics = sheet_metrics(solid)
    assert metrics.thickness == 2.0
    pairing = pair_faces(solid, metrics)
    assert (pairing.role_of(4), pairing.role_of(5)) == (Role.SIDE, Role.SIDE)
    assert [pairing.role_of(f) for f in (6, 7)] == [Role.WALL, Role.WALL]


# ---------------------------------------------------------------------------
# Grouping
# ---------------------------------------------------------------------------

def analyze(solid):
    m = sheet_metrics(solid)
    p = pair_faces(solid, m)
    return m, p, group_features(solid, p, m)


def test_plain_hole_is_cut_feature(hole_sheet):
    _, _, feats = analyze(hole_sheet)
    assert len(feats) == 1
    assert feats[0].kind is FeatureKind.CUT
    assert feats[0].member_faces == frozenset()
    assert len(feats[0].interior_loops) == 1


def test_two_holes_two_features():
    doc = modelzoo.sheet_doc("two_holes", 100, 80, [
        modelzoo.circle_cut(30, 40, 8),
        modelzoo.rect_cut(60, 30, 80, 50),
    ])
    _, _, feats = analyze(solid_from(doc))
    assert [f.kind for f in feats] == [FeatureKind.CUT, FeatureKind.CUT]
    all_loops = set().union(*(f.interior_loops for f in feats))
    assert len(all_loops) == 2


def test_bridge_is_one_mixed_feature(bridge_sheet):
    _, pairing, feats = analyze(bridge_sheet)
    assert len(feats) == 1
    feat = feats[0]
    assert feat.kind is FeatureKind.MIXED
    assert len(feat.member_faces) == 6  # two leg pairs + the deck pair
    for fid in feat.member_faces:
        assert pairing.is_member(fid)


def test_boss_is_one_formed_feature(boss_sheet):
    _, _, feats = analyze(boss_sheet)
    assert len(feats) == 1
    assert feats[0].kind is FeatureKind.FORMED
    assert len(feats[0].member_faces) == 4


def test_tab_skins_join_through_pairing():
    # The two skins of a plain vertical tab never share an edge; they must
    # still group into one feature via their wall pair.
    doc = modelzoo.sheet_doc("tab", 100, 80, [modelzoo.tab(24, 24, 48, 40, 12)])
    _, _, feats = analyze(solid_from(doc))
    assert len(feats) == 1
    assert feats[0].kind is FeatureKind.MIXED
    assert len(feats[0].member_faces) == 2


def test_membership_partitions_members(shelf_sheet, bridge_sheet):
    for solid in (shelf_sheet, bridge_sheet):
        _, pairing, feats = analyze(solid)
        members = {fid for fid in solid.faces if pairing.is_member(fid)}
        seen = set()
        for f in feats:
            assert not (f.member_faces & seen)
            seen |= f.member_faces
        assert seen == members


def test_every_interior_loop_owned_once(shelf_sheet, hole_sheet):
    for solid in (shelf_sheet, hole_sheet):
        m, p, feats = analyze(solid)
        rf = solid.faces[m.reference_face]
        inner = {lid for lid, outer in rf.bounds if not outer}
        owned = [lid for f in feats for lid in f.interior_loops]
        assert sorted(owned) == sorted(inner)


def test_hole_bordering_two_features_joins_the_first_member_edge(bridge_sheet):
    # With the deck skins 11 and 12 taken for side faces, the bridge's two leg
    # pairs are two features, and its one hole (loop 2) borders both: edge 6
    # faces leg skin 8, edge 8 faces leg skin 7, edges 5 and 7 face side faces.
    # The hole joins the feature across its lowest-id edge with a member face,
    # edge 6, not the feature with the smaller root, and makes it mixed.
    m = sheet_metrics(bridge_sheet)
    roles = {fid: Role.SIDE for fid in bridge_sheet.faces}
    roles[1] = roles[2] = Role.REFERENCE
    for fid in (7, 8, 9, 10):
        roles[fid] = Role.WALL
    pairing = FacePairing(roles, {1: (7, 9), 2: (8, 10)})
    feats = group_features(bridge_sheet, pairing, m)
    assert feats == [
        SheetFeature(1, frozenset({7, 9}), FeatureKind.FORMED, frozenset()),
        SheetFeature(2, frozenset({8, 10}), FeatureKind.MIXED, frozenset({2})),
    ]


# ---------------------------------------------------------------------------
# Heights
# ---------------------------------------------------------------------------

def test_bridge_height(bridge_sheet):
    m, p, feats = analyze(bridge_sheet)
    assert feature_height(bridge_sheet, m, feats[0]) == pytest.approx(10.0, abs=1e-9)


def test_cut_height_is_thickness(hole_sheet):
    m, p, feats = analyze(hole_sheet)
    assert feature_height(hole_sheet, m, feats[0]) == pytest.approx(2.0)
    assert feature_height(hole_sheet, m, feats[0], cut_height=5.0) == pytest.approx(5.0)


def test_height_takes_maximum():
    # Two shelves of different heights fused into one synthetic feature.
    doc = modelzoo.sheet_doc("two_shelves", 120, 92, [
        modelzoo.shelf(24, 24, 44, 40, 8),
        modelzoo.shelf(60, 56, 80, 72, 16),
    ])
    solid = solid_from(doc)
    m, p, feats = analyze(solid)
    merged = SheetFeature(99, feats[0].member_faces | feats[1].member_faces,
                          FeatureKind.MIXED, frozenset())
    assert feature_height(solid, m, merged) == pytest.approx(16.0)


def test_vertical_tab_height_unmeasurable(l_bend):
    m, p, feats = analyze(l_bend)
    with pytest.raises(NoParallelFeatureFace):
        feature_height(l_bend, m, feats[0])
    measured, errors = measure_heights(l_bend, m, feats)
    assert measured[0].height is None
    assert feats[0].id in errors


# ---------------------------------------------------------------------------
# Face table
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["hole_sheet_r10", "l_bend", "row2_boss"])
def test_face_table_builds_one_arc_frame_per_arc_edge(monkeypatch, name):
    # One walk per face measures its samples and area; the walks of one table
    # share each arc edge's frame and samples, so each arc edge, used by two
    # faces, is framed and tested for closing once.
    solid = brep.load_brep_json(fixture_path(f"{name}.json").read_text(encoding="utf-8"))
    arc_edges = {eid for f in solid.faces.values() for lid, _ in f.bounds
                 for eid, _ in solid.loops[lid].oriented_edges
                 if isinstance(solid.edges[eid].curve, Circle)}
    calls = {"_arc_frame": [], "_full_circle": []}
    for fn, made in calls.items():
        monkeypatch.setattr(brep, fn, lambda *args, real=getattr(brep, fn), made=made:
                            made.append(args) or real(*args))
    features.FaceTable(solid)
    assert arc_edges
    assert {fn: len(made) for fn, made in calls.items()} == dict.fromkeys(calls, len(arc_edges))


def _disc_between_coincident_vertices():
    """One planar face bounded by one arc whose two vertex ids share a point."""
    return solid_from({
        "name": "disc",
        "vertices": [{"id": 1, "x": 5.0, "y": 0.0, "z": 0.0}, {"id": 2, "x": 5.0, "y": 0.0, "z": 0.0}],
        "edges": [{"id": 1, "start": 1, "end": 2, "curve": {
            "kind": "circle", "center": [0, 0, 0], "axis": [0, 0, 1], "radius": 5.0}}],
        "loops": [{"id": 1, "oriented_edges": [{"edge": 1, "sense": True}]}],
        "faces": [{"id": 1, "same_sense": True, "bounds": [{"loop": 1, "outer": True}],
                   "surface": {"kind": "plane", "origin": [0, 0, 0], "normal": [0, 0, 1]}}],
    })


def test_arc_between_coincident_vertices_samples_the_full_circle():
    # Two vertex ids at one point: the arc is a full circle, in its samples
    # as in its length and area.
    solid = _disc_between_coincident_vertices()
    g = features.FaceGeometry(solid, solid.faces[1])
    assert brep.edge_length(solid.edges[1], solid) == pytest.approx(10.0 * math.pi, rel=1e-12)
    assert g.area == pytest.approx(25.0 * math.pi, rel=1e-12)
    for lo, hi in ((g.u_lo, g.u_hi), (g.v_lo, g.v_hi)):
        assert lo == pytest.approx(-5.0, abs=1e-9)
        assert hi == pytest.approx(5.0, abs=1e-9)


def _edgeless_faces():
    """A planar and a cylindrical face, each bounded by one loop of no edges."""
    origin, z = vec(0, 0, 0), vec(0, 0, 1)
    return Solid("edgeless", {}, {}, {1: Loop(1, ())},
                 {1: Face(1, Plane(origin, z), True, ((1, True),)),
                  2: Face(2, Cylinder(origin, z, 3.0), True, ((1, True),))})


def _rewired(doc: dict, rewire) -> Solid:
    """The solid of ``doc`` with each loop's list of edge uses passed through ``rewire``."""
    for lp in doc["loops"]:
        lp["oriented_edges"] = rewire(lp["oriented_edges"])
    return solid_from(doc)


def _out_of_chain_order(uses: list) -> list:
    # Last use first: no use starts where the use before it ends.
    return uses[::-1]


def _reversed_mid_chain(uses: list) -> list:
    # The second use flipped: it and the use after it start off the chain.
    return uses[:1] + [dict(use, sense=not use["sense"]) for use in uses[1:2]] + uses[2:]


_WALKED = {
    **{name: lambda build=build: solid_from(build()) for name, build in sorted(modelzoo.FIXTURES.items())},
    **{f"{name}_out_of_chain_order": lambda build=build: _rewired(build(), _out_of_chain_order)
       for name, build in sorted(modelzoo.FIXTURES.items())},
    **{f"{name}_reversed_mid_chain": lambda build=build: _rewired(build(), _reversed_mid_chain)
       for name, build in sorted(modelzoo.FIXTURES.items())},
    **{f"posed_{seed}": lambda seed=seed: _random_posed_sheet(
        seed, (0.3, -0.7, 0.5), 0.37 * seed, (41.5, -233.0, 7.25), (0.05, 1.0, 7.5)[seed % 3],
        (0.0, 1e-7)[seed % 2]) for seed in range(1, 9)},
    # Faces in reverse order: an arc edge's first use moves from the planar
    # face to the cylinder or the other way round.
    **{f"{name}_faces_reversed": lambda build=modelzoo.FIXTURES[name]: solid_from(
        dict(doc := build(), faces=doc["faces"][::-1])) for name in ("row2_boss", "l_bend")},
    "disc_between_coincident_vertices": _disc_between_coincident_vertices,
    "edgeless": _edgeless_faces,
}


@pytest.mark.parametrize("name", _WALKED)
def test_face_intervals_are_the_sample_projections_to_the_bit(name):
    # The walk projects samples it never builds; its intervals must be the very
    # doubles of Vec3.dot over the oracle's Vec3 samples, and an edgeless face's
    # interval the empty one. The planar area agrees with face_area's walk.
    solid = _WALKED[name]()
    for face in solid.faces.values():
        g = features.FaceGeometry(solid, face)
        samples = oracles.face_samples(solid, face)
        if g.normal is None:
            spans = [(g.axis_lo, g.axis_hi, g.axis)]
        else:
            u, v = plane_basis(g.normal)
            spans = [(g.u_lo, g.u_hi, u), (g.v_lo, g.v_hi, v)]
            assert brep.face_area(face, solid).hex() == g.area.hex()
        for lo, hi, d in spans:
            values = [d.dot(p) for p in samples]
            want = (min(values), max(values)) if values else (math.inf, -math.inf)
            assert (lo.hex(), hi.hex()) == (want[0].hex(), want[1].hex()), (face.id, d)


@pytest.mark.parametrize("name", _WALKED)
def test_face_area_is_greens_theorem_per_edge_use_to_the_bit(name):
    # The walk reuses a use's head projection as the next use's tail when
    # they are one vertex, and projects the tail anew otherwise; the oracle
    # projects both ends of every use. Loops out of chain order or with a use
    # reversed must still give the very same double.
    solid = _WALKED[name]()
    for face in solid.faces.values():
        if isinstance(face.surface, Plane):
            want = oracles.face_area(solid, face).hex()
            assert features.FaceGeometry(solid, face).area.hex() == want, face.id
            assert brep.face_area(face, solid).hex() == want, face.id


@pytest.mark.parametrize("name", _WALKED)
def test_face_table_shares_arc_samples_to_the_bit(name):
    # A table's walks share each arc edge's samples; every field of every face
    # must be the very value a walk of that face alone gives.
    solid = _WALKED[name]()
    table = features.FaceTable(solid)
    for face in solid.faces.values():
        alone, shared = features.FaceGeometry(solid, face), table.faces[face.id]
        for slot in features.FaceGeometry.__slots__:
            assert repr(getattr(shared, slot, None)) == repr(getattr(alone, slot, None)), (face.id, slot)


# ---------------------------------------------------------------------------
# Plane classes and radius order
# ---------------------------------------------------------------------------

def _pairs_or_ambiguity(solid, t):
    """pair_faces with no reference pair held back, in _reference_pairing's terms."""
    try:
        return list(pair_faces(solid, SheetMetrics(t, -1, vec(0, 0, 1), -2)).pairs.values())
    except AmbiguousPairing as exc:
        return ("ambiguous", exc.face_id, exc.candidates)


def _reference_opposite(solid, rf, t):
    """The opposite face by a scan of every planar face: the largest one
    anti-parallel to rf at distance t, ties to the smaller id."""
    a = solid.faces[rf]
    na = brep.face_normal(a)
    found = [(-brep.face_area(g, solid), g.id) for g in solid.faces.values()
             if isinstance(g.surface, Plane) and is_anti_parallel(na, brep.face_normal(g))
             and abs(abs((g.surface.origin - a.surface.origin).dot(na)) - t) <= 1e-6]
    return min(found)[1] if found else None


def _opposite_or_none(solid, rf, t):
    try:
        return features._opposite_face(solid, rf, t)
    except NoOppositeFace:
        return None


@settings(max_examples=12, deadline=None)
@given(st.integers(2, 4), *POSES)
@example(4, 7, (0.0, 0.0, 1.0), 0.0, (0.0, 0.0, 0.0), 1.0, 0.0)
@example(3, 11, (0.0, 0.0, 1.0), 0.0, (100.0, -40.0, 3.0), 0.05, 1e-7)
def test_grid_sheet_matches_the_full_scans(k, seed, axis, angle, shift, scale, jitter):
    # Unturned grids put many coplanar faces in one plane class; jitter
    # leaves no two normals exact negatives, so every pair takes the
    # per-face tests.
    rng = random.Random(seed)
    doc = modelzoo.transform_doc(modelzoo.scale_doc(inputs.grid_sheet(rng, k, "grid")[0], scale),
                                 modelzoo.rot_axis_angle(axis, angle), shift)
    s = solid_from(_jitter_directions(doc, rng, jitter))
    t = compute_thickness(s)
    assert t == min(d for *_, d in anti_parallel_pair_distances(s))
    rf = select_reference_face(s)
    assert _opposite_or_none(s, rf, t) == _reference_opposite(s, rf, t)
    assert _pairs_or_ambiguity(s, t) == _reference_pairing(s, t)


@pytest.mark.parametrize("name", ["row1_shelf", "row2_boss", "row3_hood", "row4_bridge", "l_bend"])
def test_far_from_the_origin_one_window_matches_the_full_scans(name):
    # 2e6 mm out on every axis the table's window, TOL plus 2 ANGULAR_TOL
    # times the largest plane-origin 1-norm, is wider than the thickness, so
    # the offsets at -t and +t are searched as one range.
    doc = json.loads(fixture_path(f"{name}.json").read_text(encoding="utf-8"))
    s = solid_from(modelzoo.transform_doc(doc, None, (2e6, 2e6, 2e6)))
    t = compute_thickness(s)
    assert t <= features.face_table(s).window
    assert t == min(d for *_, d in anti_parallel_pair_distances(s))
    rf = select_reference_face(s)
    assert features._opposite_face(s, rf, t) == _reference_opposite(s, rf, t)
    assert _pairs_or_ambiguity(s, t) == _reference_pairing(s, t)


def _assert_across_is_a_full_scan(solid, t):
    """FaceTable.across from every planar face finds, as a set, the planar
    faces a scan of all of them finds, each once, and marks each as exact
    when its normal is exactly the face's negation."""
    table = features.face_table(solid)
    for a in table.planes:
        found = [(g, exact) for faces, exact in table.across(a, t) for g in faces]
        assert len({g.id for g, _ in found}) == len(found)
        assert ({g.id for g, _ in found}
                == {g.id for g in table.planes if features._at_separation(a, g, t)})
        assert all(exact == (g.normal == -a.normal) for g, exact in found)


@settings(max_examples=12, deadline=None)
@given(st.integers(2, 4), *POSES)
@example(4, 7, (0.0, 0.0, 1.0), 0.0, (0.0, 0.0, 0.0), 1.0, 0.0)
@example(3, 11, (0.0, 0.0, 1.0), 0.0, (100.0, -40.0, 3.0), 0.05, 1e-7)
def test_across_matches_a_full_scan_on_grid_sheets(k, seed, axis, angle, shift, scale, jitter):
    rng = random.Random(seed)
    doc = modelzoo.transform_doc(modelzoo.scale_doc(inputs.grid_sheet(rng, k, "grid")[0], scale),
                                 modelzoo.rot_axis_angle(axis, angle), shift)
    s = solid_from(_jitter_directions(doc, rng, jitter))
    _assert_across_is_a_full_scan(s, compute_thickness(s))


@pytest.mark.parametrize("name", ["row1_shelf", "row2_boss", "row3_hood", "row4_bridge", "l_bend"])
def test_across_matches_a_full_scan_far_from_the_origin(name):
    doc = json.loads(fixture_path(f"{name}.json").read_text(encoding="utf-8"))
    s = solid_from(modelzoo.transform_doc(doc, None, (2e6, 2e6, 2e6)))
    _assert_across_is_a_full_scan(s, compute_thickness(s))


@pytest.mark.parametrize("solid", [
    _straddling_skins(extra_skin=False),
    _straddling_skins(extra_skin=True),
    _straddling_skins(extra_skin=True, shift=FAR),
    solid_from(_turned(modelzoo.box_doc(), 2, "normal", [0.0, math.sin(_TILT), math.cos(_TILT)])),
    solid_from(_turned(modelzoo.lbend_doc(), 7, "normal", [-math.cos(_TILT), 0.0, math.sin(_TILT)])),
], ids=["straddling", "straddling-third", "straddling-third-far", "tilted-box", "tilted-wall"])
def test_across_matches_a_full_scan_on_skins_near_a_tolerance(solid):
    _assert_across_is_a_full_scan(solid, compute_thickness(solid))
    _assert_across_is_a_full_scan(solid, 2.0)


def _split_rod(x: float = 1e308) -> dict:
    """A 0.5 x 0.25 rod from -x to +x. Its long faces are split at 0, and each
    half's plane origin sits at its own end, so that no face's span from its
    origin overflows, while origins across the halves differ by 2x."""
    w, h = 0.5, 0.25
    b = modelzoo.DocBuilder("rod")
    b.plane_face((x, 0, h), (0, 0, 1), modelzoo.rect_xy(0, 0, x, w, h))
    b.plane_face((-x, 0, h), (0, 0, 1), modelzoo.rect_xy(-x, 0, 0, w, h))
    b.plane_face((-x, 0, 0), (0, 0, -1), modelzoo.rect_xy(-x, 0, 0, w, 0))
    b.plane_face((x, 0, 0), (0, 0, -1), modelzoo.rect_xy(0, 0, x, w, 0))
    b.plane_face((0, 0, 0), (0, -1, 0),
                 modelzoo.poly([(-x, 0, 0), (0, 0, 0), (x, 0, 0), (x, 0, h), (0, 0, h), (-x, 0, h)]))
    b.plane_face((0, w, 0), (0, 1, 0),
                 modelzoo.poly([(-x, w, 0), (-x, w, h), (0, w, h), (x, w, h), (x, w, 0), (0, w, 0)]))
    b.plane_face((x, 0, 0), (1, 0, 0), modelzoo.poly([(x, 0, 0), (x, w, 0), (x, w, h), (x, 0, h)]))
    b.plane_face((-x, 0, 0), (-1, 0, 0), modelzoo.poly([(-x, 0, 0), (-x, 0, h), (-x, w, h), (-x, w, 0)]))
    return b.doc()


def test_origins_whose_difference_overflows_keep_their_pairs_apart():
    # Faces 1 and 4 lie at +1e308, faces 2 and 3 at -1e308 along x, where
    # the normals are zero. Across the halves the separation is inf * 0,
    # NaN, and the pair is skipped; within a half it is the thickness.
    s = solid_from(_split_rod())
    assert anti_parallel_pair_distances(s) == [(1, 4, 0.25), (2, 3, 0.25), (5, 6, 0.5), (7, 8, math.inf)]
    metrics = sheet_metrics(s)
    assert metrics == SheetMetrics(0.25, 1, vec(0, 0, 1), 4)
    pairing = pair_faces(s, metrics)
    assert pairing.pairs == {1: (2, 3)}
    assert [pairing.role_of(f) for f in range(1, 9)] == [Role.REFERENCE, Role.WALL, Role.WALL,
                                                          Role.REFERENCE] + [Role.SIDE] * 4


def test_a_height_that_is_not_finite_fails_its_feature(capsys, tmp_path):
    # Feature 1's height is face 2's separation from reference face 1, whose
    # origins are 2e308 apart along x, where the normal is zero: inf * 0, NaN.
    path = tmp_path / "rod.json"
    path.write_text(json.dumps(_split_rod()), encoding="utf-8")
    out = tmp_path / "rod.report.json"
    assert main(["params", str(path), "--out", str(out)]) == 5
    assert capsys.readouterr().err == ("error: none of 1 feature(s) produced parameters; "
                                       "first: feature 1 has height nan, which is not finite\n")

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    [block] = json.loads(out.read_text(encoding="utf-8"), parse_constant=reject)["features"]
    assert (block["h"], block["params"]) == (None, None)
    assert block["error"] == "feature 1 has height nan, which is not finite"
    assert main(["features", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "feature 1: kind=formed h=? members=[2,3]" in lines
    assert "  note: feature 1 has height nan, which is not finite" in lines


def test_cylinder_coaxiality_is_tested_in_face_id_order():
    # _coaxial measures the axis-point offset across the first cylinder's
    # axis only. Face 4's axis is tilted 5e-7 rad from face 3's, inside
    # ANGULAR_TOL, and its axis point lies 20 mm along its own axis: the pair
    # is coaxial with face 4 first, but 1e-5 off axis with face 3 first, as
    # the full scan takes it. Radius order puts face 4, the smaller, first.
    c, s = math.cos(5e-7), math.sin(5e-7)
    big = Cylinder(vec(0, 0, 0), vec(1, 0, 0), 2.5)
    small = Cylinder(vec(20 * c, 20 * s, 0), vec(c, s, 0), 1.5)
    assert not features._coaxial(big, small) and features._coaxial(small, big)
    surfaces = (Plane(vec(0, 0, 0), vec(0, 0, 1)), Plane(vec(0, 0, 3), vec(0, 0, -1)), big, small)
    faces = {fid: Face(fid, surface, True, ((1, True),)) for fid, surface in enumerate(surfaces, 1)}
    solid = Solid("tilted", {}, {}, {1: Loop(1, ())}, faces)
    assert anti_parallel_pair_distances(solid) == [(1, 2, 3.0)]
    assert compute_thickness(solid) == 3.0


@settings(max_examples=100, deadline=None)
@given(st.floats(0.5, 50.0), st.sampled_from([0.05, 2.0, 7.5]),
       st.lists(st.tuples(st.sampled_from([-1.0, 0.0, 1.0]),
                          st.sampled_from([-2e-6, -1e-6, -5e-7, 0.0, 5e-7, 1e-6, 2e-6]),
                          st.floats(-0.5, 0.5) | st.just(0.0)), min_size=1, max_size=30))
def test_radius_order_finds_every_radius_one_thickness_away(r, t, offsets):
    # Radii at, just inside and just outside TOL of r - t, r and r + t, on
    # both sides of r, and some anywhere between.
    radii = sorted(x for side, near, far in offsets if (x := r + side * t + near + far) > 0)
    cylinders = [SimpleNamespace(radius=x) for x in radii]
    got = features._radii_apart(cylinders, r, t)
    assert [id(g) for g in got] == [id(g) for g in cylinders
                                    if abs(abs(r - g.radius) - t) <= features.TOL]
