"""Edge taxonomy: exterior/interior crossed with common/isolated."""
import math

import pytest

from punchplan.brep import Circle, Edge, Line, Solid
from punchplan.classify import (
    EdgeClass,
    EdgeClassTotals,
    InconsistentTopology,
    classify_reference_edges,
    totals,
)
from punchplan.features import FacePairing, Role, group_features, pair_faces, sheet_metrics
from punchplan.geom import vec


def classified(solid):
    m = sheet_metrics(solid)
    p = pair_faces(solid, m)
    feats = group_features(solid, p, m)
    return m, feats, classify_reference_edges(solid, m, p, feats)


def class_counts(classification):
    counts = {cls: 0 for cls in EdgeClass}
    for _, cls in classification.all_edges():
        counts[cls] += 1
    return counts


def test_flat_sheet_all_isolated_exterior(flat_sheet):
    _, feats, cls = classified(flat_sheet)
    assert feats == []
    assert class_counts(cls) == {EdgeClass.IEE: 4, EdgeClass.CEE: 0,
                                 EdgeClass.CIE: 0, EdgeClass.IIE: 0}


def test_hole_sheet_classes(hole_sheet):
    _, feats, cls = classified(hole_sheet)
    assert class_counts(cls) == {EdgeClass.IEE: 4, EdgeClass.CEE: 0,
                                 EdgeClass.CIE: 0, EdgeClass.IIE: 1}
    tot = totals(cls.by_feature[feats[0].id], hole_sheet)
    assert tot.n_iie == 1
    assert tot.tl_iie == pytest.approx(2 * math.pi * 10, abs=1e-9)


def test_bridge_interior_loop_splits(bridge_sheet):
    _, feats, cls = classified(bridge_sheet)
    tot = totals(cls.by_feature[feats[0].id], bridge_sheet)
    assert (tot.n_cie, tot.n_iie) == (2, 2)
    assert tot.tl_cie == pytest.approx(60.0, abs=1e-9)
    assert tot.tl_iie == pytest.approx(100.0, abs=1e-9)


def test_lbend_common_exterior_edge(l_bend):
    _, feats, cls = classified(l_bend)
    counts = class_counts(cls)
    assert counts[EdgeClass.CEE] == 1
    assert counts[EdgeClass.IEE] == 3
    # The common exterior edge is attributed to the bend feature.
    tot = totals(cls.by_feature[feats[0].id], l_bend)
    assert tot.n_cee == 1
    assert tot.tl_cee == pytest.approx(40.0)


def test_boss_common_interior_edges(boss_sheet):
    _, feats, cls = classified(boss_sheet)
    tot = totals(cls.by_feature[feats[0].id], boss_sheet)
    assert tot.n_cie == 2
    assert tot.n_iie == 0
    assert tot.tl_cie == pytest.approx(62.83185307179586, abs=1e-9)


def test_partition_every_rf_edge_classified_once(bridge_sheet, shelf_sheet, boss_sheet):
    for solid in (bridge_sheet, shelf_sheet, boss_sheet):
        m, _, cls = classified(solid)
        rf = solid.faces[m.reference_face]
        rf_edges = sorted(
            eid for lid, _ in rf.bounds
            for eid, _ in solid.loops[lid].oriented_edges
        )
        got = sorted(eid for eid, _ in cls.all_edges())
        assert got == rf_edges


def test_both_axes_present_across_fixture_set(l_bend, bridge_sheet):
    seen = set()
    for solid in (l_bend, bridge_sheet):
        _, _, cls = classified(solid)
        seen.update(cls for _, cls in cls.all_edges())
    assert seen == set(EdgeClass)


def test_reference_role_across_a_reference_edge_is_inconsistent(flat_sheet):
    # Side face 4 lies across edge 2 of reference face 1; a pairing that puts
    # it in the reference pair contradicts the topology.
    m = sheet_metrics(flat_sheet)
    roles = {1: Role.REFERENCE, 2: Role.REFERENCE, 3: Role.SIDE, 4: Role.REFERENCE,
             5: Role.SIDE, 6: Role.SIDE}
    with pytest.raises(InconsistentTopology) as exc:
        classify_reference_edges(flat_sheet, m, FacePairing(roles, {}), [])
    assert str(exc.value) == "edge 2: adjacent face belongs to the reference pair"


def test_totals_direct_sums(bridge_sheet):
    _, feats, cls = classified(bridge_sheet)
    edges = cls.by_feature[feats[0].id]
    tot = totals(edges, bridge_sheet)
    assert (tot.tl_cie, tot.tl_iie, tot.tl_cee) == pytest.approx((60.0, 100.0, 0.0))
    assert tot.n_cee == 0


def test_totals_empty():
    s = Solid("empty", {}, {}, {}, {})
    tot = totals([], s)
    assert tot == EdgeClassTotals()


def test_totals_zero_iff_count_zero(bridge_sheet, boss_sheet, l_bend):
    for solid in (bridge_sheet, boss_sheet, l_bend):
        _, feats, cls = classified(solid)
        for f in feats:
            tot = totals(cls.by_feature[f.id], solid)
            for count, total in ((tot.n_cee, tot.tl_cee), (tot.n_cie, tot.tl_cie),
                                 (tot.n_iie, tot.tl_iie), (tot.n_iee, tot.tl_iee)):
                assert (count == 0) == (total == 0.0)


def test_totals_invariant_under_edge_subdivision():
    # One straight 10 mm edge vs the same segment split at 3 mm, and one
    # quarter arc vs two eighth arcs.
    d = vec(1, 0, 0)
    circ = Circle(vec(0, 0, 0), vec(0, 0, 1), 4.0)
    s45 = (4 * math.cos(math.pi / 4), 4 * math.sin(math.pi / 4), 0.0)
    vertices = {
        1: vec(0, 0, 0), 2: vec(10, 0, 0), 3: vec(3, 0, 0),
        4: vec(4, 0, 0), 5: vec(0, 4, 0), 6: vec(*s45),
    }
    edges = {
        1: Edge(1, Line(vec(0, 0, 0), d), 1, 2),
        2: Edge(2, Line(vec(0, 0, 0), d), 1, 3),
        3: Edge(3, Line(vec(3, 0, 0), d), 3, 2),
        4: Edge(4, circ, 4, 5),
        5: Edge(5, circ, 4, 6),
        6: Edge(6, circ, 6, 5),
    }
    s = Solid("splits", vertices, edges, {}, {})
    whole = totals([(1, EdgeClass.IIE), (4, EdgeClass.CIE)], s)
    split = totals([(2, EdgeClass.IIE), (3, EdgeClass.IIE),
                    (5, EdgeClass.CIE), (6, EdgeClass.CIE)], s)
    assert split.tl_iie == pytest.approx(whole.tl_iie, rel=1e-9)
    assert split.tl_cie == pytest.approx(whole.tl_cie, rel=1e-9)
