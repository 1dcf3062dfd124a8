"""Pairing's broad phase: the plane sweep and the cylinder axis buckets
shortlist every pair the exact tests accept, and shortlist few."""
import json
import math
import random
from types import SimpleNamespace

from hypothesis import example, given, settings
from hypothesis import strategies as st

import inputs
from punchplan import brep, features
from punchplan.brep import Cylinder, Face, Loop, Solid
from punchplan.features import TOL
from punchplan.geom import ANGULAR_TOL, Vec3, vec

# Bounds that touch, lie exactly TOL apart, start together, or are -0.0,
# and some anywhere; NaN and infinite bounds too.
_BOUND = (st.sampled_from([0.0, -0.0, TOL, -TOL, 2 * TOL, 1.0, 1.0 + TOL, 1.0 - TOL, 2.0, -1.0,
                           math.inf, -math.inf, math.nan])
          | st.floats(-3.0, 3.0))
_LENGTH = st.sampled_from([0.0, TOL, 2 * TOL, 0.5, 1.0, -1.0, math.inf]) | st.floats(0.0, 4.0)
_INTERVAL = st.tuples(_BOUND, _LENGTH).map(lambda b: (b[0], b[0] + b[1]))
_FACE = st.tuples(_INTERVAL, _INTERVAL)


def _plane(fid: int, face: tuple) -> SimpleNamespace:
    (u_lo, u_hi), (v_lo, v_hi) = face
    return SimpleNamespace(id=fid, u_lo=u_lo, u_hi=u_hi, v_lo=v_lo, v_hi=v_hi)


@settings(max_examples=400, deadline=None)
@given(_FACE, st.lists(_FACE, min_size=1, max_size=12))
# The starts spread wider along v, and the member that overlaps a starts at NaN there.
@example(((-1.0, 0.0), (0.0, 1.0)), [((0.0, 1.0), (-10.0, -9.0)), ((0.0, 1.0), (math.nan, 0.5)),
                                     ((0.0, 1.0), (5.0, 6.0))])
def test_plane_sweep_keeps_every_member_the_overlap_test_accepts(a, members):
    # b is a member of a class whose normal is exactly -a.normal: the exact
    # test reads b's own intervals, u reversed.
    a = _plane(0, a)
    c = features._PlaneClass([_plane(i, m) for i, m in enumerate(members, 1)])
    kept = {b.id for b in c.facing(a)}
    assert {b.id for b in c if features._planes_face_each_other(None, a, b, True)} <= kept
    assert sorted(b.id for b in c) == list(range(1, len(members) + 1))


def _cylinder_solid(cylinders: list[Cylinder]) -> Solid:
    faces = {fid: Face(fid, c, True, ((1, True),)) for fid, c in enumerate(cylinders, 1)}
    return Solid("cylinders", {}, {}, {1: Loop(1, ())}, faces)


def _tilted(d: Vec3, angle: float, toward: Vec3) -> Vec3:
    """d turned by about ``angle`` toward the part of ``toward`` across d."""
    across = toward - d * toward.dot(d)
    return (d + across.normalized() * math.tan(angle)).normalized()


@settings(max_examples=150, deadline=None)
@given(st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)).filter(lambda d: sum(x * x for x in d) > 0.01),
       st.sampled_from([(0.0, 0.0, 0.0), (2e6, 2e6, 2e6), (-2e6, 5.0, 2e6), (30.0, -40.0, 7.5)]),
       st.lists(st.tuples(st.sampled_from([0.0, 0.5, 0.99, 1.0, 1.01, 2.0]) | st.floats(0.0, 3.0),
                          st.booleans(), st.sampled_from([0.0, 0.5, 1.0, 1.5]) | st.floats(0.0, 2.0),
                          st.sampled_from([0.0, 0.25, -0.5, 2e6]) | st.floats(-100.0, 100.0), st.floats(0.5, 9.0)),
                min_size=2, max_size=10),
       st.randoms(use_true_random=False))
def test_axis_buckets_keep_every_pair_the_coaxial_test_accepts(axis, base, spec, rng):
    # Axes tilted by up to twice ANGULAR_TOL, in either sense, through points
    # up to twice TOL across the base axis and far along it, with the base
    # axis point as far as 2e6 mm from the origin on every axis.
    d = vec(*axis).normalized()
    p = vec(*base)
    cylinders = []
    for tilt, flip, across, along, radius in spec:
        toward = vec(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
        if (toward - d * toward.dot(d)).norm() < 1e-3:
            continue
        dg = _tilted(d, tilt * ANGULAR_TOL, toward)
        side = vec(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
        if (side - d * side.dot(d)).norm() < 1e-3:
            continue
        offset = (side - d * side.dot(d)).normalized() * (across * TOL)
        cylinders.append(Cylinder(p + d * along + offset, -dg if flip else dg, radius))
    solid = _cylinder_solid(cylinders)
    table = features.FaceTable(solid)
    for f in table.cylinders:
        near = {id(g) for bucket in table.coaxial[f.id] for g in bucket}
        for g in table.cylinders:
            if features._coaxial(f.face.surface, g.face.surface):
                assert id(g) in near, (f.id, g.id)


def test_axis_buckets_hold_each_cylinder_once():
    # Every cylinder sits in one bucket, which its own lookup finds.
    rng = random.Random(3)
    cylinders = [Cylinder(vec(rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(-50, 50)),
                          rng.choice([vec(1, 0, 0), vec(0, -1, 0), vec(0, 0.6, 0.8)]), rng.uniform(1, 5))
                 for _ in range(40)]
    table = features.FaceTable(_cylinder_solid(cylinders))
    buckets = {id(bucket): bucket for near in table.coaxial.values() for bucket in near}
    held = [g.id for bucket in buckets.values() for g in bucket]
    assert sorted(held) == sorted(table.faces)
    for f in table.cylinders:
        assert sum(f in bucket for bucket in table.coaxial[f.id]) == 1


def test_pairing_the_k24_grid_sheet_tries_few_pairs(monkeypatch):
    # On the seed-7 24 x 24 grid sheet (3,878 faces, 987 pairs), a full scan
    # of each exactly opposite plane class and of every cylinder one
    # thickness away in radius made 35,192 overlap tests and 9,039 coaxiality
    # tests; the broad phase must leave at most a fifth of the 44,231.
    doc, _ = inputs.grid_sheet(random.Random(7), 24, "grid_k24")
    solid = brep.load_brep_json(json.dumps(doc))
    metrics = features.sheet_metrics(solid)
    calls = {"_planes_face_each_other": 0, "_coaxial": 0}
    for fn in calls:
        def counted(*args, real=getattr(features, fn), fn=fn):
            calls[fn] += 1
            return real(*args)
        monkeypatch.setattr(features, fn, counted)
    pairing = features.pair_faces(solid, metrics)
    assert (len(solid.faces), len(pairing.pairs)) == (3878, 987)
    assert sum(calls.values()) <= 8800, calls
