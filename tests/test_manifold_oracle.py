"""``brep.validate_manifold`` against ``oracles.validate_manifold``.

The production check walks each loop once and, for a planar face whose loops
all close, reads only its uses' head vertices; every other face goes through
the vertex set the oracle checks. Both must give the same violations, with the
same messages, in the same order, on random sheets and the fixtures, whole and
with planted faults: a vertex moved off its plane, one use of a loop reversed,
a vertex shared by two loops of one face, a NaN coordinate, or an edge used
three times; and a use reversed with the vertex it headed, which then heads
no use of the open loop, moved off the face's plane. A random sheet takes up
to two.
"""
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modelzoo
import oracles
from conftest import fixture_path, solid_from
from punchplan import load_brep_json, load_step
from punchplan.brep import Edge, Face, Loop, Plane, Solid, validate_manifold
from punchplan.geom import TOL, vec

FIXTURES = sorted(p.name for p in fixture_path(".").iterdir() if p.suffix in (".json", ".step"))
FAULTS = ("none", "off_plane", "reversed_use", "shared_vertex", "nan", "three_uses", "open_off_plane")


def _fixture(name: str) -> Solid:
    text = fixture_path(name).read_text(encoding="utf-8")
    return load_step(text) if name.endswith(".step") else load_brep_json(text)


def _moved(solid: Solid, vid: int, to) -> Solid:
    vertices = {**solid.vertices, vid: to}
    return Solid(solid.name, vertices, solid.edges, solid.loops, solid.faces)


def _renamed(solid: Solid, old: int, new: int) -> Solid:
    """The solid with vertex ``old`` replaced by ``new`` in every edge."""
    edges = {eid: Edge(eid, e.curve, new if e.start == old else e.start, new if e.end == old else e.end)
             for eid, e in solid.edges.items()}
    return Solid(solid.name, solid.vertices, edges, solid.loops, solid.faces)


def _loop_vertices(solid: Solid, lid: int) -> list[int]:
    return sorted({v for eid, _ in solid.loops[lid].oriented_edges
                   for v in (solid.edges[eid].start, solid.edges[eid].end)})


def _planted(solid: Solid, fault: str, rng: random.Random) -> Solid:
    vertices, loops, faces = solid.vertices, solid.loops, solid.faces
    if fault == "off_plane":
        vid = rng.choice(sorted(vertices))
        axis = rng.randrange(3)
        moved = list(vertices[vid])
        moved[axis] += rng.choice([1.5 * TOL, 0.01, 1.0, -3.0])
        return _moved(solid, vid, vec(*moved))
    if fault == "reversed_use":
        lid = rng.choice(sorted(lid for lid in loops if loops[lid].oriented_edges))
        uses = list(loops[lid].oriented_edges)
        i = rng.randrange(len(uses))
        uses[i] = (uses[i][0], not uses[i][1])
        return Solid(solid.name, vertices, solid.edges, {**loops, lid: Loop(lid, tuple(uses))}, faces)
    if fault == "shared_vertex":
        holed = [f for f in faces.values() if len(f.bounds) > 1]
        if holed:
            # A vertex of a second loop of the face becomes one of its first loop.
            f = rng.choice(holed)
            (first, _), (second, _) = rng.sample(f.bounds, 2)
            return _renamed(solid, rng.choice(_loop_vertices(solid, second)),
                            rng.choice(_loop_vertices(solid, first)))
        # No face has two loops: one face takes a neighbour's loop as a hole,
        # and the two loops share the vertices of their common edges.
        f, g = rng.sample(sorted(faces.values(), key=lambda face: face.id), 2)
        bounds = f.bounds + ((g.bounds[0][0], False),)
        return Solid(solid.name, vertices, solid.edges, loops,
                     {**faces, f.id: Face(f.id, f.surface, f.same_sense, bounds)})
    if fault == "nan":
        vid = rng.choice(sorted(vertices))
        moved = list(vertices[vid])
        moved[rng.randrange(3)] = math.nan
        return _moved(solid, vid, vec(*moved))
    if fault == "open_off_plane":
        f = rng.choice(sorted((f for f in faces.values() if isinstance(f.surface, Plane)),
                              key=lambda face: face.id))
        lid = rng.choice(f.bounds)[0]
        uses = list(loops[lid].oriented_edges)
        i = rng.randrange(len(uses))
        eid, sense = uses[i]
        head = solid.edges[eid].end if sense else solid.edges[eid].start
        uses[i] = (eid, not sense)
        opened = Solid(solid.name, vertices, solid.edges, {**loops, lid: Loop(lid, tuple(uses))}, faces)
        return _moved(opened, head, vertices[head] + f.surface.normal * rng.choice([0.01, 1.0, -2.0]))
    if fault == "three_uses":
        # A copy of a face, with a copy of its outer loop: each of the loop's
        # edges is used once more.
        f = rng.choice(sorted(faces.values(), key=lambda face: face.id))
        lid, fid = max(loops) + 1, max(faces) + 1
        copy = Loop(lid, loops[f.bounds[0][0]].oriented_edges)
        return Solid(solid.name, vertices, solid.edges, {**loops, lid: copy},
                     {**faces, fid: Face(fid, f.surface, f.same_sense, ((lid, True),))})
    return solid


def _same(solid: Solid) -> list:
    got = [(v.kind, v.message, v.subject_id) for v in validate_manifold(solid)]
    assert got == [(v.kind, v.message, v.subject_id) for v in oracles.validate_manifold(solid)]
    return got


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.sampled_from(FAULTS), min_size=1, max_size=2),
       st.integers(0, 2**32 - 1))
def test_random_sheets_give_the_oracles_violations(seed, faults, where):
    # Two faults can meet on one face: an open loop with a vertex off the
    # plane that no use of the loop heads.
    solid = solid_from(modelzoo.random_sheet(random.Random(seed))[0])
    rng = random.Random(where)
    for fault in faults:
        solid = _planted(solid, fault, rng)
    violations = _same(solid)
    if faults == ["none"]:
        assert violations == []


@pytest.mark.parametrize("name", FIXTURES)
@pytest.mark.parametrize("fault", FAULTS)
def test_fixtures_give_the_oracles_violations(name, fault):
    solid = _fixture(name)
    found = set()
    for where in range(12):
        found.update(kind for kind, *_ in _same(_planted(solid, fault, random.Random(where))))
    expected = {
        "none": set(),
        "off_plane": {"vertex_off_surface"},
        "reversed_use": {"open_loop"},
        "nan": set(),
        "three_uses": {"non_manifold_edge"},
        "open_off_plane": {"open_loop", "vertex_off_surface"},
    }
    if fault in expected:
        assert expected[fault] <= found, found
