"""What the loaders keep alive while they build a Solid, and the slotted records
that make it up.

The JSON loader decodes a text in the writers' layout one section at a time,
as it reaches it, and frees each item of a section once it has read it, so
no more than one section is held decoded while the Solid grows, and the Solid
holds one object per distinct unit vector and id; the B-Rep and Part-21
records carry no per-instance dict. Peaks are tracemalloc's, over one k = 6
grid sheet of the benchmark's generator (about 250 faces), with the text
allocated and the heap collected before tracing starts.
"""
import copy
import dataclasses
import gc
import json
import pickle
import random
import struct
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import inputs
import modelzoo
import oracles
import stepwriter
from punchplan import brep, report, resources, step
from punchplan.classify import ClassificationError
from punchplan.features import RecognitionError
from punchplan.geom import Vec3


def _peak(call) -> int:
    """Bytes allocated at the peak of ``call()``, which returns what it built,
    from a collected heap: a full collection first, so that the figure does
    not hang on what earlier tests left for the collector."""
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def grid_doc():
    return inputs.grid_sheet(random.Random(1), 6, "grid_k06")[0]


def _kept(call) -> int:
    """Bytes still allocated after ``call()`` while what it built is held,
    from a collected heap, and with a second full collection after the call,
    which also empties the interpreter's free lists."""
    gc.collect()
    tracemalloc.start()
    try:
        built = call()  # noqa: F841 (held while the memory is read)
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def _measured(bounds: dict, other: float) -> float:
    """The bound measured for this interpreter, or ``other`` for one not measured."""
    return bounds.get(sys.version_info[:2], other) if sys.implementation.name == "cpython" else other


def test_json_loader_peaks_near_the_decoded_document(grid_doc):
    # Holding the whole document while the Solid is built peaks at about 1.7x
    # here, and taking each section out of it as it is read at 1.16. Decoding
    # one section at a time peaked at 0.73 (CPython 3.11, 3.12 and 3.13) and
    # 0.62 (3.10), and with each equal unit vector and id one object at 0.57
    # (3.11, 3.12 and 3.13) and 0.52 (3.10).
    bound = _measured({(3, 10): 0.6, (3, 11): 0.65, (3, 12): 0.65, (3, 13): 0.65}, 1.35)
    text = json.dumps(grid_doc)
    decoded = _peak(lambda: json.loads(text))
    loaded = _peak(lambda: brep.load_brep_json(text))
    assert loaded <= bound * decoded, (loaded, decoded, bound)


def test_a_json_solid_keeps_few_bytes_per_byte_of_text(grid_doc):
    # 4.08 bytes per byte of text when each unit vector and id reference was
    # its own object, and 3.02 with one object per distinct value (CPython
    # 3.10 to 3.13). The text is allocated before tracing starts.
    bound = _measured({(3, 10): 3.3, (3, 11): 3.3, (3, 12): 3.3, (3, 13): 3.3}, 6)
    text = json.dumps(grid_doc)
    kept = _kept(lambda: brep.load_brep_json(text))
    assert kept <= bound * len(text), (kept, len(text), bound)


def _unit_vectors(solid) -> list:
    """Each line direction, circle axis, plane normal and cylinder axis."""
    curves = [e.curve for e in solid.edges.values()]
    surfaces = [f.surface for f in solid.faces.values()]
    return ([c.direction if type(c) is brep.Line else c.axis for c in curves]
            + [s.normal if type(s) is brep.Plane else s.axis_dir for s in surfaces])


@pytest.mark.parametrize("layout", ["members", "json.loads"])
def test_a_json_solid_holds_one_object_per_distinct_value(grid_doc, layout, monkeypatch):
    # The member reader takes the writers' layout; keys in another order go
    # through json.loads.
    doc = grid_doc if layout == "members" else dict(reversed(list(grid_doc.items())))
    text, loads, calls = json.dumps(doc), json.loads, []
    monkeypatch.setattr(json, "loads", lambda *args: calls.append(args) or loads(*args))
    solid = brep.load_brep_json(text)
    assert len(calls) == (layout == "json.loads")
    units = _unit_vectors(solid)
    assert len({id(u) for u in units}) == len({struct.pack("3d", *u) for u in units}) < len(units)
    # Ids past 256 are not the interpreter's cached small ints.
    assert max(solid.edges) > 256 and max(solid.loops) > 256
    assert all(eid is solid.edges[eid].id for lp in solid.loops.values() for eid, _ in lp.oriented_edges)
    assert all(lid is solid.loops[lid].id for f in solid.faces.values() for lid, _ in f.bounds)
    keys = {id(vid) for vid in solid.vertices}
    assert all(id(e.start) in keys and id(e.end) in keys for e in solid.edges.values())
    lines = [e for e in solid.edges.values() if type(e.curve) is brep.Line]
    assert lines and all(e.curve.point is solid.vertices[e.start] for e in lines)


def _negate_zeros(doc: dict, rng: random.Random) -> dict:
    """``doc`` with each zero coordinate of its vertices, curves and surfaces
    made -0.0 or 0.0 at random."""
    def signed(c):
        return rng.choice((0.0, -0.0)) if c == 0 else c

    for v in doc["vertices"]:
        v.update({k: signed(v[k]) for k in "xyz"})
    for part in [e["curve"] for e in doc["edges"]] + [f["surface"] for f in doc["faces"]]:
        for k in ("center", "axis", "origin", "normal", "axis_point", "axis_dir"):
            if k in part:
                part[k] = [signed(c) for c in part[k]]
    return doc


def _doubles(solid) -> bytes:
    """Every double of ``solid``, struct-packed in map order."""
    values = [c for v in solid.vertices.values() for c in v]
    for e in solid.edges.values():
        c = e.curve
        values += (*c.point, *c.direction) if type(c) is brep.Line else (*c.center, *c.axis, c.radius)
    for f in solid.faces.values():
        s = f.surface
        values += ((*s.origin, *s.normal) if type(s) is brep.Plane
                   else (*s.axis_point, *s.axis_dir, s.radius))
    return struct.pack(f"{len(values)}d", *values)


def _report(solid) -> str:
    """The JSON report of ``solid``, or the failure that ends its analysis."""
    try:
        analysis = report.analyze_solid(solid)
    except (brep.BrepError, RecognitionError, ClassificationError) as exc:
        return repr(exc)
    return report.render_json(report.report_document(
        analysis, resources.builtin_materials()["low_carbon_steel"],
        resources.builtin_tools()["punching_press"], report.ReportSettings()))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), signs=st.integers(0, 2**32 - 1))
def test_a_shared_value_keeps_the_sign_of_each_zero(seed, signs):
    # 0.0 == -0.0, so a map keyed by == would hand a normal or a direction
    # with one sign of zero to a face or an edge written with the other.
    doc = _negate_zeros(modelzoo.random_sheet(random.Random(seed))[0], random.Random(signs))
    reference = oracles.unshared_solid(doc)
    want = _doubles(reference), _report(reference)
    for text in (json.dumps(doc), json.dumps(dict(reversed(list(doc.items()))))):
        solid = brep.load_brep_json(text)
        assert (solid.vertices, solid.edges, solid.loops, solid.faces) == (
            reference.vertices, reference.edges, reference.loops, reference.faces)
        assert (_doubles(solid), _report(solid)) == want


def test_step_reader_peak_per_byte_of_text(grid_doc):
    # About 15 bytes per byte of text with a dict per record, and 10.3-11.2
    # (CPython 3.11, by test order) while the fast lane built every identical
    # reference-free record anew. 9.82 from a collected heap, where it read
    # 7.9-9.9 by heap history before _peak collected first, and now 9.35 with
    # every record typed and each direction resolved to one shared unit vector.
    # Only CPython 3.11 has been measured at the tighter bound; other
    # interpreters keep the old one.
    bound = 10.5 if sys.implementation.name == "cpython" and sys.version_info[:2] == (3, 11) else 13
    text, _ = stepwriter.write_step(grid_doc)
    peak = _peak(lambda: step.resolve_brep(step.parse_exchange(text)))
    assert peak <= bound * len(text), (peak, len(text), bound)


def test_record_keywords_are_interned(grid_doc):
    text, _ = stepwriter.write_step(grid_doc)
    keywords = [rec.keyword for rec in step.parse_exchange(text).entities.values()]
    assert len({id(kw) for kw in keywords}) == len(set(keywords)) < len(keywords)


P, D = Vec3(1.0, 2.0, 3.0), Vec3(0.0, 0.0, 1.0)
RECORDS = [
    (brep.Line(P, D), "Line(point=Vec3(x=1.0, y=2.0, z=3.0), direction=Vec3(x=0.0, y=0.0, z=1.0))"),
    (brep.Circle(P, D, 2.5), "Circle(center=Vec3(x=1.0, y=2.0, z=3.0), "
                             "axis=Vec3(x=0.0, y=0.0, z=1.0), radius=2.5)"),
    (brep.Plane(P, D), "Plane(origin=Vec3(x=1.0, y=2.0, z=3.0), normal=Vec3(x=0.0, y=0.0, z=1.0))"),
    (brep.Cylinder(P, D, 4.0), "Cylinder(axis_point=Vec3(x=1.0, y=2.0, z=3.0), "
                               "axis_dir=Vec3(x=0.0, y=0.0, z=1.0), radius=4.0)"),
    (brep.Edge(7, brep.Line(P, D), 1, 2),
     "Edge(id=7, curve=Line(point=Vec3(x=1.0, y=2.0, z=3.0), "
     "direction=Vec3(x=0.0, y=0.0, z=1.0)), start=1, end=2)"),
    (brep.Loop(3, ((7, True), (8, False))), "Loop(id=3, oriented_edges=((7, True), (8, False)))"),
    (brep.Face(5, brep.Plane(P, D), False, ((3, True), (4, False))),
     "Face(id=5, surface=Plane(origin=Vec3(x=1.0, y=2.0, z=3.0), "
     "normal=Vec3(x=0.0, y=0.0, z=1.0)), same_sense=False, bounds=((3, True), (4, False)))"),
    (brep.Violation("open_loop", "loop 3 does not chain", 3),
     "Violation(kind='open_loop', message='loop 3 does not chain', subject_id=3)"),
    (brep.Violation("x", "y"), "Violation(kind='x', message='y', subject_id=None)"),
    (step.Ref(12), "#12"),
    (step.Enum("MILLI"), ".MILLI."),
    (step.SimpleEntity("LINE", ("", step.Ref(1), 2.0, step.UNSET, (step.Enum("T"),))),
     "SimpleEntity(keyword='LINE', args=('', #1, 2.0, $, (.T.,)))"),
    (step.ComplexEntity((("A", (1,)), ("B", ()))),
     "ComplexEntity(parts=(('A', (1,)), ('B', ())))"),
]


@pytest.mark.parametrize("record, text", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_slotted_records_behave_as_frozen_dataclasses(record, text):
    _assert_frozen_slotted(record, text)


# The records the fast lane builds must behave as those built anywhere else.
@pytest.mark.parametrize("pick, text", [
    (lambda entities: entities[1].args[1], "#2"),
    (lambda entities: entities[1], "SimpleEntity(keyword='VERTEX_POINT', args=('', #2))"),
], ids=["Ref", "SimpleEntity"])
def test_parsed_records_behave_as_frozen_dataclasses(pick, text):
    entities = step.parse_exchange("ISO-10303-21;HEADER;ENDSEC;DATA;#1=VERTEX_POINT('',#2);"
                                   "#2=CARTESIAN_POINT('',(1.,2.,3.));ENDSEC;END-ISO-10303-21;").entities
    _assert_frozen_slotted(pick(entities), text)


def _assert_frozen_slotted(record, text):
    assert not hasattr(record, "__dict__")
    assert repr(record) == text
    fields = tuple(getattr(record, f.name) for f in dataclasses.fields(record))
    assert hash(record) == hash(fields)
    by_keyword = {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}
    assert type(record)(**by_keyword) == record
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert twin == record and hash(twin) == hash(record) and type(twin) is type(record)
    assert record != dataclasses.replace(record, **{dataclasses.fields(record)[0].name: None})
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, dataclasses.fields(record)[0].name, None)
    # A name that is not a field is refused too, but a slotted class's frozen
    # __setattr__ still names the class from before the slots were added, so
    # CPython 3.10 and 3.11 raise TypeError there rather than FrozenInstanceError.
    with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
        record.extra = None
    assert not hasattr(record, "extra")
