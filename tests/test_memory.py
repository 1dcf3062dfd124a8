"""What the loaders keep alive while they build a Solid, and the slotted records
that make it up.

The JSON loader takes each section out of its decoded document as it reads
it, so the document shrinks while the Solid grows; the B-Rep and Part-21
records carry no per-instance dict. Peaks are tracemalloc's, over one k = 6
grid sheet of the benchmark's generator (about 250 faces), with the text
allocated before tracing starts.
"""
import copy
import dataclasses
import json
import pickle
import random
import sys
import tracemalloc
from pathlib import Path

import pytest

from punchplan import brep, step
from punchplan.geom import Vec3

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import inputs  # noqa: E402
import stepwriter  # noqa: E402


def _peak(call) -> int:
    """Bytes allocated at the peak of ``call()``, which returns what it built."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def grid_doc():
    return inputs.grid_sheet(random.Random(1), 6, "grid_k06")[0]


def test_json_loader_peaks_near_the_decoded_document(grid_doc):
    # Holding the whole document while the Solid is built peaks at about 1.7x here.
    text = json.dumps(grid_doc)
    decoded = _peak(lambda: json.loads(text))
    loaded = _peak(lambda: brep.load_brep_json(text))
    assert loaded <= 1.35 * decoded, (loaded, decoded)


def test_step_reader_peak_per_byte_of_text(grid_doc):
    # About 15 bytes per byte of text with a dict per record, and 10.3-11.2
    # (CPython 3.11, by test order) while the fast lane built every identical
    # reference-free record anew; 9.0-9.9 now. Only CPython 3.11 has been
    # measured at the tighter bound; other interpreters keep the old one.
    bound = 11 if sys.implementation.name == "cpython" and sys.version_info[:2] == (3, 11) else 13
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


# The fast lane builds its Ref and SimpleEntity records by setting their slots,
# not through __init__; what it builds must behave the same.
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
