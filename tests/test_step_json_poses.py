"""The STEP path and the JSON path give the same report on posed modelzoo shapes.

Each example takes a ``modelzoo.random_sheet`` document, and when its seed is
even also the named ``modelzoo.FIXTURES`` shapes (flat box, holed sheet,
L-bend, the four fixture rows), scales them, turns them by quarter turns and
moves them by one random rigid motion; each posed shape is then read twice: as
native JSON, and as Part-21 text from the benchmark's STEP writer (which writes
every other edge and plane reversed). Face and feature ids differ between the
two encodings, so the reports are compared without them, with the feature
blocks as a multiset.
"""
import json
import math
import random
import sys
from collections import Counter
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import modelzoo
from punchplan import brep, report, resources, step
from punchplan.classify import ClassificationError
from punchplan.features import RecognitionError

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import stepwriter  # noqa: E402

# One quarter turn about each axis; integer entries keep the turned
# coordinates exact.
QUARTER_TURNS = {
    "x": [[1, 0, 0], [0, 0, -1], [0, 1, 0]],
    "y": [[0, 0, 1], [0, 1, 0], [-1, 0, 0]],
    "z": [[0, -1, 0], [1, 0, 0], [0, 0, 1]],
}

angles = st.floats(0.0, 2 * math.pi)
axes = st.tuples(angles, angles).map(
    lambda a: (math.sin(a[0]) * math.cos(a[1]), math.sin(a[0]) * math.sin(a[1]), math.cos(a[0])))
offsets = st.tuples(*[st.floats(-500.0, 500.0)] * 3)
NAMED_SHAPES = [build() for _, build in sorted(modelzoo.FIXTURES.items())]


def _report(read):
    """The report document of the solid ``read()`` returns, or the class of the
    documented failure it raised."""
    try:
        analysis = report.analyze_solid(read())
    except (step.StepError, brep.BrepError, RecognitionError, ClassificationError) as exc:
        return type(exc)
    doc = report.report_document(analysis, resources.builtin_materials()["low_carbon_steel"],
                                 resources.builtin_tools()["punching_press"],
                                 report.ReportSettings())
    del doc["metrics"]["reference_face"], doc["metrics"]["opposite_face"]
    blocks = doc.pop("features")
    for block in blocks:
        del block["feature"]
    doc["features"] = Counter(json.dumps(block, sort_keys=True) for block in blocks)
    return doc


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.01, 100.0),
       turn_axis=st.sampled_from(sorted(QUARTER_TURNS)), turns=st.integers(0, 3),
       axis=axes, angle=angles, offset=offsets)
def test_step_and_json_reports_agree_under_poses(seed, scale, turn_axis, turns, axis, angle, offset):
    # Examples with an even seed pose every named shape too: drawing one shape
    # per example instead leaves some named shapes with few or no examples,
    # since Hypothesis repeats draws.
    named = NAMED_SHAPES if seed % 2 == 0 else []
    for doc in [modelzoo.random_sheet(random.Random(seed))[0], *named]:
        doc = modelzoo.scale_doc(doc, scale)
        for _ in range(turns):
            doc = modelzoo.transform_doc(doc, QUARTER_TURNS[turn_axis])
        doc = modelzoo.transform_doc(doc, modelzoo.rot_axis_angle(axis, angle), offset)
        text, _ = stepwriter.write_step(doc)
        from_json = _report(lambda: brep.load_brep_json(json.dumps(doc)))
        from_step = _report(lambda: step.load_step(text))
        assert from_step == from_json, doc["name"]
