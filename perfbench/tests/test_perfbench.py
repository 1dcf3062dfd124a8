"""Tests of the benchmark's own parts: STEP writer, grid inputs and oracle."""
from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for _p in (ROOT / "tests", ROOT / "src", BENCH):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

import inputs  # noqa: E402
import modelzoo  # noqa: E402
import oracle  # noqa: E402
import reference  # noqa: E402
import stepwriter  # noqa: E402
from punchplan import brep, features, report, resources, step  # noqa: E402


def _report(solid) -> dict:
    analysis = report.analyze_solid(solid)
    assert analysis.violations == []
    mat = resources.builtin_materials()["low_carbon_steel"]
    tool = resources.builtin_tools()["punching_press"]
    return report.report_document(analysis, mat, tool, report.ReportSettings())


def _without_face_ids(doc: dict) -> dict:
    doc = json.loads(json.dumps(doc))
    del doc["metrics"]["reference_face"], doc["metrics"]["opposite_face"]
    return doc


@pytest.mark.parametrize("kind", inputs.KINDS)
def test_step_writer_matches_json_path(kind):
    rng = random.Random(kind)
    atts = [inputs.attachment(kind, rng, inputs.OFFSET + inputs.PITCH * i, inputs.OFFSET)
            for i in range(2)]
    doc = modelzoo.sheet_doc(f"one_{kind}", 2 * inputs.PITCH + inputs.OFFSET,
                             inputs.PITCH + inputs.OFFSET, atts)
    text, entities = stepwriter.write_step(doc)
    xs = step.parse_exchange(text)
    assert len(xs.entities) == entities
    assert not xs.ignored_keywords and not xs.warnings
    solid_step = step.resolve_brep(xs)
    solid_json = brep.load_brep_json(json.dumps(doc))
    # Semicircle and full-circle arcs give the same report with either axis
    # sign, so compare the resolved curves as well.
    for a, b in zip(sorted(solid_step.edges.items()), sorted(solid_json.edges.items())):
        ea, eb = a[1], b[1]
        assert solid_step.vertex(ea.start) == solid_json.vertex(eb.start)
        assert solid_step.vertex(ea.end) == solid_json.vertex(eb.end)
        if isinstance(eb.curve, brep.Circle):
            assert (ea.curve.center, ea.curve.axis, ea.curve.radius) == \
                (eb.curve.center, eb.curve.axis, eb.curve.radius)
    from_step = _report(solid_step)
    from_json = _report(solid_json)
    assert _without_face_ids(from_step) == _without_face_ids(from_json)
    assert oracle.check_report(report.render_json(from_step), oracle.expected_exit(
        tuple(a.expected for a in atts)), tuple(a.expected for a in atts)) == []


def test_largest_grid_sheet_pairs_unambiguously():
    k = max(inputs.GRID_JSON_SIZES)
    doc, expected = inputs.grid_sheet(random.Random("grid-json:1"), k, "largest")
    solid = brep.load_brep_json(json.dumps(doc))
    metrics = features.sheet_metrics(solid)
    pairing = features.pair_faces(solid, metrics)  # raises AmbiguousPairing if not
    assert metrics.thickness == pytest.approx(oracle.THICKNESS)
    feats = features.group_features(solid, pairing, metrics)
    assert len(feats) == len(expected) == k * k


def test_oracle_rejects_one_perturbed_tliies():
    rng = random.Random(7)
    atts = [inputs.attachment(kind, rng, inputs.OFFSET + inputs.PITCH * i, inputs.OFFSET)
            for i, kind in enumerate(("rect_cut", "shelf", "boss"))]
    expected = tuple(a.expected for a in atts)
    doc = modelzoo.sheet_doc("perturbed", 3 * inputs.PITCH + inputs.OFFSET,
                             inputs.PITCH + inputs.OFFSET, atts)
    good = _report(brep.load_brep_json(json.dumps(doc)))
    assert oracle.check_report(report.render_json(good), 0, expected) == []
    bad = json.loads(json.dumps(good))
    block = next(b for b in bad["features"] if b["totals"]["TLIIEs"] > 0)
    block["totals"]["TLIIEs"] += 0.01
    assert oracle.check_report(report.render_json(bad), 0, expected) != []


def test_oracle_expects_exit_5_when_only_tabs():
    tab = modelzoo.tab(12, 12, 36, 28, 8).expected
    cut = modelzoo.rect_cut(12, 12, 36, 28).expected
    assert oracle.expected_exit((tab, tab)) == 5
    assert oracle.expected_exit((tab, cut)) == 0
    assert oracle.expected_exit(()) == 0


def test_inputs_repeat_for_a_seed(tmp_path):
    a = inputs.build("step-parts", 3, tmp_path / "a")
    b = inputs.build("step-parts", 3, tmp_path / "b")
    c = inputs.build("step-parts", 4, tmp_path / "c")
    assert a.digest == b.digest != c.digest
    assert [p.entities for p in a.parts] == [p.entities for p in b.parts]


REFERENCE_DIGEST = "a14042cc69bd853d33d7035e0f7c3d6e262bf7d0272b959caec30878b2b1b075"


def test_reference_corpus_is_fixed():
    # REF_S scales corrected times only while the reference does the same work.
    text = reference._TEXT + "\0" + reference._JSON
    assert hashlib.sha256(text.encode()).hexdigest() == REFERENCE_DIGEST
    assert reference.seconds(repeats=1) > 0
