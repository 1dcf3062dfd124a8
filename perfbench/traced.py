"""Per-layer metrics from a separate traced run.

Three passes over the part set, each part after the previous one:

1. untraced: ``cli.main`` alone, the base of ``trace.overhead_ratio`` and
   of the call-time percentiles ``part_ms_p50`` and ``part_ms_p90``;
2. traced: a root span around ``cli.main``, then the stages replayed through
   public calls in ``report.analyze_solid``'s order, each in its own span.
   The replayed report must equal, byte for byte, the one ``cli.main`` wrote,
   so the spans measure the program the end-to-end run measured;
3. counting, untimed: ``face_normal`` and ``face_area`` are wrapped under the
   names ``punchplan.features`` imports. Wrapping slows ``features``
   several-fold, which is why it shares no pass with timing.

Spans stay in memory and are written out as JSON lines when the run ends.
"""
from __future__ import annotations

import json
import math
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

from punchplan import brep, classify, features, report, resources, step

import oracle
from client import Verifier, call_cli, read_report
from e2e import out_path
from inputs import Part

# Stage span -> per-layer metric that sums it.
STAGES = {
    "step.parse": "step.parse_s",
    "step.resolve": "step.resolve_s",
    "brep.load_json": "brep.load_json_s",
    "brep.validate": "brep.validate_s",
    "features.metrics": "features.metrics_s",
    "features.pairing": "features.pairing_s",
    "features.group": "features.group_s",
    "features.heights": "features.heights_s",
    "classify.edges": "classify.edges_s",
    "report.document": "report.document_s",
    "report.render": "report.render_s",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []

    @contextmanager
    def span(self, name: str, part: str, parent: int | None = None):
        record = {"id": len(self.spans), "name": name, "part": part, "parent": parent}
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record["id"]
        finally:
            record["end"] = time.perf_counter()

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def by_part(self, name: str) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s["name"] == name:
                out[s["part"]] += s["end"] - s["start"]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def _replay(tr: Tracer, part: Part, parent: int, counts: Counter):
    """The stages of one ``params`` call; returns its analysis and JSON text."""
    def span(name):
        return tr.span(name, part.name, parent)

    if part.path.suffix == ".step":
        with span("step.parse"):
            text = part.path.read_text(encoding="utf-8")
            xs = step.parse_exchange(text)
        with span("step.resolve"):
            solid = step.resolve_brep(xs)
        warnings = list(xs.warnings)
        warnings += [f"ignored {n} {kw} entities" for kw, n in sorted(xs.ignored_keywords.items())]
        counts["step.bytes"] += len(text.encode("utf-8"))
        counts["step.entities"] += len(xs.entities)
    else:
        with span("brep.load_json"):
            solid = brep.load_brep_json(part.path.read_text(encoding="utf-8"))
        warnings = []
    if not solid.name:
        solid.name = part.path.stem
    with span("brep.validate"):
        violations = brep.validate_manifold(solid)
    with span("features.metrics"):
        metrics = features.sheet_metrics(solid)
    with span("features.pairing"):
        pairing = features.pair_faces(solid, metrics)
    with span("features.group"):
        grouped = features.group_features(solid, pairing, metrics)
    with span("features.heights"):
        feats, height_errors = features.measure_heights(solid, metrics, grouped, None)
    with span("classify.edges"):
        classification = classify.classify_reference_edges(solid, metrics, pairing, feats)
        totals = {f.id: classify.totals(classification.by_feature[f.id], solid) for f in feats}
    analysis = report.PartAnalysis(solid, metrics, pairing, feats, classification, totals,
                                   height_errors, violations)
    mat = resources.lookup(resources.builtin_materials(), "low_carbon_steel", "material")
    tool = resources.lookup(resources.builtin_tools(), "punching_press", "tool")
    with span("report.document"):
        doc = report.report_document(analysis, mat, tool, report.ReportSettings(), warnings)
    with span("report.render"):
        text = report.render_json(doc)
    counts["brep.faces"] += len(solid.faces)
    counts["brep.edges"] += len(solid.edges)
    counts["features.pairs"] += len(pairing.pairs)
    counts["features.features"] += len(feats)
    counts["classify.edges"] += len(classification.all_edges())
    return analysis, text


def _load(part: Part) -> brep.Solid:
    text = part.path.read_text(encoding="utf-8")
    return step.load_step(text) if part.path.suffix == ".step" else brep.load_brep_json(text)


@contextmanager
def _counting(counts: Counter):
    """Count calls made through the geometry names ``punchplan.features`` imports."""
    originals = {name: getattr(features, name) for name in ("face_normal", "face_area")}

    def wrap(name, fn):
        key = f"features.{name}_calls"

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    for name, fn in originals.items():
        setattr(features, name, wrap(name, fn))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(features, name, fn)


def _slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log(y) against log(x); 0 when x does not vary."""
    pts = [(math.log(x), math.log(y)) for x, y in zip(xs, ys) if x > 0 and y > 0]
    if len(pts) < 2:
        return 0.0
    mx = sum(p[0] for p in pts) / len(pts)
    my = sum(p[1] for p in pts) / len(pts)
    sxx = sum((p[0] - mx) ** 2 for p in pts)
    if sxx == 0:
        return 0.0
    return sum((p[0] - mx) * (p[1] - my) for p in pts) / sxx


def _percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) by the exclusive method of ``statistics.quantiles``."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def measure(parts: tuple[Part, ...], out_dir: Path,
            trace_file: Path) -> tuple[dict[str, tuple[float, str]], int, int]:
    """The per-layer metrics, and the counts of parts attempted and failed."""
    verifier = Verifier()
    call_cli(parts[0].path, out_path(out_dir, parts[0].name))  # warm-up, not counted

    call_s = []
    start = time.perf_counter()
    for part in parts:
        out = out_path(out_dir, part.name)
        dt, code = call_cli(part.path, out)
        call_s.append(dt)
        verifier.record(part.name, part.expected, code, read_report(out))
    untraced_s = time.perf_counter() - start

    tr = Tracer()
    counts: Counter = Counter()
    start = time.perf_counter()
    for part in parts:
        out = out_path(out_dir, part.name)
        with tr.span("cli.main", part.name):
            _, code = call_cli(part.path, out)
        written = read_report(out)
        with tr.span("replay", part.name) as replay_root:
            analysis, text = _replay(tr, part, replay_root, counts)
        extra = oracle.check_part_level([c.value for _, c in analysis.classification.part_level])
        if text != written:
            extra.append("replayed stages rendered other bytes than cli.main wrote")
        verifier.record(part.name, part.expected, code, written, extra)
    traced_s = time.perf_counter() - start

    # Solids are loaded again rather than kept from the traced pass: a heap
    # holding every part's solid makes garbage collection, and so every
    # timed span after it, slower.
    faces = []
    for part in parts:
        solid = _load(part)
        faces.append(len(solid.faces))
        counts["features.candidate_pairs"] += len(features.anti_parallel_pair_distances(solid))
        with _counting(counts):
            metrics = features.sheet_metrics(solid)
            pairing = features.pair_faces(solid, metrics)
            grouped = features.group_features(solid, pairing, metrics)
            features.measure_heights(solid, metrics, grouped, None)

    names = [p.name for p in parts]
    stage_sum = sum(tr.total(name) for name in STAGES)
    out: dict[str, tuple[float, str]] = {
        metric: (tr.total(name), "s") for name, metric in STAGES.items()
    }
    parse_s = out["step.parse_s"][0]
    out["step.mb_per_s"] = (counts["step.bytes"] / 1e6 / parse_s if parse_s else 0.0, "MB/s")
    for key in ("step.entities", "brep.faces", "brep.edges", "features.candidate_pairs",
                "features.pairs", "features.features", "features.face_normal_calls",
                "features.face_area_calls", "classify.edges"):
        out[key] = (counts[key], "count")
    for stage in ("metrics", "pairing"):
        per_part = tr.by_part(f"features.{stage}")
        out[f"features.{stage}_slope"] = (_slope(faces, [per_part[n] for n in names]), "ratio")
    p90 = _percentile(call_s, 90)
    print(f"untraced pass: {len(call_s)} calls, {sum(t > p90 for t in call_s)} beyond part_ms_p90")
    out["part_ms_p50"] = (statistics.median(call_s) * 1000.0, "ms")
    out["part_ms_p90"] = (p90 * 1000.0, "ms")
    out["cli.residual_s"] = (tr.total("cli.main") - stage_sum, "s")
    out["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    out["fail_ratio"] = (verifier.failed / verifier.attempted, "ratio")
    shares = sorted(((tr.total(n) / stage_sum, n) for n in STAGES), reverse=True)
    print("stage shares: " + ", ".join(f"{n} {s:.1%}" for s, n in shares if s >= 0.005))
    tr.write(trace_file)
    return out, verifier.attempted, verifier.failed
