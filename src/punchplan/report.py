"""End-to-end pipeline and the report document emitters.

The report is a plain dict rendered to JSON (stable key order, byte-stable
across runs), CSV (fixed header), or an aligned text table. JSON carries
full double precision; CSV and the table round forces to whole newtons and
travels to three decimals.
"""
from __future__ import annotations

import io
import math
from json.encoder import encode_basestring_ascii as _json_string
from dataclasses import dataclass

from . import classify as _classify
from . import features as _features
from .brep import NotManifold, Solid, Violation, validate_manifold
from .classify import Classification, EdgeClassTotals
from .features import FacePairing, SheetFeature, SheetMetrics
from .process import (
    DEFAULT_H1_FRACTION,
    DEFAULT_HOLDING_FRACTION,
    ProcessError,
    compute_process_parameters,
)
from .resources import MaterialSpec, ToolSpec

SCHEMA_VERSION = 1

CSV_HEADER = (
    "feature,kind,t,n_CEE,n_CIE,n_IIE,TLIIEs,TLCIEs,TLCEEs,h,Fs,Fd,Fh,H1,H2,capacity_ok"
)


@dataclass
class PartAnalysis:
    solid: Solid
    metrics: SheetMetrics
    pairing: FacePairing
    features: list[SheetFeature]
    classification: Classification
    totals: dict[int, EdgeClassTotals]
    height_errors: dict[int, str]
    violations: list[Violation]


def analyze_solid(solid: Solid, cut_height: float | None = None) -> PartAnalysis:
    """Check the manifold, then run metrics, pairing, grouping, heights, and
    edge classification. Raises :class:`NotManifold` before any recognition."""
    violations = validate_manifold(solid)
    if violations:
        raise NotManifold(violations)
    metrics = _features.sheet_metrics(solid)
    pairing = _features.pair_faces(solid, metrics)
    grouped = _features.group_features(solid, pairing, metrics)
    feats, height_errors = _features.measure_heights(solid, metrics, grouped, cut_height)
    classification = _classify.classify_reference_edges(solid, metrics, pairing, feats)
    feature_totals = {
        feat.id: _classify.totals(classification.by_feature[feat.id], solid)
        for feat in feats
    }
    return PartAnalysis(
        solid=solid,
        metrics=metrics,
        pairing=pairing,
        features=feats,
        classification=classification,
        totals=feature_totals,
        height_errors=height_errors,
        violations=violations,
    )


@dataclass
class ReportSettings:
    kd: float | None = None
    h1_fraction: float = DEFAULT_H1_FRACTION
    holding_fraction: float = DEFAULT_HOLDING_FRACTION
    cut_height: float | None = None


def report_document(
    analysis: PartAnalysis,
    mat: MaterialSpec,
    tool: ToolSpec,
    settings: ReportSettings,
    warnings: list[str] | None = None,
) -> dict:
    """Assemble the versioned report document (JSON-ready, key order fixed).

    A feature that fails (height error, unknown height, or a
    :class:`ProcessError`) gets an ``error`` with null ``params`` and
    ``capacity_ok``, and leaves the other features' blocks intact.
    """
    kd = tool.force_coefficient if settings.kd is None else settings.kd
    t = analysis.metrics.thickness
    blocks = []
    for feat in analysis.features:
        tot = analysis.totals[feat.id]
        error = analysis.height_errors.get(feat.id)
        params = None
        capacity_ok = None
        if error is None:
            try:
                if feat.height is None:
                    raise ProcessError("feature height is unknown")
                p = compute_process_parameters(
                    tot, t, feat.height, mat, kd,
                    h1_fraction=settings.h1_fraction,
                    holding_fraction=settings.holding_fraction,
                )
                params = {"Fs": p.Fs, "Fd": p.Fd, "Fh": p.Fh, "H1": p.H1, "H2": p.H2}
                capacity_ok = tool.max_force == 0 or max(p.Fs, p.Fd) + p.Fh <= tool.max_force
            except ProcessError as exc:
                error = str(exc)
        blocks.append({
            "feature": feat.id,
            "kind": feat.kind.value,
            "t": t,
            "counts": {
                "CEE": tot.n_cee,
                "IEE": tot.n_iee,
                "CIE": tot.n_cie,
                "IIE": tot.n_iie,
            },
            "totals": {
                "TLIIEs": tot.tl_iie,
                "TLCIEs": tot.tl_cie,
                "TLCEEs": tot.tl_cee,
                "TLIEEs": tot.tl_iee,
            },
            "h": feat.height,
            "params": params,
            "capacity_ok": capacity_ok,
            "error": error,
        })
    n = analysis.metrics.reference_normal
    return {
        "schema_version": SCHEMA_VERSION,
        "part": analysis.solid.name,
        "metrics": {
            "thickness": analysis.metrics.thickness,
            "reference_face": analysis.metrics.reference_face,
            "reference_normal": [n.x, n.y, n.z],
            "opposite_face": analysis.metrics.opposite_face,
        },
        "material": {
            "name": mat.name,
            "shear_stress": mat.shear_stress,
            "yield_stress": mat.yield_stress,
        },
        "tool": {
            "name": tool.name,
            "kind": tool.kind,
            "force_coefficient": tool.force_coefficient,
            "max_force": tool.max_force,
        },
        "settings": {
            "kd": kd,
            "h1_fraction": settings.h1_fraction,
            "holding_fraction": settings.holding_fraction,
            "cut_height": settings.cut_height,
        },
        "features": blocks,
        "warnings": list(warnings or []),
    }


def _fmt_len(x: float) -> str:
    return format(x, ".6g")


def _csv_row(block: dict) -> str:
    params = block["params"]
    if params is None:
        force_cols = ["", "", "", "", ""]
        cap = ""
    else:
        force_cols = [
            str(round(params["Fs"])),
            str(round(params["Fd"])),
            str(round(params["Fh"])),
            format(params["H1"], ".3f"),
            format(params["H2"], ".3f"),
        ]
        cap = "true" if block["capacity_ok"] else "false"
    h = "" if block["h"] is None else _fmt_len(block["h"])
    cols = [
        str(block["feature"]),
        block["kind"],
        _fmt_len(block["t"]),
        str(block["counts"]["CEE"]),
        str(block["counts"]["CIE"]),
        str(block["counts"]["IIE"]),
        _fmt_len(block["totals"]["TLIIEs"]),
        _fmt_len(block["totals"]["TLCIEs"]),
        _fmt_len(block["totals"]["TLCEEs"]),
        h,
        *force_cols,
        cap,
    ]
    return ",".join(cols)


def _json_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


# How json.dumps writes each scalar type.
_JSON_SCALARS = {
    str: _json_string,
    float: _json_float,
    int: int.__repr__,
    bool: lambda x: "true" if x else "false",
    type(None): lambda x: "null",
}


def _json_writer(x):
    """The function that writes scalar ``x``, or None for a list, tuple or dict.

    A subclass of str, int or float is written as its base, as json.dumps does.
    """
    write = _JSON_SCALARS.get(type(x))
    if write is None and not isinstance(x, (dict, list, tuple)):
        base = next((t for t in (str, int, float) if isinstance(x, t)), None)
        if base is None:
            raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
        write = _JSON_SCALARS[base]
    return write


def _write_json(x, indent: str, out: list[str]) -> None:
    """Append the list, tuple or dict ``x`` to ``out`` as ``json.dumps(x, indent=2)``
    writes it, with ``indent`` (a newline and spaces) opening each line of the
    enclosing level. Keys must be strings. A value of a plain scalar type finds
    its writer with one lookup; only others call ``_json_writer``."""
    inner = indent + "  "
    if isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        sep = "{" + inner
        for key, value in x.items():
            write = _JSON_SCALARS.get(type(value)) or _json_writer(value)
            if write is None:
                out.append(sep + _json_string(key) + ": ")
                _write_json(value, inner, out)
            else:
                out.append(sep + _json_string(key) + ": " + write(value))
            sep = "," + inner
        out.append(indent + "}")
    else:
        if not x:
            out.append("[]")
            return
        sep = "[" + inner
        for value in x:
            write = _JSON_SCALARS.get(type(value)) or _json_writer(value)
            if write is None:
                out.append(sep)
                _write_json(value, inner, out)
            else:
                out.append(sep + write(value))
            sep = "," + inner
        out.append(indent + "]")


def render_json(doc: dict) -> str:
    """The bytes of ``json.dumps(doc, indent=2)`` and a newline.

    ``indent`` sends ``json.dumps`` to the pure-Python encoder, which is
    slower than this writer and leaves a reference cycle behind on every call.
    """
    write = _json_writer(doc)
    if write is not None:
        return write(doc) + "\n"
    out: list[str] = []
    _write_json(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def render_csv(doc: dict) -> str:
    lines = [CSV_HEADER]
    lines.extend(_csv_row(block) for block in doc["features"])
    return "\n".join(lines) + "\n"


def render_table(doc: dict) -> str:
    out = io.StringIO()
    m = doc["metrics"]
    out.write(f"part: {doc['part'] or '(unnamed)'}\n")
    out.write(
        f"t = {_fmt_len(m['thickness'])} mm   reference face {m['reference_face']}   "
        f"material {doc['material']['name']}   tool {doc['tool']['name']}\n"
    )
    header = CSV_HEADER.split(",")
    rows = [_csv_row(block).split(",") for block in doc["features"]]
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(header)]
    out.write("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip() + "\n")
    for r in rows:
        out.write("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() + "\n")
    for block in doc["features"]:
        if block["error"]:
            out.write(f"feature {block['feature']}: ERROR {block['error']}\n")
    for w in doc["warnings"]:
        out.write(f"warning: {w}\n")
    return out.getvalue()


RENDERERS = {"json": render_json, "csv": render_csv, "table": render_table}
