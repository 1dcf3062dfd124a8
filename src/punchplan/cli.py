"""Command-line front end.

Commands: ``inspect`` (model diagnostics), ``features`` (feature and edge
listing), ``params`` (process-parameter report), ``batch`` (directory of
models). Exit codes: 0 success, 2 parse failure or usage error, 3 validation
failure, 4 unknown material/tool or invalid override, 5 no feature produced
parameters. Exits 2 to 5 write one ``error:`` line on stderr.

The PUNCHPLAN_DB_DIR environment variable may point at a directory holding
``materials.json`` / ``tools.json`` used as default databases.
"""
from __future__ import annotations

import argparse
import functools
import gc
import math
import os
import re
import sys
import tempfile
from pathlib import Path
from typing import NoReturn

from . import report as _report
from .brep import (
    BrepError,
    NotManifold,
    Plane,
    Solid,
    edge_length,
    face_area,
    face_normal,
    load_brep_json,
    validate_manifold,
)
from .classify import ClassificationError
from .features import RecognitionError, face_table, sheet_metrics
from .process import DEFAULT_H1_FRACTION, DEFAULT_HOLDING_FRACTION
from .report import PartAnalysis, ReportSettings, analyze_solid, report_document
from .resources import (
    NotFound,
    ResourceError,
    builtin_materials,
    builtin_tools,
    load_materials,
    load_tools,
    lookup,
    merge,
)
from .step import StepError, parse_exchange, resolve_brep

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_RESOURCE = 4
EXIT_NO_FEATURE = 5

DB_DIR_ENV = "PUNCHPLAN_DB_DIR"


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _detect_format(path: Path, requested: str) -> str:
    if requested != "auto":
        return requested
    suffix = path.suffix.lower()
    if suffix in (".step", ".stp"):
        return "step"
    if suffix == ".json":
        return "brep-json"
    raise CliError(EXIT_PARSE, f"{path}: cannot infer input format from extension {suffix!r}; "
                               "use --input-format")


def _read_text(path: Path, code: int) -> str:
    """The text of a model or database file; text that is not UTF-8 exits with ``code``.
    An OSError is left to the caller."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CliError(code, f"{path}: not valid UTF-8: {exc.reason} at byte {exc.start}") from None


def _load_solid(path: Path, requested: str) -> tuple[Solid, list[str], int | None]:
    """Read a model file; returns (solid, warnings, entity count for STEP input).

    A model without a name of its own is named after the file's stem. The
    text goes straight to its reader and is not kept here, so it is freed
    once decoded, before the Solid is built.
    """
    fmt = _detect_format(path, requested)
    try:
        if fmt == "step":
            xs = parse_exchange(_read_text(path, EXIT_PARSE))
            warnings = list(xs.warnings)
            for kw, count in sorted(xs.ignored_keywords.items()):
                warnings.append(f"ignored {count} {kw} entities")
            return resolve_brep(xs, path.stem), warnings, len(xs.entities)
        return load_brep_json(_read_text(path, EXIT_PARSE), path.stem), [], None
    except (OSError, StepError, BrepError) as exc:
        raise CliError(EXIT_PARSE, f"{path}: {exc}") from None


def _make_dir(path: Path) -> None:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(EXIT_PARSE, f"{path}: cannot create directory: {exc.strerror}") from None


def _write_output(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    target = Path(out)
    _make_dir(target.parent)
    _atomic_write(target, text)


def _atomic_write(target: Path, text: str) -> None:
    """Replace ``target`` by way of a temporary file beside it. A target that
    cannot be written exits 2 and leaves no temporary file."""
    try:
        fd, tmp = tempfile.mkstemp(dir=str(target.parent), prefix=target.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, target)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise CliError(EXIT_PARSE, f"{target}: cannot write: {exc.strerror}") from None


def _load_dbs(args) -> tuple[dict, dict]:
    materials = builtin_materials()
    tools = builtin_tools()
    db_dir = os.environ.get(DB_DIR_ENV)
    mat_path = args.materials_db
    tool_path = args.tools_db
    if db_dir:
        base = Path(db_dir)
        if mat_path is None and (base / "materials.json").exists():
            mat_path = str(base / "materials.json")
        if tool_path is None and (base / "tools.json").exists():
            tool_path = str(base / "tools.json")
    try:
        if mat_path is not None:
            materials = merge(materials, load_materials(_read_text(Path(mat_path), EXIT_RESOURCE)))
        if tool_path is not None:
            tools = merge(tools, load_tools(_read_text(Path(tool_path), EXIT_RESOURCE)))
    except (OSError, ResourceError) as exc:
        raise CliError(EXIT_RESOURCE, str(exc)) from None
    return materials, tools


def _analyze_validated(solid: Solid, cut_height: float | None) -> PartAnalysis:
    try:
        return analyze_solid(solid, cut_height)
    except (RecognitionError, ClassificationError, BrepError) as exc:
        raise CliError(EXIT_VALIDATION, str(exc)) from None


def _check_overrides(args) -> None:
    """Reject non-finite and non-positive numeric overrides of the ``features``,
    ``params`` and ``batch`` commands."""
    for name in ("kd", "h1_fraction", "holding_fraction", "cut_height"):
        value = getattr(args, name, None)
        if value is None:
            continue
        flag = "--" + name.replace("_", "-")
        if not math.isfinite(value):
            raise CliError(EXIT_RESOURCE, f"{flag} must be a finite number, got {value}")
        if value <= 0:
            raise CliError(EXIT_RESOURCE, f"{flag} must be > 0")


def _settings(args) -> ReportSettings:
    _check_overrides(args)
    return ReportSettings(
        kd=args.kd,
        h1_fraction=args.h1_fraction,
        holding_fraction=args.holding_fraction,
        cut_height=args.cut_height,
    )


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_inspect(args) -> int:
    path = Path(args.input)
    solid, warnings, entity_count = _load_solid(path, args.input_format)
    try:
        lines, failure = _inspect_lines(solid, warnings, entity_count)
    except BrepError as exc:
        # Geometry the face table cannot measure (an arc whose start point
        # sits on its circle's centre) fails like a manifold violation.
        raise CliError(EXIT_VALIDATION, str(exc)) from None
    _write_output("\n".join(lines) + "\n", args.out)
    if failure is not None:
        # The listing shows every finding; the error line sums them up.
        raise CliError(EXIT_VALIDATION, failure)
    return EXIT_OK


def _inspect_lines(solid: Solid, warnings: list[str],
                   entity_count: int | None) -> tuple[list[str], str | None]:
    """The diagnostic listing, and the validation failure message if any."""
    lines = [f"part: {solid.name}"]
    if entity_count is not None:
        lines.append(f"entities: {entity_count}")
    planar = {fid for fid, f in solid.faces.items() if isinstance(f.surface, Plane)}
    lines.append(
        f"faces: {len(solid.faces)} ({len(planar)} planar, {len(solid.faces) - len(planar)} cylindrical)"
    )
    lines.append(f"edges: {len(solid.edges)}   vertices: {len(solid.vertices)}   loops: {len(solid.loops)}")
    lines.append("face table:")
    lines.append("  id    kind      area_mm2      outward_normal")
    for fid in sorted(solid.faces):
        f = solid.faces[fid]
        if fid in planar:
            n = face_normal(f)
            lines.append(
                f"  {fid:<5} plane     {face_area(f, solid):<13.6g} ({n.x:.3g},{n.y:.3g},{n.z:.3g})"
            )
        else:
            lines.append(f"  {fid:<5} cylinder  -             -")
    violations = validate_manifold(solid)
    if violations:
        lines.append(f"manifold: {len(violations)} violation(s)")
        for v in violations:
            lines.append(f"  {v.kind}: {v.message}")
        return lines, str(NotManifold(violations))
    lines.append("manifold: OK")
    try:
        metrics = sheet_metrics(solid)
        lines.append(f"thickness: {metrics.thickness:.6g} mm")
        lines.append(
            f"reference face: {metrics.reference_face} "
            f"(area {face_table(solid).faces[metrics.reference_face].area:.6g} mm2, "
            f"opposite face {metrics.opposite_face})"
        )
    except RecognitionError as exc:
        lines.append(f"sheet metrics: unavailable ({exc})")
        return lines, str(exc)
    for w in warnings:
        lines.append(f"warning: {w}")
    return lines, None


def cmd_features(args) -> int:
    path = Path(args.input)
    solid, warnings, _ = _load_solid(path, args.input_format)
    _check_overrides(args)
    analysis = _analyze_validated(solid, args.cut_height)
    lines = [f"part: {solid.name}"]
    lines.append(f"thickness: {analysis.metrics.thickness:.6g} mm   "
                 f"reference face: {analysis.metrics.reference_face}")
    if not analysis.features:
        lines.append("no features")
    for feat in analysis.features:
        h = "?" if feat.height is None else f"{feat.height:.6g}"
        members = ",".join(str(i) for i in sorted(feat.member_faces)) or "-"
        lines.append(f"feature {feat.id}: kind={feat.kind.value} h={h} members=[{members}]")
        for eid, cls in analysis.classification.by_feature[feat.id]:
            length = edge_length(solid.edges[eid], solid)
            lines.append(f"  {cls.value} edge {eid} length {length:.6f}")
        tot = analysis.totals[feat.id]
        lines.append(
            f"  totals: n_CEE={tot.n_cee} n_CIE={tot.n_cie} n_IIE={tot.n_iie} "
            f"TLIIEs={tot.tl_iie:.6f} TLCIEs={tot.tl_cie:.6f} TLCEEs={tot.tl_cee:.6f}"
        )
        if feat.id in analysis.height_errors:
            lines.append(f"  note: {analysis.height_errors[feat.id]}")
    uncommitted = [e for e in analysis.classification.part_level]
    if uncommitted:
        total = sum(edge_length(solid.edges[eid], solid) for eid, _ in uncommitted)
        lines.append(f"part-level edges: {len(uncommitted)} IEE (total length {total:.6f})")
    for w in warnings:
        lines.append(f"warning: {w}")
    _write_output("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _params_document(path: Path, args) -> dict:
    solid, warnings, _ = _load_solid(path, args.input_format)
    settings = _settings(args)
    materials, tools = _load_dbs(args)
    try:
        mat = lookup(materials, args.material, "material")
        tool = lookup(tools, args.tool, "tool")
    except NotFound as exc:
        raise CliError(EXIT_RESOURCE, str(exc)) from None
    analysis = _analyze_validated(solid, settings.cut_height)
    return report_document(analysis, mat, tool, settings, warnings)


def cmd_params(args) -> int:
    path = Path(args.input)
    doc = _params_document(path, args)
    text = _report.RENDERERS[args.format](doc)
    _write_output(text, args.out)
    feature_blocks = doc["features"]
    if feature_blocks and all(b["error"] for b in feature_blocks):
        # The report names each feature's error; the error line sums them up.
        raise CliError(EXIT_NO_FEATURE, f"none of {len(feature_blocks)} feature(s) produced "
                                        f"parameters; first: {feature_blocks[0]['error']}")
    return EXIT_OK


def cmd_batch(args) -> int:
    _check_overrides(args)
    in_dir = Path(args.input)
    if not in_dir.is_dir():
        raise CliError(EXIT_PARSE, f"{in_dir}: not a directory")
    out_dir = Path(args.out_dir)
    _make_dir(out_dir)
    # A batch's own output is never read back as a model, so an input
    # directory can also be the output directory.
    model_files = sorted(
        p for p in in_dir.iterdir()
        if p.suffix.lower() in (".step", ".stp", ".json") and p.is_file()
        and p.name != "index.json" and not p.name.endswith(".report.json")
    )
    results = []
    all_ok = True
    report_owner: dict[str, str] = {}
    for path in model_files:
        entry = {"file": path.name, "status": "ok", "report": None, "error": None}
        report_name = path.stem + ".report.json"
        try:
            if report_name in report_owner:
                raise CliError(EXIT_PARSE, f"{path}: report name {report_name} is already "
                                           f"taken by {report_owner[report_name]}")
            report_owner[report_name] = path.name
            doc = _params_document(path, args)
            _atomic_write(out_dir / report_name, _report.render_json(doc))
            entry["report"] = report_name
        except CliError as exc:
            entry["status"] = "error"
            entry["error"] = str(exc)
            all_ok = False
        results.append(entry)
    summary = {"schema_version": _report.SCHEMA_VERSION, "count": len(results), "results": results}
    _atomic_write(out_dir / "index.json", _report.render_json(summary))
    sys.stdout.write(
        f"processed {len(results)} model(s), "
        f"{sum(1 for r in results if r['status'] == 'ok')} ok, "
        f"{sum(1 for r in results if r['status'] != 'ok')} failed\n"
    )
    return EXIT_OK if all_ok else 1


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help="model file (.step/.stp or .json)")
    p.add_argument("--input-format", choices=("auto", "step", "brep-json"), default="auto")
    p.add_argument("--out", help="output path (default: standard output)")


def _add_param_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--material", default="low_carbon_steel")
    p.add_argument("--tool", default="punching_press")
    p.add_argument("--materials-db", help="JSON materials database")
    p.add_argument("--tools-db", help="JSON tools database")
    p.add_argument("--kd", type=float, help="force coefficient override")
    p.add_argument("--h1-fraction", type=float, default=DEFAULT_H1_FRACTION,
                   help="shear penetration as a fraction of thickness")
    p.add_argument("--holding-fraction", type=float, default=DEFAULT_HOLDING_FRACTION,
                   help="blank holding force as a fraction of the peak force")
    p.add_argument("--cut-height", type=float,
                   help="tool travel for through cuts (default: sheet thickness)")


# A '-' and any spelling ``float`` accepts: digits with '_' between them, a
# point, an exponent, ``inf``, ``infinity`` or ``nan``. argparse's own pattern
# takes only ``-N`` and ``-N.N`` for a negative number, and reads ``-1e3`` or
# ``-inf`` as an option, so ``--kd -1e3`` would lack its value.
_NEGATIVE_NUMBER = re.compile(
    r"^-(?:(?:\d(?:_?\d)*(?:\.(?:\d(?:_?\d)*)?)?|\.\d(?:_?\d)*)(?:[eE][+-]?\d(?:_?\d)*)?"
    r"|(?i:inf(?:inity)?|nan))$")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line, and reads an argument that
    is a negative number in any float spelling as a value, not an option
    (subparsers inherit the class)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="punchplan",
        description="Extract sheet-metal process parameters from part models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_inspect = sub.add_parser("inspect", help="entity/face diagnostics and manifold check")
    _add_input_args(p_inspect)
    p_inspect.set_defaults(func=cmd_inspect)

    p_features = sub.add_parser("features", help="list recognized features and edge classes")
    _add_input_args(p_features)
    p_features.add_argument("--cut-height", type=float)
    p_features.set_defaults(func=cmd_features)

    p_params = sub.add_parser("params", help="compute the process-parameter report")
    _add_input_args(p_params)
    _add_param_args(p_params)
    p_params.add_argument("--format", choices=("json", "csv", "table"), default="json")
    p_params.set_defaults(func=cmd_params)

    p_batch = sub.add_parser("batch", help="process every model file in a directory")
    p_batch.add_argument("input", help="directory of model files")
    p_batch.add_argument("--input-format", choices=("auto", "step", "brep-json"), default="auto")
    p_batch.add_argument("--out-dir", required=True, help="directory for per-model reports")
    _add_param_args(p_batch)
    p_batch.set_defaults(func=cmd_batch)
    return parser


# Built on the first ``main`` call, not at import. Parsing keeps its results
# in a fresh namespace, so one parser serves every call.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    """Run one command; may be called repeatedly in one process.

    The process-wide cyclic garbage collector is paused while the command
    runs and restored to its state on entry however the command ends. A run
    makes no reference cycles, so reference counting alone frees what it
    builds; the collector would only scan the part's many objects again and
    again. Other threads' cyclic garbage waits for the next collection after
    the call.
    """
    args = _parser().parse_args(argv)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.code
    finally:
        if enabled:
            gc.enable()


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
