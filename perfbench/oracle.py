"""Checks a ``punchplan params`` JSON report against what the generator built.

Nothing here calls punchplan. The expected features come from modelzoo's
``Attachment.expected`` (one feature per attachment), and the forces and
travels are recomputed from the paper's formulas with the constants of the
built-in material and tool:

    Fs = tau * t * TLIIEs
    Fd = Kd * Ys * t * (TLCIEs + TLCEEs)
    Fh = 0.2 * max(Fs, Fd)
    H1 = t / 3 when the feature has isolated interior edges, else 0
    H2 = h - H1
"""
from __future__ import annotations

import json
import math

THICKNESS = 2.0  # every modelzoo sheet
TAU = 100.0  # shear stress of low_carbon_steel, N/mm^2
YS = 210.0  # yield stress of low_carbon_steel, N/mm^2
KD = 1.0 / 3.0  # force coefficient of punching_press
MAX_FORCE = 0.0  # punching_press has no force limit
HOLDING = 0.2
H1_FRACTION = 1.0 / 3.0
PART_LEVEL_IEE = 4  # the four outer edges of the sheet's reference face

LEN_TOL = 1e-6  # mm
REL_TOL = 1e-9

EXIT_OK = 0
EXIT_NO_FEATURE = 5


def _errors(e: dict) -> bool:
    # A formed feature without a roof (a tab) has no measurable height.
    return e["kind"] != "cut" and e["h"] is None


def expected_exit(expected: tuple[dict, ...]) -> int:
    """5 when every feature is reported as an error, otherwise 0."""
    return EXIT_NO_FEATURE if expected and all(_errors(e) for e in expected) else EXIT_OK


def _close(a, b, tol: float = LEN_TOL) -> bool:
    return isinstance(a, (int, float)) and math.isclose(a, b, rel_tol=REL_TOL, abs_tol=tol)


def _matches(block: dict, e: dict) -> bool:
    counts, totals = block["counts"], block["totals"]
    return (
        block["kind"] == e["kind"]
        and counts["CIE"] == e["n_cie"]
        and counts["IIE"] == e["n_iie"]
        and _close(totals["TLCIEs"], e["tl_cie"])
        and _close(totals["TLIIEs"], e["tl_iie"])
    )


def _block_problems(block: dict, e: dict) -> list[str]:
    where = f"feature {block['feature']}"
    out = []
    if not _close(block["t"], THICKNESS):
        out.append(f"{where}: t {block['t']} != {THICKNESS}")
    c = block["counts"]
    if c["CEE"] != 0 or c["IEE"] != 0:
        out.append(f"{where}: CEE/IEE counts {c['CEE']}/{c['IEE']}, expected 0/0")
    if not _close(block["totals"]["TLCEEs"], 0.0):
        out.append(f"{where}: TLCEEs {block['totals']['TLCEEs']} != 0")
    if _errors(e):
        if block["h"] is not None or block["params"] is not None or not block["error"] \
                or block["capacity_ok"] is not None:
            out.append(f"{where}: expected an error entry without height or parameters")
        return out
    h = THICKNESS if e["kind"] == "cut" else e["h"]
    if not _close(block["h"], h):
        out.append(f"{where}: h {block['h']} != {h}")
    fs = TAU * THICKNESS * e["tl_iie"]
    fd = KD * YS * THICKNESS * e["tl_cie"]
    h1 = H1_FRACTION * THICKNESS if e["n_iie"] > 0 else 0.0
    want = {"Fs": fs, "Fd": fd, "Fh": HOLDING * max(fs, fd), "H1": h1, "H2": h - h1}
    params = block["params"]
    if params is None:
        out.append(f"{where}: parameters missing ({block['error']})")
        return out
    for key, value in want.items():
        if not _close(params.get(key), value, tol=1e-6 if key in ("H1", "H2") else 1e-3):
            out.append(f"{where}: {key} {params.get(key)} != {value}")
    if block["capacity_ok"] is not True or block["error"] is not None:
        out.append(f"{where}: capacity_ok {block['capacity_ok']!r}, error {block['error']!r}")
    return out


def check_report(text: str | None, exit_code: int, expected: tuple[dict, ...]) -> list[str]:
    """Every way the report and exit code disagree with the generator; empty if none."""
    problems = []
    want_exit = expected_exit(expected)
    if exit_code != want_exit:
        problems.append(f"exit code {exit_code}, expected {want_exit}")
    if text is None:
        return problems + ["no report written"]
    try:
        doc = json.loads(text)
        blocks = doc["features"]
        thickness = doc["metrics"]["thickness"]
        material, tool = doc["material"], doc["tool"]
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"unreadable report: {exc!r}"]
    if not _close(thickness, THICKNESS):
        problems.append(f"thickness {thickness} != {THICKNESS}")
    if (material.get("shear_stress"), material.get("yield_stress")) != (TAU, YS) \
            or not _close(tool.get("force_coefficient"), KD) or tool.get("max_force") != MAX_FORCE:
        problems.append("report names another material or tool than the built-in defaults")
    if len(blocks) != len(expected):
        problems.append(f"{len(blocks)} features, expected {len(expected)}")
    unmatched = list(expected)
    for block in blocks:
        try:
            e = next(e for e in unmatched if _matches(block, e))
        except StopIteration:
            problems.append(f"feature {block.get('feature')} matches no generated attachment")
            continue
        except (KeyError, TypeError) as exc:
            problems.append(f"feature block malformed: {exc!r}")
            continue
        unmatched.remove(e)
        problems.extend(_block_problems(block, e))
    return problems


def check_part_level(edge_classes: list[str]) -> list[str]:
    """The part-level edges (not in the report) must be the sheet's four IEE edges."""
    if sorted(edge_classes) != ["IEE"] * PART_LEVEL_IEE:
        return [f"part-level edges {sorted(edge_classes)}, expected {PART_LEVEL_IEE} IEE"]
    return []
