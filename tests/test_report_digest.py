"""Byte-identity oracle: pinned digests of ``params`` exit codes and JSON reports.

Each case runs ``punchplan params <model> --out <file>`` over a model set and
hashes, per model in order, the model's file name, the exit code and the
report bytes. A change that alters one byte of one report (a thickness
double, a tie-break, a pairing decision, the part name) changes the digest.

The model sets are the eight checked-in fixtures (plus copies of one JSON
and one STEP fixture with an empty part name, so the file-stem fallback is
covered), the 220 random acceptance models (the seed of
``test_criterion_4_partition_over_random_models``), and the modelzoo shapes
and 20 random sheets under a non-axis-aligned rotation and under uniform
scaling. The rotation is built from an integer quaternion, so its entries
are exact quotients and do not depend on the platform's sine and cosine.

The digests hash report floats at full ``repr`` and were pinned with CPython
3.11 on x86-64 Linux (glibc libm). Some report values still pass through
libm: arc lengths and sweeps in TLIIEs/TLCIEs come from ``math.atan2`` on
rotated and scaled arcs, so a libm that rounds one of those calls
differently changes a digest with no change to the program. A mismatch on
another platform must be traced to the model and field that differ (compare
that model's report between the two builds on the same platform) before it
is taken as a regression.
"""
import hashlib
import json
import random
from pathlib import Path

import pytest

import modelzoo
from conftest import FIXTURE_DIR
from punchplan.cli import main

# Rotation of the unit quaternion (4, 1, 2, 2) / 5: entries are k / 25.
ROTATION = [[9 / 25, -12 / 25, 20 / 25],
            [20 / 25, 15 / 25, 0 / 25],
            [-12 / 25, 16 / 25, 15 / 25]]
TRANSLATION = (13.5, -7.25, 40.0)


def _digest(paths: list[Path], out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        out = out_dir / (path.name + ".report.json")
        code = main(["params", str(path), "--out", str(out)])
        h.update(f"{path.name}\0{code}\0".encode())
        h.update(out.read_bytes() if out.exists() else b"<no report>")
        h.update(b"\0")
    return h.hexdigest()


def _write(tmp_path: Path, docs: list[tuple[str, dict]]) -> list[Path]:
    paths = []
    for name, doc in docs:
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        paths.append(p)
    return paths


def _fixtures(tmp_path: Path) -> list[Path]:
    paths = sorted(FIXTURE_DIR.iterdir())
    unnamed = json.loads((FIXTURE_DIR / "row4_bridge.json").read_text(encoding="utf-8"))
    unnamed["name"] = ""
    paths += _write(tmp_path, [("unnamed_bridge", unnamed)])
    step = (FIXTURE_DIR / "flat_sheet_100x80x2.step").read_text(encoding="utf-8")
    step = step.replace("MANIFOLD_SOLID_BREP('flat_sheet_100x80x2'", "MANIFOLD_SOLID_BREP(''")
    paths.append(tmp_path / "unnamed_sheet.step")
    paths[-1].write_text(step, encoding="utf-8")
    return paths


def _acceptance_models(tmp_path: Path) -> list[Path]:
    rng = random.Random(1203)
    docs = [(f"model{i}", modelzoo.random_sheet(rng, name=f"model{i}")[0]) for i in range(220)]
    return _write(tmp_path, docs)


def _transformed_models(tmp_path: Path) -> list[Path]:
    shapes = [(name, build()) for name, build in sorted(modelzoo.FIXTURES.items())]
    rng = random.Random(1203)
    shapes += [(f"model{i}", modelzoo.random_sheet(rng, name=f"model{i}")[0]) for i in range(20)]
    docs = []
    for name, doc in shapes:
        docs.append((f"{name}_rotated", modelzoo.transform_doc(doc, ROTATION, TRANSLATION)))
        docs.append((f"{name}_scaled", modelzoo.scale_doc(doc, 0.37)))
        docs.append((f"{name}_rotated_scaled",
                     modelzoo.scale_doc(modelzoo.transform_doc(doc, ROTATION), 3.0)))
    return _write(tmp_path, docs)


PINNED = {
    "fixtures": (_fixtures, "d1a7803bd3cf36ee085d40b2243275c746ed5783a52e9be941ab0a2595667b8d"),
    "acceptance": (_acceptance_models,
                   "b0bde6ab029359eb6c6d348bc745e34cf2c6e141a155752c0794c3430ecc74c4"),
    "transformed": (_transformed_models,
                    "7814afd1d14cc8d18bcd2bdc7856720ff95b17e58777094a85243fc7ebe02aa6"),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_params_reports_match_pinned_digest(case, tmp_path):
    build, expected = PINNED[case]
    models = tmp_path / "models"
    models.mkdir()
    reports = tmp_path / "reports"
    reports.mkdir()
    assert _digest(build(models), reports) == expected
