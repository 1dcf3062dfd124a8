#!/usr/bin/env python3
"""Recognition stage times on the benchmark's grid sheets.

For each k, builds the seeded k x k grid sheet of ``perfbench/inputs.py``
(imported read-only), loads it from JSON and times four stages in process:

- ``table``: building the face table (``features.FaceTable``);
- ``metrics``: ``sheet_metrics`` once the table is built;
- ``pairing``: ``pair_faces``;
- ``group``: ``group_features``.

Each figure is the median of ``--repeat`` runs on a freshly loaded solid, with
the cyclic garbage collector paused as ``punchplan.cli.main`` runs them. One
Markdown table row is printed per k, then the log-log slope of each stage
against face count from the smallest to the largest k.

Run from anywhere:

    python scripts/stage_speed.py --k 14 24 40 --repeat 3
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import inputs  # noqa: E402
from punchplan import brep, features  # noqa: E402

SEED = 7
STAGES = ("table", "metrics", "pairing", "group")


def _run_once(text: str) -> tuple[int, dict[str, float]]:
    solid = brep.load_brep_json(text)
    clock = time.perf_counter
    t0 = clock()
    solid._face_table = features.FaceTable(solid)
    t1 = clock()
    metrics = features.sheet_metrics(solid)
    t2 = clock()
    pairing = features.pair_faces(solid, metrics)
    t3 = clock()
    features.group_features(solid, pairing, metrics)
    t4 = clock()
    return len(solid.faces), dict(zip(STAGES, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)))


def measure(k: int, repeat: int) -> dict:
    doc, _ = inputs.grid_sheet(random.Random(SEED), k, f"grid_k{k:02d}")
    text = json.dumps(doc)
    runs = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeat):
            faces, seconds = _run_once(text)
            runs.append(seconds)
    finally:
        if enabled:
            gc.enable()
    return {"k": k, "faces": faces,
            **{stage: statistics.median(r[stage] for r in runs) for stage in STAGES}}


def slope(a: dict, b: dict, stage: str) -> float:
    """Log-log slope of a stage's time against face count between two rows."""
    if a[stage] <= 0 or b[stage] <= 0 or a["faces"] == b["faces"]:
        return math.nan
    return math.log(b[stage] / a[stage]) / math.log(b["faces"] / a["faces"])


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--k", type=int, nargs="+", default=[6, 14, 24], help="grid sizes")
    parser.add_argument("--repeat", type=int, default=5, help="timed runs per k")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    if min(args.k) < 1:
        parser.error("--k must be at least 1")
    print(f"seed {SEED}, median of {args.repeat} runs, CPython {sys.version.split()[0]}")
    print("| k | faces | " + " | ".join(STAGES) + " |")
    print("|---|-------|" + "|".join("-" * (len(s) + 2) for s in STAGES) + "|")
    rows = []
    for k in sorted(set(args.k)):
        r = measure(k, args.repeat)
        rows.append(r)
        print(f"| {k} | {r['faces']:,} | " + " | ".join(f"{r[s]:.4f} s" for s in STAGES) + " |",
              flush=True)
    first, last = rows[0], rows[-1]
    print(f"\nlog-log slope against faces, k = {first['k']} to {last['k']}:")
    print("| stage | slope |")
    print("|-------|-------|")
    for stage in STAGES:
        print(f"| {stage} | {slope(first, last, stage):.2f} |")


if __name__ == "__main__":
    main()
