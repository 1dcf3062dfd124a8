#!/usr/bin/env python3
"""Stage times of the ``params`` pipeline on the benchmark's grid sheets.

For each k, builds the seeded k x k grid sheet of ``perfbench/inputs.py``,
writes it as JSON and as Part-21 with ``perfbench/stepwriter.py`` (both
imported read-only) and times nine stages in process:

- ``parse`` and ``resolve``: ``step.parse_exchange`` and ``step.resolve_brep``
  on the Part-21 text, and ``step validate``: ``brep.validate_manifold`` on
  the solid that resolves to;
- ``load``: ``brep.load_brep_json`` on the JSON text;
- ``validate``, ``table``, ``metrics``, ``pairing`` and ``group`` on the JSON
  solid: ``brep.validate_manifold``, ``features.face_table``, then
  ``sheet_metrics``, ``pair_faces`` and ``group_features`` on that table.

Each time is the median of ``--repeat`` runs, each reading the texts anew, with
the cyclic garbage collector paused as ``punchplan.cli.main`` runs them. One
Markdown row is printed per k: the Part-21 file size, the face count, each
stage's time with the parse speed in MB/s, the JSON path's total (``load``
through ``group``, summed within each run), the tracemalloc peak of parse
plus resolve per byte of Part-21 text and that of ``load`` per byte of JSON
text, and the bytes the loaded JSON ``Solid`` keeps per byte of JSON text:
what is still allocated once ``load`` has returned, while the Solid is held,
after a second full collection. Each text is allocated before tracing
starts, so it is not counted. These are taken as ``tests/test_memory.py``
takes them: after a full collection, with the collector running. Then comes
the log-log slope of each stage against face count, from each smaller k to
the largest, one table per smaller k.

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
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import inputs  # noqa: E402
import stepwriter  # noqa: E402
from punchplan import brep, features, step  # noqa: E402

SEED = 7
STAGES = ("parse", "resolve", "step validate", "load", "validate", "table", "metrics", "pairing", "group")
JSON_PATH = STAGES[STAGES.index("load"):]


def _traced(call) -> tuple[int, int]:
    """Bytes allocated at the peak of ``call()``, as tracemalloc counts them,
    from a collected heap, and the bytes still allocated after it while its
    result is held, after a full collection that also empties the free lists."""
    gc.collect()
    tracemalloc.start()
    try:
        result = call()  # noqa: F841 (held while the memory is read)
        peak = tracemalloc.get_traced_memory()[1]
        gc.collect()
        return peak, tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def _run_once(step_text: str, json_text: str) -> dict:
    """The face count, and the seconds of each stage of one run."""
    clock = time.perf_counter
    seconds = []

    def timed(call, *args):
        start = clock()
        result = call(*args)
        seconds.append(clock() - start)
        return result

    solid = timed(step.resolve_brep, timed(step.parse_exchange, step_text))
    timed(brep.validate_manifold, solid)
    solid = timed(brep.load_brep_json, json_text)
    timed(brep.validate_manifold, solid)
    timed(features.face_table, solid)
    metrics = timed(features.sheet_metrics, solid)
    pairing = timed(features.pair_faces, solid, metrics)
    timed(features.group_features, solid, pairing, metrics)
    times = dict(zip(STAGES, seconds))
    return {"faces": len(solid.faces), "json total": sum(times[s] for s in JSON_PATH), **times}


def measure(k: int, repeat: int) -> dict:
    doc, _ = inputs.grid_sheet(random.Random(SEED), k, f"grid_k{k:02d}")
    json_text = json.dumps(doc)
    step_text, _ = stepwriter.write_step(doc)
    enabled = gc.isenabled()
    gc.disable()
    try:
        runs = [_run_once(step_text, json_text) for _ in range(repeat)]
    finally:
        if enabled:
            gc.enable()
    peak = _traced(lambda: step.resolve_brep(step.parse_exchange(step_text)))[0]
    load_peak, kept = _traced(lambda: brep.load_brep_json(json_text))
    return {"k": k, "mb": len(step_text) / 1e6, "faces": runs[0]["faces"], "peak_per_byte": peak / len(step_text),
            "load_peak_per_byte": load_peak / len(json_text), "kept_per_byte": kept / len(json_text),
            **{stage: statistics.median(r[stage] for r in runs) for stage in (*STAGES, "json total")}}


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
    print("| k | file | faces | " + " | ".join(STAGES)
          + " | json total | parse+resolve peak | load peak | solid kept |")
    print("|---|------|-------|" + "|".join("-" * (len(s) + 2) for s in STAGES)
          + "|------------|--------------------|-----------|------------|")
    rows = []
    for k in sorted(set(args.k)):
        r = measure(k, args.repeat)
        rows.append(r)
        print(f"| {k} | {r['mb']:.2f} MB | {r['faces']:,} | {r['parse']:.4f} s "
              f"({r['mb'] / r['parse']:.1f} MB/s) | "
              + " | ".join(f"{r[s]:.4f} s" for s in (*STAGES[1:], "json total"))
              + f" | {r['peak_per_byte']:.2f} B per byte | {r['load_peak_per_byte']:.2f} B per byte"
              + f" | {r['kept_per_byte']:.2f} B per byte |", flush=True)
    last = rows[-1]
    for first in rows[:-1] or rows:
        print(f"\nlog-log slope against faces, k = {first['k']} to {last['k']}:")
        print("| stage | slope |")
        print("|-------|-------|")
        for stage in STAGES:
            print(f"| {stage} | {slope(first, last, stage):.2f} |")


if __name__ == "__main__":
    main()
