#!/usr/bin/env python3
"""Benchmark of the ``punchplan params`` pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload grid-json --seed 1 --seconds 10 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``grid-json``: one k x k feature-grid sheet per k in 6..14, native JSON;
* ``step-parts``: six k x k grid sheets per k in 2..5, Part-21 text;
* ``small-batch``: 500 random sheets with 0..3 attachments, native JSON.

Inputs are generated from ``--seed`` with ``tests/modelzoo.py`` and written
under ``.bench_work/``; the program only ever sees those files. Every report
is checked against the generator's expectations (``oracle.py``).

``--trace 0`` prints the end-to-end metrics, its times corrected for the
host's speed drift (``reference.py``); ``--trace 1`` prints the per-layer
metrics of a separate traced run (``traced.py``) and writes its spans to
``.bench_work/traces/``. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_work"
REQUIRED = (ROOT / "src" / "punchplan" / "cli.py", ROOT / "tests" / "modelzoo.py")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("grid-json", "step-parts", "small-batch"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"error: not a punchplan checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

    import e2e
    import inputs
    import traced

    run_dir = WORK / f"{args.workload}-s{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        data = inputs.build(args.workload, args.seed, run_dir / "in")
        parts = data.parts
        print(f"inputs: {args.workload} seed {args.seed}: {len(parts)} parts, "
              f"{data.total_bytes} bytes, sha256 {data.digest}, "
              f"{sum(p.faces for p in parts)} faces, {sum(p.entities for p in parts)} entities")
        out_dir = run_dir / "out"
        out_dir.mkdir()
        if args.trace:
            trace_file = WORK / "traces" / f"{args.workload}-s{args.seed}.jsonl"
            metrics, attempted, failed = traced.measure(parts, out_dir, trace_file)
        else:
            metrics, attempted, failed = e2e.measure(ROOT, data, out_dir, args.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
