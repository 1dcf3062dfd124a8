#!/usr/bin/env python3
"""Part-21 reading speed and memory on the benchmark's grid sheets.

For each k, builds the seeded k x k grid sheet of ``perfbench/inputs.py``,
writes it as Part-21 with ``perfbench/stepwriter.py`` (both imported
read-only) and prints one Markdown table row:

- the file size and face count;
- ``parse_exchange`` time and speed in MB/s of text, and ``resolve_brep``
  time, each the median of ``--repeat`` runs, with the cyclic garbage
  collector paused as ``punchplan.cli.main`` runs them;
- the tracemalloc peak of parse plus resolve, in bytes per byte of text (the
  text is allocated before tracing starts), taken with ``tests/test_memory.py``'s
  ``_peak``.

The traced benchmark's ``step.parse_s`` and ``step.mb_per_s`` sum the small
step-parts files with the collector running; this script gives one figure per
sheet size, as the README's Part-21 tables list them.

Run from anywhere:

    python scripts/step_speed.py --k 14 24 40 --repeat 3
"""
from __future__ import annotations

import argparse
import gc
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import inputs  # noqa: E402
import stepwriter  # noqa: E402
from punchplan.step import parse_exchange, resolve_brep  # noqa: E402
from test_memory import _peak  # noqa: E402

SEED = 7


def _timed(call):
    start = time.perf_counter()
    result = call()
    return time.perf_counter() - start, result


def measure(k: int, repeat: int) -> dict:
    doc, _ = inputs.grid_sheet(random.Random(SEED), k, f"grid_k{k:02d}")
    text, _ = stepwriter.write_step(doc)
    parse_s, resolve_s = [], []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeat):
            seconds, xs = _timed(lambda: parse_exchange(text))
            parse_s.append(seconds)
            seconds, solid = _timed(lambda: resolve_brep(xs))
            resolve_s.append(seconds)
            del xs
    finally:
        if enabled:
            gc.enable()
    peak = _peak(lambda: resolve_brep(parse_exchange(text)))
    parse = statistics.median(parse_s)
    return {"k": k, "mb": len(text) / 1e6, "faces": len(solid.faces), "parse_s": parse,
            "mb_per_s": len(text) / 1e6 / parse, "resolve_s": statistics.median(resolve_s),
            "peak_per_byte": peak / len(text)}


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--k", type=int, nargs="+", default=[6, 14, 24], help="grid sizes")
    parser.add_argument("--repeat", type=int, default=5, help="timed runs per k")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    print(f"seed {SEED}, median of {args.repeat} runs, CPython {sys.version.split()[0]}")
    print("| k | file | faces | parse | resolve | parse+resolve peak |")
    print("|---|------|-------|-------|---------|--------------------|")
    for k in args.k:
        r = measure(k, args.repeat)
        print(f"| {r['k']} | {r['mb']:.2f} MB | {r['faces']:,} | {r['parse_s']:.3f} s "
              f"({r['mb_per_s']:.1f} MB/s) | {r['resolve_s']:.3f} s | "
              f"{r['peak_per_byte']:.2f} B per byte |", flush=True)


if __name__ == "__main__":
    main()
