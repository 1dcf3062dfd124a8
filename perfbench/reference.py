"""A fixed computation that tracks how fast the host runs right now.

On a shared host the speed of the same Python code drifts by up to a factor
of two over minutes, as other tenants come and go; the drift is in user CPU
time, not in stolen time or page faults, so neither CPU-time clocks nor
longer runs remove it. The client therefore times this computation after
every stretch of about a quarter second of ``punchplan`` calls, and scales
that stretch's call time by ``REF_S`` over the reference's time; set-up
launches are corrected the same way. The corrected figures read as they
would on a host that runs the reference in ``REF_S`` seconds.

The computation does what the program spends its time on, on a fixed corpus
that depends on nothing outside this file: a regular-expression scan of
Part-21 text into a dictionary (``step``), ``json.loads`` of a point list
(``brep``) and cross products of float triples (``features``). It frees every
object it makes and runs with garbage collection paused, so the program's
garbage cannot slow it: a program that allocates more is not corrected for.
"""
from __future__ import annotations

import gc
import json
import math
import random
import re
import statistics
import time

# A round figure near ``seconds()`` on the baseline machine (2 vCPU Xeon at
# 2.1 GHz, CPython 3.11.7), where it read 2.3-4.3 ms as the host's speed
# drifted. It only scales the corrected times.
REF_S = 0.0028

_POINTS = 1200
_TOKEN = re.compile(r"#(\d+)=([A-Z_]+)\((.*?)\);")


def _corpus() -> tuple[str, str]:
    rng = random.Random(20261017)
    pts = [[round(rng.uniform(-500.0, 500.0), 3) for _ in range(3)] for _ in range(_POINTS)]
    text = "\n".join(f"#{i}=CARTESIAN_POINT('',({x},{y},{z}));"
                     for i, (x, y, z) in enumerate(pts, start=1))
    return text, json.dumps({"points": pts})


_TEXT, _JSON = _corpus()


def _work() -> float:
    entities = {int(m[1]): (m[2], m[3].split(",")) for m in _TOKEN.finditer(_TEXT)}
    pts = json.loads(_JSON)["points"]
    total = float(len(entities))
    for a, b, c in zip(pts, pts[1:], pts[2:]):
        u = (b[0] - a[0], b[1] - a[1], b[2] - a[2])
        v = (c[0] - a[0], c[1] - a[1], c[2] - a[2])
        n = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
        total += math.sqrt(n[0] * n[0] + n[1] * n[1] + n[2] * n[2])
    return total


def seconds(repeats: int = 3) -> float:
    """Median wall time of the reference computation, garbage collection paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            _work()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)
