"""End-to-end metrics: closed-loop ``punchplan params`` calls, set-up, memory.

One client in one fresh process (``client.py``) sends each part only after
the previous one has finished, the way a process planner runs
``punchplan params`` on one part at a time. Timings bracket ``cli.main``
alone; the oracle runs between calls.

Call-time percentiles are per-layer metrics of the traced run, not bounded
end-to-end metrics: on a shared 2-core machine the speed of compute-bound
code drifts by up to a factor of two over minutes, and a percentile over a few
large parts (grid-json has nine) follows single calls, so it spreads past
any useful bound between runs. Throughput over every call spreads least.

``parts_per_s`` and ``setup_s`` are corrected for that drift with
``reference.py``: each stretch of calls, and each set-up launch, counts
``REF_S / r`` times its wall time, where ``r`` is the reference
computation's time right after it. The uncorrected figures are printed
alongside, not in the result.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
from inputs import InputSet

BENCH_DIR = Path(__file__).resolve().parent

# What every CLI invocation does before its first part: a fresh interpreter
# imports the CLI, builds the parser and loads the built-in databases.
SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); from punchplan import cli; "
    "cli.build_parser(); cli.builtin_materials(); cli.builtin_tools()"
)
SETUP_LAUNCHES = 21
CHILD_TIMEOUT_S = 170


def out_path(out_dir: Path, name: str) -> Path:
    return out_dir / f"{name}.report.json"


def setup_seconds(root: Path) -> float:
    """Median corrected wall time of a fresh interpreter paying the CLI's set-up.

    Each launch is corrected for the host's drift by the reference
    computation timed right after it, as ``parts_per_s`` is.
    """
    def launch() -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=root, check=True,
                       timeout=CHILD_TIMEOUT_S)
        return time.perf_counter() - start

    launch()  # the first launch may compile bytecode
    raw, corrected = [], []
    for _ in range(SETUP_LAUNCHES):
        launch_s = launch()
        raw.append(launch_s)
        corrected.append(launch_s * reference.REF_S / reference.seconds())
    print(f"uncorrected setup: median {statistics.median(raw):.6g} s")
    return statistics.median(corrected)


def run_client(root: Path, data: InputSet, out_dir: Path, seconds: float) -> dict:
    job = out_dir / "job.json"
    job.write_text(json.dumps({"seconds": seconds, "parts": [
        {"name": p.name, "path": str(p.path), "out": str(out_path(out_dir, p.name)),
         "expected": list(p.expected)}
        for p in data.parts
    ]}), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "client.py"), str(job)],
        cwd=root, check=True, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def measure(root: Path, data: InputSet, out_dir: Path,
            seconds: float) -> tuple[dict[str, tuple[float, str]], int, int]:
    """The end-to-end metrics, and the counts of parts attempted and failed."""
    setup_s = setup_seconds(root)
    result = run_client(root, data, out_dir, seconds)
    times = [t for pass_times in result["passes"] for t in pass_times]
    segments = result["segments"]
    corrected_s = sum(call_s * reference.REF_S / ref_s for _, call_s, ref_s in segments)
    speed = [reference.REF_S / ref_s for _, _, ref_s in segments]
    print(f"samples: {len(times)} calls in {len(result['passes'])} passes, "
          f"{len(segments)} reference timings")
    print(f"uncorrected: {len(times) / sum(times):.6g} parts/s; host speed relative to "
          f"the reference: median {statistics.median(speed):.3f}, "
          f"range {min(speed):.3f}-{max(speed):.3f}")
    metrics = {
        "parts_per_s": (len(times) / corrected_s, "1/s"),
        "peak_rss_mb": (result["rss_kib"] / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }
    return metrics, result["attempted"], result["failed"]
