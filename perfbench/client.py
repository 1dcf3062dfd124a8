"""The closed-loop client: one process calling ``punchplan params`` part after part.

Run as a fresh child by ``e2e.py`` (from the repository root):

    python3 perfbench/client.py JOB

JOB is a JSON file ``{"seconds": s, "parts": [{"name", "path", "out",
"expected"}, ...]}``. The client makes whole passes over the parts until
``seconds`` have gone, checks every report with the oracle, and prints one
JSON object: the call times of each pass, the drift-correction segments
(see ``reference.py``), the counts of attempted and failed parts, and its
peak resident memory in KiB at the end of the first pass.

Peak memory is read from ``VmHWM`` in ``/proc/self/status``, which starts
afresh at ``exec``; ``getrusage``'s ``ru_maxrss`` would carry over the
parent's peak, because Linux keeps it across ``execve``.
"""
from __future__ import annotations

import hashlib
import json
import sys
import time
import traceback
from pathlib import Path
from typing import Sequence

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from punchplan import cli  # noqa: E402

import oracle  # noqa: E402
import reference  # noqa: E402

# Call time after which the reference computation is timed again.
REF_EVERY_S = 0.25


def call_cli(path: Path, out: Path) -> tuple[float, int]:
    """Wall seconds and exit code of one ``punchplan params`` call (-1 if it raised)."""
    argv = ["params", str(path), "--out", str(out)]
    out.unlink(missing_ok=True)  # so a call that writes nothing cannot pass on an old report
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception:  # a traceback is a failed part, not a stopped benchmark
        traceback.print_exc()
        code = -1
    return time.perf_counter() - start, code


def read_report(out: Path) -> str | None:
    try:
        return out.read_text(encoding="utf-8")
    except OSError:
        return None


class Verifier:
    """Counts attempted and failed parts; runs the oracle once per distinct report."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self._verdicts: dict[tuple[str, int, str], bool] = {}

    def record(self, name: str, expected: tuple[dict, ...], code: int, text: str | None,
               extra: Sequence[str] = ()) -> bool:
        key = (name, code, hashlib.sha256((text or "").encode()).hexdigest())
        if key not in self._verdicts:
            problems = oracle.check_report(text, code, expected)
            for p in problems[:5]:
                print(f"oracle: {name}: {p}", file=sys.stderr)
            self._verdicts[key] = not problems
        for p in extra:
            print(f"check: {name}: {p}", file=sys.stderr)
        ok = self._verdicts[key] and not extra
        self.attempted += 1
        self.failed += not ok
        return ok


def peak_rss_kib() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(job_file: str) -> dict:
    job = json.loads(Path(job_file).read_text(encoding="utf-8"))
    parts = [(p["name"], Path(p["path"]), Path(p["out"]), tuple(p["expected"]))
             for p in job["parts"]]
    verifier = Verifier()
    call_cli(parts[0][1], parts[0][2])  # warm-up, not counted
    passes: list[list[float]] = []
    segments: list[list[float]] = []  # [calls, call seconds, reference seconds]
    calls, call_s = 0, 0.0
    rss_kib = 0
    deadline = time.perf_counter() + job["seconds"]
    while not passes or time.perf_counter() < deadline:
        times = []
        for name, path, out, expected in parts:
            dt, code = call_cli(path, out)
            times.append(dt)
            calls, call_s = calls + 1, call_s + dt
            if call_s >= REF_EVERY_S:
                segments.append([calls, call_s, reference.seconds()])
                calls, call_s = 0, 0.0
            verifier.record(name, expected, code, read_report(out))
        passes.append(times)
        rss_kib = rss_kib or peak_rss_kib()
    if calls:
        segments.append([calls, call_s, reference.seconds()])
    return {"passes": passes, "segments": segments, "rss_kib": rss_kib,
            "attempted": verifier.attempted, "failed": verifier.failed}


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1])))
