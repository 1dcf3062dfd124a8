"""The benchmark's traced pass (``perfbench/traced.py``) on a few small parts.

The traced pass replays the ``params`` stages through the program's public
calls, wraps ``features.face_normal`` and ``features.face_area`` by name,
and reads ``anti_parallel_pair_distances``, ``PartAnalysis``'s positional
fields and ``Classification.all_edges``. A part fails when its report fails
the oracle or when the replay renders other bytes than ``cli.main`` wrote.
"""
import pytest

import inputs
import traced


@pytest.mark.parametrize("workload, count", [("grid-json", 1), ("step-parts", 2), ("small-batch", 3)])
def test_traced_pass_replays_the_smallest_parts(tmp_path, workload, count):
    parts = inputs.build(workload, 1, tmp_path / "in").parts
    smallest = tuple(sorted(parts, key=lambda p: (p.faces, p.name))[:count])
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    # Each part is checked twice: after the untraced and after the traced call.
    _, attempted, failed = traced.measure(smallest, out_dir, tmp_path / "trace.jsonl")
    assert (attempted, failed) == (2 * count, 0)
