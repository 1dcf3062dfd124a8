"""The cyclic garbage collector during a command.

``cli.main`` pauses the collector while a command runs. That is safe only
because a run makes no reference cycles, so everything it builds is freed by
reference counting alone; and it must leave the collector as it found it,
however the command ends.
"""
import gc
import json
import shutil
from pathlib import Path

import pytest

import modelzoo
from conftest import fixture_path
from punchplan import cli
from punchplan.cli import main


def _exit_code(argv: list[str]) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _cyclic_garbage(argv: list[str]) -> tuple[int, int]:
    """Exit code of ``main(argv)`` run with the collector off, and the number of
    unreachable objects the collector finds afterwards."""
    cli._parser()  # built once per process; argparse's help formatters are cyclic
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        code = _exit_code(argv)
        return code, gc.collect()
    finally:
        if was_enabled:
            gc.enable()


def _mixed_models(directory: Path) -> Path:
    """Good JSON and STEP models beside ones ``params`` rejects with exits 2, 3 and 5."""
    directory.mkdir()
    for name in ("row4_bridge.json", "row2_boss.json", "flat_sheet_100x80x2.step",
                 "l_bend.json"):  # l_bend: every feature fails, exit 5 for params
        shutil.copy(fixture_path(name), directory / name)
    step = fixture_path("flat_sheet_100x80x2.step").read_text(encoding="utf-8")
    (directory / "truncated.step").write_text(step[:len(step) // 2], encoding="utf-8")
    (directory / "broken.json").write_text("{ not json", encoding="utf-8")
    (directory / "latin1.json").write_bytes(b'{"name": "\xe9"}')
    doc = modelzoo.box_doc()
    doc["faces"] = doc["faces"][:-1]
    (directory / "open_shell.json").write_text(json.dumps(doc), encoding="utf-8")
    return directory


def _case(tmp_path: Path, name: str) -> list[str]:
    bridge = str(fixture_path("row4_bridge.json"))
    step = str(fixture_path("flat_sheet_100x80x2.step"))
    if name.startswith("batch"):
        models = _mixed_models(tmp_path / "models")
        argv = ["batch", str(models), "--out-dir", str(tmp_path / "reports")]
        return argv + (["--material", "unobtainium"] if name == "batch-exit-4" else [])
    if name in ("exit-3", "exit-5"):
        models = _mixed_models(tmp_path / "models")
        model = "open_shell.json" if name == "exit-3" else "l_bend.json"
        return ["params", str(models / model)]
    return {
        "params-json": ["params", bridge, "--out", str(tmp_path / "bridge.report.json")],
        "params-step": ["params", step],
        "params-csv": ["params", bridge, "--format", "csv"],
        "features": ["features", str(fixture_path("hole_sheet_r10.json"))],
        "inspect-json": ["inspect", bridge],
        "inspect-step": ["inspect", step],
        "exit-2": ["params", str(tmp_path / "missing.json")],
        "exit-4": ["params", bridge, "--material", "unobtainium"],
        "usage": ["params", bridge, "--no-such-flag"],
    }[name]


@pytest.mark.parametrize("name", [
    "params-json", "params-step", "params-csv", "features", "inspect-json", "inspect-step",
    "batch", "batch-exit-4", "exit-2", "exit-3", "exit-4", "exit-5", "usage",
])
def test_a_command_leaves_no_cyclic_garbage(capsys, tmp_path, name):
    code, garbage = _cyclic_garbage(_case(tmp_path, name))
    capsys.readouterr()
    assert code == {"batch": 1, "batch-exit-4": 4, "exit-2": 2, "exit-3": 3, "exit-4": 4,
                    "exit-5": 5, "usage": 2}.get(name, 0)
    assert garbage == 0


@pytest.fixture(params=[True, False], ids=["entered-enabled", "entered-disabled"])
def collector_on_entry(request):
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("name, code", [
    ("params-json", 0), ("exit-2", 2), ("usage", 2), ("help", 0), ("exit-3", 3),
    ("exit-4", 4), ("exit-5", 5), ("batch", 1),
])
def test_collector_state_is_restored(capsys, tmp_path, monkeypatch, collector_on_entry,
                                     name, code):
    during = []
    load = cli._load_solid

    def recording_load(*args):
        during.append(gc.isenabled())
        return load(*args)

    monkeypatch.setattr(cli, "_load_solid", recording_load)
    argv = ["params", "--help"] if name == "help" else _case(tmp_path, name)
    assert _exit_code(argv) == code
    capsys.readouterr()
    assert gc.isenabled() is collector_on_entry
    assert not any(during)


def test_collector_state_is_restored_after_an_unexpected_exception(
        monkeypatch, collector_on_entry):
    def broken(*args):
        raise RuntimeError("planted")

    monkeypatch.setattr(cli, "analyze_solid", broken)
    with pytest.raises(RuntimeError, match="planted"):
        main(["params", str(fixture_path("row4_bridge.json"))])
    assert gc.isenabled() is collector_on_entry
