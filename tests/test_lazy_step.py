"""The Part-21 reader is imported on first use: a run on JSON models never
loads ``punchplan.step``, and a Part-21 run loads it at its first file.

Each case runs in a fresh interpreter, since this test session has long
imported the reader."""
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import punchplan
from conftest import fixture_path

SRC = Path(punchplan.__file__).parents[1]

# Runs the CLI on argv, then writes on a last line of stdout whether the
# reader was imported.
CLI_RUN = ("import sys\n"
           "from punchplan import cli\n"
           "code = cli.main(sys.argv[1:])\n"
           "print('punchplan.step' in sys.modules)\n"
           "sys.exit(code)\n")


def _python(source: str, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", source, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)


def _cli(*argv: str) -> tuple[int, bool, str]:
    """The exit code, whether the reader was imported, and stderr."""
    proc = _python(CLI_RUN, *argv)
    return proc.returncode, proc.stdout.splitlines()[-1] == "True", proc.stderr


@pytest.mark.parametrize("argv", [
    ["params", "row4_bridge.json"],
    ["params", "row4_bridge.json", "--format", "csv"],
    ["params", "row4_bridge.json", "--format", "table"],
    ["features", "hole_sheet_r10.json"],
    ["inspect", "flat_sheet_100x80x2.json"],
])
def test_a_json_run_never_imports_the_part21_reader(argv):
    code, imported, err = _cli(argv[0], str(fixture_path(argv[1])), *argv[2:])
    assert (code, imported, err) == (0, False, "")


def test_a_batch_of_json_models_never_imports_the_part21_reader(tmp_path):
    models = tmp_path / "models"
    models.mkdir()
    for name in ("row4_bridge.json", "hole_sheet_r10.json"):
        shutil.copy(fixture_path(name), models / name)
    code, imported, err = _cli("batch", str(models), "--out-dir", str(tmp_path / "reports"))
    assert (code, imported, err) == (0, False, "")
    assert sorted(p.name for p in (tmp_path / "reports").iterdir()) == [
        "hole_sheet_r10.report.json", "index.json", "row4_bridge.report.json"]


@pytest.mark.parametrize("statement", [
    "import punchplan",
    "import punchplan.cli",
    "from punchplan import load_brep_json, analyze_solid, report_document, __version__",
])
def test_importing_the_package_does_not_import_the_part21_reader(statement):
    proc = _python(f"{statement}\nimport sys\nprint('punchplan.step' in sys.modules)")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def test_a_part21_run_imports_the_reader_at_its_first_file():
    code, imported, err = _cli("inspect", str(fixture_path("flat_sheet_100x80x2.step")))
    assert (code, imported, err) == (0, True, "")


def test_load_step_is_served_from_the_package_root():
    proc = _python("import sys, punchplan\n"
                   "before = 'punchplan.step' in sys.modules\n"
                   "from punchplan import load_step\n"
                   "import punchplan.step\n"
                   "assert load_step is punchplan.load_step is punchplan.step.load_step\n"
                   "namespace = {}\n"
                   "exec('from punchplan import *', namespace)\n"
                   "assert namespace['load_step'] is load_step\n"
                   "assert sorted(punchplan.__all__) == sorted(k for k in namespace if k != '__builtins__')\n"
                   "print(before, load_step(open(sys.argv[1]).read()).name)",
                   str(fixture_path("flat_sheet_100x80x2.step")))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False flat_sheet_100x80x2\n", "")
    proc = _python("import punchplan\npunchplan.no_such_name")
    assert "AttributeError: module 'punchplan' has no attribute 'no_such_name'" in proc.stderr


@pytest.mark.parametrize("text, message", [
    ("ISO-10303-21;\nHEADER;\nENDSEC;\nDATA;\n#1=CARTESIAN_POINT('',(0.,0.,0.);\nENDSEC;\n"
     "END-ISO-10303-21;\n", "line 5, column 33: expected ) (found ';')"),
    ("not a model\n", "line 1, column 1: expected ISO-10303-21 (found 'not')"),
])
def test_a_malformed_part21_file_exits_2_with_its_error_line(tmp_path, text, message):
    path = tmp_path / "bad.step"
    path.write_text(text, encoding="utf-8")
    code, imported, err = _cli("params", str(path))
    assert (code, imported, err) == (2, True, f"error: {path}: {message}\n")


def test_a_missing_model_file_exits_2_in_either_format(tmp_path):
    for name, imports in (("missing.json", False), ("missing.step", True)):
        path = tmp_path / name
        code, imported, err = _cli("params", str(path))
        assert (code, imported) == (2, imports)
        assert err == f"error: {path}: [Errno 2] No such file or directory: '{path}'\n"
