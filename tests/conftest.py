import json
import sys
from pathlib import Path

import pytest

import modelzoo
from punchplan import load_brep_json

FIXTURE_DIR = Path(__file__).parent / "fixtures"
# Tests import the benchmark's input builders and writer, and the scripts, by
# module name.
ROOT = Path(__file__).resolve().parents[1]
sys.path += [str(ROOT / "perfbench"), str(ROOT / "scripts")]
# How many digits int() converts: 0 when there is no limit (Python before
# 3.10.7, or PYTHONINTMAXSTRDIGITS=0), and then no digit string is refused.
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(not INT_DIGIT_LIMIT,
                                       reason="this interpreter has no int() digit limit")


def solid_from(doc: dict):
    return load_brep_json(json.dumps(doc))


def fixture_path(name: str) -> Path:
    return FIXTURE_DIR / name


@pytest.fixture(scope="session")
def flat_sheet():
    return solid_from(modelzoo.box_doc())


@pytest.fixture(scope="session")
def hole_sheet():
    return solid_from(modelzoo.hole_sheet_doc())


@pytest.fixture(scope="session")
def l_bend():
    return solid_from(modelzoo.lbend_doc())


@pytest.fixture(scope="session")
def bridge_sheet():
    return solid_from(modelzoo.fixture_row4_bridge())


@pytest.fixture(scope="session")
def boss_sheet():
    return solid_from(modelzoo.fixture_row2_boss())


@pytest.fixture(scope="session")
def shelf_sheet():
    return solid_from(modelzoo.fixture_row1_shelf())


@pytest.fixture(scope="session")
def step_sheet_text():
    return fixture_path("flat_sheet_100x80x2.step").read_text(encoding="utf-8")
