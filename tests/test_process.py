"""Force and tool-travel computation, and the report blocks built from it."""
import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from punchplan.classify import EdgeClassTotals
from punchplan.process import (
    NegativeTravel,
    NonPositiveThickness,
    compute_process_parameters,
)
from punchplan.report import ReportSettings, analyze_solid, report_document
from punchplan.resources import MaterialSpec, ToolSpec, builtin_tools

STEEL = MaterialSpec("low_carbon_steel", shear_stress=100.0, yield_stress=210.0)
PRESS = ToolSpec("punching_press", "punching_press", force_coefficient=1 / 3, max_force=0.0)


def tot(n_cee=0, n_cie=0, n_iie=0, tl_iie=0.0, tl_cie=0.0, tl_cee=0.0):
    return EdgeClassTotals(n_cee=n_cee, n_cie=n_cie, n_iie=n_iie,
                           tl_iie=tl_iie, tl_cie=tl_cie, tl_cee=tl_cee)


def test_worked_row1():
    p = compute_process_parameters(
        tot(n_cie=1, n_iie=3, tl_iie=130.0, tl_cie=30.0), t=2, h=10, mat=STEEL, kd=1 / 3
    )
    assert p.Fs == pytest.approx(26000.0, abs=1e-9)
    assert p.Fd == pytest.approx(4200.0, abs=1e-9)
    assert p.Fh == pytest.approx(5200.0, abs=1e-9)
    assert p.H1 == pytest.approx(2 / 3, abs=1e-12)
    assert p.H2 == pytest.approx(10 - 2 / 3, abs=1e-12)


def test_worked_row2_circular_opening():
    p = compute_process_parameters(
        tot(n_cie=2, tl_cie=2 * math.pi * 10), t=2, h=10, mat=STEEL, kd=1 / 3
    )
    assert p.Fs == 0.0
    assert p.Fd == pytest.approx(8796.459, abs=0.01)
    assert p.Fh == pytest.approx(1759.292, abs=0.01)
    assert p.H1 == 0.0
    assert p.H2 == 10.0


def test_worked_row3():
    p = compute_process_parameters(
        tot(n_cie=3, n_iie=1, tl_iie=50.0, tl_cie=71.0), t=2, h=10, mat=STEEL, kd=1 / 3
    )
    assert (p.Fs, p.Fd, p.Fh) == pytest.approx((10000.0, 9940.0, 2000.0))


def test_worked_row4():
    p = compute_process_parameters(
        tot(n_cie=2, n_iie=2, tl_iie=100.0, tl_cie=60.0), t=2, h=10, mat=STEEL, kd=1 / 3
    )
    assert (p.Fs, p.Fd, p.Fh) == pytest.approx((20000.0, 8400.0, 4000.0))


def test_all_zero_totals():
    p = compute_process_parameters(tot(), t=2, h=5, mat=STEEL, kd=1 / 3)
    assert (p.Fs, p.Fd, p.Fh, p.H1, p.H2) == (0.0, 0.0, 0.0, 0.0, 5.0)


def test_cut_feature_travel_splits_thickness():
    p = compute_process_parameters(
        tot(n_iie=1, tl_iie=62.832), t=2, h=2, mat=STEEL, kd=1 / 3
    )
    assert p.H1 == pytest.approx(2 / 3)
    assert p.H2 == pytest.approx(4 / 3)


def test_thickness_must_be_positive():
    with pytest.raises(NonPositiveThickness):
        compute_process_parameters(tot(n_iie=1, tl_iie=1.0), t=0, h=1, mat=STEEL, kd=1 / 3)


def test_negative_travel_reported():
    with pytest.raises(NegativeTravel):
        compute_process_parameters(tot(n_iie=1, tl_iie=10.0), t=9, h=1, mat=STEEL, kd=1 / 3)


def test_fraction_overrides():
    p = compute_process_parameters(
        tot(n_iie=1, tl_iie=10.0, n_cie=1, tl_cie=10.0), t=2, h=10, mat=STEEL,
        kd=0.5, h1_fraction=0.5, holding_fraction=0.1,
    )
    assert p.Fd == pytest.approx(0.5 * 210 * 2 * 10)
    assert p.H1 == pytest.approx(1.0)
    assert p.Fh == pytest.approx(0.1 * max(p.Fs, p.Fd))


# ---------------------------------------------------------------------------
# report_document: one block per feature
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def bridge_analysis(bridge_sheet):
    # One mixed feature of height 10 with the row-4 totals.
    return analyze_solid(bridge_sheet)


def blocks(analysis, tool=PRESS):
    return report_document(analysis, STEEL, tool, ReportSettings())["features"]


def with_features(analysis, *features_and_totals, height_errors=None):
    """The analysis with its features and totals replaced."""
    return dataclasses.replace(
        analysis,
        features=[feat for feat, _ in features_and_totals],
        totals={feat.id: t for feat, t in features_and_totals},
        height_errors=height_errors or {},
    )


def test_capacity_check(bridge_analysis):
    assert bridge_analysis.totals[1] == tot(n_cie=2, n_iie=2, tl_iie=100.0, tl_cie=60.0)
    assert blocks(bridge_analysis, builtin_tools()["punching_press"])[0]["capacity_ok"] is True
    small = ToolSpec("small", "press", 1 / 3, max_force=20000.0)
    # Peak demand 20000 + 4000 exceeds the 20 kN press.
    assert blocks(bridge_analysis, small)[0]["capacity_ok"] is False


def test_partial_report_on_feature_error(bridge_analysis):
    feat = bridge_analysis.features[0]
    good = (dataclasses.replace(feat, height=10.0), tot(n_cie=1, tl_cie=30.0))
    bad = (dataclasses.replace(feat, id=2, height=0.1), tot(n_iie=1, tl_iie=10.0))
    alone = blocks(with_features(bridge_analysis, good))
    both = blocks(with_features(bridge_analysis, good, bad))
    assert both[0]["error"] is None
    assert both[0]["params"] is not None
    assert both[0] == alone[0]
    assert both[1]["error"] is not None
    assert both[1]["params"] is None


def test_height_error_entry_preserved(bridge_analysis):
    feat = dataclasses.replace(bridge_analysis.features[0], height=None)
    failed = with_features(bridge_analysis, (feat, tot(n_cie=1, tl_cie=5.0)),
                           height_errors={1: "no measurable height"})
    block = blocks(failed)[0]
    assert block["error"] == "no measurable height"
    assert block["params"] is None
    assert block["capacity_ok"] is None
    # Without a recorded height error, a missing height still fails the block.
    unknown = blocks(dataclasses.replace(failed, height_errors={}))[0]
    assert unknown["error"] == "feature height is unknown"
    assert unknown["params"] is None
    assert unknown["capacity_ok"] is None


def test_kd_override_takes_precedence(bridge_analysis):
    doc = report_document(bridge_analysis, STEEL, PRESS, ReportSettings(kd=0.5))
    assert doc["settings"]["kd"] == 0.5
    assert doc["features"][0]["params"]["Fd"] == pytest.approx(0.5 * 210 * 2 * 60)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

finite = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(
    t=st.floats(0.5, 8.0), h=st.floats(5.0, 40.0),
    tl_iie=finite, tl_cie=finite, tl_cee=finite,
    scale=st.floats(0.01, 100.0),
)
def test_force_homogeneity_in_totals(t, h, tl_iie, tl_cie, tl_cee, scale):
    n_iie = 1 if tl_iie > 0 else 0
    base = compute_process_parameters(
        tot(n_cie=1, n_cee=1, n_iie=n_iie, tl_iie=tl_iie, tl_cie=tl_cie, tl_cee=tl_cee),
        t, h, STEEL, 1 / 3,
    )
    scaled = compute_process_parameters(
        tot(n_cie=1, n_cee=1, n_iie=n_iie,
            tl_iie=tl_iie * scale, tl_cie=tl_cie * scale, tl_cee=tl_cee * scale),
        t, h, STEEL, 1 / 3,
    )
    assert scaled.Fs == pytest.approx(base.Fs * scale, rel=1e-12, abs=1e-9)
    assert scaled.Fd == pytest.approx(base.Fd * scale, rel=1e-12, abs=1e-9)
    assert scaled.Fh == pytest.approx(base.Fh * scale, rel=1e-12, abs=1e-9)
    assert scaled.H1 == base.H1
    assert scaled.H2 == base.H2


@settings(max_examples=200, deadline=None)
@given(t=st.floats(0.5, 5.0), scale=st.floats(0.1, 4.0))
def test_force_linearity_in_thickness(t, scale):
    h = 50.0
    a = compute_process_parameters(tot(n_iie=2, tl_iie=40.0, n_cie=1, tl_cie=9.0),
                                   t, h, STEEL, 1 / 3)
    b = compute_process_parameters(tot(n_iie=2, tl_iie=40.0, n_cie=1, tl_cie=9.0),
                                   t * scale, h, STEEL, 1 / 3)
    assert b.Fs == pytest.approx(a.Fs * scale, rel=1e-12)
    assert b.Fd == pytest.approx(a.Fd * scale, rel=1e-12)
    assert b.H1 == pytest.approx(a.H1 * scale, rel=1e-12)


def test_brute_force_oracle_random_edge_sets():
    # Summing per-edge lengths one at a time must match the grouped totals.
    rng = random.Random(7)
    for _ in range(300):
        lengths = [rng.uniform(0.1, 80.0) for _ in range(rng.randint(1, 12))]
        cie = [rng.uniform(0.1, 50.0) for _ in range(rng.randint(0, 5))]
        grouped = compute_process_parameters(
            tot(n_iie=len(lengths), tl_iie=sum(lengths),
                n_cie=len(cie), tl_cie=sum(cie)),
            2.0, 20.0, STEEL, 1 / 3,
        )
        fs = 0.0
        for length in lengths:
            fs += STEEL.shear_stress * 2.0 * length
        fd = 0.0
        for length in cie:
            fd += (1 / 3) * STEEL.yield_stress * 2.0 * length
        assert grouped.Fs == pytest.approx(fs, rel=1e-9)
        assert grouped.Fd == pytest.approx(fd, rel=1e-9)
