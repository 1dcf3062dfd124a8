"""``scripts/stage_speed.py``, the in-process stage timer, on two small sheets."""
import stage_speed


def test_stage_speed_prints_a_row_per_k_and_a_slope_per_stage(capsys):
    stage_speed.main(["--k", "2", "3", "--repeat", "1"])
    lines = capsys.readouterr().out.splitlines()
    header = [cell.strip() for cell in lines[1].strip("|").split("|")]
    assert stage_speed.STAGES == ("parse", "resolve", "step validate", "load", "validate", "table",
                                  "metrics", "pairing", "group")
    assert header == ["k", "file", "faces", *stage_speed.STAGES, "json total", "parse+resolve peak",
                      "load peak", "solid kept"]
    rows = [line for line in lines if line.startswith(("| 2 |", "| 3 |"))]
    assert len(rows) == 2
    assert all(row.count("|") == len(header) + 1 and row.endswith(" B per byte |") for row in rows)
    slopes = [line.split(" | ")[0][2:] for line in lines[lines.index("| stage | slope |") + 2:]]
    assert slopes == list(stage_speed.STAGES)
