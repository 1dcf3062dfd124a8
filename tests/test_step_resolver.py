"""The Part-21 resolver's error at each reference it follows.

``step._Resolver`` walks the solid's records from its shell: faces, their
bounds and surfaces, loops, oriented edges, edge curves, their vertices and
curves, and the points, vectors, directions and placements those name. Each
reference it follows must name a simple instance of the keyword it reads there
that holds the arguments it reads. These tests break each such reference of
the Part-21 fixture in each way it can break, and pin the exception and its
message, with the typed lane on and with the token loop only. They also pin
how a placement's axis is read, and that the resolver turns each
CARTESIAN_POINT record into one ``Vec3``, as it does each DIRECTION record.
"""
import re

import pytest

from conftest import fixture_path
from punchplan import brep, cli, step
from punchplan.geom import Vec3
from step_serialize import _fmt_entity
from test_step_fast_lane import _token_loop_only

SHEET = fixture_path("flat_sheet_100x80x2.step").read_text(encoding="utf-8")
END = "ENDSEC;\nEND-ISO-10303-21;"
# The sheet with edge #24's curve a circle on a placement of its own, and
# face #97 on a cylinder, so that every kind of reference is followed.
# Resolving reads no geometry against the topology, so the solid need not
# be valid for these errors to be the first.
TEXT = (SHEET.replace("#23=LINE('',#2,#22);", "#23=CIRCLE('',#133,50.);")
        .replace("#90=PLANE('',#89);", "#90=CYLINDRICAL_SURFACE('',#89,5.);")
        .replace(END, f"#133=AXIS2_PLACEMENT_3D('',#2,#49,#17);\n{END}"))
OUTSIDE = "is outside the supported geometry subset"

# Each reference the resolver follows: the record that holds it, the record
# it names, that record's keyword and fewest arguments, and a record of
# another keyword with as many arguments, most of them of the same kinds.
SITES = {
    "solid to shell": (132, 131, "CLOSED_SHELL", 2, "EDGE_LOOP('',(#75))"),
    "shell to face": (131, 75, "ADVANCED_FACE", 3, "FACE_OUTER_BOUND('',#74,.T.)"),
    "face to bound": (75, 74, "FACE_OUTER_BOUND", 2, "PLANE('',#73)"),
    "face to surface": (75, 68, "PLANE", 2, "LINE('',#1,#18)"),
    "plane to placement": (68, 67, "AXIS2_PLACEMENT_3D", 3, "LINE('',#1,#18)"),
    "placement to point": (67, 1, "CARTESIAN_POINT", 2, "DIRECTION('',(0.0,0.0,0.0))"),
    "placement to axis": (67, 65, "DIRECTION", 2, "CARTESIAN_POINT('',(0.0,0.0,-1.0))"),
    "cylinder to placement": (90, 89, "AXIS2_PLACEMENT_3D", 3, "LINE('',#1,#30)"),
    "bound to loop": (74, 73, "EDGE_LOOP", 2, "CLOSED_SHELL('',(#69,#70,#71,#72))"),
    "loop to oriented edge": (73, 69, "ORIENTED_EDGE", 4, "EDGE_CURVE('',*,*,#32,.F.)"),
    "oriented edge to edge curve": (69, 32, "EDGE_CURVE", 4, "ORIENTED_EDGE('',#12,#9,#31,.T.)"),
    "edge curve to start vertex": (20, 9, "VERTEX_POINT", 2, "PLANE('',#1)"),
    "edge curve to end vertex": (20, 10, "VERTEX_POINT", 2, "PLANE('',#2)"),
    "edge curve to line": (20, 19, "LINE", 3, "AXIS2_PLACEMENT_3D('',#1,#18)"),
    "edge curve to circle": (24, 23, "CIRCLE", 3, "CYLINDRICAL_SURFACE('',#133,50.)"),
    "vertex to point": (9, 1, "CARTESIAN_POINT", 2, "DIRECTION('',(0.0,0.0,0.0))"),
    "line to point": (19, 1, "CARTESIAN_POINT", 2, "DIRECTION('',(0.0,0.0,0.0))"),
    "line to vector": (19, 18, "VECTOR", 2, "CIRCLE('',#17,1.)"),
    "vector to direction": (18, 17, "DIRECTION", 2, "CARTESIAN_POINT('',(1.0,0.0,0.0))"),
    "circle to placement": (23, 133, "AXIS2_PLACEMENT_3D", 3, "LINE('',#2,#18)"),
    "circle placement to point": (133, 2, "CARTESIAN_POINT", 2, "VECTOR('',#17,1.)"),
    "circle placement to axis": (133, 49, "DIRECTION", 2, "CARTESIAN_POINT('',(0.0,0.0,1.0))"),
}
NEW = 999  # the id of a record a broken reference names
# The record an error names as holding a reference, where that is not the
# holder: none, since every reference is followed on behalf of its holder.
NAMED_HOLDER = {}


def _record(text: str, eid: int) -> str:
    """The record ``#eid``'s text, from its keyword to its last ')'."""
    return re.search(rf"^#{eid}=(.*);$", text, re.M)[1]


def _redirect(site: tuple, value: str, *added: str) -> str:
    """``TEXT`` with the site's reference written ``value``, and ``added``
    records before ENDSEC."""
    holder, target = site[0], site[1]
    old = _record(TEXT, holder)
    new, count = re.subn(rf"#{target}(?![0-9])", value, old, count=1)
    assert count == 1
    return TEXT.replace(f"#{holder}={old};", f"#{holder}={new};").replace(END, "".join(added) + END)


def _named_holder(site) -> int:
    return NAMED_HOLDER.get(site[0], site[0])


def _not_a_reference(site):
    reason = "expected entity reference, got 5.0"
    return _redirect(site, "5.0"), f"UnsupportedGeometry entity #{_named_holder(site)} ({reason}) {OUTSIDE}"


def _dangling(site):
    return (_redirect(site, f"#{NEW}"),
            f"DanglingReference entity #{_named_holder(site)} references #{NEW}, which does not exist")


def _complex(site):
    return (_redirect(site, f"#{NEW}", f"#{NEW}=({_record(TEXT, site[1])});\n"),
            f"UnsupportedGeometry entity #{NEW} ({site[2]}) {OUTSIDE}")


def _too_few_arguments(site):
    """The site's record with its last argument the resolver reads left out."""
    record = step.parse_exchange(TEXT).entities[site[1]]
    short = _fmt_entity(step.SimpleEntity(record.keyword, record.args[:site[3] - 1]))
    return (_redirect(site, f"#{NEW}", f"#{NEW}={short};\n"),
            f"UnsupportedGeometry entity #{NEW} ({site[2]} (needs {site[3]} arguments)) {OUTSIDE}")


def _wrong_keyword(site):
    decoy = site[4]
    return (_redirect(site, f"#{NEW}", f"#{NEW}={decoy};\n"),
            f"UnsupportedGeometry entity #{NEW} ({decoy[:decoy.index('(')]}) {OUTSIDE}")


MODES = {"not a reference": _not_a_reference, "dangling": _dangling, "complex": _complex,
         "too few arguments": _too_few_arguments, "wrong keyword": _wrong_keyword}
# The table holds only errors the resolver gave before a placement's axis
# that is neither a reference nor ``$`` was refused, so it passes on that
# resolver too; the placement tests below take that axis.
CASES = [(f"{site}: {mode}", SITES[site], MODES[mode]) for site in SITES for mode in MODES
         if not (mode == "not a reference" and site.endswith("placement to axis"))]


def _resolved(text: str):
    """``load_step``'s solid as comparable values, or its error."""
    try:
        solid = step.load_step(text)
    except step.StepError as exc:
        return f"{type(exc).__name__} {exc}"
    return solid.name, solid.vertices, solid.edges, solid.loops, solid.faces


def test_the_edited_sheet_resolves_with_an_arc_and_a_cylinder():
    solid = step.load_step(TEXT)
    assert isinstance(solid.edges[24].curve, brep.Circle)
    assert isinstance(solid.faces[97].surface, brep.Cylinder)
    typed = _resolved(TEXT)
    with _token_loop_only():
        assert _resolved(TEXT) == typed


def test_each_site_names_a_record_of_its_keyword_and_each_decoy_has_its_arguments():
    for holder, target, keyword, _, decoy in SITES.values():
        assert re.search(rf"#{target}(?![0-9])", _record(TEXT, holder))
        assert _record(TEXT, target).startswith(f"{keyword}(")
        decoy_keyword = decoy[:decoy.index("(")]
        assert decoy_keyword != keyword
        record = step.parse_exchange(f"ISO-10303-21;\nHEADER;\nENDSEC;\nDATA;\n#1={decoy};\n{END}\n")
        assert len(record.entities[1].args) >= step._MIN_ARGS[decoy_keyword]


@pytest.mark.parametrize("site, mode", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_each_reference_the_resolver_follows_is_checked_at_its_use(site, mode):
    text, message = mode(site)
    assert _resolved(text) == message
    with _token_loop_only():
        assert _resolved(text) == message


# ---------------------------------------------------------------------------
# A placement's axis
# ---------------------------------------------------------------------------

PLACEMENT = "#67=AXIS2_PLACEMENT_3D('',#1,#65,#66);"


@pytest.mark.parametrize("axis, shown", [("5.0", "5.0"), ("'x'", "'x'"), ("*", "*"), (".T.", "True")])
def test_a_placement_axis_that_is_neither_a_reference_nor_unset_is_refused(axis, shown, tmp_path, capsys):
    text = SHEET.replace(PLACEMENT, PLACEMENT.replace("#65", axis))
    assert text != SHEET
    message = f"UnsupportedGeometry entity #67 (expected entity reference, got {shown}) {OUTSIDE}"
    assert _resolved(text) == message
    with _token_loop_only():
        assert _resolved(text) == message
    path = tmp_path / "axis.step"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["params", str(path)]) == 2
    assert f"expected entity reference, got {shown}" in capsys.readouterr().err


def test_an_unset_placement_axis_is_plus_z():
    text = SHEET.replace(PLACEMENT, PLACEMENT.replace("#65", "$"))
    typed = _resolved(text)
    assert typed[4][75].surface.normal == Vec3(0.0, 0.0, 1.0)
    with _token_loop_only():
        assert _resolved(text) == typed


# ---------------------------------------------------------------------------
# Shared points
# ---------------------------------------------------------------------------

LINE = re.compile(r"^#([0-9]+)=LINE\('',#([0-9]+),", re.M)


def _lines_on_copies(text: str) -> str:
    """``text`` with each line's point record a copy of its own, written
    alike, so only the typed lane makes the copy and the vertex's record one."""
    copies = []
    for line, point in LINE.findall(text):
        copies.append(f"#{200 + int(line)}={_record(text, int(point))};\n")
    text = LINE.sub(lambda m: f"#{m[1]}=LINE('',#{200 + int(m[1])},", text)
    return text.replace(END, "".join(copies) + END)


def _starts_held(solid) -> list[tuple[bool, bool]]:
    """For each line, whether its point is, and whether it equals, its edge's
    start vertex, which every line of the sheet starts at."""
    return [(e.curve.point is solid.vertices[e.start], e.curve.point == solid.vertices[e.start])
            for e in solid.edges.values()]


def test_each_point_record_resolves_to_one_vector():
    # Each of the sheet's lines names its start vertex's point record, so
    # it holds the vertex's vector on either lane.
    copied = _lines_on_copies(SHEET)
    assert copied != SHEET and len(step.load_step(SHEET).edges) == 12
    assert _starts_held(step.load_step(SHEET)) == [(True, True)] * 12
    # With a copy of that record of its own, it holds the vertex's vector
    # where the typed lane makes the two one record, and an equal one where
    # the token loop reads two records.
    assert _starts_held(step.load_step(copied)) == [(True, True)] * 12
    with _token_loop_only():
        assert _starts_held(step.load_step(SHEET)) == [(True, True)] * 12
        assert _starts_held(step.load_step(copied)) == [(False, True)] * 12


def test_a_vertex_off_its_line_is_reported_beside_a_shared_point():
    # #2 is vertex #10's point, and lines #23 and #55 start at it, so it
    # moves them too; vertex #10 ends line #19 and vertex #14 ends line #55.
    text = SHEET.replace("#2=CARTESIAN_POINT('',(100.0,0.0,0.0));",
                         "#2=CARTESIAN_POINT('',(100.0,0.001,0.0));")
    assert text != SHEET
    expected = ["edge 20: vertex 10 is 0.001 mm off its line", "edge 56: vertex 14 is 0.001 mm off its line"]

    def off_curve() -> list[str]:
        violations = brep.validate_manifold(step.load_step(text))
        return [v.message for v in violations if v.kind == "endpoint_off_curve"]

    assert off_curve() == expected
    with _token_loop_only():
        assert off_curve() == expected
