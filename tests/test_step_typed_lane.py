"""The Part-21 fast lane's typed records, against the token loop.

``step._fast_records`` tries ``step._TYPED`` at each DATA record: one branch
per field shape, which covers the 17 keywords the resolver reads, each written
the way exporters write it, with each field a group. What it does not match
goes to the token loop. Both ways must give the same entity map, or the same
error with the same line and column. These tests read generated records of
each typed keyword, and near misses of them, with the typed lane on and with
the token loop only; and check that the typed lane takes every record it is
meant for (every record of the benchmark's step-parts files), shares each
reference-free record once per parse, names the same keywords as
``step._MIN_ARGS``, and compiles nothing while reading. The resolver's shared
directions, one unit vector per DIRECTION record, and its keyword checks on
each reference it follows are checked against the token loop too.
"""
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import inputs
from conftest import INT_DIGIT_LIMIT, fixture_path
from punchplan import step
from test_step_fast_lane import FRAME, _outcome, _Taken, _token_loop_only

# One digit past the interpreter's int() digit limit, or past the default
# limit when there is none.
PAST_LIMIT = "7" * ((INT_DIGIT_LIMIT or 4300) + 1)


class _TypedHook:
    """``step._TYPED`` while in use, counting the records it matches."""

    def __init__(self) -> None:
        self.matches = 0
        self._real = step._TYPED
        self._patch = mock.patch.object(step, "_TYPED", self)

    def match(self, text, pos):
        m = self._real.match(text, pos)
        self.matches += m is not None
        return m

    def __enter__(self) -> "_TypedHook":
        self._patch.start()
        return self

    def __exit__(self, *exc) -> None:
        self._patch.stop()


def _both_ways(text: str) -> str:
    typed = _outcome(text)
    with _token_loop_only():
        tokens = _outcome(text)
    assert typed == tokens, text
    return typed


# ---------------------------------------------------------------------------
# Generated typed records and their near misses
# ---------------------------------------------------------------------------

# The fields of each typed keyword, by kind.
SHAPES = {
    "ORIENTED_EDGE": ("name", "derived", "derived", "ref", "flag"),
    "DIRECTION": ("name", "triple"),
    "CARTESIAN_POINT": ("name", "triple"),
    "EDGE_CURVE": ("name", "ref", "ref", "ref", "flag"),
    "VECTOR": ("name", "ref", "real"),
    "CIRCLE": ("name", "ref", "radius"),
    "CYLINDRICAL_SURFACE": ("name", "ref", "radius"),
    "LINE": ("name", "ref", "ref"),
    "VERTEX_POINT": ("name", "ref"),
    "PLANE": ("name", "ref"),
    "MANIFOLD_SOLID_BREP": ("name", "ref"),
    "EDGE_LOOP": ("name", "refs"),
    "CLOSED_SHELL": ("name", "refs"),
    "AXIS2_PLACEMENT_3D": ("name", "ref", "ref", "ref"),
    "FACE_OUTER_BOUND": ("name", "ref", "flag"),
    "FACE_BOUND": ("name", "ref", "flag"),
    "ADVANCED_FACE": ("name", "refs", "ref", "flag"),
}
DOTTED = st.from_regex(r"[+-]?(?:[0-9]{1,4}\.[0-9]{0,4}|\.[0-9]{1,4})(?:[eE][+-]?[0-9]{1,3})?",
                       fullmatch=True)
REF = st.integers(0, 10**6).map(lambda n: f"#{n}")
FIELDS = {
    "name": st.text(st.sampled_from("ab(),;#*$. \né"), max_size=5).map(lambda s: f"'{s}'"),
    "derived": st.just("*"),
    "ref": REF,
    "flag": st.sampled_from([".T.", ".F."]),
    "triple": st.lists(DOTTED, min_size=3, max_size=3).map(lambda xs: f"({','.join(xs)})"),
    "real": DOTTED,
    "radius": DOTTED,
    "refs": st.lists(REF, min_size=1, max_size=4).map(lambda xs: f"({','.join(xs)})"),
}
# What each kind of field may be written as instead: text the token reader
# reads, or rejects, and the typed lane must leave to it.
NEAR_MISSES = {
    "name": ["'a''b'", "''''", "'it''s'"],
    "derived": ["$", "#5", "1."],
    "ref": ["#" + PAST_LIMIT, "#007", "*", "$", "# 5"],
    "flag": [".X.", "$", "*", ".T", "T"],
    "triple": ["(1,2,3)", "(1.,2,3.)", "(1e5,0.,0.)", "(1.,2.)", "(1.,2.,3.,4.)", "( 1.,2.,3.)",
               "(1.,2.,3.,)", "(1.,2.,3.E)", "(.,1.,2.)", "(" + PAST_LIMIT + ",0.,0.)"],
    "real": ["7", "1e5", "-0", "1.E", ".", "$", "1.5e+07"],
    "radius": ["4", "1e5", "$", "4.E", "+4"],
    # A face's bound list and a shell's face list too.
    "refs": ["()", "(#1,*)", "(#1,$)", "(#1,)", "(#1 ,#2)", "#1"],
}


@st.composite
def _record(draw, eid: str):
    """One record of a typed keyword; in one of four, one field is a near miss."""
    keyword = draw(st.sampled_from(sorted(SHAPES)))
    fields = [draw(FIELDS[kind]) for kind in SHAPES[keyword]]
    if draw(st.integers(0, 3)) == 0:
        i = draw(st.integers(0, len(fields) - 1))
        fields[i] = draw(st.sampled_from(NEAR_MISSES[SHAPES[keyword][i]]))
    record = f"#{eid}={keyword}({','.join(fields)});"
    if draw(st.integers(0, 9)) == 0:  # a blank inside the record, after '=', '(' or ','
        cut = draw(st.sampled_from([i + 1 for i, c in enumerate(record) if c in "=(,"]))
        record = record[:cut] + draw(st.sampled_from([" ", "\n", "\r\n"])) + record[cut:]
    return record


@st.composite
def _data(draw) -> str:
    """Up to six records, their ids mostly new, and now and then ``#0``,
    a repeated id or one past the digit limit."""
    ids = draw(st.lists(st.integers(1, 60), min_size=1, max_size=6))
    records = []
    for n in ids:
        eid = draw(st.sampled_from([str(n)] * 18 + ["0", PAST_LIMIT]))
        records.append(draw(_record(eid)) + draw(st.sampled_from(["\n", "", " ", "\r\n"])))
    return "".join(records)


@settings(max_examples=400, deadline=None)
@given(_data())
def test_typed_records_and_near_misses_read_the_same_both_ways(data):
    _both_ways(FRAME.format(data))


@st.composite
def _exported(draw) -> list[str]:
    """Records of the typed keywords as exporters write them."""
    records = []
    for eid in range(1, draw(st.integers(1, 6)) + 1):
        keyword = draw(st.sampled_from(sorted(SHAPES)))
        fields = [draw(FIELDS[kind]) for kind in SHAPES[keyword]]
        records.append(f"#{eid}={keyword}({','.join(fields)});\n")
    return records


@settings(max_examples=150, deadline=None)
@given(_exported())
def test_typed_lane_takes_every_record_written_as_exporters_write_it(records):
    text = FRAME.format("".join(records))
    assert _both_ways(text).startswith("(")
    with _TypedHook() as hook, _Taken() as taken:
        step.parse_exchange(text)
    assert hook.matches == taken.records == len(records)


def test_near_misses_keep_the_values_the_token_loop_gives():
    text = FRAME.format("#1=CARTESIAN_POINT('',(1,2,3));\n#2=DIRECTION('',(1e5,0.,0.));\n"
                        "#3=VECTOR('',#2,7);\n#4=ORIENTED_EDGE('',$,*,#3,.X.);\n"
                        "#5=VERTEX_POINT('a''b',#1);\n#6=CARTESIAN_POINT('',(1.,2.,3.,4.));\n"
                        "#7=CIRCLE('',#9,4);\n#8=CYLINDRICAL_SURFACE('',#9,1e5);\n"
                        "#9=ADVANCED_FACE('',(),#9,.T.);\n#10=CLOSED_SHELL('',(#1,*));\n"
                        "#11=FACE_BOUND('',#9,$);\n#12=MANIFOLD_SOLID_BREP('',*);\n"
                        "#13=FACE_OUTER_BOUND('',#9,.U.);\n")
    with _TypedHook() as hook:
        entities = step.parse_exchange(text).entities
    assert hook.matches == 0
    assert [type(x) for x in entities[1].args[1]] == [int, int, int]
    assert entities[2].args[1] == (1e5, 0.0, 0.0)
    assert entities[3].args == ("", step.Ref(2), 7) and type(entities[3].args[2]) is int
    assert entities[4].args == ("", step.UNSET, step.DERIVED, step.Ref(3), step.Enum("X"))
    assert entities[5].args[0] == "a'b"
    assert len(entities[6].args[1]) == 4
    assert entities[7].args == ("", step.Ref(9), 4) and type(entities[7].args[2]) is int
    assert entities[8].args == ("", step.Ref(9), 1e5) and type(entities[8].args[2]) is float
    assert entities[9].args == ("", (), step.Ref(9), True)
    assert entities[10].args == ("", (step.Ref(1), step.DERIVED))
    assert entities[11].args == ("", step.Ref(9), step.UNSET)
    assert entities[12].args == ("", step.DERIVED)
    assert entities[13].args == ("", step.Ref(9), step.Enum("U"))
    _both_ways(text)


def test_declined_ids_and_digits_keep_their_errors():
    cases = {
        "#0=DIRECTION('',(0.,0.,1.));\n": "a positive instance name",
        "#1=DIRECTION('',(0.,0.,1.));\n#1=DIRECTION('',(0.,0.,1.));\n": "defined more than once",
        f"#{PAST_LIMIT}=DIRECTION('',(0.,0.,1.));\n": "digits",
        f"#1=VERTEX_POINT('',#{PAST_LIMIT});\n": "digits",
    }
    for data, message in cases.items():
        outcome = _both_ways(FRAME.format(data))
        if message == "digits" and not INT_DIGIT_LIMIT:
            assert outcome.startswith("("), outcome
        else:
            assert message in outcome, outcome


# ---------------------------------------------------------------------------
# Coverage, sharing and the pattern
# ---------------------------------------------------------------------------

def test_typed_lane_takes_every_typed_keyword_of_the_benchmark_step_files(tmp_path):
    parts = inputs.build("step-parts", 7, tmp_path).parts
    typed = records = 0
    for part in parts:
        with _TypedHook() as hook, _Taken() as taken:
            entities = step.parse_exchange(part.path.read_text(encoding="utf-8")).entities
        typed += hook.matches
        records += len(entities)
        assert taken.records == len(entities), part.name
        assert hook.matches == sum(rec.keyword in SHAPES for rec in entities.values()), part.name
    # Every record is of a typed keyword, and the typed lane takes it.
    assert len(parts) == 24 and typed == records


def test_typed_lane_shares_reference_free_records_within_a_parse():
    text = FRAME.format("#1=DIRECTION('',(0.,0.,1.));\n#2=DIRECTION('',(0.,0.,1.));\n"
                        "#3=VECTOR('',#1,1.);\n#4=VECTOR('',#1,1.);\n"
                        "#5=CARTESIAN_POINT('',(1.,2.,3.));\n#6=CARTESIAN_POINT('',(1.,2.,3.));\n"
                        "#7=EDGE_LOOP('',(#3,#4));\n#8=EDGE_LOOP('',(#3,#4));\n"
                        "#9=DIRECTION('',(0.,0.,1.0));\n"
                        "#10 = DIRECTION('',(0.,0.,1.)) ;\n#11=DIRECTION('', (0.,0.,1.));\n"
                        "#12=DIRECTION ('',(0.,0.,1.));\n")
    with _TypedHook() as hook, _Taken() as taken:
        first = step.parse_exchange(text).entities
    assert hook.matches == taken.records == 9
    # The same text without a reference: one record.
    assert first[1] is first[2] and first[5] is first[6]
    # The same text holding a reference: two records.
    for a, b in ((3, 4), (7, 8)):
        assert first[a] == first[b] and first[a] is not first[b]
    # Another text of the same values: an equal record, not the same one.
    assert first[9] == first[1] and first[9] is not first[1]
    # The same text with blanks, which the token loop reads: equal records, not one.
    assert first[10] == first[11] == first[12] == first[1]
    assert len({id(first[eid]) for eid in (1, 10, 11, 12)}) == 4
    # Nothing is shared between two parses.
    second = step.parse_exchange(text).entities
    assert second == first
    assert all(second[eid] is not first[eid] for eid in first)


def test_typed_shapes_name_the_keywords_the_resolver_reads():
    # A keyword added to _MIN_ARGS without a shape, or a shape whose keyword
    # the resolver does not read, fails here.
    typed = [kw for keywords, *_ in step._TYPED_BRANCHES.values() for kw in keywords]
    assert len(typed) == len(set(typed))
    assert sorted(typed) == sorted(step._MIN_ARGS) == sorted(SHAPES)
    # Each shape holds at least the arguments the resolver reads.
    assert all(step._MIN_ARGS[kw] <= len(SHAPES[kw]) for kw in SHAPES)


def test_typed_pattern_stays_small_and_is_compiled_at_import():
    # Every process that imports the reader compiles _TYPED: about 2 ms for its
    # 853 characters under CPython 3.11 on a 2-vCPU VM. The bound keeps its
    # branches from growing unnoticed.
    assert isinstance(step._TYPED, re.Pattern)
    assert len(step._TYPED.pattern) < 1024
    # The branches, one per field shape, cover the typed keywords. A shape of
    # several keywords captures its keyword, and the builders take each of
    # _TYPED's other groups but the id, once.
    branches = step._TYPED_BRANCHES
    assert sorted(kw for keywords, *_ in branches.values() for kw in keywords) == sorted(SHAPES)
    taken = []
    for last, (keywords, keyword_group, groups, build, _) in branches.items():
        assert (keyword_group > 0) == (len(keywords) > 1)
        assert build.__code__.co_argcount == len(groups) and groups[-1] == last
        taken += [keyword_group] * (keyword_group > 0) + list(groups)
    assert sorted(taken) == list(range(2, step._TYPED.groups + 1))

    # Every module-level re call (re.compile, re.sub, ...) passes through
    # re._compile, and reading a file, also one with errors, must make none.
    # The wrapper only records, and is removed before the test returns, so the
    # test runner's own re calls are left alone.
    compiled = []
    real_compile = re._compile

    def recording_compile(pattern, flags):
        compiled.append(pattern)
        return real_compile(pattern, flags)

    text = fixture_path("flat_sheet_100x80x2.step").read_text(encoding="utf-8")
    with _TypedHook() as hook, mock.patch.object(re, "_compile", recording_compile):
        step.load_step(text)
        for bad in (text.replace("#9=", "#9 ", 1), text.replace("0.0", "0.E", 1)):
            try:
                step.parse_exchange(bad)
            except step.StepSyntaxError:
                pass
    assert compiled == [], f"patterns compiled while reading: {compiled!r}"
    assert hook.matches > 100


# ---------------------------------------------------------------------------
# The resolver's shared directions
# ---------------------------------------------------------------------------

SHEET = fixture_path("flat_sheet_100x80x2.step").read_text(encoding="utf-8")


def _resolved(text: str):
    """``load_step``'s solid as comparable values, or its error."""
    try:
        solid = step.load_step(text)
    except step.StepError as exc:
        return f"{type(exc).__name__} {exc}"
    return solid.name, solid.vertices, solid.edges, solid.loops, solid.faces


def test_a_zero_direction_shared_by_two_vectors_fails_at_its_first_use():
    zero = "DIRECTION('',(0.,0.,0.));"
    text = (SHEET.replace("#49=DIRECTION('',(0.0,0.0,1.0));", f"#49={zero}")
            .replace("#53=DIRECTION('',(0.0,0.0,1.0));", f"#53={zero}"))
    entities = step.parse_exchange(text).entities
    # One record for both, each used by its own VECTOR (#50 and #54).
    assert entities[49] is entities[53]
    message = ("UnsupportedGeometry entity #53 (DIRECTION (must be non-zero)) "
               "is outside the supported geometry subset")
    assert _resolved(text) == message
    with _token_loop_only():
        assert _resolved(text) == message


def test_a_non_finite_direction_that_no_solid_record_reaches_is_not_read():
    text = SHEET.replace("ENDSEC;\nEND-ISO-10303-21;",
                         "#900=DIRECTION('',(1.E400,0.,0.));\n#901=VECTOR('',#900,1.);\n"
                         "ENDSEC;\nEND-ISO-10303-21;")
    assert text != SHEET
    solid = _resolved(text)
    assert solid == _resolved(SHEET) and len(solid[2]) == 12
    with _token_loop_only():
        assert _resolved(text) == solid
    # Reached from a line, it fails there, as the parent reader's resolver said.
    used = text.replace("#19=LINE('',#1,#18);", "#19=LINE('',#1,#901);")
    message = ("UnsupportedGeometry entity #900 (DIRECTION (needs 3 finite components)) "
               "is outside the supported geometry subset")
    assert _resolved(used) == message
    with _token_loop_only():
        assert _resolved(used) == message


# A direction reference that the resolver must refuse on its use, whatever
# directions it resolved before: the messages are the reader's before it kept
# any unit vector, but for naming the VECTOR, which holds the reference, where
# that reader named the VECTOR's line.
BAD_DIRECTIONS = {
    "a point": (("#22=VECTOR('',#21,1.);", "#22=VECTOR('',#1,1.);"),
                "UnsupportedGeometry entity #1 (CARTESIAN_POINT) is outside the supported geometry subset"),
    "dangling": (("#22=VECTOR('',#21,1.);", "#22=VECTOR('',#999,1.);"),
                 "DanglingReference entity #22 references #999, which does not exist"),
    "unset": (("#22=VECTOR('',#21,1.);", "#22=VECTOR('',$,1.);"),
              "UnsupportedGeometry entity #22 (expected entity reference, got $) "
              "is outside the supported geometry subset"),
    "too few arguments": (("#21=DIRECTION('',(0.0,1.0,0.0));", "#21=DIRECTION('');"),
                          "UnsupportedGeometry entity #21 (DIRECTION (needs 2 arguments)) "
                          "is outside the supported geometry subset"),
    "complex": (("#21=DIRECTION('',(0.0,1.0,0.0));", "#21=(DIRECTION('',(0.0,1.0,0.0)));"),
                "UnsupportedGeometry entity #21 (DIRECTION) is outside the supported geometry subset"),
}


@pytest.mark.parametrize("edit, message", BAD_DIRECTIONS.values(), ids=BAD_DIRECTIONS)
def test_each_direction_reference_is_checked_at_its_use(edit, message):
    text = SHEET.replace(*edit)
    assert text != SHEET
    assert _resolved(text) == message
    with _token_loop_only():
        assert _resolved(text) == message


# A reference the resolver follows to a point, a placement or a line's
# vector, naming a record of another keyword that holds what the resolver
# reads there; each is refused by the keyword check at that reference.
BAD_REFERENCES = {
    "vertex to a direction": (("#9=VERTEX_POINT('',#1);", "#9=VERTEX_POINT('',#17);"),
                              "UnsupportedGeometry entity #17 (DIRECTION) "
                              "is outside the supported geometry subset"),
    "plane to a point": (("#68=PLANE('',#67);", "#68=PLANE('',#1);"),
                         "UnsupportedGeometry entity #1 (CARTESIAN_POINT) "
                         "is outside the supported geometry subset"),
    "line to a direction": (("#19=LINE('',#1,#18);", "#19=LINE('',#1,#17);"),
                            "UnsupportedGeometry entity #17 (DIRECTION) "
                            "is outside the supported geometry subset"),
}


@pytest.mark.parametrize("edit, message", BAD_REFERENCES.values(), ids=BAD_REFERENCES)
def test_each_point_placement_and_vector_reference_checks_its_keyword(edit, message):
    text = SHEET.replace(*edit)
    assert text != SHEET
    assert _resolved(text) == message
    with _token_loop_only():
        assert _resolved(text) == message


def test_each_direction_record_resolves_to_one_unit_vector():
    # The sheet's four +z DIRECTION records are one record, so their lines
    # share one unit vector; with the token loop they are four records, and
    # their lines hold four equal vectors.
    def directions(solid) -> dict:
        by_value: dict = {}
        for edge in solid.edges.values():
            by_value.setdefault(edge.curve.direction, set()).add(id(edge.curve.direction))
        return by_value

    shared = directions(step.load_step(SHEET))
    with _token_loop_only():
        apart = directions(step.load_step(SHEET))
    z = (0.0, 0.0, 1.0)
    assert shared.keys() == apart.keys() and z in shared
    assert len(shared[z]) == 1 and len(apart[z]) == 4
