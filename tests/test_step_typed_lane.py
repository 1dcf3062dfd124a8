"""The Part-21 fast lane's typed records, against the generic lane and the token loop.

``step._fast_records`` first tries ``step._TYPED`` at each DATA record: one
branch per frequent keyword, written the way exporters write it, with each
field a group. What it does not match goes to ``step._FAST`` and from there to
the token loop. All three ways must give the same entity map, or the same error
with the same line and column. These tests read generated records of each typed
keyword, and near misses of them, with the typed lane on, with ``_TYPED``
matching nothing, and with the token loop only; and check that the typed lane
takes every record it is meant for, shares what ``_FAST`` shares, and compiles
nothing while reading.
"""
import re
from unittest import mock

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


def _generic_lane_only():
    """The reader with the typed lane matching nothing."""
    return mock.patch.object(step, "_TYPED", re.compile(r"(?!)"))


def _three_ways(text: str) -> str:
    typed = _outcome(text)
    with _generic_lane_only():
        generic = _outcome(text)
    with _token_loop_only():
        tokens = _outcome(text)
    assert typed == generic == tokens, text
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
    "LINE": ("name", "ref", "ref"),
    "VERTEX_POINT": ("name", "ref"),
    "EDGE_LOOP": ("name", "refs"),
    "AXIS2_PLACEMENT_3D": ("name", "ref", "ref", "ref"),
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
    "refs": st.lists(REF, min_size=1, max_size=4).map(lambda xs: f"({','.join(xs)})"),
}
# What each kind of field may be written as instead: text the token reader
# reads, or rejects, and the typed lane must leave to the others.
NEAR_MISSES = {
    "name": ["'a''b'", "''''", "'it''s'"],
    "derived": ["$", "#5", "1."],
    "ref": ["#" + PAST_LIMIT, "#007", "*", "$", "# 5"],
    "flag": [".X.", "$", "*", ".T", "T"],
    "triple": ["(1,2,3)", "(1.,2,3.)", "(1e5,0.,0.)", "(1.,2.)", "(1.,2.,3.,4.)", "( 1.,2.,3.)",
               "(1.,2.,3.,)", "(1.,2.,3.E)", "(.,1.,2.)", "(" + PAST_LIMIT + ",0.,0.)"],
    "real": ["7", "1e5", "-0", "1.E", ".", "$", "1.5e+07"],
    "refs": ["()", "(#1,*)", "(#1,)", "(#1 ,#2)", "#1"],
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
def test_typed_records_and_near_misses_read_the_same_three_ways(data):
    _three_ways(FRAME.format(data))


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
    assert _three_ways(text).startswith("(")
    with _TypedHook() as hook, _Taken() as taken:
        step.parse_exchange(text)
    assert hook.matches == taken.records == len(records)


def test_near_misses_keep_the_values_the_token_loop_gives():
    text = FRAME.format("#1=CARTESIAN_POINT('',(1,2,3));\n#2=DIRECTION('',(1e5,0.,0.));\n"
                        "#3=VECTOR('',#2,7);\n#4=ORIENTED_EDGE('',$,*,#3,.X.);\n"
                        "#5=VERTEX_POINT('a''b',#1);\n#6=CARTESIAN_POINT('',(1.,2.,3.,4.));\n")
    with _TypedHook() as hook:
        entities = step.parse_exchange(text).entities
    assert hook.matches == 0
    assert [type(x) for x in entities[1].args[1]] == [int, int, int]
    assert entities[2].args[1] == (1e5, 0.0, 0.0)
    assert entities[3].args == ("", step.Ref(2), 7) and type(entities[3].args[2]) is int
    assert entities[4].args == ("", step.UNSET, step.DERIVED, step.Ref(3), step.Enum("X"))
    assert entities[5].args[0] == "a'b"
    assert len(entities[6].args[1]) == 4
    _three_ways(text)


def test_declined_ids_and_digits_keep_their_errors():
    cases = {
        "#0=DIRECTION('',(0.,0.,1.));\n": "a positive instance name",
        "#1=DIRECTION('',(0.,0.,1.));\n#1=DIRECTION('',(0.,0.,1.));\n": "defined more than once",
        f"#{PAST_LIMIT}=DIRECTION('',(0.,0.,1.));\n": "digits",
        f"#1=VERTEX_POINT('',#{PAST_LIMIT});\n": "digits",
    }
    for data, message in cases.items():
        outcome = _three_ways(FRAME.format(data))
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
    # The typed keywords are most of the records.
    assert len(parts) == 24 and typed > 0.8 * records


def test_typed_lane_shares_reference_free_records_within_a_parse():
    text = FRAME.format("#1=DIRECTION('',(0.,0.,1.));\n#2=DIRECTION('',(0.,0.,1.));\n"
                        "#3=VECTOR('',#1,1.);\n#4=VECTOR('',#1,1.);\n"
                        "#5=CARTESIAN_POINT('',(1.,2.,3.));\n#6=CARTESIAN_POINT('',(1.,2.,3.));\n"
                        "#7=EDGE_LOOP('',(#3,#4));\n#8=EDGE_LOOP('',(#3,#4));\n"
                        "#9=DIRECTION('',(0.,0.,1.0));\n"
                        "#10 = DIRECTION('',(0.,0.,1.)) ;\n")
    with _TypedHook() as hook:
        first = step.parse_exchange(text).entities
    assert hook.matches == 9
    # The same text without a reference: one record.
    assert first[1] is first[2] and first[5] is first[6]
    # The same text holding a reference: two records.
    for a, b in ((3, 4), (7, 8)):
        assert first[a] == first[b] and first[a] is not first[b]
    # Another text of the same values: an equal record, not the same one.
    assert first[9] == first[1] and first[9] is not first[1]
    # _FAST keys its records by the same text, from the keyword to the last ')'.
    assert first[10] is first[1]
    # Nothing is shared between two parses.
    second = step.parse_exchange(text).entities
    assert second == first
    assert all(second[eid] is not first[eid] for eid in first)


def test_typed_pattern_stays_small_and_is_compiled_at_import():
    # Every process that imports the reader compiles _TYPED: about 2 ms for its
    # 818 characters under CPython 3.11 on a 2-vCPU VM. The bound keeps its
    # branches from growing unnoticed.
    assert isinstance(step._TYPED, re.Pattern)
    assert len(step._TYPED.pattern) < 1024
    # The branches are the typed keywords, and their builders take all of
    # _TYPED's groups but the id.
    assert sorted(kw for kw, *_ in step._TYPED_BRANCHES.values()) == sorted(SHAPES)
    fields = sum(len(groups) for _, groups, _, _ in step._TYPED_BRANCHES.values())
    assert fields == step._TYPED.groups - 1

    # As in test_step_fast_lane: every module-level re call passes through
    # re._compile, and reading a file, also one with errors, must make none.
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
