"""Part-21 grammar, serialization round-trip, and the geometry resolver."""
import copy
import pickle
import re

import pytest

from punchplan.brep import validate_manifold
from punchplan.step import (
    MAX_NESTING,
    DanglingReference,
    DuplicateEntityId,
    Enum,
    MissingSection,
    MissingSolid,
    MultipleSolids,
    Ref,
    StepSyntaxError,
    UNSET,
    DERIVED,
    UnsupportedGeometry,
    load_step,
    parse_exchange,
    resolve_brep,
)
from conftest import INT_DIGIT_LIMIT, needs_digit_limit
from step_serialize import serialize_exchange

MINIMAL = (
    "ISO-10303-21;\nHEADER;\n"
    "FILE_DESCRIPTION(('demo'),'2;1');\n"
    "FILE_NAME('part','2026-01-01',(''),(''),'','','');\n"
    "FILE_SCHEMA(('CONFIG_CONTROL_DESIGN'));\n"
    "ENDSEC;\nDATA;\n{data}ENDSEC;\nEND-ISO-10303-21;\n"
)


def wrap(data: str) -> str:
    return MINIMAL.format(data=data)


def test_parse_minimal_cartesian_point():
    xs = parse_exchange(wrap("#10=CARTESIAN_POINT('',(0.,0.,0.));\n"))
    assert set(xs.entities) == {10}
    ent = xs.entities[10]
    assert ent.keyword == "CARTESIAN_POINT"
    assert ent.args == ("", (0.0, 0.0, 0.0))


def test_missing_data_section():
    text = "ISO-10303-21;\nHEADER;\nENDSEC;\nEND-ISO-10303-21;\n"
    with pytest.raises(MissingSection) as exc:
        parse_exchange(text)
    assert exc.value.section == "DATA"


def test_missing_header_section():
    with pytest.raises(MissingSection):
        parse_exchange("ISO-10303-21;\nDATA;\nENDSEC;\nEND-ISO-10303-21;\n")


def test_edge_curve_args():
    xs = parse_exchange(wrap("#5=EDGE_CURVE('',#1,#2,#3,.T.);\n"))
    ent = xs.entities[5]
    assert ent.args == ("", Ref(1), Ref(2), Ref(3), True)


def test_placeholders_and_enums():
    xs = parse_exchange(wrap("#1=ORIENTED_EDGE('',*,*,#2,.F.);\n#2=SI_UNIT($,.METRE.);\n"))
    assert xs.entities[1].args == ("", DERIVED, DERIVED, Ref(2), False)
    assert xs.entities[2].args == (UNSET, Enum("METRE"))


@pytest.mark.parametrize("placeholder, text", [(UNSET, "$"), (DERIVED, "*")], ids=["unset", "derived"])
def test_placeholders_are_singletons(placeholder, text):
    assert repr(placeholder) == text
    assert copy.copy(placeholder) is placeholder
    assert copy.deepcopy(placeholder) is placeholder
    assert pickle.loads(pickle.dumps(placeholder)) is placeholder
    assert UNSET is not DERIVED


def test_si_unit_warning_for_non_millimetre():
    xs = parse_exchange(wrap("#2=SI_UNIT($,.METRE.);\n"))
    assert any("non-millimetre" in w for w in xs.warnings)
    xs_mm = parse_exchange(wrap("#2=SI_UNIT(.MILLI.,.METRE.);\n"))
    assert xs_mm.warnings == []


# The unit declarations of a part modelled in inches and degrees, as exporters
# write them: each conversion-based unit is a complex instance.
INCH_UNIT = (
    "#200=(CONVERSION_BASED_UNIT('INCH',#201)LENGTH_UNIT()NAMED_UNIT(#202));\n"
    "#201=LENGTH_MEASURE_WITH_UNIT(LENGTH_MEASURE(25.4),#203);\n"
    "#202=DIMENSIONAL_EXPONENTS(1.,0.,0.,0.,0.,0.,0.);\n"
    "#203=(LENGTH_UNIT()NAMED_UNIT(*)SI_UNIT(.MILLI.,.METRE.));\n"
)
DEGREE_UNIT = (
    "#204=(CONVERSION_BASED_UNIT('DEGREE',#205)NAMED_UNIT(#206)PLANE_ANGLE_UNIT());\n"
    "#205=PLANE_ANGLE_MEASURE_WITH_UNIT(PLANE_ANGLE_MEASURE(0.0174532925),#207);\n"
    "#206=DIMENSIONAL_EXPONENTS(0.,0.,0.,0.,0.,0.,0.);\n"
    "#207=(NAMED_UNIT(*)PLANE_ANGLE_UNIT()SI_UNIT($,.RADIAN.));\n"
)
INCH_WARNING = ("entity #200: CONVERSION_BASED_UNIT declares the length unit 'INCH'"
                " (coordinates are read as millimetres regardless)")


def test_conversion_based_length_unit_warning_names_the_unit():
    assert parse_exchange(wrap(INCH_UNIT)).warnings == [INCH_WARNING]
    assert parse_exchange(wrap(INCH_UNIT + DEGREE_UNIT)).warnings == [INCH_WARNING]
    # The part order inside the complex instance does not matter.
    reordered = INCH_UNIT.replace("(CONVERSION_BASED_UNIT('INCH',#201)LENGTH_UNIT()",
                                  "(LENGTH_UNIT()CONVERSION_BASED_UNIT('INCH',#201)")
    assert parse_exchange(wrap(reordered)).warnings == [INCH_WARNING]


@pytest.mark.parametrize("data", [
    DEGREE_UNIT,
    "#203=(LENGTH_UNIT()NAMED_UNIT(*)SI_UNIT(.MILLI.,.METRE.));\n",
    "#203=SI_UNIT(.MILLI.,.METRE.);\n",
], ids=["degree", "millimetre-complex", "millimetre-simple"])
def test_angle_and_millimetre_units_give_no_warning(data):
    assert parse_exchange(wrap(data)).warnings == []


def test_comments_and_whitespace_skipped():
    xs = parse_exchange(wrap("/* a comment\nover lines */ #7=CARTESIAN_POINT('x',(1.,2.,3.));\n"))
    assert xs.entities[7].args[0] == "x"


def test_string_quote_escape_and_verbatim_backslash():
    xs = parse_exchange(wrap("#3=CARTESIAN_POINT('it''s \\X2\\0041\\X0\\',(0.,0.,0.));\n"))
    assert xs.entities[3].args[0] == "it's \\X2\\0041\\X0\\"


def test_duplicate_instance_name_is_hard_error():
    with pytest.raises(DuplicateEntityId):
        parse_exchange(wrap("#1=CARTESIAN_POINT('',(0.,0.,0.));\n#1=DIRECTION('',(1.,0.,0.));\n"))
    # A repeated name is reported before the missing entity keyword after it.
    with pytest.raises(DuplicateEntityId):
        parse_exchange(PREFIX + "#1=A(1);\n#1=;")


PREFIX = "ISO-10303-21;\nHEADER;\nENDSEC;\nDATA;\n"
# One digit more than the interpreter converts to an int.
LONG_DIGITS = "9" * (INT_DIGIT_LIMIT + 1)
LONG_INT = f"an integer of at most {INT_DIGIT_LIMIT} digits"


@pytest.mark.parametrize("text, line, column, expected", [
    ("ISO-10303-21;\nHEADER;\n  /* never closed\nENDSEC;\n", 3, 3, "closing */ for comment"),
    (PREFIX + "#1=A(#);\n", 5, 6, "entity id digits after '#'"),
    (PREFIX + "#1=A('abc);\nENDSEC;\n", 5, 6, "closing ' for string"),
    (PREFIX + "#1=A('ab''", 5, 6, "closing ' for string"),
    (PREFIX + "#1=A(1.E);\n", 5, 9, "exponent digits"),
    (PREFIX + "#1=A(1.E+);\n", 5, 10, "exponent digits"),
    (PREFIX + "#1=A(+);\n", 5, 6, "digits in number"),
    (PREFIX + "#1=A(.ENUM);\n", 5, 6, "closing '.' for enumeration"),
    (PREFIX + "#1=A(@);\n", 5, 6, "a Part-21 token"),
    (PREFIX + "#1=A(\f);\n", 5, 6, "a Part-21 token"),
    (PREFIX + "#0=A(1);\n", 5, 1, "a positive instance name"),
    (PREFIX + "#1=A(1)\n#2=B(2);\n", 6, 1, ";"),
    (PREFIX + "#1=CARTESIAN_POINT('',(0.,0.,0.)\n", 6, 1, ")"),
    (PREFIX + "#1=A(1);\n", 6, 1, "ENDSEC for DATA"),
    (PREFIX + "#1=A(+.);\n", 5, 6, "digits in number"),
    (PREFIX + "#1=A(-.);\n", 5, 6, "digits in number"),
    (PREFIX + "#1=A(+E5);\n", 5, 6, "digits in number"),
    (PREFIX + "#\u00b2=A(1);\n", 5, 1, "entity id digits after '#'"),
    (PREFIX + "#1=A(.\u00e9.);\n", 5, 6, "closing '.' for enumeration"),
    (PREFIX + "#1=\u00c9A(1);\n", 5, 4, "a Part-21 token"),
    (PREFIX + "#1=A(\u0663);\n", 5, 6, "a Part-21 token"),
    (PREFIX + "#1=A(1)\u00a0;\n", 5, 8, "a Part-21 token"),
    (PREFIX + "#1=A(" + "(" * 5000 + ")" * 5001 + ";\n", 5, 69, "at most 64 nested parameter lists"),
    (PREFIX + "#1=A(" + "B(" * 70 + ")" * 71 + ";\n", 5, 133, "at most 64 nested parameter lists"),
    (PREFIX + "#1=A(1,);\n", 5, 8, "an argument"),
    (PREFIX + "#1=A(,1);\n", 5, 6, "an argument"),
    (PREFIX + "#1=A(1 2);\n", 5, 8, ")"),
    (PREFIX + "#1=;\n", 5, 4, "entity keyword"),
    (PREFIX + "#1 A(1);\n", 5, 4, "="),
    (PREFIX + "A(1);\n", 5, 1, "instance name '#<id>'"),
    (PREFIX + "#1=(A(1) 2);\n", 5, 10, "entity keyword inside complex instance"),
    (PREFIX + "#1=A(B 1);\n", 5, 8, "("),
    (PREFIX + "#1=A(1,", 5, 8, "an argument"),
    (PREFIX + "#1=A(1);\nENDSEC\nEND-ISO-10303-21;\n", 7, 1, ";"),
    (PREFIX + "#1=A(1);\nENDSEC;\n", 7, 1, "END-ISO-10303-21"),
    (PREFIX + "#1=A(1);\nENDSEC;\nEND-ISO-10303-21;\n@", 8, 1, "a Part-21 token"),
    ("'HEADER';", 1, 1, "ISO-10303-21"),
    pytest.param(PREFIX + f"#{LONG_DIGITS}=A(1);\n", 5, 1, LONG_INT, marks=needs_digit_limit),
    pytest.param(PREFIX + f"#1=A(2,#{LONG_DIGITS});\n", 5, 8, LONG_INT, marks=needs_digit_limit),
    pytest.param(PREFIX + f"#1=A(\n-{LONG_DIGITS});\n", 6, 1, LONG_INT, marks=needs_digit_limit),
    # The token after an instance name is read before the name is checked.
    pytest.param(PREFIX + f"#{LONG_DIGITS} @", 5, INT_DIGIT_LIMIT + 4, "a Part-21 token",
                 marks=needs_digit_limit),
    (PREFIX + "#0 @", 5, 4, "a Part-21 token"),
    (PREFIX + "#1=A(1);\n#1=@", 6, 4, "a Part-21 token"),
    # A typed parameter past the bound fails at the token after its keyword.
    (PREFIX + "#1=A(" + "B(" * 63 + "C 1" + ")" * 64 + ";\n", 5, 134, "at most 64 nested parameter lists"),
    ("ISO-10303-21;\nHEADER;\nFILE_NAME('x');\n", 4, 1, "ENDSEC for HEADER"),
    ("ISO-10303-21;\nHEADER;\nFILE_NAME('x')\nENDSEC;\n", 4, 1, ";"),
    ("ISO-10303-21;\nHEADER;\nENDSEC\nDATA;\n", 4, 1, ";"),
    (PREFIX + "#1=(;\n", 5, 5, "entity keyword inside complex instance"),
], ids=[
    "open-comment", "hash-no-digits", "open-string", "open-string-escaped-quote",
    "no-exponent-digits", "no-exponent-digits-after-sign", "lone-plus", "open-enum",
    "stray-at", "stray-form-feed", "zero-instance-name", "missing-semicolon",
    "missing-paren", "missing-endsec", "plus-dot", "minus-dot", "sign-exponent-only",
    "non-ascii-digit-in-name", "non-ascii-enum", "non-ascii-keyword", "non-ascii-digit",
    "non-ascii-space", "deep-nesting", "deep-typed-nesting",
    "trailing-comma", "leading-comma", "missing-comma", "no-entity-keyword", "missing-equals",
    "no-instance-name", "complex-instance-non-keyword", "typed-parameter-without-paren",
    "eof-in-list", "endsec-without-semicolon", "missing-end-keyword",
    "bad-token-after-end", "string-for-start-keyword",
    "instance-name-past-digit-limit", "reference-past-digit-limit", "integer-past-digit-limit",
    "bad-token-after-long-instance-name", "bad-token-after-zero-instance-name",
    "bad-token-after-repeated-instance-name", "typed-parameter-past-nesting-bound",
    "missing-header-endsec", "header-record-without-semicolon", "header-endsec-without-semicolon",
    "complex-instance-without-parts-or-paren",
])
def test_syntax_error_carries_position(text, line, column, expected):
    with pytest.raises(StepSyntaxError) as exc:
        parse_exchange(text)
    assert (exc.value.line, exc.value.column, exc.value.expected) == (line, column, expected)


@pytest.mark.parametrize("text, message", [
    (PREFIX + "#1=A(1,", "line 5, column 8: expected an argument (found end of input)"),
    ("ISO-10303-21;\nHEADER", "line 2, column 7: expected ; (found end of input)"),
    (PREFIX + "#1=A(1);\nENDSEC;\n", "line 7, column 1: expected END-ISO-10303-21 (found end of input)"),
    (PREFIX + "#1=A(1 2);\n", "line 5, column 8: expected ) (found '2')"),
    ("ISO-10303-21 #12;", "line 1, column 14: expected ; (found '#12')"),
    (PREFIX + "#1=A(1 +5);\n", "line 5, column 8: expected ) (found '+5')"),
    (PREFIX + "#1=A(B 1.);\n", "line 5, column 8: expected ( (found '1.')"),
    (PREFIX + "#1 'it''s'=A();\n", "line 5, column 4: expected = (found \"'it''s'\")"),
    (PREFIX + "#1=.T.;\n", "line 5, column 4: expected entity keyword (found '.T.')"),
    ("ISO-10303-21;\nHEADER;\n.METRE.;\n",
     "line 3, column 1: expected header entity keyword (found '.METRE.')"),
    (PREFIX + "#1=A(1)B;\n", "line 5, column 8: expected ; (found 'B')"),
    (PREFIX + "$\n", "line 5, column 1: expected instance name '#<id>' (found '$')"),
    (PREFIX + "#1=(A(1)*);\n",
     "line 5, column 9: expected entity keyword inside complex instance (found '*')"),
], ids=["eof-in-list", "eof-after-keyword", "eof-before-end-keyword", "token-found",
        "ref", "signed-integer", "real", "string-with-quote-escape", "bool", "enum", "keyword",
        "unset", "derived"])
def test_syntax_error_message_names_what_was_found(text, message):
    with pytest.raises(StepSyntaxError) as exc:
        parse_exchange(text)
    assert str(exc.value) == message


def test_header_keyword_written_as_string_is_missing_section():
    with pytest.raises(MissingSection) as exc:
        parse_exchange("ISO-10303-21;'HEADER';")
    assert exc.value.section == "HEADER"


def test_one_valid_token_after_end_keyword_is_enough():
    xs = parse_exchange(PREFIX + "#1=A(1);\nENDSEC;\nEND-ISO-10303-21;\nfoo @")
    assert set(xs.entities) == {1}


def test_open_string_after_end_keyword_is_an_error():
    with pytest.raises(StepSyntaxError) as exc:
        parse_exchange(PREFIX + "#1=A(1);\nENDSEC;\nEND-ISO-10303-21;\n'open")
    assert (exc.value.line, exc.value.column, exc.value.expected) == (8, 1, "closing ' for string")


def test_nesting_up_to_the_limit_parses():
    nested = "(" * (MAX_NESTING - 1) + "1" + ")" * (MAX_NESTING - 1)
    xs = parse_exchange(wrap(f"#1=A({nested});\n"))
    value = xs.entities[1].args
    for _ in range(MAX_NESTING - 1):
        (value,) = value
    assert value == (1,)


def test_non_ascii_allowed_in_strings_and_comments():
    xs = parse_exchange(wrap("/* caf\u00e9 */ #7=CARTESIAN_POINT('\u00e9t\u00e9',(1.,2.,3.));\n"))
    assert xs.entities[7].args[0] == "\u00e9t\u00e9"


def test_complex_instance_parses_and_counts_as_ignored():
    xs = parse_exchange(wrap(
        "#4=(GEOMETRIC_REPRESENTATION_CONTEXT(3)GLOBAL_UNIT_ASSIGNED_CONTEXT((#5))"
        "REPRESENTATION_CONTEXT('',''));\n#5=SI_UNIT(.MILLI.,.METRE.);\n"
    ))
    assert xs.entities[4].keyword.startswith("GEOMETRIC_REPRESENTATION_CONTEXT")
    assert xs.ignored_keywords["GEOMETRIC_REPRESENTATION_CONTEXT"] == 1


# ---------------------------------------------------------------------------
# Resolver
# ---------------------------------------------------------------------------

def test_resolve_box(step_sheet_text):
    solid = load_step(step_sheet_text)
    assert len(solid.faces) == 6
    assert len(solid.edges) == 12
    assert len(solid.vertices) == 8


def test_unsupported_surface_names_entity(step_sheet_text):
    text = step_sheet_text.replace("PLANE('',#", "B_SPLINE_SURFACE('',#", 1)
    xs = parse_exchange(text)
    with pytest.raises(UnsupportedGeometry) as exc:
        resolve_brep(xs)
    assert exc.value.keyword == "B_SPLINE_SURFACE"


def test_dangling_reference_reports_both_ids():
    xs = parse_exchange(wrap(
        "#7=ORIENTED_EDGE('',*,*,#99,.T.);\n"
        "#8=EDGE_LOOP('',(#7));\n#9=FACE_OUTER_BOUND('',#8,.T.);\n"
        "#10=DIRECTION('',(0.,0.,1.));\n#11=DIRECTION('',(1.,0.,0.));\n"
        "#12=CARTESIAN_POINT('',(0.,0.,0.));\n"
        "#13=AXIS2_PLACEMENT_3D('',#12,#10,#11);\n#14=PLANE('',#13);\n"
        "#15=ADVANCED_FACE('',(#9),#14,.T.);\n#16=CLOSED_SHELL('',(#15));\n"
        "#17=MANIFOLD_SOLID_BREP('x',#16);\n"
    ))
    with pytest.raises(DanglingReference) as exc:
        resolve_brep(xs)
    assert exc.value.from_id == 7
    assert exc.value.to_id == 99


def test_multiple_solids_rejected(step_sheet_text):
    extra = "#9000=MANIFOLD_SOLID_BREP('again',#9001);\n"
    text = step_sheet_text.replace("ENDSEC;\nEND-ISO", extra + "ENDSEC;\nEND-ISO")
    with pytest.raises(MultipleSolids):
        resolve_brep(parse_exchange(text))


def test_no_solid_rejected():
    with pytest.raises(MissingSolid):
        resolve_brep(parse_exchange(wrap("#1=CARTESIAN_POINT('',(0.,0.,0.));\n")))


def test_reachable_complex_instance_rejected(step_sheet_text):
    # Redirect one face's surface reference at a complex instance.
    xs = parse_exchange(step_sheet_text.replace(
        "ENDSEC;\nEND-ISO", "#9000=(PLANE('',#9001)BOUNDED_SURFACE());\nENDSEC;\nEND-ISO"))
    face_id = next(eid for eid, rec in xs.entities.items()
                   if getattr(rec, "keyword", "") == "ADVANCED_FACE")
    rec = xs.entities[face_id]
    from punchplan.step import Ref, SimpleEntity
    xs.entities[face_id] = SimpleEntity(rec.keyword, rec.args[:2] + (Ref(9000),) + rec.args[3:])
    with pytest.raises(UnsupportedGeometry) as exc:
        resolve_brep(xs)
    assert exc.value.entity_id == 9000


def test_non_positive_instance_name_rejected():
    with pytest.raises(StepSyntaxError):
        parse_exchange(wrap("#0=CARTESIAN_POINT('',(0.,0.,0.));\n"))


# The BOOLEAN flag of each entity kind that has one, on a record of the sheet
# fixture: the record as written there, the flag's name, what the resolved
# solid shows of the flag, and what it shows for .T. and for .F. FACE_BOUND is
# the fixture's FACE_OUTER_BOUND renamed; edge #20 is made an arc, whose axis
# turns over with its same_sense (a line ignores it).
FLAG_RECORDS = {
    "ORIENTED_EDGE": ("#69=ORIENTED_EDGE('',*,*,#32,.F.);", "orientation",
                      lambda s: s.loops[73].oriented_edges[0], (32, True), (32, False)),
    "FACE_OUTER_BOUND": ("#74=FACE_OUTER_BOUND('',#73,.T.);", "orientation",
                         lambda s: s.loops[73].oriented_edges[0], (32, False), (20, True)),
    "FACE_BOUND": ("#74=FACE_OUTER_BOUND('',#73,.T.);", "orientation",
                   lambda s: s.loops[73].oriented_edges[0], (32, False), (20, True)),
    "EDGE_CURVE": ("#20=EDGE_CURVE('',#9,#10,#19,.T.);", "same_sense",
                   lambda s: s.edges[20].curve.axis, (0, 0, -1), (0, 0, 1)),
    "ADVANCED_FACE": ("#75=ADVANCED_FACE('',(#74),#68,.T.);", "same_sense",
                      lambda s: s.faces[75].same_sense, True, False),
}


def flag_written(text: str, keyword: str, flag: str) -> str:
    """The sheet fixture's ``text`` with ``keyword``'s flag written ``flag``
    (with the comma before it), or left out if ``flag`` is empty."""
    record = FLAG_RECORDS[keyword][0]
    text = text.replace(record, record[:record.rindex(",")] + flag + ");")
    if keyword == "FACE_BOUND":
        text = text.replace("#74=FACE_OUTER_BOUND(", "#74=FACE_BOUND(")
    elif keyword == "EDGE_CURVE":
        text = text.replace("#19=LINE('',#1,#18);", "#19=CIRCLE('',#67,5.);")
    return text


@pytest.mark.parametrize("keyword", FLAG_RECORDS)
@pytest.mark.parametrize("flag, read", [(",.T.", True), (",$", True), ("", True), (",.F.", False)],
                         ids=["T", "unset", "absent", "F"])
def test_boolean_flag_reads_as_written_and_unset_as_true(step_sheet_text, keyword, flag, read):
    _, _, shown, when_true, when_false = FLAG_RECORDS[keyword]
    solid = load_step(flag_written(step_sheet_text, keyword, flag))
    assert shown(solid) == (when_true if read else when_false)


@pytest.mark.parametrize("keyword", FLAG_RECORDS)
@pytest.mark.parametrize("flag", [",0", ",''", ",1", ",.X."], ids=["0", "empty-string", "1", "X"])
def test_boolean_flag_of_another_value_is_unsupported(step_sheet_text, keyword, flag):
    record, name = FLAG_RECORDS[keyword][:2]
    eid = int(record[1:record.index("=")])
    with pytest.raises(UnsupportedGeometry) as exc:
        load_step(flag_written(step_sheet_text, keyword, flag))
    assert str(exc.value) == (f"entity #{eid} ({keyword} (needs .T. or .F. for {name})) "
                              "is outside the supported geometry subset")


def test_loop_bounding_two_faces_in_opposite_senses_gets_a_twin():
    # A two-sided triangle: both faces are bounded by EDGE_LOOP #22, one in each sense.
    solid = load_step(wrap(
        "#1=CARTESIAN_POINT('',(0.,0.,0.));\n#2=CARTESIAN_POINT('',(10.,0.,0.));\n"
        "#3=CARTESIAN_POINT('',(0.,10.,0.));\n"
        "#4=VERTEX_POINT('',#1);\n#5=VERTEX_POINT('',#2);\n#6=VERTEX_POINT('',#3);\n"
        "#7=DIRECTION('',(1.,0.,0.));\n#8=VECTOR('',#7,1.);\n#9=LINE('',#1,#8);\n"
        "#10=EDGE_CURVE('',#4,#5,#9,.T.);\n"
        "#11=DIRECTION('',(-1.,1.,0.));\n#12=VECTOR('',#11,1.);\n#13=LINE('',#2,#12);\n"
        "#14=EDGE_CURVE('',#5,#6,#13,.T.);\n"
        "#15=DIRECTION('',(0.,-1.,0.));\n#16=VECTOR('',#15,1.);\n#17=LINE('',#3,#16);\n"
        "#18=EDGE_CURVE('',#6,#4,#17,.T.);\n"
        "#19=ORIENTED_EDGE('',*,*,#10,.T.);\n#20=ORIENTED_EDGE('',*,*,#14,.T.);\n"
        "#21=ORIENTED_EDGE('',*,*,#18,.T.);\n#22=EDGE_LOOP('',(#19,#20,#21));\n"
        "#23=FACE_OUTER_BOUND('',#22,.T.);\n#24=FACE_OUTER_BOUND('',#22,.F.);\n"
        "#25=DIRECTION('',(0.,0.,1.));\n#26=DIRECTION('',(1.,0.,0.));\n"
        "#27=AXIS2_PLACEMENT_3D('',#1,#25,#26);\n#28=PLANE('',#27);\n"
        "#29=ADVANCED_FACE('',(#23),#28,.T.);\n#30=ADVANCED_FACE('',(#24),#28,.F.);\n"
        "#31=CLOSED_SHELL('',(#29,#30));\n#32=MANIFOLD_SOLID_BREP('',#31);\n"
    ))
    assert sorted(solid.loops) == [-22, 22]
    assert solid.loops[22].oriented_edges == ((10, True), (14, True), (18, True))
    assert solid.loops[-22].oriented_edges == ((18, False), (14, False), (10, False))
    assert solid.faces[29].bounds == ((22, True),) and solid.faces[30].bounds == ((-22, True),)
    assert validate_manifold(solid) == []


def test_ignored_keywords_counted(step_sheet_text):
    extra = "#9000=PRODUCT('a','b','c',(#9001));\n#9001=PRODUCT('d','e','f',());\n"
    text = step_sheet_text.replace("#1=", extra + "#1=")
    xs = parse_exchange(text)
    assert xs.ignored_keywords["PRODUCT"] == 2
    resolve_brep(xs)  # unreachable extras do not disturb resolution


# ---------------------------------------------------------------------------
# Round trip
# ---------------------------------------------------------------------------

def test_round_trip_entity_map(step_sheet_text):
    xs = parse_exchange(step_sheet_text)
    xs2 = parse_exchange(serialize_exchange(xs))
    assert xs.entities == xs2.entities
    assert parse_exchange(serialize_exchange(xs2)).entities == xs2.entities


def test_round_trip_preserves_tricky_args():
    data = (
        "#1=CARTESIAN_POINT('it''s',(1e-07,2.5,-3.));\n"
        "#2=SI_UNIT($,.METRE.);\n"
        "#3=ORIENTED_EDGE('',*,*,#1,.F.);\n"
        "#4=(A(1)B(('x',#1))C());\n"
    )
    xs = parse_exchange(wrap(data))
    assert parse_exchange(serialize_exchange(xs)).entities == xs.entities


def test_entity_count_matches_instance_lines(step_sheet_text):
    xs = parse_exchange(step_sheet_text)
    assert len(xs.entities) == len(re.findall(r"#\d+\s*=", step_sheet_text))


def test_resolved_edges_reference_solid_vertices(step_sheet_text):
    solid = load_step(step_sheet_text)
    for e in solid.edges.values():
        assert e.start in solid.vertices
        assert e.end in solid.vertices
