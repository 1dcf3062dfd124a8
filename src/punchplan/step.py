"""ISO 10303-21 clear-text reader and the AP-203 geometry subset resolver.

``parse_exchange`` turns a Part-21 file into an id -> entity map without
interpreting any schema; ``resolve_brep`` then walks the one
MANIFOLD_SOLID_BREP tree and builds a :class:`punchplan.brep.Solid`.

Tokenizing is one compiled master pattern with a named group per token kind.
A small recursive-descent reader pulls the tokens: it walks the fixed keywords
around the HEADER and DATA sections, reads each record, and recurses into each
nested parameter list. Outside strings and comments only ASCII is accepted
(the Part-21 basic alphabet). Line and column are computed from the offset
only when a :class:`StepSyntaxError` is raised, whose message quotes the
offending token as it is written.

The DATA section has a fast lane: one compiled pattern. Each time the reader
is about to read a record, the pattern tries to match a whole simple instance
there, and the reader then goes on after the last record it matched one after
another. It covers the 17 keywords the resolver reads, written as exporters
write them, with no blank inside the record and reals that hold a ``.``, in
one branch per field shape (``_TYPED_SHAPES`` lists them, and README
"Speed" tabulates them). Each field is a group, a shape of several keywords
captures the keyword too, and each branch's builder reads its groups from the
match and returns the record. Whatever the pattern does not match is read
token by token: the HEADER, comments, complex instances, every other keyword,
a typed keyword written with blanks inside the record or around its ``=``,
``#0``, a repeated id, an integer past the interpreter's digit limit and
every malformed record. Those read to the same entities, in about three
times the time the pattern takes for a record. The fast lane raises nothing,
so every error, with its line and column, still comes from the token reader.
Within one run of records it builds each record whose text holds no
reference once: identical directions and points are one ``SimpleEntity``. ``Ref`` and
``SimpleEntity`` take their ``__init__`` from ``brep._slot_init``, which
sets each slot through its member descriptor; the lane's builders set a
record's slots the same way without calling it.

Only the geometry subset needed for sheet-metal parts is resolved
(points, directions, placements, lines, circles, planes, cylinders, and
the face/loop/edge/vertex topology). Anything else stays in the entity
map and is counted as ignored; only the token reader reads such records, so
only its records are counted. The resolver turns each CARTESIAN_POINT record
into one ``Vec3`` and each DIRECTION record into its unit vector once, so the
points and directions the fast lane shares are one vector each, and a line
whose point record is its vertex's holds the vertex's own ``Vec3``. Each
reference it follows takes one combined check: that it names a simple
instance of the keyword read there, with that keyword's fewest arguments.
Only a reference that fails the check is checked again step by step, for its
error. Along the edge chain (ORIENTED_EDGE, EDGE_CURVE, VERTEX_POINT, LINE,
VECTOR) the edge and vertex caches are read before any record, and the
references are followed inline.

Coordinates are taken as millimetres; unit declarations are not applied.
A warning is recorded if the file declares a non-millimetre length unit: an
``SI_UNIT`` in metres without the ``MILLI`` prefix, or a complex instance
with a ``CONVERSION_BASED_UNIT`` part and a ``LENGTH_UNIT`` part (the usual
inch declaration), which the warning names.
"""
from __future__ import annotations

import enum
import math
import re
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Union

from .brep import Circle, Cylinder, Edge, Face, Line, Loop, Plane, Solid, _slot_init
from .geom import Vec3, vec


class StepError(Exception):
    """Base class for Part-21 reading errors."""


class StepSyntaxError(StepError):
    """``found`` is the offending token's text, None at the end of the text,
    or empty when there is no token to name."""

    def __init__(self, line: int, column: int, expected: str, found: str | None = ""):
        if found is None:
            detail = " (found end of input)"
        else:
            detail = f" (found {found!r})" if found else ""
        super().__init__(f"line {line}, column {column}: expected {expected}{detail}")
        self.line = line
        self.column = column
        self.expected = expected


class MissingSection(StepError):
    def __init__(self, section: str):
        super().__init__(f"required section {section} is missing")
        self.section = section


class DuplicateEntityId(StepError):
    def __init__(self, entity_id: int):
        super().__init__(f"instance name #{entity_id} is defined more than once")
        self.entity_id = entity_id


class DanglingReference(StepError):
    def __init__(self, from_id: int, to_id: int):
        super().__init__(f"entity #{from_id} references #{to_id}, which does not exist")
        self.from_id = from_id
        self.to_id = to_id


class UnsupportedGeometry(StepError):
    def __init__(self, entity_id: int, keyword: str):
        super().__init__(f"entity #{entity_id} ({keyword}) is outside the supported geometry subset")
        self.entity_id = entity_id
        self.keyword = keyword


class MultipleSolids(StepError):
    def __init__(self, ids: list[int]):
        super().__init__(f"more than one MANIFOLD_SOLID_BREP present: {ids}")
        self.ids = ids


class MissingSolid(StepError):
    def __init__(self) -> None:
        super().__init__("no MANIFOLD_SOLID_BREP entity present")


# The supported geometry subset, with the fewest arguments the resolver reads.
_MIN_ARGS = {
    "CARTESIAN_POINT": 2, "DIRECTION": 2, "AXIS2_PLACEMENT_3D": 3, "VERTEX_POINT": 2,
    "LINE": 3, "CIRCLE": 3, "VECTOR": 2, "EDGE_CURVE": 4, "ORIENTED_EDGE": 4, "EDGE_LOOP": 2,
    "FACE_BOUND": 2, "FACE_OUTER_BOUND": 2, "PLANE": 2, "CYLINDRICAL_SURFACE": 3,
    "ADVANCED_FACE": 3, "CLOSED_SHELL": 2, "MANIFOLD_SOLID_BREP": 2,
}


class Placeholder(enum.Enum):
    """The ``$`` (unset) and ``*`` (derived) parameters. Each is one object:
    copying or unpickling it gives it back."""

    UNSET = "$"
    DERIVED = "*"

    def __repr__(self) -> str:
        return self.value


UNSET = Placeholder.UNSET
DERIVED = Placeholder.DERIVED


@_slot_init
@dataclass(frozen=True, slots=True, init=False)
class Ref:
    """A reference to the DATA record of instance name ``#id``."""

    id: int

    def __repr__(self) -> str:
        return f"#{self.id}"


@dataclass(frozen=True, slots=True)
class Enum:
    """An enumeration value, written ``.NAME.``."""

    name: str

    def __repr__(self) -> str:
        return f".{self.name}."


@_slot_init
@dataclass(frozen=True, slots=True, init=False)
class SimpleEntity:
    """A simple instance: its keyword and its argument values in order."""

    keyword: str
    args: tuple


@dataclass(frozen=True, slots=True)
class ComplexEntity:
    """A complex instance: each of its partial records' keyword and
    arguments, in file order."""

    parts: tuple[tuple[str, tuple], ...]

    @property
    def keyword(self) -> str:
        return "+".join(kw for kw, _ in self.parts)


EntityRecord = Union[SimpleEntity, ComplexEntity]


@dataclass
class ExchangeStructure:
    """A parsed Part-21 file: the DATA section's id -> record map, the
    count of each keyword the resolver does not read, and the unit warnings."""

    entities: dict[int, EntityRecord]
    ignored_keywords: Counter
    warnings: list[str]


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

# One master pattern; the name of the group that matched is the token kind.
# Python 3.10 has no atomic groups, so lookaheads keep a number or a string
# from backtracking into a shorter token: ``1.E`` and ``'ab''`` at the end of
# the text match nothing, and ``_token_error`` says why. Letters and digits
# are ASCII only (the Part-21 basic alphabet). ``eof`` matches only at the
# end of the text, so the end reaches the parser as one more token. The
# alternatives are tried in order, most frequent first; the only ones that can
# start with the same character (integer, real, bool, enum) keep that order.
_STRING = r"'[^']*(?:''[^']*)*'(?!')"
_KEYWORD = r"[A-Za-z_][A-Za-z0-9_-]*"
_REAL = r"[+-]?(?=\.?[0-9])[0-9]*(?:\.[0-9]*|(?!\.))(?:[eE][+-]?[0-9]+|(?![eE0-9]))"
_ENUM = r"(?![0-9])[A-Za-z0-9_]*"
_TOKEN = re.compile(rf"""
    (?P<punct>[();,=])
  | \#(?P<ref>[0-9]+)
  | (?P<string>{_STRING})
  | (?P<keyword>{_KEYWORD})
  | (?P<skip>[ \t\r\n]+|/\*[^*]*\*+(?:[^/*][^*]*\*+)*/)
  | (?P<integer>[+-]?[0-9]+(?![.eE0-9]))
  | (?P<real>{_REAL})
  | (?P<derived>\*)
  | \.(?P<bool>[TF])\.
  | \.(?P<enum>{_ENUM})\.
  | (?P<unset>\$)
  | (?P<eof>\Z)
""", re.VERBOSE)

_CONSTANTS = {".T.": True, ".F.": False, "$": UNSET, "*": DERIVED}
_NUMBER_START = re.compile(r"[+-]|\.?[0-9]")
_EXPONENT = re.compile(r"[+-]?[0-9]*(?:\.[0-9]*)?[eE][+-]?(?P<digit>[0-9]?)")


def _syntax_error(text: str, offset: int, expected: str, found: str | None = "") -> StepSyntaxError:
    line = text.count("\n", 0, offset) + 1
    return StepSyntaxError(line, offset - text.rfind("\n", 0, offset), expected, found)


def _token_error(text: str, pos: int) -> StepSyntaxError:
    """Name what went wrong at ``pos``, where no token matched."""
    ch = text[pos]
    if text.startswith("/*", pos):
        return _syntax_error(text, pos, "closing */ for comment")
    if ch == "#":
        return _syntax_error(text, pos, "entity id digits after '#'")
    if ch == "'":
        return _syntax_error(text, pos, "closing ' for string")
    if _NUMBER_START.match(text, pos):
        exponent = _EXPONENT.match(text, pos)
        if exponent and not exponent["digit"]:
            return _syntax_error(text, exponent.end(), "exponent digits")
        return _syntax_error(text, pos, "digits in number")
    if ch == ".":
        return _syntax_error(text, pos, "closing '.' for enumeration")
    return _syntax_error(text, pos, "a Part-21 token", ch)


# Deepest parameter-list nesting the reader accepts, counting a record's own
# list as the first. Exchange files nest a few lists deep (B-spline control
# nets are lists of lists); a list that would pass the bound is a syntax error
# at its '(', or, for a typed parameter, at the token after its keyword.
MAX_NESTING = 64

# The fixed tokens around the two sections. HEADER's records follow the
# ``HEADER ;`` (index 3) and DATA's the ``DATA ;`` (index 5).
_FRAME_TOKENS = ("ISO-10303-21", ";", "HEADER", ";", "DATA", ";", "END-ISO-10303-21", ";")


# The typed lane: every keyword the resolver reads, written as exporters write
# it, with no blank inside the record, a name holding no quote, and reals
# holding a '.'. Every such text is read by the token reader to the same
# values: a name is a string, a real is _TOKEN's real and a flag its bool.
# Each kind of field is its pattern, with a group for each value it holds, and
# the expression that makes its value from a match ``m``, with ``{}`` for the
# number of each of its groups.
_DOTTED = r"([+-]?(?:[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
_NAME = (r"'([^']*)'", "m[{}]")
_STAR = (r"\*", "DERIVED")
_REF = (r"\#([0-9]+)", "Ref(int(m[{}]))")
_REFS = (r"\((\#[0-9]+(?:,\#[0-9]+)*)\)", "_refs(m[{}])")
_FLAG = (r"\.([TF])\.", "m[{}] == 'T'")
_REAL = (_DOTTED, "float(m[{}])")
_TRIPLE = (rf"\({_DOTTED},{_DOTTED},{_DOTTED}\)", "(float(m[{}]), float(m[{}]), float(m[{}]))")


def _refs(refs: str) -> tuple:
    """The references of a _REFS group, written ``#1,#2,...``."""
    return tuple(map(Ref, map(int, refs[1:].split(",#"))))


# The branches go by field shape, the frequent ones first: each shape's
# keywords and its fields. A shape of several keywords captures the keyword
# as a group before its fields.
_TYPED_SHAPES = (
    (("ORIENTED_EDGE",), (_NAME, _STAR, _STAR, _REF, _FLAG)),
    (("DIRECTION", "CARTESIAN_POINT"), (_NAME, _TRIPLE)),
    (("EDGE_CURVE",), (_NAME, _REF, _REF, _REF, _FLAG)),
    (("VECTOR", "CIRCLE", "CYLINDRICAL_SURFACE"), (_NAME, _REF, _REAL)),
    (("LINE",), (_NAME, _REF, _REF)),
    (("VERTEX_POINT", "PLANE", "MANIFOLD_SOLID_BREP"), (_NAME, _REF)),
    (("EDGE_LOOP", "CLOSED_SHELL"), (_NAME, _REFS)),
    (("AXIS2_PLACEMENT_3D",), (_NAME, _REF, _REF, _REF)),
    (("FACE_OUTER_BOUND", "FACE_BOUND"), (_NAME, _REF, _FLAG)),
    (("ADVANCED_FACE",), (_NAME, _REFS, _REF, _FLAG)),
)


def _typed_branch(keywords: tuple[str, ...], fields: tuple) -> str:
    keyword = keywords[0] if len(keywords) == 1 else f"({'|'.join(keywords)})"
    return rf"{keyword}\({','.join(pattern for pattern, _ in fields)}\)"


_TYPED = re.compile(r"[ \t\r\n]*\#([0-9]+)=(?:"
                    + "|".join(_typed_branch(keywords, fields) for keywords, fields in _TYPED_SHAPES)
                    + ");")

# A branch's builder, named by its last group: it reads the branch's groups
# from the match by number and returns the record, setting its two slots as
# SimpleEntity's __init__ would, without that call.
_BUILDER = """
def build_{last}(m):
    rec = _new(SimpleEntity)
    _set_keyword(rec, {keyword})
    _set_args(rec, ({args},))
    return rec
"""


def _typed_branches() -> dict[int, tuple]:
    """_TYPED's branches by the number of their last group, which is a match's
    ``lastindex``: each shape's keywords, the number of the group that captures
    the keyword (0 for a shape of one keyword), its field groups, its builder,
    and whether the record holds a reference. Group 1 is the id. The builders
    are written from the group numbers and compiled together, once."""
    shapes, source = [], []
    last = 1
    for keywords, fields in _TYPED_SHAPES:
        keyword_group = 0
        if len(keywords) > 1:
            keyword_group = last = last + 1
        first, args = last + 1, []
        for _, value in fields:
            groups = range(last + 1, last + 1 + value.count("{}"))
            args.append(value.format(*groups))
            last += len(groups)
        keyword = f"_intern(m[{keyword_group}])" if keyword_group else repr(keywords[0])
        source.append(_BUILDER.format(last=last, keyword=keyword, args=", ".join(args)))
        holds_ref = "#" in _typed_branch(keywords, fields)
        shapes.append((keywords, keyword_group, tuple(range(first, last + 1)), holds_ref))
    builders = {"_new": object.__new__, "_set_keyword": SimpleEntity.keyword.__set__,
                "_set_args": SimpleEntity.args.__set__, "_intern": sys.intern,
                "SimpleEntity": SimpleEntity, "Ref": Ref, "DERIVED": DERIVED, "_refs": _refs}
    exec(compile("".join(source), "<typed lane builders>", "exec"), builders)
    return {groups[-1]: (keywords, keyword_group, groups, builders[f"build_{groups[-1]}"], holds_ref)
            for keywords, keyword_group, groups, holds_ref in shapes}


_TYPED_BRANCHES = _typed_branches()


def _fast_records(text: str, pos: int, records: dict[int, EntityRecord]) -> re.Match | None:
    """Take the simple instances that follow ``pos`` one after another, while
    _TYPED matches them, their id is positive and new, and each integer is
    within the interpreter's digit limit. Returns the last one's match, or None
    if it took none; raises nothing.

    A record is built from its match by the builder of its branch, one per
    field shape. A record whose text, from its keyword to its last ``)``, holds
    no ``#`` is built once per call: every later record with that same text is
    the same object. A record holding a reference is always built anew."""
    match = _TYPED.match
    branches = _TYPED_BRANCHES
    shared: dict[str, SimpleEntity] = {}
    last = None
    try:
        while (m := match(text, pos)) is not None:
            eid = int(m[1])
            if eid <= 0 or eid in records:
                break
            _, _, _, build, holds_ref = branches[m.lastindex]
            if holds_ref:
                rec = build(m)
            elif (rec := shared.get(key := text[m.end(1) + 1:m.end() - 2])) is None:
                rec = shared[key] = build(m)
            records[eid] = rec
            last = m
            pos = m.end()
    except ValueError:  # int() of a number past the digit limit
        pass
    return last


def _unexpected(text: str, m: re.Match, expected: str) -> StepSyntaxError:
    """The error for the token ``m``, read where ``expected`` should be."""
    return _syntax_error(text, m.start(), expected, None if m.lastgroup == "eof" else m[0])


def _tokens(text: str, pos: int):
    """The tokens of ``text`` from ``pos`` on, but blanks and comments."""
    last = None
    for last in iter(_TOKEN.scanner(text, pos).match, None):
        if last.lastgroup != "skip":
            yield last
    raise _token_error(text, last.end() if last else pos)


class _Reader:
    """Reads one exchange file by recursive descent. ``next()`` gives the next
    token but blanks and comments: it is a ``_tokens`` generator's ``__next__``,
    which costs less per token than a method, and the generator holds the text,
    not the reader, so the two make no cycle."""

    __slots__ = ("text", "next")

    def __init__(self, text: str):
        self.text = text
        self.next = _tokens(text, 0).__next__

    def expect(self, token: str) -> re.Match:
        """Read the next token, which must be written ``token``."""
        if (m := self.next())[0] != token:
            raise _unexpected(self.text, m, token)
        return m

    def params(self, depth: int) -> tuple:
        """The parameters of the list, ``depth`` lists deep, whose '(' was just
        read, through its ')'. A typed parameter such as PARAMETER_VALUE(0.5)
        keeps its payload."""
        next_token = self.next
        values: list = []
        if (m := next_token())[0] == ")":
            return ()
        try:
            while True:
                kind = m.lastgroup
                if kind == "ref":
                    values.append(Ref(int(m[kind])))
                elif kind == "real":
                    values.append(float(m[kind]))
                elif kind == "string":
                    values.append(m[kind][1:-1].replace("''", "'"))  # backslash escapes pass through
                elif kind == "derived" or kind == "bool" or kind == "unset":
                    values.append(_CONSTANTS[m[0]])
                elif kind == "integer":
                    values.append(int(m[kind]))
                elif kind == "enum":
                    values.append(Enum(m[kind]))
                elif kind == "keyword" or m[0] == "(":
                    if kind == "keyword":
                        m = next_token()
                    if depth >= MAX_NESTING:
                        raise _syntax_error(self.text, m.start(),
                                            f"at most {MAX_NESTING} nested parameter lists", "(")
                    if m[0] != "(":
                        raise _unexpected(self.text, m, "(")
                    value = self.params(depth + 1)
                    values.append(value[0] if kind == "keyword" and len(value) == 1 else value)
                else:
                    raise _unexpected(self.text, m, "an argument")
                if (m := next_token())[0] == ")":
                    return tuple(values)
                if m[0] != ",":
                    raise _unexpected(self.text, m, ")")
                m = next_token()
        except ValueError:  # int() of a number past the interpreter's digit limit
            raise _syntax_error(self.text, m.start(),
                                f"an integer of at most {sys.get_int_max_str_digits()} digits") from None

    def record(self, keyword: re.Match) -> tuple[str, tuple]:
        """The ``(keyword, args)`` of a HEADER record, a simple instance or a
        part of a complex instance, whose keyword was just read, through its
        ')'. Keywords are interned: a file holds a few over many records."""
        self.expect("(")
        return sys.intern(keyword[0]), self.params(1)


def _read(text: str) -> tuple[dict[int, EntityRecord], list[int]]:
    """Read a whole exchange file into the DATA section's id -> entity map,
    and the ids of the records the token reader read, in file order: the
    others are the fast lane's, all of keywords in ``_MIN_ARGS``. Each HEADER
    record is read and checked like a DATA record, and not kept.

    The frame around the sections is ``_FRAME_TOKENS``; after its last ``;``
    one more token is read, as a parser that holds one token of lookahead
    would, so the text after ``END-ISO-10303-21;`` must begin with a valid
    token. Before each DATA record, ``_fast_records`` takes what records it
    can, and the reader goes on after the last one it took.
    """
    reader = _Reader(text)
    records: dict[int, EntityRecord] = {}
    read: list[int] = []
    for step, token in enumerate(_FRAME_TOKENS):
        if (m := reader.next())[0] != token:
            if token == "HEADER" or token == "DATA":
                raise MissingSection(token)
            raise _unexpected(text, m, token)
        if step != 3 and step != 5:
            continue
        data = step == 5
        while True:
            # m is the ';' before the record.
            if data and (fast := _fast_records(text, m.end(), records)):
                reader.next = _tokens(text, fast.end()).__next__
            if (m := reader.next())[0] == "ENDSEC":
                break
            if m.lastgroup != ("ref" if data else "keyword"):
                if m.lastgroup == "eof":
                    raise _syntax_error(text, m.start(), f"ENDSEC for {'DATA' if data else 'HEADER'}")
                raise _unexpected(text, m, "instance name '#<id>'" if data else "header entity keyword")
            if not data:
                reader.record(m)
                m = reader.expect(";")
                continue
            # An instance name's errors come after those of the token that follows it.
            equals = reader.next()
            try:
                eid = int(m["ref"])
            except ValueError:  # past the interpreter's digit limit
                raise _syntax_error(text, m.start(),
                                    f"an integer of at most {sys.get_int_max_str_digits()} digits") from None
            if eid <= 0:
                raise _syntax_error(text, m.start(), "a positive instance name", f"#{eid}")
            if equals[0] != "=":
                raise _unexpected(text, equals, "=")
            entity = reader.next()
            if eid in records:
                raise DuplicateEntityId(eid)
            if entity.lastgroup == "keyword":
                records[eid] = SimpleEntity(*reader.record(entity))
            elif entity[0] == "(":
                parts = []
                while (entity := reader.next()).lastgroup == "keyword":
                    parts.append(reader.record(entity))
                if entity[0] != ")":
                    raise _unexpected(text, entity, "entity keyword inside complex instance")
                records[eid] = ComplexEntity(tuple(parts))
            else:
                raise _unexpected(text, entity, "entity keyword")
            read.append(eid)
            m = reader.expect(";")
        reader.expect(";")
    reader.next()
    return records, read


def parse_exchange(text: str) -> ExchangeStructure:
    """Parse a Part-21 exchange file into its DATA section's entity map.
    Ignored keywords and unit warnings are found among the records the token
    reader read, in file order, as the fast lane reads none of them."""
    entities, read = _read(text)
    ignored = Counter()
    warnings: list[str] = []
    for eid in read:
        if type(rec := entities[eid]) is SimpleEntity:
            if rec.keyword in _MIN_ARGS:
                continue
            parts = ((rec.keyword, rec.args),)
        else:
            parts = rec.parts
        for kw, args in parts:
            if kw in _MIN_ARGS:
                continue
            ignored[kw] += 1
            if kw == "SI_UNIT":
                names = [a.name for a in args if isinstance(a, Enum)]
                if "METRE" in names and "MILLI" not in names:
                    warnings.append(f"entity #{eid}: SI_UNIT declares a non-millimetre length unit"
                                    " (coordinates are read as millimetres regardless)")
            elif kw == "CONVERSION_BASED_UNIT" and any(k == "LENGTH_UNIT" for k, _ in parts):
                unit = f" {args[0]!r}" if args and isinstance(args[0], str) else ""
                warnings.append(f"entity #{eid}: CONVERSION_BASED_UNIT declares the length unit{unit}"
                                " (coordinates are read as millimetres regardless)")
    return ExchangeStructure(entities, ignored, warnings)


# ---------------------------------------------------------------------------
# Resolver
# ---------------------------------------------------------------------------

def _finite_number(value) -> bool:
    """A finite real or integer parameter (bools are enumerations, not numbers)."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and -sys.float_info.max <= value <= sys.float_info.max)


def _triple(eid: int, rec: SimpleEntity, what: str) -> Vec3:
    values = rec.args[1]
    if type(values) is tuple and len(values) == 3:
        x, y, z = values
        # Three floats with a finite sum are finite; any other triple takes the full check.
        if type(x) is float and type(y) is float and type(z) is float and math.isfinite(x + y + z):
            return Vec3(x, y, z)
    if not isinstance(values, tuple) or len(values) != 3 or not all(map(_finite_number, values)):
        raise UnsupportedGeometry(eid, what)
    return vec(*values)


def _radius(eid: int, rec: SimpleEntity) -> float:
    radius = rec.args[2]
    if not _finite_number(radius) or radius <= 0:
        raise UnsupportedGeometry(eid, f"{rec.keyword} (needs a positive radius)")
    return float(radius)


def _flag(eid: int, rec: SimpleEntity, index: int, name: str) -> bool:
    """The BOOLEAN argument ``index`` (orientation or same_sense): ``.T.`` or
    ``.F.`` as written, ``$`` or no argument as ``.T.``."""
    value = rec.args[index] if len(rec.args) > index else True
    if value is True or value is False:
        return value
    if value is UNSET:
        return True
    raise UnsupportedGeometry(eid, f"{rec.keyword} (needs .T. or .F. for {name})")


def _items(eid: int, rec: SimpleEntity) -> tuple:
    """The list in argument 2 (loop edges, face bounds, shell faces)."""
    if not isinstance(rec.args[1], tuple):
        raise UnsupportedGeometry(eid, f"{rec.keyword} (needs a list of references)")
    return rec.args[1]


class _Resolver:
    def __init__(self, xs: ExchangeStructure):
        self.entities = xs.entities
        self.vertices: dict[int, Vec3] = {}
        self.edges: dict[int, Edge] = {}
        self.loops: dict[int, Loop] = {}
        self.faces: dict[int, Face] = {}
        # The Vec3 of each CARTESIAN_POINT record and the unit vector of each
        # DIRECTION record resolved so far, by the record's identity: the fast
        # lane makes the points and directions written alike one record, and
        # the entity map keeps every record, and so its id, alive. Only
        # successes are kept, so an error comes from each use.
        self.points: dict[int, Vec3] = {}
        self.directions: dict[int, Vec3] = {}

    def _expect(self, from_id: int, ref, keywords: tuple[str, ...] | None = None
                ) -> tuple[int, SimpleEntity]:
        """The simple entity that ``ref`` names, with the arguments the resolver
        reads and, unless ``keywords`` is None, one of ``keywords``."""
        if type(ref) is not Ref:
            raise UnsupportedGeometry(from_id, f"expected entity reference, got {ref!r}")
        eid = ref.id
        rec = self.entities.get(eid)
        if type(rec) is not SimpleEntity:
            if rec is None:
                raise DanglingReference(from_id, eid)
            raise UnsupportedGeometry(eid, rec.keyword)  # a complex instance
        if len(rec.args) < (needed := _MIN_ARGS.get(rec.keyword, 0)):
            raise UnsupportedGeometry(eid, f"{rec.keyword} (needs {needed} arguments)")
        if keywords is not None and rec.keyword not in keywords:
            raise UnsupportedGeometry(eid, rec.keyword)
        return eid, rec

    # Each reference below takes one combined check: that it names a simple
    # entity of a keyword the resolver reads there, with that keyword's
    # _MIN_ARGS arguments (the checks written inline spell the counts out).
    # Only a reference that fails it goes to _expect, for its error.

    def _simple(self, from_id: int, ref, keywords: tuple[str, ...]) -> tuple[int, SimpleEntity]:
        """``_expect(from_id, ref, keywords)``, through the combined check."""
        if (type(ref) is Ref and type(rec := self.entities.get(ref.id)) is SimpleEntity
                and rec.keyword in keywords and len(rec.args) >= _MIN_ARGS[rec.keyword]):
            return ref.id, rec
        return self._expect(from_id, ref, keywords)

    def _point(self, from_id: int, ref) -> Vec3:
        if not (type(ref) is Ref and type(rec := self.entities.get(ref.id)) is SimpleEntity
                and rec.keyword == "CARTESIAN_POINT" and len(rec.args) >= 2):
            rec = self._expect(from_id, ref, ("CARTESIAN_POINT",))[1]
        if (point := self.points.get(id(rec))) is None:
            point = _triple(ref.id, rec, "CARTESIAN_POINT (needs 3 finite coordinates)")
            self.points[id(rec)] = point
        return point

    def _direction(self, from_id: int, ref) -> Vec3:
        if not (type(ref) is Ref and type(rec := self.entities.get(ref.id)) is SimpleEntity
                and rec.keyword == "DIRECTION" and len(rec.args) >= 2):
            rec = self._expect(from_id, ref, ("DIRECTION",))[1]
        if (unit := self.directions.get(id(rec))) is None:
            components = _triple(ref.id, rec, "DIRECTION (needs 3 finite components)")
            try:
                unit = self.directions[id(rec)] = components.normalized()
            except ValueError:
                raise UnsupportedGeometry(ref.id, "DIRECTION (must be non-zero)") from None
        return unit

    def _axis2(self, from_id: int, ref) -> tuple[Vec3, Vec3]:
        """The placement's location and axis; an unset (``$``) axis is +z."""
        eid, rec = self._simple(from_id, ref, ("AXIS2_PLACEMENT_3D",))
        point = self._point(eid, rec.args[1])
        axis = vec(0, 0, 1) if rec.args[2] is UNSET else self._direction(eid, rec.args[2])
        return point, axis

    def _edge(self, from_id: int, ref) -> None:
        """Resolve the EDGE_CURVE that ``ref`` names into ``edges``: each vertex
        from ``vertices`` or its VERTEX_POINT, and its LINE and the line's
        VECTOR, or its CIRCLE."""
        entities, vertices = self.entities, self.vertices
        if not (type(ref) is Ref and type(rec := entities.get(ref.id)) is SimpleEntity
                and rec.keyword == "EDGE_CURVE" and len(rec.args) >= 4):
            rec = self._expect(from_id, ref, ("EDGE_CURVE",))[1]
        eid, args = ref.id, rec.args
        for vref in args[1], args[2]:
            if type(vref) is Ref and vref.id in vertices:
                continue
            if not (type(vref) is Ref and type(vrec := entities.get(vref.id)) is SimpleEntity
                    and vrec.keyword == "VERTEX_POINT" and len(vrec.args) >= 2):
                vrec = self._expect(eid, vref, ("VERTEX_POINT",))[1]
            vertices[vref.id] = self._point(vref.id, vrec.args[1])
        # A curve of another keyword fails after the edge's same_sense flag is read.
        cref = args[3]
        if not (type(cref) is Ref and type(crec := entities.get(cref.id)) is SimpleEntity
                and (crec.keyword == "LINE" or crec.keyword == "CIRCLE") and len(crec.args) >= 3):
            crec = self._expect(eid, cref)[1]
        curve_id, curve_args = cref.id, crec.args
        if len(args) < 5 or (same_sense := args[4]) is not True and same_sense is not False:
            same_sense = _flag(eid, rec, 4, "same_sense")
        if crec.keyword == "LINE":
            point = self._point(curve_id, curve_args[1])
            vector = curve_args[2]
            if not (type(vector) is Ref and type(vector_rec := entities.get(vector.id)) is SimpleEntity
                    and vector_rec.keyword == "VECTOR" and len(vector_rec.args) >= 2):
                vector_rec = self._expect(curve_id, vector, ("VECTOR",))[1]
            curve = Line(point, self._direction(vector.id, vector_rec.args[1]))
        elif crec.keyword == "CIRCLE":
            center, axis = self._axis2(curve_id, curve_args[1])
            radius = _radius(curve_id, crec)
            # Arcs are stored start-to-end CCW about the axis; a reversed
            # EDGE_CURVE flips the axis so that rule keeps holding.
            if not same_sense:
                axis = -axis
            curve = Circle(center, axis, radius)
        else:
            raise UnsupportedGeometry(curve_id, crec.keyword)
        self.edges[eid] = Edge(eid, curve, args[1].id, args[2].id)

    def _loop(self, from_id: int, ref, reverse: bool) -> int:
        eid, rec = self._simple(from_id, ref, ("EDGE_LOOP",))
        entities, edges = self.entities, self.edges
        oriented = []
        for oref in _items(eid, rec):
            if not (type(oref) is Ref and type(orec := entities.get(oref.id)) is SimpleEntity
                    and orec.keyword == "ORIENTED_EDGE" and len(orec.args) >= 4):
                orec = self._expect(eid, oref, ("ORIENTED_EDGE",))[1]
            oid, args = oref.id, orec.args
            if not (type(edge := args[3]) is Ref and edge.id in edges):
                self._edge(oid, edge)
            if len(args) < 5 or (sense := args[4]) is not True and sense is not False:
                sense = _flag(oid, orec, 4, "orientation")
            oriented.append((edge.id, sense))
        if reverse:
            oriented = [(e, not s) for e, s in reversed(oriented)]
        if eid in self.loops:
            if self.loops[eid].oriented_edges != tuple(oriented):
                # Same EDGE_LOOP used with both orientations: store a twin id.
                twin = -eid
                self.loops[twin] = Loop(twin, tuple(oriented))
                return twin
            return eid
        self.loops[eid] = Loop(eid, tuple(oriented))
        return eid

    def _face(self, from_id: int, ref) -> int:
        eid, rec = self._simple(from_id, ref, ("ADVANCED_FACE",))
        bounds: list[tuple[int, bool]] = []
        for bref in _items(eid, rec):
            bid, brec = self._simple(eid, bref, ("FACE_BOUND", "FACE_OUTER_BOUND"))
            loop_id = self._loop(bid, brec.args[1], reverse=not _flag(bid, brec, 2, "orientation"))
            bounds.append((loop_id, brec.keyword == "FACE_OUTER_BOUND"))
        surf_id, surf_rec = self._simple(eid, rec.args[2], ("PLANE", "CYLINDRICAL_SURFACE"))
        if surf_rec.keyword == "PLANE":
            origin, normal = self._axis2(surf_id, surf_rec.args[1])
            surface = Plane(origin, normal)
        else:
            point, axis = self._axis2(surf_id, surf_rec.args[1])
            surface = Cylinder(point, axis, _radius(surf_id, surf_rec))
        same_sense = _flag(eid, rec, 3, "same_sense")
        if not any(outer for _, outer in bounds) and len(bounds) == 1:
            # Single FACE_BOUND: treat it as the outer bound.
            bounds[0] = (bounds[0][0], True)
        self.faces[eid] = Face(eid, surface, same_sense, tuple(bounds))
        return eid

    def resolve(self, default_name: str) -> Solid:
        solids = [
            eid for eid, rec in self.entities.items()
            if type(rec) is SimpleEntity and rec.keyword == "MANIFOLD_SOLID_BREP"
        ]
        if not solids:
            raise MissingSolid()
        if len(solids) > 1:
            raise MultipleSolids(sorted(solids))
        brep_id, brep_rec = self._simple(solids[0], Ref(solids[0]), ("MANIFOLD_SOLID_BREP",))
        name = brep_rec.args[0] if isinstance(brep_rec.args[0], str) else ""
        shell_id, shell_rec = self._simple(brep_id, brep_rec.args[1], ("CLOSED_SHELL",))
        for fref in _items(shell_id, shell_rec):
            self._face(shell_id, fref)
        return Solid(name or default_name, self.vertices, self.edges, self.loops, self.faces)


def resolve_brep(xs: ExchangeStructure, default_name: str = "") -> Solid:
    """Resolve the single MANIFOLD_SOLID_BREP entity tree into a Solid.

    An empty MANIFOLD_SOLID_BREP name becomes ``default_name``.
    """
    return _Resolver(xs).resolve(default_name)


def load_step(text: str) -> Solid:
    """Convenience: parse Part-21 text and resolve its solid."""
    return resolve_brep(parse_exchange(text))
