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

The DATA section has a fast lane. Each time the reader is about to read a
record, one compiled pattern tries to match a whole simple instance there,
``#id = KEYWORD ( ... ) ;`` with blanks between tokens and parameter lists at
most four deep; the records it matches one after another are built from one
``findall`` over each record's parameters, and the reader then goes on after
the last of them. Whatever the pattern does not match is read token by token:
the HEADER, comments, complex instances, deeper lists, ``#0``, a repeated id,
an integer past the interpreter's digit limit and every malformed record. The
fast lane raises nothing, so every error, with its line and column, still
comes from the token reader. Within one run of records it builds each record
whose text holds no reference once: identical directions and points are one
``SimpleEntity``. It builds its ``Ref`` and ``SimpleEntity`` records by setting
their slots, which gives the same objects as their frozen ``__init__``.

Only the geometry subset needed for sheet-metal parts is resolved
(points, directions, placements, lines, circles, planes, cylinders, and
the face/loop/edge/vertex topology). Anything else stays in the entity
map and is counted as ignored.

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
from dataclasses import dataclass, field
from typing import Union

from .brep import Circle, Cylinder, Edge, Face, Line, Loop, Plane, Solid
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
SUPPORTED_ENTITIES = frozenset(_MIN_ARGS)


class Placeholder(enum.Enum):
    """The ``$`` (unset) and ``*`` (derived) parameters. Each is one object:
    copying or unpickling it gives it back."""

    UNSET = "$"
    DERIVED = "*"

    def __repr__(self) -> str:
        return self.value


UNSET = Placeholder.UNSET
DERIVED = Placeholder.DERIVED


@dataclass(frozen=True, slots=True)
class Ref:
    id: int

    def __repr__(self) -> str:
        return f"#{self.id}"


@dataclass(frozen=True, slots=True)
class Enum:
    name: str

    def __repr__(self) -> str:
        return f".{self.name}."


@dataclass(frozen=True, slots=True)
class SimpleEntity:
    keyword: str
    args: tuple


@dataclass(frozen=True, slots=True)
class ComplexEntity:
    parts: tuple[tuple[str, tuple], ...]

    @property
    def keyword(self) -> str:
        return "+".join(kw for kw, _ in self.parts)


EntityRecord = Union[SimpleEntity, ComplexEntity]


@dataclass
class Header:
    description: str = ""
    name: str = ""
    schema: tuple[str, ...] = ()
    records: list[tuple[str, tuple]] = field(default_factory=list)


@dataclass
class ExchangeStructure:
    header: Header
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
# The fast lane below spells its tokens with the same pieces.
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


# The DATA section's fast lane. A simple instance whose parameter lists nest at
# most _FAST_DEPTH deep and hold no comment is matched whole by _FAST, from the
# blanks before its '#' to its ';'; _ARG then lists the parameter tokens of
# group 3. Each alternative of _VALUE is a token of _TOKEN as the reader reads
# it there (its number is _TOKEN's real, which also matches every integer), so a
# record _FAST matches reads the same either way; anything else is left to the
# token reader, which reports every error. Each list item is written once and
# followed by ',' or a look at ')' (``(?!\))`` after a ',' rejects a trailing
# comma), so the pattern grows linearly with the depth; writing ``item (, item)*``
# would double it at each level.
_FAST_DEPTH = 4
_BLANK = r"[ \t\r\n]*"
_VALUE = rf"\#[0-9]+|{_STRING}|{_REAL}|\.{_ENUM}\.|[$*]"


def _list_body(depth: int) -> str:
    """The text between a parameter list's parentheses, with ``depth`` lists
    allowed: this one and those nested in it."""
    item = _VALUE
    if depth > 1:
        item += rf"|(?:{_KEYWORD}{_BLANK})?\({_list_body(depth - 1)}\)"
    return rf"{_BLANK}(?:(?:{item}){_BLANK}(?:,{_BLANK}(?!\))|(?=\))))*"


_FAST = re.compile(rf"{_BLANK}\#([0-9]+){_BLANK}={_BLANK}({_KEYWORD}){_BLANK}"
                   rf"\(({_list_body(_FAST_DEPTH)})\){_BLANK};")
# The parameter tokens inside a list that _FAST matched: a reference, a
# parenthesis, a string, a typed parameter's keyword with its '(', or the rest
# (a number, an enumeration, '$' or '*'), each after the blanks and the comma
# before it.
_ARG = re.compile(rf"[ \t\r\n,]*(\#[0-9]+|[()]|{_STRING}|{_KEYWORD}{_BLANK}\(|[^ \t\r\n,()']+)")
_CONSTANTS = {".T.": True, ".F.": False, "$": UNSET, "*": DERIVED}


# The fast lane builds its Ref and SimpleEntity records by setting their slots
# directly: the same objects as their frozen __init__ gives, without the
# object.__setattr__ call per field.
_new = object.__new__
_set_ref_id = Ref.id.__set__
_set_keyword = SimpleEntity.keyword.__set__
_set_args = SimpleEntity.args.__set__


def _simple(keyword: str, args: tuple) -> SimpleEntity:
    rec = _new(SimpleEntity)
    _set_keyword(rec, keyword)
    _set_args(rec, args)
    return rec


def _fast_args(text: str, start: int, end: int) -> tuple:
    """The arguments of a record that _FAST matched, from the span of its
    group 3. Each token is told by its first character."""
    cur: list = []
    stack: list[tuple[list, bool]] = []
    for token in _ARG.findall(text, start, end):
        first = token[0]
        if first == "#":
            ref = _new(Ref)
            _set_ref_id(ref, int(token[1:]))
            cur.append(ref)
        elif first in "0123456789+-" or first == "." and token[1] in "0123456789":
            cur.append(float(token) if "." in token or "e" in token or "E" in token else int(token))
        elif first == "'":
            cur.append(token[1:-1].replace("''", "'"))
        elif first == "(":
            stack.append((cur, False))
            cur = []
        elif first == ")":
            value = tuple(cur)
            cur, typed = stack.pop()
            cur.append(value[0] if typed and len(value) == 1 else value)
        elif token in _CONSTANTS:
            cur.append(_CONSTANTS[token])
        elif first == ".":
            cur.append(Enum(token[1:-1]))
        else:  # a typed parameter's keyword and '('
            stack.append((cur, True))
            cur = []
    return tuple(cur)


def _fast_records(text: str, pos: int, records: dict[int, EntityRecord]) -> re.Match | None:
    """Take the simple instances that follow ``pos`` one after another, while
    _FAST matches them, their id is positive and new, and each integer is
    within the interpreter's digit limit. Returns the last one's match, or None
    if it took none; raises nothing.

    A record whose text, from its keyword through its parameters, holds no
    ``#`` is built once per call: every later record with that same text is
    the same object. A record holding a reference is always built anew."""
    intern = sys.intern
    match = _FAST.match
    shared: dict[str, SimpleEntity] = {}
    last = None
    try:
        while (m := match(text, pos)) is not None:
            eid = int(m[1])
            if eid <= 0 or eid in records:
                break
            start, end = m.span(3)
            if text.find("#", start, end) >= 0:
                rec = _simple(intern(m[2]), _fast_args(text, start, end))
            elif (rec := shared.get(key := text[m.start(2):end])) is None:
                rec = shared[key] = _simple(intern(m[2]), _fast_args(text, start, end))
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


def _read(text: str) -> tuple[list[tuple[str, tuple]], dict[int, EntityRecord]]:
    """Read a whole exchange file: the HEADER's ``(keyword, args)`` records and
    the DATA section's id -> entity map.

    The frame around the sections is ``_FRAME_TOKENS``; after its last ``;``
    one more token is read, as a parser that holds one token of lookahead
    would, so the text after ``END-ISO-10303-21;`` must begin with a valid
    token. Before each DATA record, ``_fast_records`` takes what records it
    can, and the reader goes on after the last one it took.
    """
    reader = _Reader(text)
    header: list[tuple[str, tuple]] = []
    records: dict[int, EntityRecord] = {}
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
                header.append(reader.record(m))
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
            m = reader.expect(";")
        reader.expect(";")
    reader.next()
    return header, records


def _header(records: list[tuple[str, tuple]]) -> Header:
    header = Header(records=records)
    for keyword, args in records:
        if keyword == "FILE_DESCRIPTION" and args:
            if isinstance(args[0], tuple) and args[0] and isinstance(args[0][0], str):
                header.description = args[0][0]
        elif keyword == "FILE_NAME" and args and isinstance(args[0], str):
            header.name = args[0]
        elif keyword == "FILE_SCHEMA" and args and isinstance(args[0], tuple):
            header.schema = tuple(s for s in args[0] if isinstance(s, str))
    return header


def parse_exchange(text: str) -> ExchangeStructure:
    """Parse a Part-21 exchange file into header fields and the entity map."""
    records, entities = _read(text)
    ignored = Counter()
    warnings: list[str] = []
    for eid, rec in entities.items():
        if type(rec) is SimpleEntity:
            if rec.keyword in SUPPORTED_ENTITIES:
                continue
            parts = ((rec.keyword, rec.args),)
        else:
            parts = rec.parts
        for kw, args in parts:
            if kw in SUPPORTED_ENTITIES:
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
    return ExchangeStructure(_header(records), entities, ignored, warnings)


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

    def _point(self, from_id: int, ref) -> Vec3:
        eid, rec = self._expect(from_id, ref, ("CARTESIAN_POINT",))
        return _triple(eid, rec, "CARTESIAN_POINT (needs 3 finite coordinates)")

    def _direction(self, from_id: int, ref) -> Vec3:
        eid, rec = self._expect(from_id, ref, ("DIRECTION",))
        components = _triple(eid, rec, "DIRECTION (needs 3 finite components)")
        try:
            return components.normalized()
        except ValueError:
            raise UnsupportedGeometry(eid, "DIRECTION (must be non-zero)") from None

    def _axis2(self, from_id: int, ref) -> tuple[Vec3, Vec3]:
        eid, rec = self._expect(from_id, ref, ("AXIS2_PLACEMENT_3D",))
        point = self._point(eid, rec.args[1])
        axis = self._direction(eid, rec.args[2]) if isinstance(rec.args[2], Ref) else vec(0, 0, 1)
        return point, axis

    def _vertex(self, from_id: int, ref) -> int:
        if isinstance(ref, Ref) and ref.id in self.vertices:
            return ref.id
        eid, rec = self._expect(from_id, ref, ("VERTEX_POINT",))
        self.vertices[eid] = self._point(eid, rec.args[1])
        return eid

    def _edge(self, from_id: int, ref) -> int:
        if isinstance(ref, Ref) and ref.id in self.edges:
            return ref.id
        eid, rec = self._expect(from_id, ref, ("EDGE_CURVE",))
        v1 = self._vertex(eid, rec.args[1])
        v2 = self._vertex(eid, rec.args[2])
        curve_id, curve_rec = self._expect(eid, rec.args[3])
        same_sense = _flag(eid, rec, 4, "same_sense")
        if curve_rec.keyword == "LINE":
            pnt = self._point(curve_id, curve_rec.args[1])
            _, vec_rec = self._expect(curve_id, curve_rec.args[2], ("VECTOR",))
            direction = self._direction(curve_id, vec_rec.args[1])
            curve = Line(pnt, direction)
        elif curve_rec.keyword == "CIRCLE":
            center, axis = self._axis2(curve_id, curve_rec.args[1])
            radius = _radius(curve_id, curve_rec)
            # Arcs are stored start-to-end CCW about the axis; a reversed
            # EDGE_CURVE flips the axis so that rule keeps holding.
            if not same_sense:
                axis = -axis
            curve = Circle(center, axis, radius)
        else:
            raise UnsupportedGeometry(curve_id, curve_rec.keyword)
        self.edges[eid] = Edge(eid, curve, v1, v2)
        return eid

    def _oriented_edge(self, from_id: int, ref) -> tuple[int, bool]:
        eid, rec = self._expect(from_id, ref, ("ORIENTED_EDGE",))
        return self._edge(eid, rec.args[3]), _flag(eid, rec, 4, "orientation")

    def _loop(self, from_id: int, ref, reverse: bool) -> int:
        eid, rec = self._expect(from_id, ref, ("EDGE_LOOP",))
        oriented = [self._oriented_edge(eid, oe) for oe in _items(eid, rec)]
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
        eid, rec = self._expect(from_id, ref, ("ADVANCED_FACE",))
        bounds: list[tuple[int, bool]] = []
        for bref in _items(eid, rec):
            bid, brec = self._expect(eid, bref, ("FACE_BOUND", "FACE_OUTER_BOUND"))
            loop_id = self._loop(bid, brec.args[1], reverse=not _flag(bid, brec, 2, "orientation"))
            bounds.append((loop_id, brec.keyword == "FACE_OUTER_BOUND"))
        surf_id, surf_rec = self._expect(eid, rec.args[2])
        if surf_rec.keyword == "PLANE":
            origin, normal = self._axis2(surf_id, surf_rec.args[1])
            surface = Plane(origin, normal)
        elif surf_rec.keyword == "CYLINDRICAL_SURFACE":
            point, axis = self._axis2(surf_id, surf_rec.args[1])
            surface = Cylinder(point, axis, _radius(surf_id, surf_rec))
        else:
            raise UnsupportedGeometry(surf_id, surf_rec.keyword)
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
        brep_id, brep_rec = self._expect(solids[0], Ref(solids[0]))
        name = brep_rec.args[0] if isinstance(brep_rec.args[0], str) else ""
        shell_id, shell_rec = self._expect(brep_id, brep_rec.args[1], ("CLOSED_SHELL",))
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
