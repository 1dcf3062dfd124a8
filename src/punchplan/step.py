"""ISO 10303-21 clear-text reader and the AP-203 geometry subset resolver.

``parse_exchange`` turns a Part-21 file into an id -> entity map without
interpreting any schema; ``resolve_brep`` then walks the one
MANIFOLD_SOLID_BREP tree and builds a :class:`punchplan.brep.Solid`.

Tokenizing is one compiled master pattern with a named group per token kind,
matched from a generator that yields ``(kind, value, offset)`` lazily. Outside
strings and comments only ASCII is accepted (the Part-21 basic alphabet).
Line and column are computed from the offset only when a
:class:`StepSyntaxError` is raised.

Only the geometry subset needed for sheet-metal parts is resolved
(points, directions, placements, lines, circles, planes, cylinders, and
the face/loop/edge/vertex topology). Anything else stays in the entity
map and is counted as ignored.

Coordinates are taken as millimetres; unit declarations are not applied.
A warning is recorded if the file declares a non-millimetre length unit.
"""
from __future__ import annotations

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
    def __init__(self, line: int, column: int, expected: str, found: str = ""):
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


class Unset:
    """The ``$`` placeholder."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "$"


class Derived:
    """The ``*`` placeholder."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "*"


UNSET = Unset()
DERIVED = Derived()


@dataclass(frozen=True)
class Ref:
    id: int

    def __repr__(self) -> str:
        return f"#{self.id}"


@dataclass(frozen=True)
class Enum:
    name: str

    def __repr__(self) -> str:
        return f".{self.name}."


@dataclass(frozen=True)
class SimpleEntity:
    keyword: str
    args: tuple


@dataclass(frozen=True)
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
# are ASCII only (the Part-21 basic alphabet).
_TOKEN = re.compile(r"""
    (?P<skip>[ \t\r\n]+|/\*[^*]*\*+(?:[^/*][^*]*\*+)*/)
  | (?P<punct>[();,=])
  | (?P<unset>\$)
  | (?P<derived>\*)
  | \#(?P<ref>[0-9]+)
  | '(?P<string>[^']*(?:''[^']*)*)'(?!')
  | (?P<integer>[+-]?[0-9]+(?![.eE0-9]))
  | (?P<real>[+-]?(?=\.?[0-9])[0-9]*(?:\.[0-9]*|(?!\.))(?:[eE][+-]?[0-9]+|(?![eE0-9])))
  | \.(?P<bool>[TF])\.
  | \.(?P<enum>(?![0-9])[A-Za-z0-9_]*)\.
  | (?P<keyword>[A-Za-z_][A-Za-z0-9_-]*)
""", re.VERBOSE)

_NUMBER_START = re.compile(r"[+-]|\.?[0-9]")
_EXPONENT = re.compile(r"[+-]?[0-9]*(?:\.[0-9]*)?[eE][+-]?(?P<digit>[0-9]?)")

_CONVERT = {
    "unset": lambda _: UNSET,
    "derived": lambda _: DERIVED,
    "ref": int,
    "string": lambda s: s.replace("''", "'"),  # backslash escapes pass through
    "integer": int,
    "real": float,
    "bool": lambda name: name == "T",
    "enum": Enum,
    "keyword": str,
}


def _syntax_error(text: str, offset: int, expected: str, found: str = "") -> StepSyntaxError:
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


def _tokens(text: str):
    """Yield ``(kind, value, offset)`` per token, ending with an ``eof`` token."""
    pos, end = 0, len(text)
    match = _TOKEN.match
    while pos < end:
        m = match(text, pos)
        if m is None:
            raise _token_error(text, pos)
        kind = m.lastgroup
        if kind == "punct":
            yield m[kind], m[kind], pos
        elif kind != "skip":
            yield kind, _CONVERT[kind](m[kind]), pos
        pos = m.end()
    yield "eof", None, end


# Deepest parameter-list nesting the parser accepts. Exchange files nest a
# few lists deep (B-spline control nets are lists of lists); the bound keeps
# hostile input from exhausting the interpreter stack, since the parser
# recurses once per level.
MAX_NESTING = 64


class _Parser:
    _LITERALS = frozenset({"string", "integer", "real", "bool", "enum", "unset", "derived"})

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokens(text)
        self._bump()

    def _bump(self) -> None:
        self.kind, self.value, self.offset = next(self.tokens)

    def _error(self, expected: str, found: str = "") -> StepSyntaxError:
        return _syntax_error(self.text, self.offset, expected, found)

    def _expect(self, kind: str, what: str | None = None):
        """Consume a token of ``kind`` and return its value."""
        if self.kind != kind:
            raise self._error(what or kind, str(self.value))
        value = self.value
        self._bump()
        return value

    def _at_keyword(self, word: str) -> bool:
        return self.kind == "keyword" and self.value == word

    def _expect_keyword(self, word: str) -> None:
        if not self._at_keyword(word):
            raise self._error(word, str(self.value))
        self._bump()

    def parse(self) -> ExchangeStructure:
        self._expect_keyword("ISO-10303-21")
        self._expect(";")
        if not self._at_keyword("HEADER"):
            raise MissingSection("HEADER")
        self._bump()
        self._expect(";")
        header = self._header_section()
        if not self._at_keyword("DATA"):
            raise MissingSection("DATA")
        self._bump()
        self._expect(";")
        entities = self._data_section()
        self._expect_keyword("END-ISO-10303-21")
        self._expect(";")
        warnings = _unit_warnings(entities)
        ignored = Counter()
        for rec in entities.values():
            for kw in (p[0] for p in rec.parts) if isinstance(rec, ComplexEntity) else (rec.keyword,):
                if kw not in SUPPORTED_ENTITIES:
                    ignored[kw] += 1
        return ExchangeStructure(header, entities, ignored, warnings)

    def _header_section(self) -> Header:
        header = Header()
        while True:
            if self._at_keyword("ENDSEC"):
                self._bump()
                self._expect(";")
                return header
            if self.kind == "eof":
                raise self._error("ENDSEC for HEADER")
            keyword = self._expect("keyword", "header entity keyword")
            args = self._arg_list()
            self._expect(";")
            header.records.append((keyword, args))
            if keyword == "FILE_DESCRIPTION" and args:
                if isinstance(args[0], tuple) and args[0] and isinstance(args[0][0], str):
                    header.description = args[0][0]
            elif keyword == "FILE_NAME" and args and isinstance(args[0], str):
                header.name = args[0]
            elif keyword == "FILE_SCHEMA" and args and isinstance(args[0], tuple):
                header.schema = tuple(s for s in args[0] if isinstance(s, str))

    def _data_section(self) -> dict[int, EntityRecord]:
        entities: dict[int, EntityRecord] = {}
        while True:
            if self._at_keyword("ENDSEC"):
                self._bump()
                self._expect(";")
                return entities
            if self.kind == "eof":
                raise self._error("ENDSEC for DATA")
            offset = self.offset
            eid = self._expect("ref", "instance name '#<id>'")
            if eid <= 0:
                raise _syntax_error(self.text, offset, "a positive instance name", f"#{eid}")
            self._expect("=")
            if eid in entities:
                raise DuplicateEntityId(eid)
            if self.kind == "(":
                entities[eid] = self._complex_instance()
            else:
                keyword = self._expect("keyword", "entity keyword")
                entities[eid] = SimpleEntity(keyword, self._arg_list())
            self._expect(";")

    def _complex_instance(self) -> ComplexEntity:
        self._expect("(")
        parts: list[tuple[str, tuple]] = []
        while self.kind != ")":
            keyword = self._expect("keyword", "entity keyword inside complex instance")
            parts.append((keyword, self._arg_list()))
        self._expect(")")
        return ComplexEntity(tuple(parts))

    def _arg_list(self, depth: int = 0) -> tuple:
        if depth >= MAX_NESTING:
            raise self._error(f"at most {MAX_NESTING} nested parameter lists", "(")
        self._expect("(")
        args: list = []
        if self.kind == ")":
            self._bump()
            return tuple(args)
        while True:
            args.append(self._argument(depth + 1))
            if self.kind == ",":
                self._bump()
                continue
            self._expect(")")
            return tuple(args)

    def _argument(self, depth: int):
        kind = self.kind
        if kind in self._LITERALS:
            value = self.value
            self._bump()
            return value
        if kind == "ref":
            return Ref(self._expect("ref"))
        if kind == "(":
            return self._arg_list(depth)
        if kind == "keyword":
            # Typed parameter such as PARAMETER_VALUE(0.5): keep the payload.
            self._bump()
            inner = self._arg_list(depth)
            return inner[0] if len(inner) == 1 else inner
        raise self._error("an argument", str(self.value))


def _unit_warnings(entities: dict[int, EntityRecord]) -> list[str]:
    warnings: list[str] = []
    for eid, rec in entities.items():
        parts = rec.parts if isinstance(rec, ComplexEntity) else ((rec.keyword, rec.args),)
        for kw, args in parts:
            if kw != "SI_UNIT":
                continue
            names = [a.name for a in args if isinstance(a, Enum)]
            if "METRE" in names and "MILLI" not in names:
                warnings.append(
                    f"entity #{eid}: SI_UNIT declares a non-millimetre length unit"
                    " (coordinates are read as millimetres regardless)"
                )
    return warnings


def parse_exchange(text: str) -> ExchangeStructure:
    """Parse a Part-21 exchange file into header fields and the entity map."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Serialization (round-trip support)
# ---------------------------------------------------------------------------

def _fmt_real(x: float) -> str:
    s = repr(x)
    if "e" in s or "E" in s:
        mantissa, _, exp = s.partition("e" if "e" in s else "E")
        if "." not in mantissa:
            mantissa += "."
        return f"{mantissa}E{exp}"
    if "." not in s:
        s += "."
    return s


def _fmt_arg(value) -> str:
    if value is UNSET:
        return "$"
    if value is DERIVED:
        return "*"
    if isinstance(value, bool):
        return ".T." if value else ".F."
    if isinstance(value, Enum):
        return f".{value.name}."
    if isinstance(value, Ref):
        return f"#{value.id}"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    if isinstance(value, float):
        return _fmt_real(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, tuple):
        return "(" + ",".join(_fmt_arg(a) for a in value) + ")"
    raise TypeError(f"cannot serialize argument {value!r}")


def _fmt_entity(rec: EntityRecord) -> str:
    if isinstance(rec, SimpleEntity):
        return f"{rec.keyword}({','.join(_fmt_arg(a) for a in rec.args)})"
    inner = " ".join(f"{kw}({','.join(_fmt_arg(a) for a in args)})" for kw, args in rec.parts)
    return f"( {inner} )"


def serialize_exchange(xs: ExchangeStructure) -> str:
    """Write the structure back to Part-21 text (stable entity-id order)."""
    lines = ["ISO-10303-21;", "HEADER;"]
    records = xs.header.records or [
        ("FILE_DESCRIPTION", ((xs.header.description,), "2;1")),
        ("FILE_NAME", (xs.header.name, "", ("",), ("",), "", "", "")),
        ("FILE_SCHEMA", (xs.header.schema,)),
    ]
    for kw, args in records:
        lines.append(f"{kw}({','.join(_fmt_arg(a) for a in args)});")
    lines.append("ENDSEC;")
    lines.append("DATA;")
    for eid in sorted(xs.entities):
        lines.append(f"#{eid}={_fmt_entity(xs.entities[eid])};")
    lines.append("ENDSEC;")
    lines.append("END-ISO-10303-21;")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Resolver
# ---------------------------------------------------------------------------

def _check_arity(eid: int, rec: SimpleEntity) -> None:
    needed = _MIN_ARGS.get(rec.keyword, 0)
    if len(rec.args) < needed:
        raise UnsupportedGeometry(eid, f"{rec.keyword} (needs {needed} arguments)")


def _finite_number(value) -> bool:
    """A finite real or integer parameter (bools are enumerations, not numbers)."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and -sys.float_info.max <= value <= sys.float_info.max)


def _triple(eid: int, rec: SimpleEntity, what: str) -> Vec3:
    values = rec.args[1]
    if not isinstance(values, tuple) or len(values) != 3 or not all(map(_finite_number, values)):
        raise UnsupportedGeometry(eid, what)
    return vec(*values)


def _radius(eid: int, rec: SimpleEntity) -> float:
    radius = rec.args[2]
    if not _finite_number(radius) or radius <= 0:
        raise UnsupportedGeometry(eid, f"{rec.keyword} (needs a positive radius)")
    return float(radius)


def _items(eid: int, rec: SimpleEntity) -> tuple:
    """The list in argument 2 (loop edges, face bounds, shell faces)."""
    if not isinstance(rec.args[1], tuple):
        raise UnsupportedGeometry(eid, f"{rec.keyword} (needs a list of references)")
    return rec.args[1]


class _Resolver:
    def __init__(self, xs: ExchangeStructure):
        self.xs = xs
        self.vertices: dict[int, Vec3] = {}
        self.edges: dict[int, Edge] = {}
        self.loops: dict[int, Loop] = {}
        self.faces: dict[int, Face] = {}

    def _entity(self, from_id: int, ref) -> tuple[int, SimpleEntity]:
        if not isinstance(ref, Ref):
            raise UnsupportedGeometry(from_id, f"expected entity reference, got {ref!r}")
        rec = self.xs.entities.get(ref.id)
        if rec is None:
            raise DanglingReference(from_id, ref.id)
        if isinstance(rec, ComplexEntity):
            raise UnsupportedGeometry(ref.id, rec.keyword)
        _check_arity(ref.id, rec)
        return ref.id, rec

    def _expect(self, from_id: int, ref, keywords: tuple[str, ...]) -> tuple[int, SimpleEntity]:
        eid, rec = self._entity(from_id, ref)
        if rec.keyword not in keywords:
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
        eid, rec = self._expect(from_id, ref, ("VERTEX_POINT",))
        if eid not in self.vertices:
            self.vertices[eid] = self._point(eid, rec.args[1])
        return eid

    def _edge(self, from_id: int, ref) -> int:
        eid, rec = self._expect(from_id, ref, ("EDGE_CURVE",))
        if eid in self.edges:
            return eid
        v1 = self._vertex(eid, rec.args[1])
        v2 = self._vertex(eid, rec.args[2])
        curve_id, curve_rec = self._entity(eid, rec.args[3])
        same_sense = rec.args[4] if len(rec.args) > 4 else True
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
            if same_sense is False:
                axis = -axis
            curve = Circle(center, axis, radius)
        else:
            raise UnsupportedGeometry(curve_id, curve_rec.keyword)
        self.edges[eid] = Edge(eid, curve, v1, v2)
        return eid

    def _oriented_edge(self, from_id: int, ref) -> tuple[int, bool]:
        eid, rec = self._expect(from_id, ref, ("ORIENTED_EDGE",))
        edge_id = self._edge(eid, rec.args[3])
        sense = rec.args[4] if len(rec.args) > 4 else True
        return edge_id, bool(sense)

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
        if eid in self.faces:
            return eid
        bounds: list[tuple[int, bool]] = []
        for bref in _items(eid, rec):
            bid, brec = self._expect(eid, bref, ("FACE_BOUND", "FACE_OUTER_BOUND"))
            orientation = brec.args[2] if len(brec.args) > 2 else True
            loop_id = self._loop(bid, brec.args[1], reverse=orientation is False)
            bounds.append((loop_id, brec.keyword == "FACE_OUTER_BOUND"))
        surf_id, surf_rec = self._entity(eid, rec.args[2])
        if surf_rec.keyword == "PLANE":
            origin, normal = self._axis2(surf_id, surf_rec.args[1])
            surface = Plane(origin, normal)
        elif surf_rec.keyword == "CYLINDRICAL_SURFACE":
            point, axis = self._axis2(surf_id, surf_rec.args[1])
            surface = Cylinder(point, axis, _radius(surf_id, surf_rec))
        else:
            raise UnsupportedGeometry(surf_id, surf_rec.keyword)
        same_sense = rec.args[3] if len(rec.args) > 3 else True
        if not any(outer for _, outer in bounds) and len(bounds) == 1:
            # Single FACE_BOUND: treat it as the outer bound.
            bounds[0] = (bounds[0][0], True)
        self.faces[eid] = Face(eid, surface, bool(same_sense), tuple(bounds))
        return eid

    def resolve(self, default_name: str) -> Solid:
        solids = [
            (eid, rec) for eid, rec in self.xs.entities.items()
            if isinstance(rec, SimpleEntity) and rec.keyword == "MANIFOLD_SOLID_BREP"
        ]
        if not solids:
            raise MissingSolid()
        if len(solids) > 1:
            raise MultipleSolids(sorted(eid for eid, _ in solids))
        brep_id, brep_rec = solids[0]
        _check_arity(brep_id, brep_rec)
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
