"""Boundary-representation data model and its metric queries.

A ``Solid`` is a closed shell of planar and cylindrical faces whose edges are
straight lines or circular arcs. All queries are pure; a Solid is immutable
after construction (its name included: loaders fix it) and safe to share
between threads. ``punchplan.features`` keeps a per-face geometry table on
the instance the first time recognition runs; it derives from the geometry
alone.

Conventions
-----------
* An arc edge runs from its start vertex to its end vertex counterclockwise
  about the circle axis. Coincident endpoints (one vertex, or two within TOL)
  mean a full circle.
* Face loop orientation as authored is not trusted: planar areas are computed
  from absolute loop areas (outer minus holes), which makes the result
  independent of traversal direction.
"""
from __future__ import annotations

import json
import math
import re
import struct
from dataclasses import dataclass, fields
from itertools import chain
from typing import Union

from .geom import ENVELOPE, TOL, Vec3, _new, distance, plane_basis


class BrepError(Exception):
    """Base class for geometry/topology errors."""


class DegenerateEdge(BrepError):
    def __init__(self, edge_id: int):
        super().__init__(f"line edge {edge_id} has coincident endpoints")
        self.edge_id = edge_id


class NonPlanarFace(BrepError):
    def __init__(self, face_id: int):
        super().__init__(f"face {face_id} is not planar")
        self.face_id = face_id


class UnknownEdge(BrepError):
    def __init__(self, edge_id: int):
        super().__init__(f"edge {edge_id} is not part of this solid")
        self.edge_id = edge_id


class NotManifold(BrepError):
    """The solid fails :func:`validate_manifold`; carries every violation found.

    The message is one line: the count and the first violation."""

    def __init__(self, violations: list["Violation"]):
        first = violations[0]
        super().__init__(f"model is not a closed manifold: {len(violations)} violation(s), "
                         f"first {first.kind}: {first.message}")
        self.violations = violations


class SchemaError(BrepError):
    """Native JSON document violates the interchange schema."""

    def __init__(self, path: str, reason: str):
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason


def _slot_init(cls: type) -> type:
    """Give a frozen slotted dataclass, declared with ``init=False``, an
    ``__init__`` that sets each field's slot through its member descriptor.

    The dataclass's own frozen ``__init__`` sets each field with a call to
    ``object.__setattr__`` by name; the descriptor's ``__set__`` is the same
    store for a fraction of the cost. The new ``__init__`` takes the fields in
    order, by position or keyword, none with a default, and then calls
    ``__post_init__`` if the class has one.
    """
    names = [f.name for f in fields(cls)]
    setters = {f"_set_{name}": getattr(cls, name).__set__ for name in names}
    body = "".join(f"    _set_{name}(self, {name})\n" for name in names)
    if hasattr(cls, "__post_init__"):
        body += "    self.__post_init__()\n"
    made: dict = {}
    exec(f"def __init__(self, {', '.join(names)}):\n{body}", setters, made)
    init = made["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    return cls


@_slot_init
@dataclass(frozen=True, slots=True, init=False)
class Line:
    """An edge's straight line: a point on it and its unit direction."""

    point: Vec3
    direction: Vec3  # unit


@_slot_init
@dataclass(frozen=True, slots=True, init=False)
class Circle:
    """An arc edge's circle: its centre, unit axis and positive radius."""

    center: Vec3
    axis: Vec3  # unit
    radius: float

    def __post_init__(self) -> None:
        if not self.radius > 0:
            raise ValueError(f"circle radius must be positive, got {self.radius}")


CurveGeometry = Union[Line, Circle]


@_slot_init
@dataclass(frozen=True, slots=True, init=False)
class Plane:
    """A planar face's surface: a point on it and its unit normal."""

    origin: Vec3
    normal: Vec3  # unit


@_slot_init
@dataclass(frozen=True, slots=True, init=False)
class Cylinder:
    """A cylindrical face's surface: a point on its axis, the axis's unit
    direction and the positive radius."""

    axis_point: Vec3
    axis_dir: Vec3  # unit
    radius: float

    def __post_init__(self) -> None:
        if not self.radius > 0:
            raise ValueError(f"cylinder radius must be positive, got {self.radius}")


SurfaceGeometry = Union[Plane, Cylinder]


@_slot_init
@dataclass(frozen=True, slots=True, init=False)
class Edge:
    """An edge: its curve and its start and end vertex ids, equal only for a
    full circle."""

    id: int
    curve: CurveGeometry
    start: int  # vertex id
    end: int    # vertex id; start == end only for full circles


@_slot_init
@dataclass(frozen=True, slots=True, init=False)
class Loop:
    """A closed chain of edge uses, each an edge id and whether the loop runs
    along the edge's own direction."""

    id: int
    oriented_edges: tuple[tuple[int, bool], ...]  # (edge id, sense)


@_slot_init
@dataclass(frozen=True, slots=True, init=False)
class Face:
    """A face: its surface, whether its outward normal is the surface's own
    (``same_sense``), and its bounding loops, each a loop id and whether it
    is an outer bound."""

    id: int
    surface: SurfaceGeometry
    same_sense: bool
    bounds: tuple[tuple[int, bool], ...]  # (loop id, is_outer)

    def outer_loops(self) -> list[int]:
        return [lid for lid, outer in self.bounds if outer]

    def inner_loops(self) -> list[int]:
        return [lid for lid, outer in self.bounds if not outer]


class Solid:
    """Closed-shell B-Rep with an eagerly built edge -> face-use index.

    A Solid owns the vertex, edge, loop and face maps it is given; the caller
    must not change them afterwards. Every coordinate and radius in them
    lies in [-ENVELOPE, ENVELOPE].
    """

    def __init__(
        self,
        name: str,
        vertices: dict[int, Vec3],
        edges: dict[int, Edge],
        loops: dict[int, Loop],
        faces: dict[int, Face],
    ):
        self.name = name
        self.vertices = vertices
        self.edges = edges
        self.loops = loops
        self.faces = faces
        # Adjacency counts every loop use; a well-formed solid has two uses per edge.
        # Building it checks each reference once: edge vertices, loop edges, face loops.
        # The same loops gather the points and radii of the curves and surfaces.
        placed: list[Vec3] = []
        radii: list[float] = []
        uses: dict[int, list[int]] = {}
        for eid, e in edges.items():
            if (start := vertices.get(e.start)) is None or e.end not in vertices:
                raise BrepError(f"edge {e.id} references unknown vertex "
                                f"{e.end if start is not None else e.start}")
            uses[eid] = []
            c = e.curve
            if type(c) is Circle:
                placed.append(c.center)
                radii.append(c.radius)
            elif c.point is not start:
                placed.append(c.point)
        loop_uses: dict[int, list[list[int]]] = {}
        for lid, lp in loops.items():
            try:
                loop_uses[lid] = [uses[eid] for eid, _ in lp.oriented_edges]
            except KeyError as exc:
                raise BrepError(f"loop {lp.id} references unknown edge {exc.args[0]}") from None
        for f in faces.values():
            for lid, _ in f.bounds:
                if lid not in loop_uses:
                    raise BrepError(f"face {f.id} references unknown loop {lid}")
                for fids in loop_uses[lid]:
                    fids.append(f.id)
            g = f.surface
            if type(g) is Plane:
                placed.append(g.origin)
            else:
                placed.append(g.axis_point)
                radii.append(g.radius)
        # The norm of all those values is at least the largest, and NaN or inf if one is.
        if not math.hypot(*chain.from_iterable(vertices.values()), *chain.from_iterable(placed),
                          *radii) <= ENVELOPE:
            _check_envelope(self)
        self.edge_uses: dict[int, tuple[int, ...]] = {
            eid: tuple(fids) for eid, fids in uses.items()
        }

    def vertex(self, vid: int) -> Vec3:
        return self.vertices[vid]


def _check_envelope(solid: Solid) -> None:
    """Raise a BrepError naming the first vertex, else edge, else face with a
    coordinate or radius outside [-ENVELOPE, ENVELOPE], and its field and value."""
    named = [("vertex", vid, "", p) for vid, p in solid.vertices.items()]
    named += [(kind, r.id, n, getattr(g, n)) for kind, records in (("edge", solid.edges), ("face", solid.faces))
              for r in records.values() for g in [r.curve if kind == "edge" else r.surface]
              for n in ("point", "center", "origin", "axis_point", "radius") if hasattr(g, n)]
    for kind, rid, field, value in named:
        for axis, c in zip("xyz", value) if isinstance(value, tuple) else (("", value),):
            if not -ENVELOPE <= c <= ENVELOPE:
                raise BrepError(f"{kind} {rid}: {f'{field} {axis}'.strip()} = {c!r} is outside "
                                f"the coordinate envelope [-{ENVELOPE:g}, {ENVELOPE:g}] mm")


def _full_circle(edge: Edge, start: Vec3, end: Vec3) -> bool:
    """Whether an arc edge closes on itself: one vertex, or endpoints within TOL."""
    return edge.start == edge.end or distance(start, end) <= TOL


def _arc_frame(circle: Circle, start: Vec3, end: Vec3 | None) -> tuple[Vec3, Vec3, float]:
    """In-plane unit axes (u, v) of an arc, u toward its start and v = axis x u,
    and the angle swept CCW about the axis from start to end, in (0, 2*pi].
    ``end`` is None for a full circle."""
    u = start - circle.center
    u = u - circle.axis * u.dot(circle.axis)
    n = u.norm()
    if n <= TOL:
        raise BrepError("arc start point coincides with the circle center")
    u = u * (1.0 / n)
    v = circle.axis.cross(u)
    if end is None:
        return u, v, 2.0 * math.pi
    w = end - circle.center
    ang = math.atan2(w.dot(v), w.dot(u))
    if ang < 0:
        ang += 2.0 * math.pi
    return u, v, ang


def edge_length(edge: Edge, solid: Solid) -> float:
    """Arc length of an edge: straight distance, or radius times swept angle."""
    if edge.id not in solid.edges:
        raise UnknownEdge(edge.id)
    a = solid.vertex(edge.start)
    b = solid.vertex(edge.end)
    if isinstance(edge.curve, Line):
        d = distance(a, b)
        if d <= TOL:
            raise DegenerateEdge(edge.id)
        return d
    if _full_circle(edge, a, b):
        return 2.0 * math.pi * edge.curve.radius
    return edge.curve.radius * _arc_frame(edge.curve, a, b)[2]


def face_normal(face: Face) -> Vec3:
    """Outward normal of a planar face (plane normal flipped by same_sense)."""
    if not isinstance(face.surface, Plane):
        raise NonPlanarFace(face.id)
    n = face.surface.normal
    return n if face.same_sense else -n


def _walk_face(solid: Solid, face: Face, d: Vec3, e: Vec3,
               arcs: dict | None = None) -> tuple[float, float, float, float, float | None]:
    """One pass over a face's bounds, loops and edges: the intervals
    ``(d_lo, d_hi, e_lo, e_hi)`` of its sample points along d and along e
    and, for a planar face, its area.

    The samples are seven interior points on each arc use, at sweep*k/8 for
    k = 1..7, then the boundary vertices. No point is built: each arc sample
    is projected straight from the coordinates Vec3 arithmetic would give it,
    and each boundary vertex, in ``Vec3.dot``'s operand order, once per use
    chain: where a use reads it as its head, or as its tail when that is not
    the head just read. So an interval is the min and max of the very doubles
    ``Vec3.dot`` gives over the sample points; when e is d, they are projected
    once. A face without boundary edges has the empty interval
    ``(inf, -inf)``, which overlaps nothing.

    An arc's sweep and samples depend on its edge alone: walks sharing a map
    ``arcs`` store them at an arc edge's first use and take them out at its
    next, so each arc edge of a manifold solid is framed and sampled once.

    The area is |outer loop area| minus the hole loop areas, each loop's by
    Green's theorem in the face's own (u, v) = plane_basis(normal) frame,
    whatever d and e are: straight segments contribute the shoelace cross
    term; arcs contribute the exact integral r^2*phi/2 plus the chordal part,
    with phi signed by traversal direction and by the circle axis relative to
    the face normal.
    """
    vertices, edges, loops = solid.vertices, solid.edges, solid.loops
    arcs = {} if arcs is None else arcs
    planar = isinstance(face.surface, Plane)
    if planar:
        n = face_normal(face)
        (ox, oy, oz), ((ux, uy, uz), (vx, vy, vz)) = face.surface.origin, plane_basis(n)
    (dx, dy, dz), (ex, ey, ez) = d, e
    both = e is not d
    ds: list[float] = []
    es: list[float] = []
    outer = holes = 0.0
    for lid, is_outer in face.bounds:
        total = 0.0
        last = None  # the head vertex id of the use before; (ub, vb) is its (u, v)
        for eid, sense in loops[lid].oriented_edges:
            edge = edges[eid]
            circ = edge.curve
            if isinstance(circ, Circle):
                (cx, cy, cz), r = circ.center, circ.radius
                shared = arcs.pop(eid, None)
                if shared is None:
                    a, b = vertices[edge.start], vertices[edge.end]
                    full = _full_circle(edge, a, b)
                    (aux, auy, auz), (avx, avy, avz), sweep = _arc_frame(circ, a, None if full else b)
                    # center + u * (r cos) + v * (r sin), on coordinates in Vec3's operand order.
                    points = []
                    for k in range(1, 8):
                        ang = sweep * k / 8.0
                        c, s = r * math.cos(ang), r * math.sin(ang)
                        points.append((cx + aux * c + avx * s, cy + auy * c + avy * s,
                                       cz + auz * c + avz * s))
                    shared = arcs[eid] = sweep, points
                sweep, points = shared
                for x, y, z in points:
                    ds.append(x * dx + y * dy + z * dz)
                    if both:
                        es.append(x * ex + y * ey + z * ez)
            tail, head = (edge.start, edge.end) if sense else (edge.end, edge.start)
            if tail != last:
                x, y, z = vertices[tail]
                ds.append(x * dx + y * dy + z * dz)
                if both:
                    es.append(x * ex + y * ey + z * ez)
                if planar:
                    x, y, z = x - ox, y - oy, z - oz
                    ub, vb = x * ux + y * uy + z * uz, x * vx + y * vy + z * vz
            last = head
            x, y, z = vertices[head]
            ds.append(x * dx + y * dy + z * dz)
            if both:
                es.append(x * ex + y * ey + z * ez)
            if not planar:
                continue
            ua, va = ub, vb
            x, y, z = x - ox, y - oy, z - oz
            ub, vb = x * ux + y * uy + z * uz, x * vx + y * vy + z * vz
            if isinstance(circ, Line):
                total += 0.5 * (ua * vb - ub * va)
            else:
                signed = sweep * (1.0 if sense else -1.0) * (1.0 if circ.axis.dot(n) > 0 else -1.0)
                cx, cy, cz = cx - ox, cy - oy, cz - oz
                cu, cv = cx * ux + cy * uy + cz * uz, cx * vx + cy * vy + cz * vz
                total += 0.5 * (r * r * signed + cu * (vb - va) - cv * (ub - ua))
        if is_outer:
            outer += abs(total)
        else:
            holes += abs(total)
    if ds:
        lo, hi = min(ds), max(ds)
        spans = (lo, hi, min(es), max(es)) if both else (lo, hi, lo, hi)
    else:
        spans = math.inf, -math.inf, math.inf, -math.inf
    return *spans, outer - holes if planar else None


def face_area(face: Face, solid: Solid) -> float:
    """Planar face area: |outer loop area| minus the hole loop areas."""
    if not isinstance(face.surface, Plane):
        raise NonPlanarFace(face.id)
    return _walk_face(solid, face, *plane_basis(face_normal(face)))[4]


@dataclass(frozen=True, slots=True)
class Violation:
    """One finding of ``validate_manifold``: its kind, its message and the
    id of the edge, loop or face it is about, if any."""

    kind: str
    message: str
    subject_id: int | None = None


def _from_axis(p: Vec3, origin: Vec3, axis: Vec3) -> tuple[float, float]:
    """``(p - origin) . axis`` and the distance of p from the axis line."""
    (x, y, z), (ox, oy, oz), (ax, ay, az) = p, origin, axis
    x, y, z = x - ox, y - oy, z - oz
    along = x * ax + y * ay + z * az
    x, y, z = x - ax * along, y - ay * along, z - az * along
    return along, math.sqrt(x * x + y * y + z * z)


def _heads_on_plane(solid: Solid, face: Face, open_loops: set[int]) -> bool:
    """Whether every loop of the planar ``face`` closes and each head vertex of
    its uses lies within TOL of the plane, by ``validate_manifold``'s
    arithmetic. Every vertex of a closed loop heads one of its uses, so these
    are the face's vertices, some checked more than once."""
    vertices, edges, loops = solid.vertices, solid.edges, solid.loops
    (ox, oy, oz), (nx, ny, nz) = face.surface.origin, face.surface.normal
    for lid, _ in face.bounds:
        if lid in open_loops:
            return False
        for eid, sense in loops[lid].oriented_edges:
            e = edges[eid]
            x, y, z = vertices[e.end if sense else e.start]
            if abs((x - ox) * nx + (y - oy) * ny + (z - oz) * nz) > TOL:
                return False
    return True


def validate_manifold(solid: Solid) -> list[Violation]:
    """Topology and incidence report; empty means the solid is a closed 2-manifold.
    Offsets are spelled out on coordinates in Vec3's operand order: the doubles Vec3 gives."""
    out: list[Violation] = []
    add = out.append
    vertices, edges = solid.vertices, solid.edges
    for eid, uses in solid.edge_uses.items():
        if len(uses) != 2:
            add(Violation("non_manifold_edge", f"edge {eid} used by {len(uses)} face loops "
                          f"(faces {sorted(set(uses))})", eid))
    open_loops: set[int] = set()
    for lid, lp in solid.loops.items():
        # Each edge, taken in its sense, must start where the one before it
        # ends; the first comes after the last.
        if uses := lp.oriented_edges:
            eid, sense = uses[-1]
            head = edges[eid].end if sense else edges[eid].start
            for eid, sense in uses:
                e = edges[eid]
                if (e.start if sense else e.end) != head:
                    break
                head = e.end if sense else e.start
            else:
                continue
        open_loops.add(lid)
        add(Violation("open_loop", f"loop {lp.id} does not chain into a closed cycle", lp.id))
    for f in solid.faces.values():
        n_outer = len(f.outer_loops())
        if n_outer != 1:
            add(Violation("bad_outer_bound",
                          f"face {f.id} has {n_outer} outer bounds, expected 1", f.id))
    for e in edges.values():
        curve = e.curve
        for vid in (e.start, e.end):
            p = vertices[vid]
            if not isinstance(curve, Line):
                along, dist = _from_axis(p, curve.center, curve.axis)
                off_plane, off_radius = abs(along), abs(dist - curve.radius)
                if off_plane > TOL or off_radius > TOL:
                    add(Violation("endpoint_off_curve",
                                  f"edge {e.id}: vertex {vid} is off its circle by "
                                  f"(plane {off_plane:.3g}, radius {off_radius:.3g}) mm", e.id))
            elif p is not curve.point:  # (p - p) x d is 0: JSON lines start at a vertex
                (x, y, z), (qx, qy, qz), (dx, dy, dz) = p, curve.point, curve.direction
                x, y, z = x - qx, y - qy, z - qz
                x, y, z = y * dz - z * dy, z * dx - x * dz, x * dy - y * dx
                off = math.sqrt(x * x + y * y + z * z)
                if off > TOL:
                    add(Violation("endpoint_off_curve",
                                  f"edge {e.id}: vertex {vid} is {off:.3g} mm off its line", e.id))
    # Planar faces: boundary vertices must lie on the plane; cylinders: at radius.
    # A planar face that passes _heads_on_plane has none off it; any other face
    # checks its vertex set, and reports in that set's order.
    for f in solid.faces.values():
        surface = f.surface
        planar = isinstance(surface, Plane)
        if planar and _heads_on_plane(solid, f, open_loops):
            continue
        vids: set[int] = set()
        for lid, _ in f.bounds:
            for eid, _ in solid.loops[lid].oriented_edges:
                e = edges[eid]
                vids.update((e.start, e.end))
        if planar:
            (ox, oy, oz), (nx, ny, nz) = surface.origin, surface.normal
            for vid in vids:
                x, y, z = vertices[vid]
                d = abs((x - ox) * nx + (y - oy) * ny + (z - oz) * nz)
                if d > TOL:
                    add(Violation("vertex_off_surface", f"face {f.id}: vertex {vid} is "
                                  f"{d:.3g} mm off the face plane", f.id))
            continue
        for vid in vids:
            _, dist = _from_axis(vertices[vid], surface.axis_point, surface.axis_dir)
            d = abs(dist - surface.radius)
            if d > TOL:
                add(Violation("vertex_off_surface",
                              f"face {f.id}: vertex {vid} is {d:.3g} mm off the cylinder", f.id))
    return out


# ---------------------------------------------------------------------------
# Native JSON interchange
# ---------------------------------------------------------------------------
# The loader checks every value inline, on its type, in document order. A
# failing check formats its JSON pointer from the parts of the path it holds.

_ABSENT = object()  # what ``dict.get`` gives for a key the document lacks
_finite = math.isfinite
# A unit vector's key in a load's map: its doubles' bits, since == takes -0.0 for 0.0.
_bits = struct.Struct("3d").pack


def _error(value, reason: str, *where) -> SchemaError:
    """The error for ``value`` at the pointer ``/where[0]/where[1]...``: missing or ``reason``."""
    path = "".join(f"/{part}" for part in where)
    return SchemaError(path, "missing required key" if value is _ABSENT else reason)


def _not_id(value, *where) -> SchemaError:
    return _error(value, f"expected integer id, got {value!r}", *where)


def _num(value, *where) -> float:
    """``value`` as a finite float, else its SchemaError; the inline checks call
    this for every value but a finite float."""
    if type(value) is not float and type(value) is not int:  # bool is neither
        raise _error(value, f"expected number, got {type(value).__name__}", *where)
    try:
        number = float(value)
    except OverflowError:  # an integer past the float range
        number = math.inf
    if not _finite(number):
        raise _error(value, "number must be finite", *where)
    return number


def _coords(x, y, z, keys, *where) -> Vec3:
    """Three JSON numbers, each checked, as a Vec3; ``keys`` name them in an
    error's path. The inline checks call this for all but three finite floats."""
    x, y, z = (_num(c, *where, k) for c, k in zip((x, y, z), keys))
    return _new(Vec3, (x, y, z))


def _vec3(value, *where) -> Vec3:
    if type(value) is not list or len(value) != 3:
        raise _error(value, "expected [x, y, z]", *where)
    x, y, z = value
    if (type(x) is float and type(y) is float and type(z) is float
            and _finite(x) and _finite(y) and _finite(z)):
        return _new(Vec3, (x, y, z))
    return _coords(x, y, z, range(3), *where)


def _unit3(value, units: dict, *where) -> Vec3:
    """``value`` normalized, as the one Vec3 of ``units`` with its bits."""
    x, y, z = v = _vec3(value, *where)
    n = math.sqrt(x * x + y * y + z * z)
    try:  # v.normalized(), inline unless it must rescale or refuse
        x, y, z = (x / n, y / n, z / n) if TOL * TOL < n < math.inf else v.normalized()
    except ValueError:
        raise _error(value, "direction must be non-zero", *where) from None
    return units.get(key := _bits(x, y, z)) or units.setdefault(key, _new(Vec3, (x, y, z)))


def _radius(value, *where) -> float:
    radius = _num(value, *where)
    if radius <= 0:
        raise _error(value, "radius must be > 0", *where)
    return radius


def _elements(take, key: str, kind: str, seen: dict):
    """``(index, item, id)`` per item of the list ``take(key)``: an object with an id new to ``seen``.

    Each item is dropped from the list as it is handed out, so a section's
    objects are freed while its records are built."""
    items = take(key, _ABSENT)
    if type(items) is not list:
        raise _error(items, "expected list", key)
    for i, item in enumerate(items):
        items[i] = None
        if type(item) is not dict:
            raise _error(item, f"expected object, got {type(item).__name__}", key, i)
        iid = item.get("id", _ABSENT)
        if type(iid) is not int:
            raise _not_id(iid, key, i, "id")
        if iid in seen:
            raise SchemaError(f"/{key}/{i}/id", f"duplicate {kind} id {iid}")
        yield i, item, iid


def _uses(owner: dict, key: str, ref: str, flag: str, table: dict,
          *where) -> tuple[tuple[int, bool], ...]:
    """``owner[key]``, a non-empty list of ``{ref: <id in table>, flag: <bool>}``
    objects, as ``(id, flag)`` pairs: a loop's oriented edges, a face's bounds.
    Each id is the ``id`` object of the record it names.

    Each item takes one combined check; the first item that fails it is
    checked again field by field, in order, for its error."""
    raw = owner.get(key, _ABSENT)
    if type(raw) is not list or not raw:
        raise _error(raw, "expected non-empty list", *where, key)
    pairs = []
    for item in raw:
        if not (type(item) is dict and type(rid := item.get(ref)) is int and rid in table
                and type(value := item.get(flag)) is bool):
            raise _use_error(item, ref, flag, table, *where, key, len(pairs))
        pairs.append((table[rid].id, value))
    return tuple(pairs)


def _use_error(item, ref: str, flag: str, table: dict, *where) -> SchemaError:
    """The error of an item :func:`_uses` refuses, at the pointer ``where``."""
    if type(item) is not dict:
        return _error(item, f"expected object, got {type(item).__name__}", *where)
    rid, value = item.get(ref, _ABSENT), item.get(flag, _ABSENT)
    if type(rid) is not int:
        return _not_id(rid, *where, ref)
    if rid not in table:
        return _error(rid, f"unknown {ref} {rid}", *where, ref)
    return _error(value, "expected boolean", *where, flag)


class _Declined(Exception):
    """The text departs from the layout :class:`_Members` reads."""


class _Members:
    """The member values of a JSON object text in the layout every writer of
    the format uses: ``{"name": ..., "vertices": ..., "edges": ..., "loops":
    ..., "faces": ...}``, those plain keys in that order and no other member.
    Each value is decoded by the scanner of ``json.loads`` as it is taken.

    :meth:`take` raises :class:`_Declined` at a departure from the layout, and
    the scanner what ``json.loads`` raises at the value.
    """

    # The text up to a member's value: "{" or ",", a plain key and a colon, with JSON's blanks.
    MEMBER = re.compile(r'[ \t\n\r]*([{,])[ \t\n\r]*"(\w+)"[ \t\n\r]*:[ \t\n\r]*')
    END = re.compile(r'[ \t\n\r]*}[ \t\n\r]*')
    decode = json.JSONDecoder().raw_decode

    def __init__(self, text: str):
        self.text = text
        self.at = 0  # where the next member starts
        self.colons = 0  # in the text of the lists taken

    def take(self, key: str, default=None):
        """The next member's value; that member must be ``key``. ``default``
        only mirrors ``dict.pop``: a member the layout lacks is a departure."""
        text, at = self.text, self.at
        member = self.MEMBER.match(text, at)
        if member is None or member[2] != key or member[1] != ("," if at else "{"):
            raise _Declined
        value, self.at = self.decode(text, member.end())
        if type(value) is list:
            self.colons += text.count(":", member.end(), self.at)
        return value

    def solid(self, default_name: str) -> Solid:
        """The Solid of the text."""
        name, vertices, edges, loops, faces = _sections(self.take)
        # A value under a key the loader does not read is decoded here one
        # level less deep than by json.loads, so at the recursion limit it
        # could load where json.loads refuses it. Keys read: a vertex's 4; an
        # edge's 4 and its curve's kind, and a circle's 3 more; a loop's 2 and
        # each use's 2; a face's 4, its surface's 3 and a cylinder's radius,
        # and each bound's 2. A text with another colon goes to json.loads.
        read = (4 * len(vertices) + 2 * len(loops) + 7 * len(faces)
                + sum(8 if type(e.curve) is Circle else 5 for e in edges.values())
                + sum(2 * len(lp.oriented_edges) for lp in loops.values())
                + sum(2 * len(f.bounds) + (type(f.surface) is Cylinder) for f in faces.values()))
        if self.colons != read or not self.END.fullmatch(self.text, self.at):
            raise _Declined
        return Solid(name or default_name, vertices, edges, loops, faces)


def load_brep_json(text: str, default_name: str = "") -> Solid:
    """Decode the native JSON B-Rep interchange document into a Solid.

    Top-level keys: name, vertices, edges, loops, faces. See the README for
    the full schema. Violations raise SchemaError with a JSON-pointer path.
    A missing or empty name becomes ``default_name``.

    A ``str`` text in the writers' layout (the five keys in that order, and no
    other) is decoded one section at a time, as the loader reaches it, and
    each section's items are freed as they are read; the text is dropped once
    every section is built. Any other text (another layout, one holding a key
    the loader does not read, or one with a syntax or schema error) is decoded
    whole by ``json.loads``, which gives every error. A caller that passes the
    text without keeping it lets it be freed here.
    """
    if type(text) is str:
        members = _Members(text)
        del text
        try:
            return members.solid(default_name)
        except (_Declined, ValueError, RecursionError, SchemaError):
            text = members.text
    try:
        doc = json.loads(text)
    except RecursionError:
        raise SchemaError("/", "not valid JSON: nested too deeply") from None
    except ValueError as exc:  # malformed, or an integer past the digit limit
        raise SchemaError("/", f"not valid JSON: {exc}") from None
    del text
    if type(doc) is not dict:
        raise SchemaError("/", "top level must be an object")
    name, *maps = _sections(doc.pop)
    return Solid(name or default_name, *maps)


def _sections(take) -> tuple[str, dict, dict, dict, dict]:
    """The name and the vertex, edge, loop and face maps of the sections
    ``take(key, default)`` hands out, each read in that order and checked inline.

    Equal values are one object: each unit vector is the first one built with
    its bits, each edge's endpoint is the vertex map's key, and each loop use
    and face bound names its record by that record's ``id``."""
    name = take("name", "")
    if type(name) is not str:
        raise SchemaError("/name", "expected string")

    vertices: dict[int, Vec3] = {}
    vids: dict[int, int] = {}  # each vertex id to the key object of the vertex map
    units: dict[bytes, Vec3] = {}
    for i, v, vid in _elements(take, "vertices", "vertex", vertices):
        vids[vid] = vid
        x, y, z = v.get("x", _ABSENT), v.get("y", _ABSENT), v.get("z", _ABSENT)
        if (type(x) is float and type(y) is float and type(z) is float
                and _finite(x) and _finite(y) and _finite(z)):
            vertices[vid] = _new(Vec3, (x, y, z))
        else:
            vertices[vid] = _coords(x, y, z, "xyz", "vertices", i)

    edges: dict[int, Edge] = {}
    for i, e, eid in _elements(take, "edges", "edge", edges):
        start, end = e.get("start", _ABSENT), e.get("end", _ABSENT)
        if type(start) is not int:
            raise _not_id(start, "edges", i, "start")
        if type(end) is not int:
            raise _not_id(end, "edges", i, "end")
        if start not in vids:
            raise SchemaError(f"/edges/{i}/start", f"unknown vertex {start}")
        if end not in vids:
            raise SchemaError(f"/edges/{i}/end", f"unknown vertex {end}")
        start, end = vids[start], vids[end]
        cobj = e.get("curve", _ABSENT)
        if type(cobj) is not dict:
            raise _error(cobj, f"expected object, got {type(cobj).__name__}", "edges", i, "curve")
        ckind = cobj.get("kind", _ABSENT)
        if ckind == "line":
            # (b - a).normalized() inline: only past the envelope can the squares overflow.
            (ax, ay, az), (x, y, z) = a, b = vertices[start], vertices[end]
            x, y, z = x - ax, y - ay, z - az
            n = math.sqrt(x * x + y * y + z * z)
            if not n > TOL * TOL:
                raise SchemaError(f"/edges/{i}", "line edge with coincident endpoints")
            x, y, z = x / n, y / n, z / n
            curve: CurveGeometry = Line(
                a, units.get(key := _bits(x, y, z)) or units.setdefault(key, _new(Vec3, (x, y, z))))
        elif ckind == "circle":
            radius = _radius(cobj.get("radius", _ABSENT), "edges", i, "curve", "radius")
            curve = Circle(_vec3(cobj.get("center", _ABSENT), "edges", i, "curve", "center"),
                           _unit3(cobj.get("axis", _ABSENT), units, "edges", i, "curve", "axis"), radius)
        else:
            raise _error(ckind, f"unknown curve kind {ckind!r}", "edges", i, "curve", "kind")
        edges[eid] = Edge(eid, curve, start, end)

    loops: dict[int, Loop] = {}
    for i, lp, lid in _elements(take, "loops", "loop", loops):
        loops[lid] = Loop(lid, _uses(lp, "oriented_edges", "edge", "sense", edges, "loops", i))

    faces: dict[int, Face] = {}
    for i, f, fid in _elements(take, "faces", "face", faces):
        sobj = f.get("surface", _ABSENT)
        if type(sobj) is not dict:
            raise _error(sobj, f"expected object, got {type(sobj).__name__}", "faces", i, "surface")
        skind = sobj.get("kind", _ABSENT)
        if skind == "plane":
            surface: SurfaceGeometry = Plane(
                _vec3(sobj.get("origin", _ABSENT), "faces", i, "surface", "origin"),
                _unit3(sobj.get("normal", _ABSENT), units, "faces", i, "surface", "normal"))
        elif skind == "cylinder":
            radius = _radius(sobj.get("radius", _ABSENT), "faces", i, "surface", "radius")
            surface = Cylinder(
                _vec3(sobj.get("axis_point", _ABSENT), "faces", i, "surface", "axis_point"),
                _unit3(sobj.get("axis_dir", _ABSENT), units, "faces", i, "surface", "axis_dir"), radius)
        else:
            raise _error(skind, f"unknown surface kind {skind!r}", "faces", i, "surface", "kind")
        same_sense = f.get("same_sense", _ABSENT)
        if type(same_sense) is not bool:
            raise _error(same_sense, "expected boolean", "faces", i, "same_sense")
        bounds = _uses(f, "bounds", "loop", "outer", loops, "faces", i)
        if sum(outer for _, outer in bounds) != 1:
            raise SchemaError(f"/faces/{i}/bounds", "exactly one outer bound required")
        faces[fid] = Face(fid, surface, same_sense, bounds)

    return name, vertices, edges, loops, faces
