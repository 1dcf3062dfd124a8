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
from dataclasses import dataclass
from typing import Union

from .geom import TOL, Vec3, distance, plane_basis


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


@dataclass(frozen=True, slots=True)
class Line:
    point: Vec3
    direction: Vec3  # unit


@dataclass(frozen=True, slots=True)
class Circle:
    center: Vec3
    axis: Vec3  # unit
    radius: float

    def __post_init__(self) -> None:
        if not self.radius > 0:
            raise ValueError(f"circle radius must be positive, got {self.radius}")


CurveGeometry = Union[Line, Circle]


@dataclass(frozen=True, slots=True)
class Plane:
    origin: Vec3
    normal: Vec3  # unit


@dataclass(frozen=True, slots=True)
class Cylinder:
    axis_point: Vec3
    axis_dir: Vec3  # unit
    radius: float

    def __post_init__(self) -> None:
        if not self.radius > 0:
            raise ValueError(f"cylinder radius must be positive, got {self.radius}")


SurfaceGeometry = Union[Plane, Cylinder]


@dataclass(frozen=True, slots=True)
class Edge:
    id: int
    curve: CurveGeometry
    start: int  # vertex id
    end: int    # vertex id; start == end only for full circles


@dataclass(frozen=True, slots=True)
class Loop:
    id: int
    oriented_edges: tuple[tuple[int, bool], ...]  # (edge id, sense)


@dataclass(frozen=True, slots=True)
class Face:
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
    must not change them afterwards.
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
        uses: dict[int, list[int]] = {}
        for eid, e in self.edges.items():
            for vid in (e.start, e.end):
                if vid not in self.vertices:
                    raise BrepError(f"edge {e.id} references unknown vertex {vid}")
            uses[eid] = []
        loop_uses: dict[int, list[list[int]]] = {}
        for lid, lp in self.loops.items():
            try:
                loop_uses[lid] = [uses[eid] for eid, _ in lp.oriented_edges]
            except KeyError as exc:
                raise BrepError(f"loop {lp.id} references unknown edge {exc.args[0]}") from None
        for f in self.faces.values():
            for lid, _ in f.bounds:
                if lid not in loop_uses:
                    raise BrepError(f"face {f.id} references unknown loop {lid}")
                for fids in loop_uses[lid]:
                    fids.append(f.id)
        self.edge_uses: dict[int, tuple[int, ...]] = {
            eid: tuple(fids) for eid, fids in uses.items()
        }

    def vertex(self, vid: int) -> Vec3:
        return self.vertices[vid]


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


def _walk_face(solid: Solid, face: Face) -> tuple[list[Vec3], float | None]:
    """One pass over a face's bounds, loops and edges: its sample points and,
    for a planar face, its area.

    The samples are seven interior points on each arc use, then the boundary
    vertices. The area is |outer loop area| minus the hole loop areas, each
    loop's by Green's theorem in the (u, v) = plane_basis(normal) frame:
    straight segments contribute the shoelace cross term; arcs contribute the
    exact integral r^2*phi/2 plus the chordal part, with phi signed by
    traversal direction and by the circle axis relative to the face normal.
    Projections are spelled out on coordinates, in Vec3's operand order.
    An area that is not finite is a :class:`BrepError`.
    """
    vertices, edges = solid.vertices, solid.edges
    planar = isinstance(face.surface, Plane)
    if planar:
        n = face_normal(face)
        (ox, oy, oz), ((ux, uy, uz), (vx, vy, vz)) = face.surface.origin, plane_basis(n)
    vids: set[int] = set()
    pts: list[Vec3] = []
    outer = holes = 0.0
    for lid, is_outer in face.bounds:
        total = 0.0
        for eid, sense in solid.loops[lid].oriented_edges:
            edge = edges[eid]
            vids.update((edge.start, edge.end))
            a, b = vertices[edge.start], vertices[edge.end]
            circ = edge.curve
            if isinstance(circ, Circle):
                full = _full_circle(edge, a, b)
                (aux, auy, auz), (avx, avy, avz), sweep = _arc_frame(circ, a, None if full else b)
                # center + u * (r cos) + v * (r sin), on coordinates in Vec3's operand order.
                cx, cy, cz = circ.center
                for k in range(1, 8):
                    ang = sweep * k / 8.0
                    c, s = circ.radius * math.cos(ang), circ.radius * math.sin(ang)
                    pts.append(Vec3(cx + aux * c + avx * s, cy + auy * c + avy * s,
                                    cz + auz * c + avz * s))
            if not planar:
                continue
            if not sense:
                a, b = b, a
            ax, ay, az = a[0] - ox, a[1] - oy, a[2] - oz
            bx, by, bz = b[0] - ox, b[1] - oy, b[2] - oz
            ua, va = ax * ux + ay * uy + az * uz, ax * vx + ay * vy + az * vz
            ub, vb = bx * ux + by * uy + bz * uz, bx * vx + by * vy + bz * vz
            if isinstance(circ, Line):
                total += 0.5 * (ua * vb - ub * va)
            else:
                signed = sweep * (1.0 if sense else -1.0) * (1.0 if circ.axis.dot(n) > 0 else -1.0)
                cx, cy, cz = cx - ox, cy - oy, cz - oz
                cu, cv = cx * ux + cy * uy + cz * uz, cx * vx + cy * vy + cz * vz
                total += 0.5 * (circ.radius * circ.radius * signed + cu * (vb - va) - cv * (ub - ua))
        if is_outer:
            outer += abs(total)
        else:
            holes += abs(total)
    pts += [vertices[vid] for vid in vids]
    if not planar:
        return pts, None
    area = outer - holes
    if not math.isfinite(area):
        # The shoelace products of a part this large overflow.
        raise BrepError(f"face {face.id} is too large to measure: its area is not finite ({area})")
    return pts, area


def face_area(face: Face, solid: Solid) -> float:
    """Planar face area: |outer loop area| minus the hole loop areas."""
    if not isinstance(face.surface, Plane):
        raise NonPlanarFace(face.id)
    return _walk_face(solid, face)[1]


@dataclass(frozen=True, slots=True)
class Violation:
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
    for lp in solid.loops.values():
        # Each edge, taken in its sense, must end where the next one starts.
        tails, heads = [], []
        for eid, sense in lp.oriented_edges:
            e = edges[eid]
            tails.append(e.start if sense else e.end)
            heads.append(e.end if sense else e.start)
        if not tails or heads != tails[1:] + tails[:1]:
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
            elif p is not curve.point:  # (p - p) x d is 0 or NaN: JSON lines start at a vertex
                (x, y, z), (qx, qy, qz), (dx, dy, dz) = p, curve.point, curve.direction
                x, y, z = x - qx, y - qy, z - qz
                x, y, z = y * dz - z * dy, z * dx - x * dz, x * dy - y * dx
                off = math.sqrt(x * x + y * y + z * z)
                if off > TOL:
                    add(Violation("endpoint_off_curve",
                                  f"edge {e.id}: vertex {vid} is {off:.3g} mm off its line", e.id))
    # Planar faces: boundary vertices must lie on the plane; cylinders: at radius.
    for f in solid.faces.values():
        vids: set[int] = set()
        for lid, _ in f.bounds:
            for eid, _ in solid.loops[lid].oriented_edges:
                e = edges[eid]
                vids.update((e.start, e.end))
        surface = f.surface
        if isinstance(surface, Plane):
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
    """Three JSON numbers as a Vec3; ``keys`` name them in an error's path."""
    if not (type(x) is float and type(y) is float and type(z) is float
            and _finite(x) and _finite(y) and _finite(z)):
        x, y, z = (_num(c, *where, k) for c, k in zip((x, y, z), keys))
    return Vec3(x, y, z)


def _vec3(value, *where) -> Vec3:
    if type(value) is not list or len(value) != 3:
        raise _error(value, "expected [x, y, z]", *where)
    return _coords(*value, range(3), *where)


def _unit3(value, *where) -> Vec3:
    try:
        return _vec3(value, *where).normalized()
    except ValueError:
        raise _error(value, "direction must be non-zero", *where) from None


def _radius(value, *where) -> float:
    radius = _num(value, *where)
    if radius <= 0:
        raise _error(value, "radius must be > 0", *where)
    return radius


def _elements(doc: dict, key: str, kind: str, seen: dict):
    """``(index, item, id)`` per item of the list ``doc[key]``: an object with an id new to ``seen``.

    The list is taken out of ``doc``, so a section is freed once its items are read."""
    items = doc.pop(key, _ABSENT)
    if type(items) is not list:
        raise _error(items, "expected list", key)
    for i, item in enumerate(items):
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
    objects, as ``(id, flag)`` pairs: a loop's oriented edges, a face's bounds."""
    raw = owner.get(key, _ABSENT)
    if type(raw) is not list or not raw:
        raise _error(raw, "expected non-empty list", *where, key)
    pairs = []
    for j, item in enumerate(raw):
        if type(item) is not dict:
            raise _error(item, f"expected object, got {type(item).__name__}", *where, key, j)
        rid, value = item.get(ref, _ABSENT), item.get(flag, _ABSENT)
        if type(rid) is not int:
            raise _not_id(rid, *where, key, j, ref)
        if rid not in table:
            raise _error(rid, f"unknown {ref} {rid}", *where, key, j, ref)
        if type(value) is not bool:
            raise _error(value, "expected boolean", *where, key, j, flag)
        pairs.append((rid, value))
    return tuple(pairs)


def load_brep_json(text: str, default_name: str = "") -> Solid:
    """Decode the native JSON B-Rep interchange document into a Solid.

    Top-level keys: name, vertices, edges, loops, faces. See the README for
    the full schema. Violations raise SchemaError with a JSON-pointer path.
    A missing or empty name becomes ``default_name``.

    Only one full copy of the part is kept alive: the text is dropped once
    decoded, and each section of the decoded document once read. A caller
    that passes the text without keeping it lets it be freed here.
    """
    try:
        doc = json.loads(text)
    except RecursionError:
        raise SchemaError("/", "not valid JSON: nested too deeply") from None
    except ValueError as exc:  # malformed, or an integer past the digit limit
        raise SchemaError("/", f"not valid JSON: {exc}") from None
    del text
    if type(doc) is not dict:
        raise SchemaError("/", "top level must be an object")
    name = doc.get("name", "")
    if type(name) is not str:
        raise SchemaError("/name", "expected string")

    vertices: dict[int, Vec3] = {}
    for i, v, vid in _elements(doc, "vertices", "vertex", vertices):
        vertices[vid] = _coords(v.get("x", _ABSENT), v.get("y", _ABSENT), v.get("z", _ABSENT),
                                "xyz", "vertices", i)

    edges: dict[int, Edge] = {}
    for i, e, eid in _elements(doc, "edges", "edge", edges):
        start, end = e.get("start", _ABSENT), e.get("end", _ABSENT)
        if type(start) is not int:
            raise _not_id(start, "edges", i, "start")
        if type(end) is not int:
            raise _not_id(end, "edges", i, "end")
        if start not in vertices:
            raise SchemaError(f"/edges/{i}/start", f"unknown vertex {start}")
        if end not in vertices:
            raise SchemaError(f"/edges/{i}/end", f"unknown vertex {end}")
        cobj = e.get("curve", _ABSENT)
        if type(cobj) is not dict:
            raise _error(cobj, f"expected object, got {type(cobj).__name__}", "edges", i, "curve")
        ckind = cobj.get("kind", _ABSENT)
        if ckind == "line":
            a = vertices[start]
            try:
                curve: CurveGeometry = Line(a, (vertices[end] - a).normalized())
            except ValueError:
                raise SchemaError(f"/edges/{i}", "line edge with coincident endpoints") from None
        elif ckind == "circle":
            radius = _radius(cobj.get("radius", _ABSENT), "edges", i, "curve", "radius")
            curve = Circle(_vec3(cobj.get("center", _ABSENT), "edges", i, "curve", "center"),
                           _unit3(cobj.get("axis", _ABSENT), "edges", i, "curve", "axis"), radius)
        else:
            raise _error(ckind, f"unknown curve kind {ckind!r}", "edges", i, "curve", "kind")
        edges[eid] = Edge(eid, curve, start, end)

    loops: dict[int, Loop] = {}
    for i, lp, lid in _elements(doc, "loops", "loop", loops):
        loops[lid] = Loop(lid, _uses(lp, "oriented_edges", "edge", "sense", edges, "loops", i))

    faces: dict[int, Face] = {}
    for i, f, fid in _elements(doc, "faces", "face", faces):
        sobj = f.get("surface", _ABSENT)
        if type(sobj) is not dict:
            raise _error(sobj, f"expected object, got {type(sobj).__name__}", "faces", i, "surface")
        skind = sobj.get("kind", _ABSENT)
        if skind == "plane":
            surface: SurfaceGeometry = Plane(
                _vec3(sobj.get("origin", _ABSENT), "faces", i, "surface", "origin"),
                _unit3(sobj.get("normal", _ABSENT), "faces", i, "surface", "normal"))
        elif skind == "cylinder":
            radius = _radius(sobj.get("radius", _ABSENT), "faces", i, "surface", "radius")
            surface = Cylinder(
                _vec3(sobj.get("axis_point", _ABSENT), "faces", i, "surface", "axis_point"),
                _unit3(sobj.get("axis_dir", _ABSENT), "faces", i, "surface", "axis_dir"), radius)
        else:
            raise _error(skind, f"unknown surface kind {skind!r}", "faces", i, "surface", "kind")
        same_sense = f.get("same_sense", _ABSENT)
        if type(same_sense) is not bool:
            raise _error(same_sense, "expected boolean", "faces", i, "same_sense")
        bounds = _uses(f, "bounds", "loop", "outer", loops, "faces", i)
        if sum(outer for _, outer in bounds) != 1:
            raise SchemaError(f"/faces/{i}/bounds", "exactly one outer bound required")
        faces[fid] = Face(fid, surface, same_sense, bounds)

    return Solid(name or default_name, vertices, edges, loops, faces)

