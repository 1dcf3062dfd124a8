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
  about the circle axis. Coincident endpoints mean a full circle.
* Face loop orientation as authored is not trusted: planar areas are computed
  from absolute loop areas (outer minus holes), which makes the result
  independent of traversal direction.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Union

from .geom import TOL, Vec3, distance, plane_basis, vec


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


class NonManifoldEdge(BrepError):
    def __init__(self, edge_id: int, count: int):
        super().__init__(f"edge {edge_id} is used by {count} face loops, expected 2")
        self.edge_id = edge_id
        self.count = count


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


@dataclass(frozen=True)
class Line:
    point: Vec3
    direction: Vec3  # unit


@dataclass(frozen=True)
class Circle:
    center: Vec3
    axis: Vec3  # unit
    radius: float

    def __post_init__(self) -> None:
        if not self.radius > 0:
            raise ValueError(f"circle radius must be positive, got {self.radius}")


CurveGeometry = Union[Line, Circle]


@dataclass(frozen=True)
class Plane:
    origin: Vec3
    normal: Vec3  # unit


@dataclass(frozen=True)
class Cylinder:
    axis_point: Vec3
    axis_dir: Vec3  # unit
    radius: float

    def __post_init__(self) -> None:
        if not self.radius > 0:
            raise ValueError(f"cylinder radius must be positive, got {self.radius}")


SurfaceGeometry = Union[Plane, Cylinder]


@dataclass(frozen=True)
class Edge:
    id: int
    curve: CurveGeometry
    start: int  # vertex id
    end: int    # vertex id; start == end only for full circles


@dataclass(frozen=True)
class Loop:
    id: int
    oriented_edges: tuple[tuple[int, bool], ...]  # (edge id, sense)


@dataclass(frozen=True)
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
    """Closed-shell B-Rep with an eagerly built edge -> face-use index."""

    def __init__(
        self,
        name: str,
        vertices: dict[int, Vec3],
        edges: dict[int, Edge],
        loops: dict[int, Loop],
        faces: dict[int, Face],
    ):
        self.name = name
        self.vertices = dict(vertices)
        self.edges = dict(edges)
        self.loops = dict(loops)
        self.faces = dict(faces)
        self._check_references()
        # Adjacency counts every loop use; a well-formed solid has two uses per edge.
        uses: dict[int, list[int]] = {eid: [] for eid in self.edges}
        for f in self.faces.values():
            for lid, _ in f.bounds:
                for eid, _sense in self.loops[lid].oriented_edges:
                    uses[eid].append(f.id)
        self.edge_uses: dict[int, tuple[int, ...]] = {
            eid: tuple(fids) for eid, fids in uses.items()
        }

    def _check_references(self) -> None:
        for e in self.edges.values():
            for vid in (e.start, e.end):
                if vid not in self.vertices:
                    raise BrepError(f"edge {e.id} references unknown vertex {vid}")
        for lp in self.loops.values():
            for eid, _ in lp.oriented_edges:
                if eid not in self.edges:
                    raise BrepError(f"loop {lp.id} references unknown edge {eid}")
        for f in self.faces.values():
            for lid, _ in f.bounds:
                if lid not in self.loops:
                    raise BrepError(f"face {f.id} references unknown loop {lid}")

    def vertex(self, vid: int) -> Vec3:
        return self.vertices[vid]


def _arc_sweep(circle: Circle, start: Vec3, end: Vec3) -> float:
    """Angle swept CCW about the circle axis from start to end, in (0, 2*pi]."""
    u = start - circle.center
    u = u - circle.axis * u.dot(circle.axis)
    n = u.norm()
    if n <= TOL:
        raise BrepError("arc start point coincides with the circle center")
    u = u * (1.0 / n)
    v = circle.axis.cross(u)
    w = end - circle.center
    ang = math.atan2(w.dot(v), w.dot(u))
    if ang < 0:
        ang += 2.0 * math.pi
    return ang


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
    if edge.start == edge.end or distance(a, b) <= TOL:
        return 2.0 * math.pi * edge.curve.radius
    return edge.curve.radius * _arc_sweep(edge.curve, a, b)


def face_normal(face: Face) -> Vec3:
    """Outward normal of a planar face (plane normal flipped by same_sense)."""
    if not isinstance(face.surface, Plane):
        raise NonPlanarFace(face.id)
    n = face.surface.normal
    return n if face.same_sense else -n


def _loop_signed_area(solid: Solid, loop: Loop, origin: Vec3, u: Vec3, v: Vec3, n: Vec3) -> float:
    """Green's-theorem area of one loop in the (u, v) plane frame.

    Straight segments contribute the shoelace cross term; arcs contribute
    the exact integral r^2*phi/2 plus the chordal part, with phi signed by
    traversal direction and by the circle axis relative to the face normal.
    Projections are spelled out on coordinates, in Vec3's operand order.
    """
    ox, oy, oz = origin
    ux, uy, uz = u
    vx, vy, vz = v
    vertices = solid.vertices
    total = 0.0
    for eid, sense in loop.oriented_edges:
        edge = solid.edges[eid]
        a = vertices[edge.start]
        b = vertices[edge.end]
        if not sense:
            a, b = b, a
        ax, ay, az = a[0] - ox, a[1] - oy, a[2] - oz
        bx, by, bz = b[0] - ox, b[1] - oy, b[2] - oz
        ua, va = ax * ux + ay * uy + az * uz, ax * vx + ay * vy + az * vz
        ub, vb = bx * ux + by * uy + bz * uz, bx * vx + by * vy + bz * vz
        if isinstance(edge.curve, Line):
            total += 0.5 * (ua * vb - ub * va)
        else:
            circ = edge.curve
            if edge.start == edge.end or distance(a, b) <= TOL:
                sweep = 2.0 * math.pi
            else:
                sweep = _arc_sweep(circ, vertices[edge.start], vertices[edge.end])
            signed = sweep * (1.0 if sense else -1.0) * (1.0 if circ.axis.dot(n) > 0 else -1.0)
            cx, cy, cz = circ.center
            cx, cy, cz = cx - ox, cy - oy, cz - oz
            cu, cv = cx * ux + cy * uy + cz * uz, cx * vx + cy * vy + cz * vz
            total += 0.5 * (circ.radius * circ.radius * signed + cu * (vb - va) - cv * (ub - ua))
    return total


def face_area(face: Face, solid: Solid) -> float:
    """Planar face area: |outer loop area| minus the hole loop areas."""
    if not isinstance(face.surface, Plane):
        raise NonPlanarFace(face.id)
    n = face_normal(face)
    u, v = plane_basis(n)
    origin = face.surface.origin
    outer = 0.0
    holes = 0.0
    for lid, is_outer in face.bounds:
        area = abs(_loop_signed_area(solid, solid.loops[lid], origin, u, v, n))
        if is_outer:
            outer += area
        else:
            holes += area
    return outer - holes


def edge_adjacent_faces(solid: Solid, edge_id: int) -> tuple[int, int]:
    """The exactly-two faces whose loops use edge_id."""
    if edge_id not in solid.edges:
        raise UnknownEdge(edge_id)
    uses = solid.edge_uses[edge_id]
    if len(uses) != 2:
        raise NonManifoldEdge(edge_id, len(uses))
    return (uses[0], uses[1])


@dataclass(frozen=True)
class Violation:
    kind: str
    message: str
    subject_id: int | None = None


def _loop_chains(solid: Solid, loop: Loop) -> bool:
    if not loop.oriented_edges:
        return False
    ends: list[tuple[int, int]] = []
    for eid, sense in loop.oriented_edges:
        e = solid.edges[eid]
        ends.append((e.start, e.end) if sense else (e.end, e.start))
    for (_, cur_end), (nxt_start, _) in zip(ends, ends[1:] + ends[:1]):
        if cur_end != nxt_start:
            return False
    return True


def validate_manifold(solid: Solid) -> list[Violation]:
    """Topology and incidence report; empty means the solid is a closed 2-manifold."""
    out: list[Violation] = []
    for eid, uses in solid.edge_uses.items():
        if len(uses) != 2:
            out.append(Violation(
                "non_manifold_edge",
                f"edge {eid} used by {len(uses)} face loops (faces {sorted(set(uses))})",
                eid,
            ))
    for lp in solid.loops.values():
        if not _loop_chains(solid, lp):
            out.append(Violation("open_loop", f"loop {lp.id} does not chain into a closed cycle", lp.id))
    for f in solid.faces.values():
        n_outer = len(f.outer_loops())
        if n_outer != 1:
            out.append(Violation("bad_outer_bound", f"face {f.id} has {n_outer} outer bounds, expected 1", f.id))
    for e in solid.edges.values():
        for vid in (e.start, e.end):
            p = solid.vertex(vid)
            if isinstance(e.curve, Line):
                off = (p - e.curve.point).cross(e.curve.direction).norm()
                if off > TOL:
                    out.append(Violation(
                        "endpoint_off_curve",
                        f"edge {e.id}: vertex {vid} is {off:.3g} mm off its line",
                        e.id,
                    ))
                continue
            circ = e.curve
            radial = p - circ.center
            off_plane = abs(radial.dot(circ.axis))
            off_radius = abs((radial - circ.axis * radial.dot(circ.axis)).norm() - circ.radius)
            if off_plane > TOL or off_radius > TOL:
                out.append(Violation(
                    "endpoint_off_curve",
                    f"edge {e.id}: vertex {vid} is off its circle by "
                    f"(plane {off_plane:.3g}, radius {off_radius:.3g}) mm",
                    e.id,
                ))
    # Planar faces: boundary vertices must lie on the plane; cylinders: at radius.
    for f in solid.faces.values():
        vids: set[int] = set()
        for lid, _ in f.bounds:
            for eid, _ in solid.loops[lid].oriented_edges:
                e = solid.edges[eid]
                vids.update((e.start, e.end))
        if isinstance(f.surface, Plane):
            pl = f.surface
            for vid in vids:
                d = abs((solid.vertex(vid) - pl.origin).dot(pl.normal))
                if d > TOL:
                    out.append(Violation(
                        "vertex_off_surface",
                        f"face {f.id}: vertex {vid} is {d:.3g} mm off the face plane",
                        f.id,
                    ))
        else:
            cyl = f.surface
            for vid in vids:
                r = solid.vertex(vid) - cyl.axis_point
                rad = (r - cyl.axis_dir * r.dot(cyl.axis_dir)).norm()
                if abs(rad - cyl.radius) > TOL:
                    out.append(Violation(
                        "vertex_off_surface",
                        f"face {f.id}: vertex {vid} is {abs(rad - cyl.radius):.3g} mm off the cylinder",
                        f.id,
                    ))
    return out


# ---------------------------------------------------------------------------
# Native JSON interchange
# ---------------------------------------------------------------------------

def _req(obj: dict, key: str, path: str):
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected object, got {type(obj).__name__}")
    if key not in obj:
        raise SchemaError(f"{path}/{key}", "missing required key")
    return obj[key]


def _num(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, f"expected number, got {type(value).__name__}")
    if not math.isfinite(value):
        raise SchemaError(path, "number must be finite")
    return float(value)


def _vec3(value, path: str) -> Vec3:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise SchemaError(path, "expected [x, y, z]")
    return vec(*(_num(c, f"{path}/{i}") for i, c in enumerate(value)))


def _unit3(value, path: str) -> Vec3:
    v = _vec3(value, path)
    try:
        return v.normalized()
    except ValueError:
        raise SchemaError(path, "direction must be non-zero") from None


def _int_id(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, f"expected integer id, got {value!r}")
    return value


def load_brep_json(text: str, default_name: str = "") -> Solid:
    """Decode the native JSON B-Rep interchange document into a Solid.

    Top-level keys: name, vertices, edges, loops, faces. See the README for
    the full schema. Violations raise SchemaError with a JSON-pointer path.
    A missing or empty name becomes ``default_name``.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("/", f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError("/", "top level must be an object")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise SchemaError("/name", "expected string")

    vertices: dict[int, Vec3] = {}
    for i, v in enumerate(_list(doc, "vertices")):
        path = f"/vertices/{i}"
        vid = _int_id(_req(v, "id", path), f"{path}/id")
        if vid in vertices:
            raise SchemaError(f"{path}/id", f"duplicate vertex id {vid}")
        vertices[vid] = vec(
            _num(_req(v, "x", path), f"{path}/x"),
            _num(_req(v, "y", path), f"{path}/y"),
            _num(_req(v, "z", path), f"{path}/z"),
        )

    edges: dict[int, Edge] = {}
    for i, e in enumerate(_list(doc, "edges")):
        path = f"/edges/{i}"
        eid = _int_id(_req(e, "id", path), f"{path}/id")
        if eid in edges:
            raise SchemaError(f"{path}/id", f"duplicate edge id {eid}")
        start = _int_id(_req(e, "start", path), f"{path}/start")
        end = _int_id(_req(e, "end", path), f"{path}/end")
        for vid, key in ((start, "start"), (end, "end")):
            if vid not in vertices:
                raise SchemaError(f"{path}/{key}", f"unknown vertex {vid}")
        cobj = _req(e, "curve", path)
        ckind = _req(cobj, "kind", f"{path}/curve")
        if ckind == "line":
            try:
                direction = (vertices[end] - vertices[start]).normalized()
            except ValueError:
                raise SchemaError(path, "line edge with coincident endpoints") from None
            curve: CurveGeometry = Line(vertices[start], direction)
        elif ckind == "circle":
            radius = _num(_req(cobj, "radius", f"{path}/curve"), f"{path}/curve/radius")
            if radius <= 0:
                raise SchemaError(f"{path}/curve/radius", "radius must be > 0")
            curve = Circle(
                _vec3(_req(cobj, "center", f"{path}/curve"), f"{path}/curve/center"),
                _unit3(_req(cobj, "axis", f"{path}/curve"), f"{path}/curve/axis"),
                radius,
            )
        else:
            raise SchemaError(f"{path}/curve/kind", f"unknown curve kind {ckind!r}")
        edges[eid] = Edge(eid, curve, start, end)

    loops: dict[int, Loop] = {}
    for i, lp in enumerate(_list(doc, "loops")):
        path = f"/loops/{i}"
        lid = _int_id(_req(lp, "id", path), f"{path}/id")
        if lid in loops:
            raise SchemaError(f"{path}/id", f"duplicate loop id {lid}")
        oriented: list[tuple[int, bool]] = []
        raw = _req(lp, "oriented_edges", path)
        if not isinstance(raw, list) or not raw:
            raise SchemaError(f"{path}/oriented_edges", "expected non-empty list")
        for j, oe in enumerate(raw):
            opath = f"{path}/oriented_edges/{j}"
            eid = _int_id(_req(oe, "edge", opath), f"{opath}/edge")
            if eid not in edges:
                raise SchemaError(f"{opath}/edge", f"unknown edge {eid}")
            sense = _req(oe, "sense", opath)
            if not isinstance(sense, bool):
                raise SchemaError(f"{opath}/sense", "expected boolean")
            oriented.append((eid, sense))
        loops[lid] = Loop(lid, tuple(oriented))

    faces: dict[int, Face] = {}
    for i, f in enumerate(_list(doc, "faces")):
        path = f"/faces/{i}"
        fid = _int_id(_req(f, "id", path), f"{path}/id")
        if fid in faces:
            raise SchemaError(f"{path}/id", f"duplicate face id {fid}")
        sobj = _req(f, "surface", path)
        skind = _req(sobj, "kind", f"{path}/surface")
        if skind == "plane":
            surface: SurfaceGeometry = Plane(
                _vec3(_req(sobj, "origin", f"{path}/surface"), f"{path}/surface/origin"),
                _unit3(_req(sobj, "normal", f"{path}/surface"), f"{path}/surface/normal"),
            )
        elif skind == "cylinder":
            radius = _num(_req(sobj, "radius", f"{path}/surface"), f"{path}/surface/radius")
            if radius <= 0:
                raise SchemaError(f"{path}/surface/radius", "radius must be > 0")
            surface = Cylinder(
                _vec3(_req(sobj, "axis_point", f"{path}/surface"), f"{path}/surface/axis_point"),
                _unit3(_req(sobj, "axis_dir", f"{path}/surface"), f"{path}/surface/axis_dir"),
                radius,
            )
        else:
            raise SchemaError(f"{path}/surface/kind", f"unknown surface kind {skind!r}")
        same_sense = _req(f, "same_sense", path)
        if not isinstance(same_sense, bool):
            raise SchemaError(f"{path}/same_sense", "expected boolean")
        bounds: list[tuple[int, bool]] = []
        braw = _req(f, "bounds", path)
        if not isinstance(braw, list) or not braw:
            raise SchemaError(f"{path}/bounds", "expected non-empty list")
        for j, b in enumerate(braw):
            bpath = f"{path}/bounds/{j}"
            lid = _int_id(_req(b, "loop", bpath), f"{bpath}/loop")
            if lid not in loops:
                raise SchemaError(f"{bpath}/loop", f"unknown loop {lid}")
            outer = _req(b, "outer", bpath)
            if not isinstance(outer, bool):
                raise SchemaError(f"{bpath}/outer", "expected boolean")
            bounds.append((lid, outer))
        if sum(1 for _, outer in bounds if outer) != 1:
            raise SchemaError(f"{path}/bounds", "exactly one outer bound required")
        faces[fid] = Face(fid, surface, same_sense, tuple(bounds))

    return Solid(name or default_name, vertices, edges, loops, faces)


def _list(doc: dict, key: str) -> list:
    if key not in doc:
        raise SchemaError(f"/{key}", "missing required key")
    value = doc[key]
    if not isinstance(value, list):
        raise SchemaError(f"/{key}", "expected list")
    return value


def planar_faces(solid: Solid) -> list[Face]:
    return [f for f in solid.faces.values() if isinstance(f.surface, Plane)]

