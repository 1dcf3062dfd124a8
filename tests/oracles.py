"""Independent numeric oracles used to cross-check the geometry code.

The area oracle counts grid-cell centers inside a polygon-with-holes region
(ray casting for polygon membership, exact radius tests for circular holes)
and never touches the production Green's-theorem path. The sample oracle
builds a face's sample points as ``Vec3`` values, apart from the production
walk, which projects its samples without building them, and the Green's
theorem oracle sums a planar face's loops in ``Vec3`` arithmetic, projecting
both ends of every edge use, where the walk reuses a shared vertex's
projection. The manifold oracle is ``validate_manifold`` as it was before
its loop walk and its planar fast path: it lists each loop's tails and heads
and checks every face's vertex set. The unshared build makes the Solid of a
valid JSON document with no object shared between two places: each point
and unit vector is its own ``Vec3``, and each id the document's own int.
"""
from __future__ import annotations

import math

import numpy as np

from punchplan.brep import Circle, Cylinder, Edge, Face, Line, Loop, Plane, Solid, Violation
from punchplan.geom import TOL, Vec3, plane_basis


def _arc_frame(edge, circle, start: Vec3, end: Vec3) -> tuple[Vec3, Vec3, float]:
    """Unit axes (u toward start, v = axis x u) of an arc and its CCW sweep
    from start to end; an end at or within TOL of the start sweeps 2*pi."""
    u = start - circle.center
    u = u - circle.axis * u.dot(circle.axis)
    u = u * (1.0 / u.norm())
    v = circle.axis.cross(u)
    if edge.start == edge.end or (start - end).norm() <= TOL:
        return u, v, 2.0 * math.pi
    w = end - circle.center
    sweep = math.atan2(w.dot(v), w.dot(u))
    return u, v, sweep + 2.0 * math.pi if sweep < 0 else sweep


def face_samples(solid, face) -> list[Vec3]:
    """A face's sample points, built with Vec3 arithmetic: for each arc use,
    in bound, loop and edge order, the seven interior points at sweep*k/8
    (k = 1..7) counterclockwise about the circle axis from its start vertex,
    then the face's boundary vertices once each. An arc whose end vertex is
    its start, or lies within TOL of it, is a full circle."""
    points: list[Vec3] = []
    vids: set[int] = set()
    for lid, _ in face.bounds:
        for eid, _ in solid.loops[lid].oriented_edges:
            edge = solid.edges[eid]
            vids.update((edge.start, edge.end))
            circle = edge.curve
            if not isinstance(circle, Circle):
                continue
            u, v, sweep = _arc_frame(edge, circle, solid.vertices[edge.start],
                                     solid.vertices[edge.end])
            for k in range(1, 8):
                ang = sweep * k / 8.0
                points.append(circle.center + u * (circle.radius * math.cos(ang))
                              + v * (circle.radius * math.sin(ang)))
    return points + [solid.vertices[vid] for vid in vids]


def face_area(solid, face) -> float:
    """A planar face's area by Green's theorem per edge use, in Vec3
    arithmetic: |outer loop area| minus the hole loop areas. A loop's area is
    the sum over its uses, each from tail a to head b in the face's
    (u, v) = plane_basis(outward normal) frame about the plane origin, of
    (ua*vb - ub*va)/2 for a line, and for an arc of (r^2*phi + cu*(vb - va)
    - cv*(ub - ua))/2, with c its center and phi its sweep signed by the use's
    sense and by the circle axis against the normal."""
    plane = face.surface
    n = plane.normal if face.same_sense else -plane.normal
    u, v = plane_basis(n)
    outer = holes = 0.0
    for lid, is_outer in face.bounds:
        total = 0.0
        for eid, sense in solid.loops[lid].oriented_edges:
            edge = solid.edges[eid]
            a, b = solid.vertices[edge.start], solid.vertices[edge.end]
            curve = edge.curve
            if isinstance(curve, Circle):
                sweep = _arc_frame(edge, curve, a, b)[2]
            if not sense:
                a, b = b, a
            ua, va = (a - plane.origin).dot(u), (a - plane.origin).dot(v)
            ub, vb = (b - plane.origin).dot(u), (b - plane.origin).dot(v)
            if not isinstance(curve, Circle):
                total += 0.5 * (ua * vb - ub * va)
                continue
            phi = sweep * (1.0 if sense else -1.0) * (1.0 if curve.axis.dot(n) > 0 else -1.0)
            cu, cv = (curve.center - plane.origin).dot(u), (curve.center - plane.origin).dot(v)
            total += 0.5 * (curve.radius * curve.radius * phi + cu * (vb - va) - cv * (ub - ua))
        if is_outer:
            outer += abs(total)
        else:
            holes += abs(total)
    return outer - holes


def polygon_contains(px: np.ndarray, py: np.ndarray,
                     poly: list[tuple[float, float]]) -> np.ndarray:
    """Even-odd ray-casting membership for many points at once."""
    inside = np.zeros(px.shape, dtype=bool)
    n = len(poly)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(n):
            x1, y1 = poly[i]
            x2, y2 = poly[(i + 1) % n]
            crosses = (y1 > py) != (y2 > py)
            xs = (x2 - x1) * (py - y1) / (y2 - y1) + x1
            inside ^= crosses & (px < xs)
    return inside


def grid_area(outer: list[tuple[float, float]],
              rect_holes: list[tuple[float, float, float, float]] = (),
              circle_holes: list[tuple[float, float, float]] = (),
              cell: float = 0.1) -> float:
    """Point-membership area estimate on a uniform grid of cell centers."""
    xs = [p[0] for p in outer]
    ys = [p[1] for p in outer]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    gx = np.arange(x0 + cell / 2, x1, cell)
    gy = np.arange(y0 + cell / 2, y1, cell)
    px, py = np.meshgrid(gx, gy)
    px = px.ravel()
    py = py.ravel()
    inside = polygon_contains(px, py, outer)
    for rx0, ry0, rx1, ry1 in rect_holes:
        inside &= ~((px > rx0) & (px < rx1) & (py > ry0) & (py < ry1))
    for cx, cy, r in circle_holes:
        inside &= (px - cx) ** 2 + (py - cy) ** 2 >= r * r
    return float(np.count_nonzero(inside)) * cell * cell


def random_polygon_with_holes(rng):
    """Random rectilinear outer boundary plus disjoint rect/circle holes.

    Returns (outer points, rect holes, circle holes, exact area).
    """
    w = rng.choice([40, 60, 80, 100])
    d = rng.choice([30, 50, 70])
    shape = rng.choice(["rect", "lshape"])
    if shape == "rect":
        outer = [(0, 0), (w, 0), (w, d), (0, d)]
        outer_area = w * d
        # Keep holes inside the full rectangle.
        usable = (0.0, 0.0, float(w), float(d))
    else:
        # L shape: full rectangle minus its top-right quadrant.
        nx, ny = w / 2, d / 2
        outer = [(0, 0), (w, 0), (w, ny), (nx, ny), (nx, d), (0, d)]
        outer_area = w * d - (w - nx) * (d - ny)
        usable = (0.0, 0.0, nx, ny)  # lower-left quadrant is always interior
    ux0, uy0, ux1, uy1 = usable

    def half_grid(lo: float, hi: float) -> float | None:
        # Multiples of 0.5 in [lo, hi]: keeps straight boundaries off the
        # grid of cell centers, so the rectilinear part of the count is exact.
        lo_i, hi_i = int(np.ceil(lo * 2)), int(np.floor(hi * 2))
        if hi_i < lo_i:
            return None
        return rng.randint(lo_i, hi_i) / 2.0

    rects: list[tuple[float, float, float, float]] = []
    circles: list[tuple[float, float, float]] = []
    holes_area = 0.0
    occupied: list[tuple[float, float, float, float]] = []
    for _ in range(rng.randint(0, 3)):
        for _attempt in range(10):
            if rng.random() < 0.5:
                hw = rng.choice([4, 6, 8])
                hl = rng.choice([4, 6])
                hx = half_grid(ux0 + 2, ux1 - 2 - hw)
                hy = half_grid(uy0 + 2, uy1 - 2 - hl)
                if hx is None or hy is None:
                    continue
                box = (hx, hy, hx + hw, hy + hl)
                cand = ("rect", box, float(hw * hl))
            else:
                r = rng.choice([2.0, 3.0, 5.0])
                cx = half_grid(ux0 + r + 2, ux1 - r - 2)
                cy = half_grid(uy0 + r + 2, uy1 - r - 2)
                if cx is None or cy is None:
                    continue
                box = (cx - r, cy - r, cx + r, cy + r)
                cand = ("circle", (cx, cy, r), float(np.pi * r * r))
            if any(not (box[2] + 1 < o[0] or o[2] + 1 < box[0]
                        or box[3] + 1 < o[1] or o[3] + 1 < box[1]) for o in occupied):
                continue
            occupied.append(box)
            if cand[0] == "rect":
                rects.append(cand[1])
            else:
                circles.append(cand[1])
            holes_area += cand[2]
            break
    return outer, rects, circles, outer_area - holes_area


def _from_axis(p: Vec3, origin: Vec3, axis: Vec3) -> tuple[float, float]:
    """``(p - origin) . axis`` and the distance of p from the axis line."""
    (x, y, z), (ox, oy, oz), (ax, ay, az) = p, origin, axis
    x, y, z = x - ox, y - oy, z - oz
    along = x * ax + y * ay + z * az
    x, y, z = x - ax * along, y - ay * along, z - az * along
    return along, math.sqrt(x * x + y * y + z * z)


def validate_manifold(solid) -> list[Violation]:
    """``brep.validate_manifold`` with lists of tails and heads per loop and a
    vertex set per face: the same violations, messages and order."""
    out: list[Violation] = []
    add = out.append
    vertices, edges = solid.vertices, solid.edges
    for eid, uses in solid.edge_uses.items():
        if len(uses) != 2:
            add(Violation("non_manifold_edge", f"edge {eid} used by {len(uses)} face loops "
                          f"(faces {sorted(set(uses))})", eid))
    for lp in solid.loops.values():
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
            elif p is not curve.point:
                (x, y, z), (qx, qy, qz), (dx, dy, dz) = p, curve.point, curve.direction
                x, y, z = x - qx, y - qy, z - qz
                x, y, z = y * dz - z * dy, z * dx - x * dz, x * dy - y * dx
                off = math.sqrt(x * x + y * y + z * z)
                if off > TOL:
                    add(Violation("endpoint_off_curve",
                                  f"edge {e.id}: vertex {vid} is {off:.3g} mm off its line", e.id))
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


def unshared_solid(doc: dict) -> Solid:
    """The Solid of a valid decoded JSON B-Rep document, built apart from the
    loader and with nothing shared: every coordinate goes through ``float``
    into a new Vec3, every unit vector is ``Vec3.normalized`` of its own
    Vec3 (a line's of end minus start), and every id is the document's int."""
    def point(c) -> Vec3:
        return Vec3(float(c[0]), float(c[1]), float(c[2]))

    vertices = {v["id"]: point((v["x"], v["y"], v["z"])) for v in doc["vertices"]}
    edges = {}
    for e in doc["edges"]:
        c = e["curve"]
        if c["kind"] == "line":
            a, b = vertices[e["start"]], vertices[e["end"]]
            curve = Line(a, (b - a).normalized())
        else:
            curve = Circle(point(c["center"]), point(c["axis"]).normalized(), float(c["radius"]))
        edges[e["id"]] = Edge(e["id"], curve, e["start"], e["end"])
    loops = {lp["id"]: Loop(lp["id"], tuple((u["edge"], u["sense"]) for u in lp["oriented_edges"]))
             for lp in doc["loops"]}
    faces = {}
    for f in doc["faces"]:
        s = f["surface"]
        if s["kind"] == "plane":
            surface = Plane(point(s["origin"]), point(s["normal"]).normalized())
        else:
            surface = Cylinder(point(s["axis_point"]), point(s["axis_dir"]).normalized(),
                               float(s["radius"]))
        faces[f["id"]] = Face(f["id"], surface, f["same_sense"],
                              tuple((b["loop"], b["outer"]) for b in f["bounds"]))
    return Solid(doc["name"], vertices, edges, loops, faces)
