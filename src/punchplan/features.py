"""Sheet-level facts and deformation-feature recognition.

The chain is: compute the sheet thickness, pick the reference face (largest
planar face), pair the remaining faces into walls (planar pairs one
thickness apart) and bends (coaxial cylinder pairs one thickness apart in
radius), group paired faces into connected features, and measure each
feature's height above the reference plane.

Every step reads one per-face geometry table (:class:`FaceTable`), built once
per solid: planar faces bucketed by outward normal and sorted by plane
offset; cylinders, which are few, are compared pairwise. A planar face is
compared only with the faces its buckets shortlist, and each shortlisted pair
goes through the same exact tests as a full pairwise scan would.
"""
from __future__ import annotations

import enum
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace

from . import brep
# face_area is not called here; it stays importable from this module, under whose
# name the benchmark's counting pass wraps it.
from .brep import Cylinder, Face, Plane, Solid, face_area, face_normal  # noqa: F401
from .geom import (
    _COS_ANGULAR_TOL,
    ANGULAR_TOL,
    FACING_DOT,
    TOL,
    Vec3,
    is_anti_parallel,
    is_parallel,
    plane_basis,
)


class RecognitionError(Exception):
    """Base class for sheet-recognition failures."""


class NoParallelPairs(RecognitionError):
    def __init__(self) -> None:
        super().__init__("no anti-parallel same-kind face pair exists; not a sheet-metal solid")


class NoPlanarFace(RecognitionError):
    def __init__(self) -> None:
        super().__init__("the solid has no planar face to serve as reference face")


class NoOppositeFace(RecognitionError):
    def __init__(self, rf: int, t: float):
        super().__init__(f"no planar face anti-parallel to face {rf} at distance {t}")
        self.reference_face = rf
        self.thickness = t


class AmbiguousPairing(RecognitionError):
    def __init__(self, face_id: int, candidates: list[int]):
        super().__init__(
            f"face {face_id} qualifies for {len(candidates)} partners at the sheet "
            f"thickness: {sorted(candidates)}"
        )
        self.face_id = face_id
        self.candidates = sorted(candidates)


class NoParallelFeatureFace(RecognitionError):
    def __init__(self, feature_id: int):
        super().__init__(
            f"feature {feature_id} has no planar face parallel to the reference face; "
            "supply its height explicitly"
        )
        self.feature_id = feature_id


@dataclass(frozen=True)
class SheetMetrics:
    thickness: float
    reference_face: int
    reference_normal: Vec3
    opposite_face: int


class Role(enum.Enum):
    REFERENCE = "reference"
    WALL = "wall"
    BEND = "bend"
    SIDE = "side"


@dataclass(frozen=True)
class FacePairing:
    roles: dict[int, Role]
    pairs: dict[int, tuple[int, int]]  # pair id -> the two face ids

    def role_of(self, face_id: int) -> Role:
        return self.roles[face_id]

    def is_member(self, face_id: int) -> bool:
        return self.roles[face_id] in (Role.WALL, Role.BEND)


class FeatureKind(enum.Enum):
    FORMED = "formed"
    CUT = "cut"
    MIXED = "mixed"


@dataclass(frozen=True)
class SheetFeature:
    id: int
    member_faces: frozenset[int]
    kind: FeatureKind
    interior_loops: frozenset[int]
    height: float | None = None


# ---------------------------------------------------------------------------
# Face geometry table
# ---------------------------------------------------------------------------

# Planar faces are bucketed by outward normal on a grid of _CELL per
# component. A lookup visits every cell within _REACH of the wanted normal,
# which covers every normal within ANGULAR_TOL of it (with margin for
# rounding), so bucketing never hides a pair the exact tests would accept.
_CELL = 1.0 / 1024
_REACH = 2.0 * ANGULAR_TOL


def _cell(n: Vec3) -> tuple[int, int, int]:
    return (round(n[0] / _CELL), round(n[1] / _CELL), round(n[2] / _CELL))


def _cells_near(n: Vec3) -> tuple[tuple[int, int, int], ...]:
    """Keys of every normal cell (see ``_cell``) within _REACH of n.

    _REACH is far below half a cell, so that is one or two cells per
    coordinate.
    """
    keys = [()]
    for c in n:
        span = range(round((c - _REACH) / _CELL), round((c + _REACH) / _CELL) + 1)
        keys = [k + (j,) for k in keys for j in span]
    return tuple(keys)


def _norm1(p: Vec3) -> float:
    return abs(p.x) + abs(p.y) + abs(p.z)


def _extent_along(points: list[Vec3], d: Vec3) -> tuple[float, float]:
    """Interval of ``p . d`` over the points, rounded exactly as Vec3.dot would."""
    dx, dy, dz = d
    return _interval([x * dx + y * dy + z * dz for x, y, z in points])


def _interval(values: list[float]) -> tuple[float, float]:
    # A face without boundary edges has the empty interval, which overlaps nothing.
    return (min(values), max(values)) if values else (math.inf, -math.inf)


def _overlaps(a_lo: float, a_hi: float, b_lo: float, b_hi: float) -> bool:
    return min(a_hi, b_hi) - max(a_lo, b_lo) > TOL


class FaceGeometry:
    """What recognition asks of one face, computed once.

    Planar faces carry the outward normal, the plane origin and offset along
    that normal, the area, and the sample-point intervals along the in-plane
    basis ``(u, v) = plane_basis(normal)``. Cylindrical faces carry the
    radius, the axis and the sample-point interval along the axis.
    ``measure`` is the pairing sort measure: the area, or the lateral area of
    the sampled axial span.
    """

    __slots__ = ("face", "id", "measure", "normal", "origin", "offset", "area",
                 "u_lo", "u_hi", "v_lo", "v_hi", "radius", "axis", "axis_lo", "axis_hi")

    def __init__(self, solid: Solid, face: Face):
        self.face = face
        self.id = face.id
        points, area = brep._walk_face(solid, face)
        surface = face.surface
        if isinstance(surface, Plane):
            self.normal = n = face_normal(face)
            self.origin = surface.origin
            self.offset = surface.origin.dot(n)
            self.area = self.measure = area
            u, v = plane_basis(n)
            self.u_lo, self.u_hi = _extent_along(points, u)
            self.v_lo, self.v_hi = _extent_along(points, v)
        else:
            self.normal = None
            self.radius = surface.radius
            self.axis = surface.axis_dir
            self.axis_lo, self.axis_hi = _extent_along(points, self.axis)
            self.measure = 2.0 * math.pi * surface.radius * (self.axis_hi - self.axis_lo)


def _signed_separation(a: FaceGeometry, b: FaceGeometry) -> float:
    """``(b.origin - a.origin).dot(a.normal)``, rounded exactly as Vec3 would."""
    ax, ay, az = a.origin
    bx, by, bz = b.origin
    nx, ny, nz = a.normal
    return (bx - ax) * nx + (by - ay) * ny + (bz - az) * nz


def _windows(center: float, distance: float, half_width: float) -> tuple[tuple[float, float], ...]:
    """The ranges within ``half_width`` of ``center - distance`` and ``center + distance``."""
    d, w = abs(distance), half_width
    if d > w:
        return (center - d - w, center - d + w), (center + d - w, center + d + w)
    return ((center - d - w, center + d + w),)


class FaceTable:
    """One solid's per-face geometry, with planar faces in normal/offset buckets.

    Planar faces are bucketed by the grid cell of their outward normal; each
    bucket is a pair of lists, the plane offsets ``origin . normal`` in
    ascending order and the faces in the same order. For anti-parallel faces
    a and b, ``(b.origin - a.origin) . a.normal`` is ``-(a.offset + b.offset)``
    up to ``|b.origin| * |a.normal + b.normal|``, so bisecting the offsets
    finds every pair at a given separation once the search range is widened
    by ``window``: TOL plus twice ANGULAR_TOL times the largest plane-origin
    distance from the coordinate origin. ``cylinders`` lists the cylindrical
    faces by id. Shortlisted pairs still go through the exact tests, so the
    table changes no decision, only how many pairs are tried.

    ``opposite`` maps each outward normal of a planar face to the buckets
    that may hold its faces' anti-parallel partners. Normals that compare
    equal differ at most in the sign of a zero, which ``_cells_near``
    ignores, so every face with that normal gets the same list. The table
    holds the lists, not the faces: a face that pointed at buckets holding
    faces that point back would make a reference cycle, which only the
    cyclic garbage collector could free. The table has no cycle, so a solid
    and its table are freed as soon as they are dropped.
    """

    def __init__(self, solid: Solid):
        self.faces = {fid: FaceGeometry(solid, f) for fid, f in solid.faces.items()}
        self.planes = [g for g in self.faces.values() if g.normal is not None]
        self.cylinders = sorted((g for g in self.faces.values() if g.normal is None),
                                key=lambda g: g.id)
        extent = max((_norm1(g.origin) for g in self.planes), default=0.0)
        self.window = TOL + 2.0 * ANGULAR_TOL * extent
        cells: dict[tuple[int, int, int], list[FaceGeometry]] = {}
        for g in self.planes:
            cells.setdefault(_cell(g.normal), []).append(g)
        buckets = {}
        for cell, members in cells.items():
            members.sort(key=lambda g: (g.offset, g.id))
            buckets[cell] = ([g.offset for g in members], members)
        self.opposite: dict[Vec3, list] = {}
        for g in self.planes:
            if g.normal not in self.opposite:
                self.opposite[g.normal] = [buckets[k] for k in _cells_near(-g.normal) if k in buckets]

    def opposed_at(self, a: FaceGeometry, distance: float):
        """Planar faces in a's opposite buckets that may lie ``distance`` from a's plane."""
        opposite = self.opposite[a.normal]
        for lo, hi in _windows(-a.offset, distance, self.window):
            for offsets, members in opposite:
                yield from members[bisect_left(offsets, lo):bisect_right(offsets, hi)]


def face_table(solid: Solid) -> FaceTable:
    """The solid's face table, built on first use and kept on the solid.

    Threads racing here may each build a table; they are equal, so either serves.
    """
    table = solid.__dict__.get("_face_table")
    if table is None:
        table = solid._face_table = FaceTable(solid)
    return table


# ---------------------------------------------------------------------------
# Thickness
# ---------------------------------------------------------------------------

def _plane_pair_distance(a: Face, b: Face) -> float | None:
    na, nb = face_normal(a), face_normal(b)
    if not is_anti_parallel(na, nb):
        return None
    assert isinstance(a.surface, Plane) and isinstance(b.surface, Plane)
    return abs((b.surface.origin - a.surface.origin).dot(na))


def _coaxial(a: Cylinder, b: Cylinder) -> bool:
    da, db = a.axis_dir, b.axis_dir
    if not (is_parallel(da, db) or is_anti_parallel(da, db)):
        return False
    offset = b.axis_point - a.axis_point
    return offset.cross(da).norm() <= TOL


def anti_parallel_pair_distances(solid: Solid) -> list[tuple[int, int, float]]:
    """All qualifying same-kind anti-parallel face pairs with their distances.

    Coplanar (zero-distance) pairs are excluded: opposed cut faces in the
    same plane carry no thickness information. This enumerates every face
    pair; :func:`compute_thickness` finds the same minimum from the face
    table.
    """
    out: list[tuple[int, int, float]] = []
    faces = sorted(solid.faces.values(), key=lambda f: f.id)
    for i, a in enumerate(faces):
        for b in faces[i + 1:]:
            if isinstance(a.surface, Plane) and isinstance(b.surface, Plane):
                d = _plane_pair_distance(a, b)
            elif isinstance(a.surface, Cylinder) and isinstance(b.surface, Cylinder):
                if not _coaxial(a.surface, b.surface):
                    continue
                d = abs(a.surface.radius - b.surface.radius)
            else:
                continue
            if d is not None and d > TOL:
                out.append((a.id, b.id, d))
    return out


def compute_thickness(solid: Solid) -> float:
    """Minimum separation over anti-parallel same-kind face pairs.

    Each planar face walks its opposite buckets outward from the offset of its
    own plane and stops once the window-widened offset gap exceeds the best
    separation so far. Every pair it visits is measured with the lower face id
    first, as in :func:`anti_parallel_pair_distances`, so the minimum is the
    same double.
    """
    table = face_table(solid)
    w = table.window
    best: float | None = None
    for a in table.planes:
        x = -a.offset
        for offsets, members in table.opposite[a.normal]:
            start = bisect_left(offsets, x)
            for walk in (range(start, len(offsets)), range(start - 1, -1, -1)):
                for j in walk:
                    if best is not None and abs(offsets[j] - x) - w > best:
                        break
                    b = members[j]
                    lo, hi = (a, b) if a.id < b.id else (b, a)
                    if not lo.normal.dot(hi.normal) <= -_COS_ANGULAR_TOL:
                        continue
                    d = abs(_signed_separation(lo, hi))
                    if d > TOL and (best is None or d < best):
                        best = d
    cylinders = table.cylinders
    for i, a in enumerate(cylinders):
        for b in cylinders[i + 1:]:
            d = abs(a.radius - b.radius)
            if d > TOL and (best is None or d < best) and _coaxial(a.face.surface, b.face.surface):
                best = d
    if best is None:
        raise NoParallelPairs()
    return best


# ---------------------------------------------------------------------------
# Reference face
# ---------------------------------------------------------------------------

def select_reference_face(solid: Solid) -> int:
    """Largest planar face; co-maximal areas tie-break toward the smaller id."""
    planes = face_table(solid).planes
    if not planes:
        raise NoPlanarFace()
    best_area = max(g.area for g in planes)
    return min(g.id for g in planes if math.isclose(g.area, best_area, rel_tol=1e-9))


def _opposite_face(solid: Solid, rf_id: int, thickness: float) -> int:
    table = face_table(solid)
    rf = table.faces[rf_id]
    best = min(((-g.area, g.id) for g in table.opposed_at(rf, thickness)
                if rf.normal.dot(g.normal) <= -_COS_ANGULAR_TOL
                and abs(abs(_signed_separation(rf, g)) - thickness) <= TOL), default=None)
    if best is None:
        raise NoOppositeFace(rf_id, thickness)
    return best[1]


def sheet_metrics(solid: Solid) -> SheetMetrics:
    """Thickness, reference face, its outward normal, and its opposite face."""
    t = compute_thickness(solid)
    rf = select_reference_face(solid)
    return SheetMetrics(
        thickness=t,
        reference_face=rf,
        reference_normal=face_table(solid).faces[rf].normal,
        opposite_face=_opposite_face(solid, rf, t),
    )


# ---------------------------------------------------------------------------
# Pairing
# ---------------------------------------------------------------------------

def _planes_face_each_other(solid: Solid, a: FaceGeometry, b: FaceGeometry) -> bool:
    # Plane separation alone treats planes as infinite; require the two
    # bounded faces to overlap when projected onto a's plane basis. For
    # exactly opposite normals b's basis is a's with u reversed (see
    # plane_basis), so b's own intervals serve; otherwise b's sample points
    # are projected afresh.
    if b.normal == -a.normal:
        bu_lo, bu_hi, bv_lo, bv_hi = -b.u_hi, -b.u_lo, b.v_lo, b.v_hi
    else:
        u, v = plane_basis(a.normal)
        points = brep._walk_face(solid, b.face)[0]
        (bu_lo, bu_hi), (bv_lo, bv_hi) = _extent_along(points, u), _extent_along(points, v)
    return _overlaps(a.u_lo, a.u_hi, bu_lo, bu_hi) and _overlaps(a.v_lo, a.v_hi, bv_lo, bv_hi)


def _cylinders_face_each_other(solid: Solid, a: FaceGeometry, b: FaceGeometry) -> bool:
    if b.axis == a.axis:
        lo, hi = b.axis_lo, b.axis_hi
    else:
        lo, hi = _extent_along(brep._walk_face(solid, b.face)[0], a.axis)
    return _overlaps(a.axis_lo, a.axis_hi, lo, hi)


def pair_faces(solid: Solid, metrics: SheetMetrics) -> FacePairing:
    """Assign every face a role: reference pair, wall pair, bend pair, or side face.

    Faces are taken in decreasing sort measure (ties by id). A planar face
    looks for partners only among the faces its opposite buckets hold at
    offsets one thickness away; a cylindrical face scans the cylinders. Every
    face is a side face until it pairs.
    """
    t = metrics.thickness
    table = face_table(solid)
    side = Role.SIDE
    roles = dict.fromkeys(solid.faces, side)
    roles[metrics.reference_face] = roles[metrics.opposite_face] = Role.REFERENCE
    pairs: dict[int, tuple[int, int]] = {}
    remaining = sorted((table.faces[fid] for fid, role in roles.items() if role is side),
                       key=lambda g: (-g.measure, g.id))

    def qualifies(a: FaceGeometry, b: FaceGeometry) -> bool:
        if a.normal is not None:
            if not a.normal.dot(b.normal) <= -_COS_ANGULAR_TOL:
                return False
            return abs(abs(_signed_separation(a, b)) - t) <= TOL and _planes_face_each_other(solid, a, b)
        return (
            abs(abs(a.radius - b.radius) - t) <= TOL
            and _coaxial(a.face.surface, b.face.surface)
            and _cylinders_face_each_other(solid, a, b)
        )

    for f in remaining:
        if roles[f.id] is not side:
            continue
        if f.normal is not None:
            shortlist = table.opposed_at(f, t)
        else:
            shortlist = table.cylinders
        candidates = [g for g in shortlist
                      if g.id != f.id and roles[g.id] is side and qualifies(f, g)]
        if len(candidates) > 1:
            raise AmbiguousPairing(f.id, [g.id for g in candidates])
        if candidates:
            g = candidates[0]
            roles[f.id] = roles[g.id] = Role.WALL if f.normal is not None else Role.BEND
            pairs[len(pairs) + 1] = (f.id, g.id)
    return FacePairing(roles, pairs)


# ---------------------------------------------------------------------------
# Grouping
# ---------------------------------------------------------------------------

class _UnionFind:
    def __init__(self, items):
        self.parent = {i: i for i in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def group_features(solid: Solid, pairing: FacePairing, metrics: SheetMetrics) -> list[SheetFeature]:
    """Connect wall/bend faces into features and attach reference-face holes.

    Two member faces belong to the same feature when they share an edge or
    form a wall/bend pair (the two skins of one wall never touch directly;
    the pair relation is what joins them). Each reference-face hole joins the
    feature of the first member face across its edges, in edge-id order, and
    makes it mixed if any of its edges faces a side face; a hole with no
    member face across it is a cut feature of its own.
    """
    uf = _UnionFind(fid for fid in solid.faces if pairing.is_member(fid))
    members = uf.parent  # keyed by member face; each root is its component's smallest id
    for a, b in pairing.pairs.values():
        uf.union(a, b)
    for eid, uses in solid.edge_uses.items():
        shared = [fid for fid in uses if fid in members]
        for a, b in zip(shared, shared[1:]):
            uf.union(a, b)

    faces_of: dict[int, set[int]] = {}
    for fid in members:
        faces_of.setdefault(uf.find(fid), set()).add(fid)
    holes_of: dict[int, set[int]] = {}
    mixed: set[int] = set()
    cuts: list[int] = []
    rf = solid.faces[metrics.reference_face]
    for lid in sorted(set(rf.inner_loops())):
        across = [next((fid for fid in solid.edge_uses[eid] if fid != rf.id), None)
                  for eid, _ in sorted(solid.loops[lid].oriented_edges)]
        first = next((fid for fid in across if fid in members), None)
        if first is None:
            cuts.append(lid)
            continue
        root = uf.find(first)
        holes_of.setdefault(root, set()).add(lid)
        if any(fid not in members for fid in across):
            mixed.add(root)

    features = [
        SheetFeature(
            id=i,
            member_faces=frozenset(faces_of[root]),
            kind=FeatureKind.MIXED if root in mixed else FeatureKind.FORMED,
            interior_loops=frozenset(holes_of.get(root, ())),
        )
        for i, root in enumerate(sorted(faces_of), 1)
    ]
    features += [
        SheetFeature(id=i, member_faces=frozenset(), kind=FeatureKind.CUT,
                     interior_loops=frozenset({lid}))
        for i, lid in enumerate(cuts, len(features) + 1)
    ]
    return features


def feature_height(
    solid: Solid,
    metrics: SheetMetrics,
    feature: SheetFeature,
    cut_height: float | None = None,
) -> float:
    """Maximum reference-plane distance of member faces facing the reference way.

    Cut features have no formed faces; the punch must traverse the sheet, so
    their height is the thickness (or the explicit cut_height override).
    """
    if feature.kind is FeatureKind.CUT:
        return cut_height if cut_height is not None else metrics.thickness
    table = face_table(solid)
    rf = table.faces[metrics.reference_face]
    n = metrics.reference_normal
    facing = (table.faces[fid] for fid in feature.member_faces)
    best = max((abs(_signed_separation(rf, g)) for g in facing
                if g.normal is not None and g.normal.dot(n) > FACING_DOT), default=None)
    if best is None:
        raise NoParallelFeatureFace(feature.id)
    return best


def measure_heights(
    solid: Solid,
    metrics: SheetMetrics,
    features: list[SheetFeature],
    cut_height: float | None = None,
) -> tuple[list[SheetFeature], dict[int, str]]:
    """Fill in feature heights; unmeasurable features get an error note instead."""
    out: list[SheetFeature] = []
    errors: dict[int, str] = {}
    for f in features:
        try:
            out.append(replace(f, height=feature_height(solid, metrics, f, cut_height)))
        except NoParallelFeatureFace as exc:
            errors[f.id] = str(exc)
            out.append(f)
    return out, errors
