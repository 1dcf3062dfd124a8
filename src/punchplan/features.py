"""Sheet-level facts and deformation-feature recognition.

The chain is: compute the sheet thickness, pick the reference face (largest
planar face), pair the remaining faces into walls (planar pairs one
thickness apart) and bends (coaxial cylinder pairs one thickness apart in
radius), group paired faces into connected features, and measure each
feature's height above the reference plane.

Every step reads one per-face geometry table (:class:`FaceTable`), built once
per solid: plane classes, the planar faces of one normal and one plane,
bucketed by outward normal and sorted by plane offset; cylinders by radius and
by axis line. The thickness, the opposite face and pairing compare a planar
face only with the classes one plane query, :meth:`FaceTable.opposed`, finds
across from it, and pairing only with the members a sweep keeps, a cylinder
only within its axis buckets. Across two classes with exactly opposite
normals every face pair is one separation apart, to the last bit, so such a
pair of planes is tested once; in-plane overlap, and every other shortlisted
pair, go through the same exact tests as a full pairwise scan would.
"""
from __future__ import annotations

import enum
import math
import sys
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
    """The sheet's thickness, its reference face with that face's outward
    normal, and the face opposite it that fixed the thickness."""

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
    """Each face's role, and each pair of wall or bend faces that face each
    other across the thickness, by pair id."""

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
    """A feature: its wall and bend faces (none for a cut), its kind, the
    reference face's inner loops it owns, and its height once measured."""

    id: int
    member_faces: frozenset[int]
    kind: FeatureKind
    interior_loops: frozenset[int]
    height: float | None = None


# ---------------------------------------------------------------------------
# Face geometry table
# ---------------------------------------------------------------------------

# Planar faces are bucketed by outward normal, cylinders by axis, on a grid of
# _CELL per component. A lookup visits every cell within _REACH of the wanted
# unit vector, which covers every one within ANGULAR_TOL of it (with margin for
# rounding), so bucketing never hides a pair the exact tests would accept.
_CELL = 1.0 / 1024
_REACH = 2.0 * ANGULAR_TOL


def _cell(n: Vec3) -> tuple[int, int, int]:
    return (round(n[0] / _CELL), round(n[1] / _CELL), round(n[2] / _CELL))


def _cells_near(n: Vec3) -> tuple[tuple[int, int, int], ...]:
    """Keys of every direction cell (see ``_cell``) within _REACH of n.

    _REACH is far below half a cell, so that is one or two cells per
    coordinate.
    """
    keys = [()]
    for c in n:
        span = range(round((c - _REACH) / _CELL), round((c + _REACH) / _CELL) + 1)
        keys = [k + (j,) for k in keys for j in span]
    return tuple(keys)


def _norm1(p: Vec3) -> float:
    x, y, z = p
    return abs(x) + abs(y) + abs(z)


def _overlaps(a_lo: float, a_hi: float, b_lo: float, b_hi: float) -> bool:
    return min(a_hi, b_hi) - max(a_lo, b_lo) > TOL


class FaceGeometry:
    """What recognition asks of one face, computed once.

    Planar faces carry the outward normal, the plane origin and offset along
    that normal, the area, and the sample-point intervals along the in-plane
    basis ``(u, v) = plane_basis(normal)``. Cylindrical faces carry the
    radius, the axis and the sample-point interval along the axis, and as
    area the lateral area over that sampled axial span; pairing sorts faces
    by area. Each face is walked once, by :func:`brep._walk_face`, which
    projects the samples as it goes and shares arc samples through ``arcs``.
    """

    __slots__ = ("face", "id", "normal", "origin", "offset", "area",
                 "u_lo", "u_hi", "v_lo", "v_hi", "radius", "axis", "axis_lo", "axis_hi")

    def __init__(self, solid: Solid, face: Face, arcs: dict | None = None):
        self.face = face
        self.id = face.id
        surface = face.surface
        if isinstance(surface, Plane):
            self.normal = n = face_normal(face)
            self.origin = surface.origin
            x, y, z = surface.origin
            nx, ny, nz = n
            self.offset = x * nx + y * ny + z * nz  # origin.dot(n), rounded the same
            self.u_lo, self.u_hi, self.v_lo, self.v_hi, self.area = brep._walk_face(
                solid, face, *plane_basis(n), arcs)
        else:
            self.normal = None
            self.radius = surface.radius
            self.axis = axis = surface.axis_dir
            self.axis_lo, self.axis_hi, _, _, _ = brep._walk_face(solid, face, axis, axis, arcs)
            self.area = 2.0 * math.pi * surface.radius * (self.axis_hi - self.axis_lo)


def _signed_separation(a: FaceGeometry, b: FaceGeometry) -> float:
    """``(b.origin - a.origin).dot(a.normal)``, rounded exactly as Vec3 would."""
    ax, ay, az = a.origin
    bx, by, bz = b.origin
    nx, ny, nz = a.normal
    return (bx - ax) * nx + (by - ay) * ny + (bz - az) * nz


def _at_separation(a: FaceGeometry, b: FaceGeometry, distance: float) -> bool:
    """Whether planar face b is anti-parallel to a and lies ``distance`` from a's plane."""
    return (a.normal.dot(b.normal) <= -_COS_ANGULAR_TOL
            and abs(abs(_signed_separation(a, b)) - distance) <= TOL)


# Classes of up to _SCANNED members stay plain lists, tried whole. On the
# benchmark's parts, where most classes have one or two members, indexing
# every class made metrics, pairing and grouping 4-17% slower; a cut at 4
# made step-parts 2% slower, and one at 16 timed within 0.5% of 8.
_SCANNED = 8


class _PlaneClass(list):
    """A plane class of more than _SCANNED members, in table order, with a
    sweep-and-prune index (I-COLLIDE, 1995): ``swept`` holds the members
    sorted by interval start as an exactly opposite face sees it (see
    plane_basis: u reversed, v as is), along v where the starts spread wider
    (an unturned part's walls all start at one height along u), with those
    starts and the running maximum of the ends. A NaN bound or infinities of
    both signs leave every member in every sweep."""

    __slots__ = ("along_v", "swept", "starts", "ends")

    def __init__(self, members: list[FaceGeometry]):
        super().__init__(members)
        u, v = [-g.u_hi for g in members], [g.v_lo for g in members]
        self.along_v = along_v = max(v) - min(v) > max(u) - min(u)
        starts = v if along_v else u
        ends = [g.v_hi for g in members] if along_v else [-g.u_lo for g in members]
        total = sum(starts) + sum(ends)
        if total != total:
            starts, ends = [-math.inf] * len(members), [math.inf] * len(members)
        order = sorted(range(len(members)), key=starts.__getitem__)
        self.swept, self.starts = [members[i] for i in order], [starts[i] for i in order]
        top = -math.inf  # the running maximum
        self.ends = [top := ends[i] if ends[i] > top else top for i in order]

    def facing(self, a: FaceGeometry) -> list[FaceGeometry]:
        """Every member that may overlap a, whose normal is exactly -(the class normal)."""
        lo, hi = (a.v_lo, a.v_hi) if self.along_v else (a.u_lo, a.u_hi)
        return self.swept[bisect_right(self.ends, lo):bisect_left(self.starts, hi)]


class FaceTable:
    """One solid's per-face geometry, with planar faces grouped into plane classes.

    A plane class is the list of planar faces with one outward normal
    (``==``) and the same plane-origin coordinates wherever that normal is
    non-zero: the table keys each face by its normal and its origin with the
    coordinates on the normal's zero components set to 0, so members differ
    at most where the normal is zero. ``classes`` lists them, those of more
    than _SCANNED members as :class:`_PlaneClass`, whose ``facing`` pairing
    reads. Take two classes whose normals are exact negatives. Every face
    pair across them then gives one ``_signed_separation`` double, up to the
    sign of a zero, in either order:

    - each term on a zero component of the normal is +-0, as long as no
      coordinate difference overflows;
    - each other term has the same two factors for every member;
    - swapping the two faces negates both factors of each term, which is
      exact.

    The dot product of the two normals is one double too, and all members of
    a class share one plane offset. So one face pair stands for the whole
    class pair. Where a coordinate difference between plane origins could
    overflow, that is where twice the largest plane-origin 1-norm is not
    below the largest double, classes are keyed by the normal and the whole
    origin instead: an overflow makes ``inf * 0``, NaN, which skips the
    pair, and only faces with equal origins are sure to share that.

    Classes are bucketed by the grid cell of their outward normal; each
    bucket is a pair of lists, the class plane offsets ``origin . normal``
    in ascending order and the classes in the same order. For anti-parallel
    faces a and b, ``(b.origin - a.origin) . a.normal`` is
    ``-(a.offset + b.offset)`` up to ``|b.origin| * |a.normal + b.normal|``,
    so bisecting the offsets finds every pair at a given separation once the
    search range is widened by ``window``: TOL plus twice ANGULAR_TOL times
    the largest plane-origin distance from the coordinate origin.
    ``opposed`` is that bisection. ``cylinders`` lists the cylindrical faces
    by radius. The thickness and ``across`` test a class pair with exactly
    opposite normals once and every other shortlisted pair face by face, and
    callers test every pair's overlap and coaxiality, all with the exact
    tests. So the table changes no decision, only how many pairs are tried.

    ``coaxial`` maps each cylinder's id to the buckets, in radius order, that
    may hold a cylinder coaxial with it, keyed by axis cell and by the axis
    line's distance from the origin in cells of 64 reaches. Coaxial lines'
    points nearest the origin are at most TOL plus ANGULAR_TOL times the axis
    point's norm apart, within the reach: TOL plus twice ANGULAR_TOL times the
    largest axis-point 1-norm. Where a distance could overflow, axes alone key.

    ``opposite`` maps each outward normal of a planar face to its negation
    and the buckets that may hold its anti-parallel partners. Normals that
    compare equal differ at most in the sign of a zero, which ``_cells_near``
    ignores, so every face with that normal gets the same list. Faces point
    at nothing in the table: a face that pointed at a class or bucket
    holding it would make a reference cycle, which only the cyclic garbage
    collector could free. The table has no cycle, so a solid and its table
    are freed as soon as they are dropped.
    """

    def __init__(self, solid: Solid):
        arcs: dict = {}  # the walks' shared arc samples, dropped with this frame
        self.faces = {fid: FaceGeometry(solid, f, arcs) for fid, f in solid.faces.items()}
        self.planes = [g for g in self.faces.values() if g.normal is not None]
        self.cylinders = sorted((g for g in self.faces.values() if g.normal is None),
                                key=lambda g: (g.radius, g.id))
        extent = max((_norm1(g.origin) for g in self.planes), default=0.0)
        self.window = TOL + 2.0 * ANGULAR_TOL * extent
        whole = 2.0 * extent >= sys.float_info.max
        keyed: dict[tuple, list[FaceGeometry]] = {}
        for g in self.planes:
            n = g.normal
            if whole:
                key = n, g.origin
            else:
                (x, y, z), (nx, ny, nz) = g.origin, n
                key = n, x if nx else 0.0, y if ny else 0.0, z if nz else 0.0
            same = keyed.get(key)
            if same is None:
                keyed[key] = [g]
            else:
                same.append(g)
        self.classes = [_PlaneClass(c) if len(c) > _SCANNED else c for c in keyed.values()]
        cells: dict[tuple[int, int, int], list[list[FaceGeometry]]] = {}
        for c in self.classes:
            cells.setdefault(_cell(c[0].normal), []).append(c)
        buckets = {}
        for cell, classes in cells.items():
            classes.sort(key=lambda c: (c[0].offset, c[0].id))
            buckets[cell] = ([c[0].offset for c in classes], classes)
        self.opposite: dict[Vec3, tuple[Vec3, list]] = {}
        for c in self.classes:
            n = c[0].normal
            if n not in self.opposite:
                opposed = -n
                self.opposite[n] = (opposed, [buckets[k] for k in _cells_near(opposed) if k in buckets])
        spread = max((_norm1(g.face.surface.axis_point) for g in self.cylinders), default=0.0)
        apart = 2.0 * spread < sys.float_info.max
        reach = TOL + 2.0 * ANGULAR_TOL * spread if apart else 0.0
        size = 64.0 * reach if apart else 1.0
        turns = {d: (_cell(d), _cells_near(d) + _cells_near(-d))  # its cell; the cells near it or -it
                 for d in {g.axis for g in self.cylinders}}
        axes: dict[tuple, list[FaceGeometry]] = {}
        near = []
        for g in self.cylinders:
            (px, py, pz), (dx, dy, dz) = g.face.surface.axis_point, g.axis
            along = px * dx + py * dy + pz * dz
            r = math.hypot(px - dx * along, py - dy * along, pz - dz * along) if apart else 0.0
            cell, cells = turns[g.axis]
            axes.setdefault((cell, round(r / size)), []).append(g)
            rs = range(round((r - reach) / size), round((r + reach) / size) + 1)
            near.append((g.id, [(c, j) for c in cells for j in rs]))
        self.coaxial = {fid: [axes[k] for k in keys if k in axes] for fid, keys in near}

    def opposed(self, a: FaceGeometry, lo: float, hi: float):
        """``(c, exact)`` for each plane class c in a's opposite buckets with
        offset in ``[lo, hi]``; exact: whether c's normal is exactly -a.normal."""
        opposed, opposite = self.opposite[a.normal]
        for offsets, cs in opposite:
            for c in cs[bisect_left(offsets, lo):bisect_right(offsets, hi)]:
                yield c, c[0].normal == opposed

    def across(self, a: FaceGeometry, distance: float):
        """``(faces, exact)`` for each class :meth:`opposed` finds within the
        window of ``distance`` from a's plane, on either side: its members
        that pass :func:`_at_separation`. An exact class passes or fails as a
        whole, so one member takes the test for all."""
        x, d, w = -a.offset, abs(distance), self.window
        windows = ((x - d - w, x - d + w), (x + d - w, x + d + w)) if d > w else ((x - d - w, x + d + w),)
        for lo, hi in windows:
            for c, exact in self.opposed(a, lo, hi):
                if exact:
                    yield (c if _at_separation(a, c[0], distance) else ()), True
                else:
                    yield [g for g in c if _at_separation(a, g, distance)], False


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

    Each plane class reads the classes :meth:`FaceTable.opposed` finds within
    the window-widened best separation so far of its own plane (all of them
    while none is known); a class outside lies farther away than the best.
    A class whose normal is the exact negative is measured once, by the
    first members (both bounds are in :class:`FaceTable`); across any other
    class every face pair is measured with the lower face id first, as in
    :func:`anti_parallel_pair_distances`, and so is every cylinder pair
    tested for coaxiality, which is not symmetric. So the minimum is the
    same double.
    """
    table = face_table(solid)
    best: float | None = None
    for c in table.classes:
        a = c[0]
        x, r = -a.offset, math.inf if best is None else best + table.window
        for b, exact in table.opposed(a, x - r, x + r):
            across = ((a, b[0]),) if exact else ((f, g) if f.id < g.id else (g, f) for f in c for g in b)
            for lo, hi in across:
                if not lo.normal.dot(hi.normal) <= -_COS_ANGULAR_TOL:
                    continue
                sep = abs(_signed_separation(lo, hi))
                if sep > TOL and (best is None or sep < best):
                    best = sep
    # With the cylinders in radius order, b.radius - a.radius rounds to the
    # same double as abs(a.radius - b.radius) and never shrinks along the
    # list, so each cylinder bisects past the pairs within TOL and stops at
    # the first pair no nearer than best.
    cylinders = table.cylinders
    for i, a in enumerate(cylinders):
        r = a.radius
        for b in cylinders[bisect_right(cylinders, TOL, i + 1, key=lambda g: g.radius - r):]:
            d = b.radius - r
            if best is not None and not d < best:
                break
            lo, hi = (a, b) if a.id < b.id else (b, a)
            if _coaxial(lo.face.surface, hi.face.surface):
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
    best = min(((-g.area, g.id) for faces, _ in table.across(table.faces[rf_id], thickness)
                for g in faces), default=None)
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

def _planes_face_each_other(solid: Solid, a: FaceGeometry, b: FaceGeometry, exact: bool) -> bool:
    # Plane separation alone treats planes as infinite; require the two
    # bounded faces to overlap when projected onto a's plane basis. For
    # exactly opposite normals b's basis is a's with u reversed (see
    # plane_basis), so b's own intervals serve; otherwise b is walked again
    # and its samples projected onto a's basis.
    if exact:
        return _overlaps(a.u_lo, a.u_hi, -b.u_hi, -b.u_lo) and _overlaps(a.v_lo, a.v_hi, b.v_lo, b.v_hi)
    u_lo, u_hi, v_lo, v_hi, _ = brep._walk_face(solid, b.face, *plane_basis(a.normal))
    return _overlaps(a.u_lo, a.u_hi, u_lo, u_hi) and _overlaps(a.v_lo, a.v_hi, v_lo, v_hi)


def _radii_apart(cylinders: list[FaceGeometry], r: float, t: float) -> list[FaceGeometry]:
    """The cylinders, in radius order, that may pass ``abs(abs(r - g.radius) - t) <= TOL``.

    From the first radius not below r on, ``abs(r - g.radius) - t`` never
    shrinks along the list; before it, ``t - abs(r - g.radius)`` never
    shrinks, and it is the negation of the same rounded double. So each side
    holds the radii within TOL of one thickness away in one slice.
    """
    split = bisect_left(cylinders, r, key=lambda g: g.radius)
    below = lambda g: t - abs(r - g.radius)  # noqa: E731
    above = lambda g: abs(r - g.radius) - t  # noqa: E731
    return (cylinders[bisect_left(cylinders, -TOL, 0, split, key=below):
                      bisect_right(cylinders, TOL, 0, split, key=below)]
            + cylinders[bisect_left(cylinders, -TOL, split, key=above):
                        bisect_right(cylinders, TOL, split, key=above)])


def _cylinders_face_each_other(solid: Solid, a: FaceGeometry, b: FaceGeometry) -> bool:
    if b.axis == a.axis:
        lo, hi = b.axis_lo, b.axis_hi
    else:
        lo, hi, _, _, _ = brep._walk_face(solid, b.face, a.axis, a.axis)
    return _overlaps(a.axis_lo, a.axis_hi, lo, hi)


def pair_faces(solid: Solid, metrics: SheetMetrics) -> FacePairing:
    """Assign every face a role: reference pair, wall pair, bend pair, or side face.

    Faces are taken in decreasing area (ties by id). A planar face's
    partners are the faces :meth:`FaceTable.across` finds one thickness away
    that are still side faces and overlap it, of an exactly opposite
    :class:`_PlaneClass` only those its ``facing`` keeps. A cylindrical
    face looks only at the cylinders in its ``coaxial`` buckets whose radius
    is one thickness from its own. Every face is a side face until it pairs.
    """
    t = metrics.thickness
    table = face_table(solid)
    side = Role.SIDE
    roles = dict.fromkeys(solid.faces, side)
    roles[metrics.reference_face] = roles[metrics.opposite_face] = Role.REFERENCE
    pairs: dict[int, tuple[int, int]] = {}
    remaining = sorted((table.faces[fid] for fid, role in roles.items() if role is side),
                       key=lambda g: (-g.area, g.id))
    for f in remaining:
        if roles[f.id] is not side:
            continue
        if f.normal is None:
            candidates = [g for axis in table.coaxial[f.id] for g in _radii_apart(axis, f.radius, t)
                          if g.id != f.id and roles[g.id] is side
                          and _coaxial(f.face.surface, g.face.surface)
                          and _cylinders_face_each_other(solid, f, g)]
        else:
            candidates = [g for faces, exact in table.across(f, t)
                          for g in (faces.facing(f) if exact and type(faces) is _PlaneClass else faces)
                          if roles[g.id] is side and _planes_face_each_other(solid, f, g, exact)]
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
    for uses in solid.edge_uses.values():
        first = None
        for fid in uses:
            if fid in members:
                if first is None:
                    first = fid
                else:
                    uf.union(first, fid)

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
    """Fill in feature heights; a feature that is unmeasurable, or whose height
    is not finite, gets an error note instead."""
    out: list[SheetFeature] = []
    errors: dict[int, str] = {}
    for f in features:
        try:
            height = feature_height(solid, metrics, f, cut_height)
            if not math.isfinite(height):
                raise RecognitionError(f"feature {f.id} has height {height}, which is not finite")
            out.append(replace(f, height=height))
        except RecognitionError as exc:
            errors[f.id] = str(exc)
            out.append(f)
    return out, errors
