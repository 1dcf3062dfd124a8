"""Small 3D vector toolkit used by the B-Rep model.

Everything works on plain ``Vec3`` values (immutable, hashable); lengths are
millimetres throughout. Tolerances follow the part scale: coordinates are
O(10..100) mm, so 1e-6 mm separates authoring noise from float noise.
"""
from __future__ import annotations

import math
from functools import lru_cache
from operator import itemgetter

# Coincidence tolerance for points/lengths (mm).
TOL = 1e-6
# Bound on every coordinate and radius of a Solid (mm), checked where one is
# built: below it a coordinate's ulp is at most 1.2e-7 mm, an eighth of TOL,
# and no product recognition forms overflows. Directions are not bounded.
ENVELOPE = 1e9
# Angular tolerance for parallel / anti-parallel tests (rad).
ANGULAR_TOL = 1e-6
# "Facing the same direction" test for feature heights: dot product floor.
FACING_DOT = 1.0 - 1e-6

_COS_ANGULAR_TOL = math.cos(ANGULAR_TOL)


_new = tuple.__new__


class Vec3(tuple):
    """Immutable float triple (x, y, z) with vector arithmetic.

    A tuple, so building one is cheap; ``+`` and ``*`` are the vector sum and
    scaling, never concatenation or repetition. Equal vectors hash as the
    plain tuple ``(x, y, z)`` does.
    """

    __slots__ = ()

    def __new__(cls, x: float, y: float, z: float) -> "Vec3":
        return _new(cls, (x, y, z))

    def __getnewargs__(self) -> tuple[float, float, float]:
        return tuple(self)

    x = property(itemgetter(0), doc="First coordinate.")
    y = property(itemgetter(1), doc="Second coordinate.")
    z = property(itemgetter(2), doc="Third coordinate.")

    def __repr__(self) -> str:
        x, y, z = self
        return f"Vec3(x={x!r}, y={y!r}, z={z!r})"

    def __add__(self, other: "Vec3") -> "Vec3":
        x, y, z = self
        ox, oy, oz = other
        return _new(Vec3, (x + ox, y + oy, z + oz))

    def __sub__(self, other: "Vec3") -> "Vec3":
        x, y, z = self
        ox, oy, oz = other
        return _new(Vec3, (x - ox, y - oy, z - oz))

    def __mul__(self, s: float) -> "Vec3":
        x, y, z = self
        return _new(Vec3, (x * s, y * s, z * s))

    __rmul__ = __mul__

    def __neg__(self) -> "Vec3":
        x, y, z = self
        return _new(Vec3, (-x, -y, -z))

    def dot(self, other: "Vec3") -> float:
        x, y, z = self
        ox, oy, oz = other
        return x * ox + y * oy + z * oz

    def cross(self, other: "Vec3") -> "Vec3":
        x, y, z = self
        ox, oy, oz = other
        return _new(Vec3, (y * oz - z * oy, z * ox - x * oz, x * oy - y * ox))

    def norm(self) -> float:
        x, y, z = self
        return math.sqrt(x * x + y * y + z * z)

    def normalized(self) -> "Vec3":
        x, y, z = self
        n = math.sqrt(x * x + y * y + z * z)
        if n == math.inf:
            # The squares overflow. Scaling by a power of two changes no
            # digit (barring underflow), so the unit vector comes out the same.
            e = -math.frexp(max(abs(x), abs(y), abs(z)))[1]
            x, y, z = math.ldexp(x, e), math.ldexp(y, e), math.ldexp(z, e)
            n = math.sqrt(x * x + y * y + z * z)
        if n <= TOL * TOL:
            raise ValueError("cannot normalize a near-zero vector")
        return _new(Vec3, (x / n, y / n, z / n))


def vec(x: float, y: float, z: float) -> Vec3:
    return Vec3(float(x), float(y), float(z))


def distance(a: Vec3, b: Vec3) -> float:
    return (a - b).norm()


def is_parallel(a: Vec3, b: Vec3) -> bool:
    """True when unit vectors a, b point the same way within ANGULAR_TOL."""
    return a.dot(b) >= _COS_ANGULAR_TOL


def is_anti_parallel(a: Vec3, b: Vec3) -> bool:
    return a.dot(b) <= -_COS_ANGULAR_TOL


@lru_cache(maxsize=256)
def plane_basis(normal: Vec3) -> tuple[Vec3, Vec3]:
    """Right-handed in-plane axes (u, v) with u x v = normal.

    Memoised, since every planar face asks for its basis at least twice.
    Normals that compare equal differ at most in the sign of a zero
    component, so a cached basis differs from a fresh one at most in the
    signs of its zeros; those reach only comparisons and ``abs``. The seed
    axis depends only on ``abs`` of the components, so the basis of
    ``-normal`` compares equal to ``(-u, v)``.
    """
    ax = abs(normal.x)
    ay = abs(normal.y)
    az = abs(normal.z)
    if ax <= ay and ax <= az:
        seed = Vec3(1.0, 0.0, 0.0)
    elif ay <= az:
        seed = Vec3(0.0, 1.0, 0.0)
    else:
        seed = Vec3(0.0, 0.0, 1.0)
    u = seed.cross(normal).normalized()
    v = normal.cross(u)
    return u, v
