"""The Vec3 contract: an immutable float triple whose arithmetic is vector
arithmetic, with the doubles, repr and hash of the frozen dataclass it replaced."""
import pickle

import pytest

from punchplan.geom import Vec3, vec

A = Vec3(0.1, -2.7, 1e-3)
B = Vec3(3.3, 0.7, -5.9)
C = Vec3(-0.0, 1.0 / 3.0, 2.0 ** 0.5)

# (v, w, repr(-v), repr(v.dot(w)), repr(v.cross(w)), repr(v.normalized())), pinned from
# the dataclass implementation; repr also tells the sign of a zero.
PINNED = [
    (A, B, "Vec3(x=-0.1, y=2.7, z=-0.001)", "-1.5658999999999998",
     "Vec3(x=15.929300000000001, y=0.5933, z=8.98)",
     "Vec3(x=0.037011657974835285, y=-0.9993147653205527, z=0.0003701165797483528)"),
    (B, C, "Vec3(x=-3.3, y=-0.7, z=5.9)", "-8.11052668466793",
     "Vec3(x=2.956616160327833, y=-4.666904755831213, z=1.0999999999999999)",
     "Vec3(x=0.4855567084988305, y=0.10299687756035798, z=-0.868116539437303)"),
    (C, A, "Vec3(x=0.0, y=-0.3333333333333333, z=-1.4142135623730951)", "-0.8985857864376269",
     "Vec3(x=3.8187099517406904, y=0.14142135623730953, z=-0.03333333333333333)",
     "Vec3(x=-0.0, y=0.22941573387056172, z=0.9733285267845752)"),
]


@pytest.mark.parametrize("v, w, neg, dot, cross, normalized", PINNED, ids=["ab", "bc", "ca"])
def test_arithmetic_gives_the_pinned_doubles(v, w, neg, dot, cross, normalized):
    assert repr(-v) == neg
    assert repr(v.dot(w)) == dot
    assert repr(v.cross(w)) == cross
    assert repr(v.normalized()) == normalized


def test_hash_and_repr_match_the_dataclass():
    v = vec(1, -2.5, 0.125)
    assert hash(v) == hash((1.0, -2.5, 0.125))
    assert repr(v) == "Vec3(x=1.0, y=-2.5, z=0.125)"
    assert (v.x, v.y, v.z) == (1.0, -2.5, 0.125)
    assert pickle.loads(pickle.dumps(v)) == v


def test_coordinates_are_read_only():
    v = Vec3(1.0, 2.0, 3.0)
    with pytest.raises(AttributeError):
        v.x = 5.0
    with pytest.raises(AttributeError):
        v.w = 5.0


def test_plus_and_times_are_vector_operations():
    v, w = Vec3(1.0, 2.0, 3.0), Vec3(0.5, -1.0, 4.0)
    for result, expected in ((v * 2, (2.0, 4.0, 6.0)), (2 * v, (2.0, 4.0, 6.0)),
                             (v + w, (1.5, 1.0, 7.0)), (v - w, (0.5, 3.0, -1.0))):
        assert type(result) is Vec3
        assert tuple(result) == expected
