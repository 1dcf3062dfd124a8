"""Part-21 writer for the benchmark's STEP inputs.

Turns a native-JSON B-Rep document (the modelzoo format) into AP-203 style
clear text using only the entities the punchplan reader resolves:
CARTESIAN_POINT, DIRECTION, AXIS2_PLACEMENT_3D, VERTEX_POINT, LINE + VECTOR,
CIRCLE, EDGE_CURVE, ORIENTED_EDGE, EDGE_LOOP, FACE_BOUND / FACE_OUTER_BOUND,
PLANE, CYLINDRICAL_SURFACE, ADVANCED_FACE, CLOSED_SHELL, MANIFOLD_SOLID_BREP.

It is kept apart from any writer in the library so that the benchmark's
inputs do not move when the library changes.

The text encodes the same solid in more than one way, so that reading it
exercises the reader's orientation rules and not only the plain case:

* every even-numbered edge is written against its curve (``same_sense``
  ``.F.``): a line placed at its end point pointing back, a circle with its
  axis negated;
* every even-numbered planar face is written on a plane with the opposite
  normal and ``same_sense`` ``.F.``;
* every inner bound lists its loop backwards with orientation ``.F.``.

Faces, loops and edges keep their document order, so the ids the reader
assigns sort the same way as the document's.
"""
from __future__ import annotations

import math


def _real(x: float) -> str:
    s = repr(float(x))
    mantissa, e, exp = s.partition("e")
    if "." not in mantissa:
        mantissa += "."
    return f"{mantissa}E{exp}" if e else mantissa


def _triple(v) -> str:
    return f"({_real(v[0])},{_real(v[1])},{_real(v[2])})"


def _perpendicular(n) -> tuple[float, float, float]:
    # Any unit vector normal to n; AXIS2_PLACEMENT_3D wants a ref_direction.
    ax, ay, az = (abs(c) for c in n)
    helper = (1.0, 0.0, 0.0) if ax <= ay and ax <= az else (0.0, 1.0, 0.0) if ay <= az else (0.0, 0.0, 1.0)
    cx = n[1] * helper[2] - n[2] * helper[1]
    cy = n[2] * helper[0] - n[0] * helper[2]
    cz = n[0] * helper[1] - n[1] * helper[0]
    norm = math.sqrt(cx * cx + cy * cy + cz * cz)
    return (cx / norm, cy / norm, cz / norm)


class _Writer:
    def __init__(self) -> None:
        self.lines: list[str] = []

    def add(self, text: str) -> int:
        self.lines.append(f"#{len(self.lines) + 1}={text};")
        return len(self.lines)

    def direction(self, v) -> int:
        return self.add(f"DIRECTION('',{_triple(v)})")

    def placement(self, origin, axis) -> int:
        p = self.add(f"CARTESIAN_POINT('',{_triple(origin)})")
        a = self.direction(axis)
        r = self.direction(_perpendicular(axis))
        return self.add(f"AXIS2_PLACEMENT_3D('',#{p},#{a},#{r})")


def _neg(v):
    return [-c for c in v]


def write_step(doc: dict) -> tuple[str, int]:
    """Part-21 text for the document's solid, and its number of entities."""
    w = _Writer()
    points: dict[int, tuple[float, float, float]] = {}
    point_ids: dict[int, int] = {}
    vertex_ids: dict[int, int] = {}
    for v in doc["vertices"]:
        points[v["id"]] = (v["x"], v["y"], v["z"])
        point_ids[v["id"]] = w.add(f"CARTESIAN_POINT('',{_triple(points[v['id']])})")
        vertex_ids[v["id"]] = w.add(f"VERTEX_POINT('',#{point_ids[v['id']]})")

    edge_ids: dict[int, int] = {}
    for e in doc["edges"]:
        reverse = e["id"] % 2 == 0
        curve = e["curve"]
        if curve["kind"] == "line":
            a, b = points[e["start"]], points[e["end"]]
            if reverse:
                a, b = b, a
            d = [q - p for p, q in zip(a, b)]
            length = math.sqrt(sum(c * c for c in d))
            direction = w.direction([c / length for c in d])
            vector = w.add(f"VECTOR('',#{direction},{_real(length)})")
            anchor = point_ids[e["end"] if reverse else e["start"]]
            geometry = w.add(f"LINE('',#{anchor},#{vector})")
        elif curve["kind"] == "circle":
            axis = _neg(curve["axis"]) if reverse else curve["axis"]
            place = w.placement(curve["center"], axis)
            geometry = w.add(f"CIRCLE('',#{place},{_real(curve['radius'])})")
        else:
            raise ValueError(f"edge {e['id']}: unsupported curve kind {curve['kind']!r}")
        sense = ".F." if reverse else ".T."
        edge_ids[e["id"]] = w.add(
            f"EDGE_CURVE('',#{vertex_ids[e['start']]},#{vertex_ids[e['end']]},#{geometry},{sense})"
        )

    loops = {lp["id"]: lp["oriented_edges"] for lp in doc["loops"]}
    face_ids = []
    for f in doc["faces"]:
        bounds = []
        for bound in f["bounds"]:
            oriented = [(oe["edge"], oe["sense"]) for oe in loops[bound["loop"]]]
            flip = not bound["outer"]
            if flip:
                oriented = [(eid, not s) for eid, s in reversed(oriented)]
            oes = [
                w.add(f"ORIENTED_EDGE('',*,*,#{edge_ids[eid]},{'.T.' if s else '.F.'})")
                for eid, s in oriented
            ]
            loop = w.add(f"EDGE_LOOP('',({','.join(f'#{o}' for o in oes)}))")
            keyword = "FACE_OUTER_BOUND" if bound["outer"] else "FACE_BOUND"
            bounds.append(w.add(f"{keyword}('',#{loop},{'.F.' if flip else '.T.'})"))
        surf = f["surface"]
        same_sense = f["same_sense"]
        if surf["kind"] == "plane":
            normal = surf["normal"]
            if f["id"] % 2 == 0:
                normal, same_sense = _neg(normal), not same_sense
            surface = w.add(f"PLANE('',#{w.placement(surf['origin'], normal)})")
        elif surf["kind"] == "cylinder":
            place = w.placement(surf["axis_point"], surf["axis_dir"])
            surface = w.add(f"CYLINDRICAL_SURFACE('',#{place},{_real(surf['radius'])})")
        else:
            raise ValueError(f"face {f['id']}: unsupported surface kind {surf['kind']!r}")
        face_ids.append(w.add(
            f"ADVANCED_FACE('',({','.join(f'#{b}' for b in bounds)}),#{surface},"
            f"{'.T.' if same_sense else '.F.'})"
        ))
    shell = w.add(f"CLOSED_SHELL('',({','.join(f'#{fid}' for fid in face_ids)}))")
    name = doc["name"].replace("'", "''")
    w.add(f"MANIFOLD_SOLID_BREP('{name}',#{shell})")

    header = [
        "ISO-10303-21;",
        "HEADER;",
        "FILE_DESCRIPTION(('sheet metal part'),'2;1');",
        f"FILE_NAME('{name}','2026-01-01T00:00:00',(''),(''),'','','');",
        "FILE_SCHEMA(('CONFIG_CONTROL_DESIGN'));",
        "ENDSEC;",
        "DATA;",
    ]
    footer = ["ENDSEC;", "END-ISO-10303-21;"]
    return "\n".join(header + w.lines + footer) + "\n", len(w.lines)
