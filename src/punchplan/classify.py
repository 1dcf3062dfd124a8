"""Reference-face edge taxonomy.

Every edge of the reference face is exterior (on the outer bound) or
interior (on an inner bound), and independently common (its other face is a
wall or bend skin) or isolated (its other face is a plain side face). The
four combinations drive the force computation: isolated interior edges are
sheared, common edges are formed.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .brep import Solid, edge_length
from .features import FacePairing, Role, SheetFeature, SheetMetrics


class ClassificationError(Exception):
    pass


class InconsistentTopology(ClassificationError):
    def __init__(self, edge_id: int, detail: str):
        super().__init__(f"edge {edge_id}: {detail}")
        self.edge_id = edge_id


class EdgeClass(enum.Enum):
    CEE = "CEE"  # common exterior
    IEE = "IEE"  # isolated exterior
    CIE = "CIE"  # common interior
    IIE = "IIE"  # isolated interior


@dataclass(frozen=True)
class EdgeClassTotals:
    n_cee: int = 0
    n_iee: int = 0
    n_cie: int = 0
    n_iie: int = 0
    tl_iie: float = 0.0
    tl_cie: float = 0.0
    tl_cee: float = 0.0
    tl_iee: float = 0.0  # diagnostics only; the force formulas never use it


@dataclass
class Classification:
    by_feature: dict[int, list[tuple[int, EdgeClass]]]
    part_level: list[tuple[int, EdgeClass]] = field(default_factory=list)

    def all_edges(self) -> list[tuple[int, EdgeClass]]:
        out = list(self.part_level)
        for edges in self.by_feature.values():
            out.extend(edges)
        return out


def classify_reference_edges(
    solid: Solid,
    metrics: SheetMetrics,
    pairing: FacePairing,
    features: list[SheetFeature],
) -> Classification:
    """Classify every reference-face edge and attribute it to a feature.

    Common edges go to the feature containing the adjacent wall/bend face;
    isolated interior edges go to the feature owning their loop; isolated
    exterior edges belong to the part as a whole.
    """
    rf = solid.faces[metrics.reference_face]
    face_to_feature: dict[int, int] = {}
    loop_to_feature: dict[int, int] = {}
    for feat in features:
        for fid in feat.member_faces:
            face_to_feature[fid] = feat.id
        for lid in feat.interior_loops:
            loop_to_feature[lid] = feat.id

    result = Classification(by_feature={feat.id: [] for feat in features})
    for lid, is_outer in rf.bounds:
        for eid, _sense in solid.loops[lid].oriented_edges:
            others = [fid for fid in solid.edge_uses[eid] if fid != rf.id]
            if len(others) != 1:
                raise InconsistentTopology(
                    eid, f"expected exactly one non-reference adjacent face, found {others}"
                )
            other = others[0]
            if pairing.role_of(other) is Role.REFERENCE:
                raise InconsistentTopology(
                    eid, "adjacent face belongs to the reference pair"
                )
            common = pairing.is_member(other)
            if is_outer:
                cls = EdgeClass.CEE if common else EdgeClass.IEE
            else:
                cls = EdgeClass.CIE if common else EdgeClass.IIE
            if cls is EdgeClass.IEE:
                result.part_level.append((eid, cls))
            elif common:
                result.by_feature[face_to_feature[other]].append((eid, cls))
            else:
                result.by_feature[loop_to_feature[lid]].append((eid, cls))
    result.part_level.sort()
    for edges in result.by_feature.values():
        edges.sort()
    return result


# The classes in EdgeClassTotals' count order. ``tuple.index`` finds a class by
# identity, so the totals hash no enum member: Enum.__hash__ is Python code.
_CLASSES = (EdgeClass.CEE, EdgeClass.IEE, EdgeClass.CIE, EdgeClass.IIE)


def totals(feature_edges: list[tuple[int, EdgeClass]], solid: Solid) -> EdgeClassTotals:
    """Per-class counts and summed lengths for one feature's edge list; each
    class's lengths are summed in list order."""
    counts = [0, 0, 0, 0]
    sums = [0.0, 0.0, 0.0, 0.0]
    index = _CLASSES.index
    for eid, cls in feature_edges:
        i = index(cls)
        counts[i] += 1
        sums[i] += edge_length(solid.edges[eid], solid)
    n_cee, n_iee, n_cie, n_iie = counts
    tl_cee, tl_iee, tl_cie, tl_iie = sums
    return EdgeClassTotals(n_cee=n_cee, n_iee=n_iee, n_cie=n_cie, n_iie=n_iie,
                           tl_iie=tl_iie, tl_cie=tl_cie, tl_cee=tl_cee, tl_iee=tl_iee)
