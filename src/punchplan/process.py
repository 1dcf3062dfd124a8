"""Per-feature manufacturing process parameters.

Shearing force comes from the isolated interior edge length, deformation
force from the common edge length, blank holding from whichever dominates.
When a feature shears material the tool first penetrates a fixed fraction
of the sheet (default one third) before the forming stroke.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .classify import EdgeClassTotals
from .resources import MaterialSpec

DEFAULT_H1_FRACTION = 1.0 / 3.0
DEFAULT_HOLDING_FRACTION = 0.2


class ProcessError(Exception):
    pass


class NonPositiveThickness(ProcessError):
    def __init__(self, t: float):
        super().__init__(f"sheet thickness must be > 0, got {t}")
        self.thickness = t


class NegativeTravel(ProcessError):
    def __init__(self, h: float, h1: float):
        super().__init__(
            f"feature height {h} mm is smaller than the shear travel {h1:.6g} mm; "
            "the tool cannot complete the shear before reaching the feature height"
        )
        self.height = h
        self.h1 = h1


@dataclass(frozen=True)
class ProcessParameters:
    """One feature's forces and tool travels."""

    Fs: float  # shearing force, N
    Fd: float  # deformation force, N
    Fh: float  # blank holding force, N
    H1: float  # primary tool travel (shear penetration), mm
    H2: float  # secondary tool travel (forming), mm


def compute_process_parameters(
    tot: EdgeClassTotals,
    t: float,
    h: float,
    mat: MaterialSpec,
    kd: float,
    h1_fraction: float = DEFAULT_H1_FRACTION,
    holding_fraction: float = DEFAULT_HOLDING_FRACTION,
) -> ProcessParameters:
    """Forces and tool travels for one feature.

    With isolated interior edges present the primary travel is
    h1_fraction * t and the secondary travel is the remainder up to the
    feature height; otherwise the whole stroke is forming travel. Finite
    inputs so large that a force overflows raise a :class:`ProcessError`.
    """
    if not t > 0:
        raise NonPositiveThickness(t)
    fs = mat.shear_stress * t * tot.tl_iie
    fd = kd * mat.yield_stress * t * (tot.tl_cie + tot.tl_cee)
    fh = holding_fraction * max(fs, fd)
    for name, force in (("Fs", fs), ("Fd", fd), ("Fh", fh)):
        if not math.isfinite(force):
            raise ProcessError(f"force {name} is not finite ({force}): the inputs are too large")
    if tot.n_iie > 0:
        h1 = h1_fraction * t
        if h < h1:
            raise NegativeTravel(h, h1)
        h2 = h - h1
    else:
        h1 = 0.0
        h2 = h
    return ProcessParameters(Fs=fs, Fd=fd, Fh=fh, H1=h1, H2=h2)
