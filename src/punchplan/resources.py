"""Material-property and machine-tool databases.

Both databases are JSON documents; loading merges user entries over the
built-in defaults (user wins, merge is idempotent). Lookups are
case-insensitive and suggest near-miss names on failure.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass


class ResourceError(Exception):
    pass


class ResourceSchemaError(ResourceError):
    def __init__(self, path: str, reason: str):
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason


class DuplicateName(ResourceError):
    def __init__(self, name: str):
        super().__init__(f"name {name!r} defined more than once")
        self.name = name


class NotFound(ResourceError):
    def __init__(self, kind: str, name: str, suggestions: list[str]):
        msg = f"unknown {kind} {name!r}"
        if suggestions:
            msg += "; did you mean: " + ", ".join(suggestions)
        super().__init__(msg)
        self.kind = kind
        self.name = name
        self.suggestions = suggestions


@dataclass(frozen=True)
class MaterialSpec:
    """A sheet material and the two stresses the force formulas read."""

    name: str
    shear_stress: float  # tau, N/mm^2
    yield_stress: float  # Ys, N/mm^2


@dataclass(frozen=True)
class ToolSpec:
    """A press: its kind, force coefficient and largest force."""

    name: str
    kind: str
    force_coefficient: float  # Kd, dimensionless
    max_force: float  # N; 0 means unlimited


# Kd = 1/3 reproduces every golden-row force figure for a plain punching press.
DEFAULT_KD = 1.0 / 3.0

_BUILTIN_MATERIALS = {
    "low_carbon_steel": MaterialSpec("low_carbon_steel", shear_stress=100.0, yield_stress=210.0),
}

_BUILTIN_TOOLS = {
    "punching_press": ToolSpec("punching_press", kind="punching_press",
                               force_coefficient=DEFAULT_KD, max_force=0.0),
}


def builtin_materials() -> dict[str, MaterialSpec]:
    return dict(_BUILTIN_MATERIALS)


def builtin_tools() -> dict[str, ToolSpec]:
    return dict(_BUILTIN_TOOLS)


def _number(entry: dict, field: str, path: str, positive: bool = True) -> float:
    """``entry[field]`` (0 when absent) as a finite float, > 0 or, if not positive, >= 0."""
    value = entry.get(field, 0.0)
    path = f"{path}/{field}"
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ResourceSchemaError(path, f"expected a finite number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # the integer itself may be too long to print
        raise ResourceSchemaError(path, "expected a finite number, got an integer too large "
                                        "for a float") from None
    if not math.isfinite(number):
        raise ResourceSchemaError(path, f"expected a finite number, got {value!r}")
    if value < 0 or (positive and value == 0):
        raise ResourceSchemaError(path, f"must be {'>' if positive else '>='} 0, got {value}")
    return number


def _load(text: str, key: str, required: tuple[str, ...], build) -> dict:
    """Decode ``{key: [...]}``; ``build`` each entry, keyed by its stripped, lower-cased name."""
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ResourceSchemaError("/", "not valid JSON: nested too deeply") from None
    except ValueError as exc:  # malformed, or an integer past the digit limit
        raise ResourceSchemaError("/", f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or key not in doc:
        raise ResourceSchemaError(f"/{key}", "missing required key")
    if not isinstance(doc[key], list):
        raise ResourceSchemaError(f"/{key}", "expected a list")
    out: dict = {}
    for i, entry in enumerate(doc[key]):
        path = f"/{key}/{i}"
        if not isinstance(entry, dict):
            raise ResourceSchemaError(path, "expected an object")
        name = entry.get("name")
        if not isinstance(name, str) or not name.strip():
            raise ResourceSchemaError(f"{path}/name", "expected a non-empty string")
        name = name.strip().lower()
        if name in out:
            raise DuplicateName(name)
        for field in required:
            if field not in entry:
                raise ResourceSchemaError(f"{path}/{field}", "missing required key")
        out[name] = build(name, entry, path)
    return out


def _material(name: str, entry: dict, path: str) -> MaterialSpec:
    return MaterialSpec(name, _number(entry, "shear_stress", path),
                        _number(entry, "yield_stress", path))


def _tool(name: str, entry: dict, path: str) -> ToolSpec:
    kind = entry.get("kind", "punching_press")
    if not isinstance(kind, str):
        raise ResourceSchemaError(f"{path}/kind", "expected a string")
    return ToolSpec(name, kind, _number(entry, "force_coefficient", path),
                    _number(entry, "max_force", path, positive=False))


def load_materials(text: str) -> dict[str, MaterialSpec]:
    """Parse {"materials": [...]} into a name-keyed map (names lower-cased)."""
    return _load(text, "materials", ("shear_stress", "yield_stress"), _material)


def load_tools(text: str) -> dict[str, ToolSpec]:
    """Parse {"tools": [...]} into a name-keyed map (names lower-cased)."""
    return _load(text, "tools", ("force_coefficient",), _tool)


def merge(base: dict, extra: dict) -> dict:
    """User entries override built-ins; applying the same overlay twice is a no-op."""
    out = dict(base)
    out.update(extra)
    return out


def _edit_distance(a: str, b: str, cap: int = 3) -> int:
    if abs(len(a) - len(b)) > cap:
        return cap + 1
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def lookup(db: dict, name: str, kind: str):
    """Case-insensitive fetch; raises NotFound with names at edit distance <= 2."""
    key = name.strip().lower()
    if key in db:
        return db[key]
    suggestions = sorted(n for n in db if _edit_distance(key, n) <= 2)
    raise NotFound(kind, name, suggestions)
