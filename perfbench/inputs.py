"""Seeded input sets for the three workloads.

Every model is a native-JSON B-Rep document authored with the attachment
generators of ``tests/modelzoo.py`` (imported read-only). ``build`` writes
the model files of one workload and returns them with what the generator
expects of each, so the oracle never has to ask the program.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

import modelzoo
import stepwriter

WORKLOADS = ("grid-json", "step-parts", "small-batch")

KINDS = ("rect_cut", "circle_cut", "tab", "shelf", "hood", "bridge", "boss")

# Grid geometry. Attachments sit at 12 + 40*i on both plan axes with a plan
# footprint of at most 28 mm, so neighbours and sheet edges stay 12 mm clear
# and every coordinate stays on the 4 mm grid modelzoo relies on for
# unambiguous pairing.
PITCH = 40.0
OFFSET = 12.0

GRID_JSON_SIZES = tuple(range(6, 15))
STEP_SIZES = (2, 3, 4, 5)
STEP_PER_SIZE = 6
SMALL_BATCH_PARTS = 500


@dataclass(frozen=True)
class Part:
    path: Path
    name: str
    expected: tuple[dict, ...]  # one modelzoo ``Attachment.expected`` per attachment
    faces: int
    entities: int  # Part-21 entity count; 0 for JSON input


@dataclass(frozen=True)
class InputSet:
    parts: tuple[Part, ...]
    digest: str  # sha256 over every file name and its bytes, in part order
    total_bytes: int


def attachment(kind: str, rng: random.Random, x0: float, y0: float) -> modelzoo.Attachment:
    h = rng.choice((8.0, 12.0, 16.0))
    if kind in ("circle_cut", "boss"):
        r = rng.choice((4.0, 6.0, 8.0))
        pad = modelzoo.T if kind == "boss" else 0.0
        c = r + pad
        if kind == "boss":
            return modelzoo.boss(x0 + c, y0 + c, r, h)
        return modelzoo.circle_cut(x0 + c, y0 + c, r)
    rect = (x0, y0, x0 + rng.choice((20.0, 24.0, 28.0)), y0 + rng.choice((16.0, 20.0, 24.0)))
    if kind == "rect_cut":
        return modelzoo.rect_cut(*rect)
    return getattr(modelzoo, kind)(*rect, h)


def grid_sheet(rng: random.Random, k: int, name: str) -> tuple[dict, list[dict]]:
    """k x k attachments on the 40 mm pitch.

    Each kind fills k*k/7 cells (rounded either way), shuffled by seed, so the
    face count of a size varies little between seeds while the layout does.
    """
    start = rng.randrange(len(KINDS))
    kinds = [KINDS[(start + i) % len(KINDS)] for i in range(k * k)]
    rng.shuffle(kinds)
    atts = [
        attachment(kinds[i * k + j], rng, OFFSET + PITCH * i, OFFSET + PITCH * j)
        for i in range(k) for j in range(k)
    ]
    side = PITCH * k + OFFSET
    return modelzoo.sheet_doc(name, side, side, atts), [a.expected for a in atts]


def _models(workload: str, rng: random.Random) -> list[tuple[str, dict, list[dict]]]:
    if workload == "grid-json":
        return [(f"grid_k{k:02d}", *grid_sheet(rng, k, f"grid_k{k:02d}")) for k in GRID_JSON_SIZES]
    if workload == "step-parts":
        return [
            (f"step_k{k}_{n}", *grid_sheet(rng, k, f"step_k{k}_{n}"))
            for k in STEP_SIZES for n in range(STEP_PER_SIZE)
        ]
    if workload == "small-batch":
        return [
            (f"small_{n:03d}", *modelzoo.random_sheet(rng, name=f"small_{n:03d}"))
            for n in range(SMALL_BATCH_PARTS)
        ]
    raise ValueError(f"unknown workload {workload!r}")


def build(workload: str, seed: int, directory: Path) -> InputSet:
    """Write the workload's model files into ``directory`` (created fresh)."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    digest = hashlib.sha256()
    parts = []
    total = 0
    for name, doc, expected in _models(workload, rng):
        if workload == "step-parts":
            text, entities = stepwriter.write_step(doc)
            path = directory / f"{name}.step"
        else:
            text, entities = json.dumps(doc), 0
            path = directory / f"{name}.json"
        data = text.encode("utf-8")
        path.write_bytes(data)
        digest.update(path.name.encode() + b"\0" + data + b"\0")
        total += len(data)
        parts.append(Part(path, name, tuple(expected), len(doc["faces"]), entities))
    return InputSet(tuple(parts), digest.hexdigest(), total)
