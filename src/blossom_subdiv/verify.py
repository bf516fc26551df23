"""Randomized equivalence check: closed-form control points against the
brute-force blossom oracle, compared exactly."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from . import documents
from .geometry import BezierCurve, TensorPatch
from .numerics import ORACLE_DEGREE_CAP
from .oracle import blossom_net
from .sampling import random_curve, random_interval, random_rect, random_surface, random_triangle
from .subdivision import subdivide_curve, subdivide_tensor, subdivide_triangle


@dataclass
class Mismatch:
    shape: str
    trial: int
    index: tuple[int, ...]
    closed_form: list[str]
    oracle: list[str]
    instance: dict


@dataclass
class VerifyReport:
    trials: int
    checked_points: dict[str, int] = field(default_factory=dict)
    mismatch: Optional[Mismatch] = None

    @property
    def ok(self) -> bool:
        return self.mismatch is None


def _point_strings(p) -> list[str]:
    return [str(p.x), str(p.y), str(p.z)]


def _kernel_points(patch):
    """The patch's control points in row-major order."""
    if isinstance(patch, BezierCurve):
        return patch.control_points
    rows = patch.control_points if isinstance(patch, TensorPatch) else patch.rows
    return [p for row in rows for p in row]


def _trial(rng: random.Random, max_degree: int):
    """Draw and subdivide one trial's instances, curve then tpb then tb:
    (shape, input, patch)."""
    curve = random_curve(rng, max_degree)
    yield "curve", curve, subdivide_curve(curve, random_interval(rng))
    surface = random_surface(rng, max_degree, max_degree)
    yield "tpb", surface, subdivide_tensor(surface, random_rect(rng))
    surface = random_surface(rng, max_degree, max_degree)
    yield "tb", surface, subdivide_triangle(surface, random_triangle(rng))


def _counterexample(obj, patch) -> dict:
    """The input document with the domain as its patch document writes it,
    so the failing instance can be replayed through the CLI."""
    if isinstance(patch, BezierCurve):
        doc, patch_doc = documents.curve_document(obj), documents.bezier_curve_document(patch)
    elif isinstance(patch, TensorPatch):
        doc, patch_doc = documents.surface_document(obj), documents.tensor_patch_document(patch)
    else:
        doc, patch_doc = documents.surface_document(obj), documents.triangle_patch_document(patch)
    doc["domain"] = patch_doc["domain"]
    return doc


def run_verification(trials: int, max_degree: int, seed: int) -> VerifyReport:
    """Draw random instances per shape and compare every control point.

    Stops at the first mismatch; a mismatch means a bug in one of the two
    code paths, never acceptable numeric noise (everything is exact).
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if not 0 <= max_degree <= ORACLE_DEGREE_CAP:
        raise ValueError(
            f"max degree must lie in 0..{ORACLE_DEGREE_CAP}, got {max_degree}"
        )
    rng = random.Random(seed)
    report = VerifyReport(trials=trials, checked_points={"curve": 0, "tpb": 0, "tb": 0})
    for trial in range(trials):
        for shape, obj, patch in _trial(rng, max_degree):
            compared = 0
            net = blossom_net(obj, patch.domain)
            for (index, want), got in zip(net, _kernel_points(patch), strict=True):
                if got != want:
                    report.mismatch = Mismatch(
                        shape, trial, index, _point_strings(got), _point_strings(want),
                        _counterexample(obj, patch),
                    )
                    return report
                compared += 1
            report.checked_points[shape] += compared
    return report
