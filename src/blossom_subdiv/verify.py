"""Randomized equivalence check: closed-form control points against the
brute-force blossom oracle, compared exactly."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from . import documents
from .geometry import BezierCurve, TensorPatch
from .numerics import VERIFY_MAX_DEGREE_CAP
from .oracle import blossom_curve, blossom_tensor, blossom_triangle
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


def _curve_points(curve, patch):
    """(index, closed form, oracle) per control point; point nu is the
    blossom at nu copies of b and n - nu copies of a."""
    a, b, n = patch.domain.a, patch.domain.b, patch.degree
    for nu, got in enumerate(patch.control_points):
        yield (nu,), got, blossom_curve(curve, (b,) * nu + (a,) * (n - nu))


def _tensor_points(surface, patch):
    n, m = patch.degrees
    u, v = patch.domain.u_range, patch.domain.v_range
    for nu, row in enumerate(patch.control_points):
        for mu, got in enumerate(row):
            u_args = (u.b,) * nu + (u.a,) * (n - nu)
            v_args = (v.b,) * mu + (v.a,) * (m - mu)
            yield (nu, mu), got, blossom_tensor(surface, u_args, v_args)


def _triangle_points(surface, patch):
    tri, n_total = patch.domain, patch.degree
    for nu, mu, got in patch.labelled_points():
        args = (tri.va,) * nu + (tri.vb,) * mu + (tri.vc,) * (n_total - nu - mu)
        yield (nu, mu), got, blossom_triangle(surface, args)


def _trial(rng: random.Random, max_degree: int):
    """Draw and subdivide one trial's instances, curve then tpb then tb:
    (shape, input, patch, lazy per-point comparisons)."""
    curve = random_curve(rng, max_degree)
    patch = subdivide_curve(curve, random_interval(rng))
    yield "curve", curve, patch, _curve_points(curve, patch)
    surface = random_surface(rng, max_degree, max_degree)
    patch = subdivide_tensor(surface, random_rect(rng))
    yield "tpb", surface, patch, _tensor_points(surface, patch)
    surface = random_surface(rng, max_degree, max_degree)
    patch = subdivide_triangle(surface, random_triangle(rng))
    yield "tb", surface, patch, _triangle_points(surface, patch)


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
    if not 0 <= max_degree <= VERIFY_MAX_DEGREE_CAP:
        raise ValueError(
            f"max degree must lie in 0..{VERIFY_MAX_DEGREE_CAP}, got {max_degree}"
        )
    rng = random.Random(seed)
    report = VerifyReport(trials=trials, checked_points={"curve": 0, "tpb": 0, "tb": 0})
    for trial in range(trials):
        for shape, obj, patch, points in _trial(rng, max_degree):
            compared = 0
            for index, got, want in points:
                if got != want:
                    report.mismatch = Mismatch(
                        shape, trial, index, _point_strings(got), _point_strings(want),
                        _counterexample(obj, patch),
                    )
                    return report
                compared += 1
            report.checked_points[shape] += compared
    return report
