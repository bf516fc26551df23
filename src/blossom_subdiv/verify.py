"""Randomized equivalence check: the subdivision kernels' control points
against the brute-force blossom oracle, compared exactly."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from . import documents
from .geometry import BezierCurve, TensorPatch
from .numerics import ORACLE_DEGREE_CAP
from .oracle import blossom_net
from .sampling import random_curve, random_interval, random_rect, random_surface, random_triangle
from .subdivision import subdivide


@dataclass
class Mismatch:
    shape: str
    trial: int
    index: tuple[int, ...]
    # A point's coordinates, or None where that side has no such point.
    kernel: Optional[list[str]]
    oracle: Optional[list[str]]
    instance: dict


@dataclass
class VerifyReport:
    trials: int
    checked_points: dict[str, int] = field(default_factory=dict)
    mismatch: Optional[Mismatch] = None

    @property
    def ok(self) -> bool:
        return self.mismatch is None


def _kernel_net(patch) -> dict:
    """The patch's control points by index, as blossom_net indexes them."""
    if isinstance(patch, BezierCurve):
        return {(k,): p for k, p in enumerate(patch.control_points)}
    rows = patch.control_points if isinstance(patch, TensorPatch) else patch.rows
    return {(r, c): p for r, row in enumerate(rows) for c, p in enumerate(row)}


def _trial(rng: random.Random, max_degree: int):
    """Draw one trial's instances, curve then tpb then tb: (shape, input,
    domain)."""
    curve = random_curve(rng, max_degree)
    yield "curve", curve, random_interval(rng)
    yield "tpb", random_surface(rng, max_degree, max_degree), random_rect(rng)
    yield "tb", random_surface(rng, max_degree, max_degree), random_triangle(rng)


def _counterexample(obj, domain) -> dict:
    """The input document with the domain as a patch document writes it,
    so the failing instance can be replayed through the CLI."""
    return {**documents.document(obj), "domain": documents.domain_to_json(domain)}


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
        for shape, obj, domain in _trial(rng, max_degree):
            kernel, oracle = _kernel_net(subdivide(obj, domain)), dict(blossom_net(obj, domain))
            # Row-major order; a point on one side only is compared with None.
            for index in sorted(oracle.keys() | kernel.keys()):
                got, want = kernel.get(index), oracle.get(index)
                if got != want:
                    kernel_json, oracle_json = (
                        None if p is None else documents.point_to_json(p) for p in (got, want)
                    )
                    report.mismatch = Mismatch(
                        shape, trial, index, kernel_json, oracle_json, _counterexample(obj, domain)
                    )
                    return report
            report.checked_points[shape] += len(oracle)
    return report
