"""Benchmark harness: the paper's closed forms vs. blossom enumeration.

Wall time is reported for context, but the durable signal is the term
count: the number of summands a formula evaluates, which exposes the
asymptotic gap independent of machine speed. Every summand is evaluated
whatever its value, so a cell's count depends on its degrees alone; it
is derived from them, through the loop bounds the closed forms
themselves use, and only the closed-form or oracle call is timed. The
closed-form side prices the paper's formulas: the curve and tensor
kernels, and for triangles the four-fold sum, which lives in the
reference module because no other command runs it. The enumeration side
prices the definitional formulas: per-subset products for curves,
per-pair products of index subsets for tensor patches, and disjoint
subset pairs for triangular patches.
"""

from __future__ import annotations

import csv
import random
import time
from typing import NamedTuple, Sequence, TextIO

from .numerics import ORACLE_DEGREE_CAP, multinomial
from .geometry import MonomialCurve, MonomialSurface
from .oracle import blossom_net
from .sampling import random_interval, random_point3, random_rect, random_triangle
from .reference import iter_placements, subdivide_triangle_four_fold
from .subdivision import _split_range, subdivide_curve, subdivide_tensor

SHAPES = ("curve", "tpb", "tb")
METHODS = ("closed-form", "oracle")
# The closed form of each shape, the function whose summands _cell_counts counts.
_CLOSED_FORMS = {
    "curve": subdivide_curve,
    "tpb": subdivide_tensor,
    "tb": subdivide_triangle_four_fold,
}


class BenchRecord(NamedTuple):
    """One CSV row; the fields are the columns, in order."""

    shape: str
    degrees: str
    method: str
    repetition: int
    wall_time_ns: int
    control_point_count: int
    term_count: int


def _bench_instance(shape: str, degree: int, seed: int):
    """Deterministic exact-degree instance for one (shape, degree) cell.
    String seeds hash reproducibly across processes, unlike tuples."""
    rng = random.Random(f"bench-{shape}-{degree}-{seed}")
    if shape == "curve":
        curve = MonomialCurve(tuple(random_point3(rng) for _ in range(degree + 1)))
        return curve, random_interval(rng)
    surface = MonomialSurface(
        tuple(tuple(random_point3(rng) for _ in range(degree + 1)) for _ in range(degree + 1))
    )
    domain = random_rect(rng) if shape == "tpb" else random_triangle(rng)
    return surface, domain


def _cell_counts(shape: str, method: str, n: int) -> tuple[int, int]:
    """(control_point_count, term_count) of a cell whose instance has
    degree n, or degrees (n, n) for a surface."""
    n_total = 2 * n
    if shape == "curve":
        points = n + 1
    elif shape == "tpb":
        points = (n + 1) ** 2
    else:
        points = (n_total + 1) * (n_total + 2) // 2
    if method == "oracle":
        # Per control point: one product per index subset (curve), per
        # pair of u and v subsets (tpb), per pair of disjoint subsets (tb).
        if shape == "curve":
            per_point = 2**n
        elif shape == "tpb":
            per_point = 2**n_total
        else:
            per_point = sum(
                multinomial(n_total, i, j) for i in range(n + 1) for j in range(n + 1)
            )
        return points, points * per_point
    if shape == "tb":
        cells = (
            (nu, mu, i, j)
            for nu in range(n_total + 1)
            for mu in range(n_total - nu + 1)
            for i in range(n + 1)
            for j in range(n + 1)
        )
        return points, sum(sum(1 for _ in iter_placements(n_total, *cell)) for cell in cells)
    # The tpb sum runs a curve sum in each direction.
    curve_terms = sum(len(_split_range(n, nu, i)) for nu in range(n + 1) for i in range(n + 1))
    return points, curve_terms if shape == "curve" else curve_terms**2


def _run_oracle(obj, domain) -> None:
    for _ in blossom_net(obj, domain):
        pass


def run_benchmark(
    shapes: Sequence[str],
    degrees: Sequence[int],
    repeat: int = 1,
    seed: int = 0,
    oracle_degree_cap: int = ORACLE_DEGREE_CAP,
) -> tuple[list[BenchRecord], list[str]]:
    """One record per (shape, degree, method, repetition); oracle rows
    above the degree cap are skipped with a warning instead of hanging."""
    if oracle_degree_cap > ORACLE_DEGREE_CAP:
        raise ValueError(
            f"oracle degree cap must be at most {ORACLE_DEGREE_CAP}, got {oracle_degree_cap}"
        )
    if not shapes:
        raise ValueError("no shapes requested")
    for shape in shapes:
        if shape not in SHAPES:
            raise ValueError(f"unknown shape {shape!r}, expected one of {SHAPES}")
    if not degrees:
        raise ValueError("no degrees requested")
    if any(d < 0 for d in degrees):
        raise ValueError("degrees must be non-negative")
    if repeat < 1:
        raise ValueError("repeat must be at least 1")
    records: list[BenchRecord] = []
    warnings: list[str] = []
    for shape in shapes:
        for degree in degrees:
            label = str(degree) if shape == "curve" else f"{degree}x{degree}"
            instance = _bench_instance(shape, degree, seed)
            for method in METHODS:
                if method == "oracle" and degree > oracle_degree_cap:
                    warnings.append(
                        f"skipping oracle for {shape} degree {label}: above cap "
                        f"{oracle_degree_cap} (enumeration cost is combinatorial)"
                    )
                    continue
                runner = _CLOSED_FORMS[shape] if method == "closed-form" else _run_oracle
                count, terms = _cell_counts(shape, method, degree)
                for repetition in range(repeat):
                    start = time.perf_counter_ns()
                    runner(*instance)
                    elapsed = time.perf_counter_ns() - start
                    records.append(
                        BenchRecord(shape, label, method, repetition, elapsed, count, terms)
                    )
    return records, warnings


def write_csv(records: Sequence[BenchRecord], stream: TextIO) -> None:
    writer = csv.writer(stream)
    writer.writerow(BenchRecord._fields)
    writer.writerows(records)
