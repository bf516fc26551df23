"""Benchmark harness: closed-form control points vs. blossom enumeration.

Wall time is reported for context but the durable signal is the
instrumented term count (summands actually evaluated), which exposes the
asymptotic gap independent of machine speed. The enumeration side prices
the definitional formulas: per-subset products for curves, per-pair
products of index subsets for tensor patches (not the cheaper product
factorization the oracle module ships), and disjoint subset pairs for
triangular patches.
"""

from __future__ import annotations

import csv
import random
import time
from dataclasses import dataclass
from itertools import combinations
from math import prod
from typing import Optional, Sequence, TextIO

from .numerics import RATIONAL_ONE, RATIONAL_ZERO, TermCounter, binomial
from .geometry import MonomialCurve, MonomialSurface, Point3, ZERO3
from .oracle import blossom_curve, blossom_triangle
from .sampling import random_interval, random_point3, random_rect, random_triangle
from .subdivision import subdivide_curve, subdivide_tensor, subdivide_triangle

SHAPES = ("curve", "tpb", "tb")
METHODS = ("closed-form", "oracle")
DEFAULT_ORACLE_DEGREE_CAP = 6
# verify runs the oracle on every trial at random degrees up to its
# --max-degree, and the oracle's cost is combinatorial in them: one
# worst-case tb pass takes about 3 s at 4x4 and 40 s at 5x5 (Python 3.11
# on one core of a shared 2-vCPU host), so larger bounds are refused.
VERIFY_MAX_DEGREE_CAP = 5

CSV_COLUMNS = (
    "shape",
    "degrees",
    "method",
    "repetition",
    "wall_time_ns",
    "control_point_count",
    "term_count",
)


@dataclass(frozen=True)
class BenchRecord:
    shape: str
    degrees: str
    method: str
    repetition: int
    wall_time_ns: int
    control_point_count: int
    term_count: int


def tensor_blossom_enumerated(
    surface: MonomialSurface,
    u_values: Sequence,
    v_values: Sequence,
    counter: Optional[TermCounter] = None,
) -> Point3:
    """Tensor blossom by enumerating every pair of index subsets.

    One summand per (u-subset, v-subset) pair; this is the definitional
    double enumeration the closed form is benchmarked against.
    """
    n, m = surface.degrees
    if len(u_values) != n or len(v_values) != m:
        raise ValueError("argument lengths must match the surface degrees")
    acc = ZERO3
    for i, row in enumerate(surface.coeffs):
        for j, coeff in enumerate(row):
            total = RATIONAL_ZERO
            pairs = 0
            for alpha in combinations(range(n), i):
                u_part = prod((u_values[k] for k in alpha), start=RATIONAL_ONE)
                for beta in combinations(range(m), j):
                    total += u_part * prod((v_values[k] for k in beta), start=RATIONAL_ONE)
                    pairs += 1
            if counter is not None:
                counter.add(pairs)
            acc = acc + (total / (binomial(n, i) * binomial(m, j))) * coeff
    return acc


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


def _run_closed_form(shape: str, instance) -> tuple[int, int, int]:
    obj, domain = instance
    counter = TermCounter()
    start = time.perf_counter_ns()
    if shape == "curve":
        result = subdivide_curve(obj, domain, counter)
        count = result.degree + 1
    elif shape == "tpb":
        result = subdivide_tensor(obj, domain, counter)
        n, m = result.degrees
        count = (n + 1) * (m + 1)
    else:
        result = subdivide_triangle(obj, domain, counter)
        count = (result.degree + 1) * (result.degree + 2) // 2
    elapsed = time.perf_counter_ns() - start
    return elapsed, count, counter.terms


def _run_oracle(shape: str, instance) -> tuple[int, int, int]:
    obj, domain = instance
    counter = TermCounter()
    start = time.perf_counter_ns()
    if shape == "curve":
        n = obj.degree
        a, b = domain.a, domain.b
        for nu in range(n + 1):
            blossom_curve(obj, (b,) * nu + (a,) * (n - nu), counter)
        count = n + 1
    elif shape == "tpb":
        n, m = obj.degrees
        a, b = domain.u_range.a, domain.u_range.b
        c, d = domain.v_range.a, domain.v_range.b
        for nu in range(n + 1):
            for mu in range(m + 1):
                tensor_blossom_enumerated(
                    obj, (b,) * nu + (a,) * (n - nu), (d,) * mu + (c,) * (m - mu), counter
                )
        count = (n + 1) * (m + 1)
    else:
        n, m = obj.degrees
        n_total = n + m
        for nu in range(n_total + 1):
            for mu in range(n_total - nu + 1):
                args = (domain.va,) * nu + (domain.vb,) * mu + (domain.vc,) * (n_total - nu - mu)
                blossom_triangle(obj, args, counter)
        count = (n_total + 1) * (n_total + 2) // 2
    elapsed = time.perf_counter_ns() - start
    return elapsed, count, counter.terms


def run_benchmark(
    shapes: Sequence[str],
    degrees: Sequence[int],
    repeat: int = 1,
    seed: int = 0,
    oracle_degree_cap: int = DEFAULT_ORACLE_DEGREE_CAP,
) -> tuple[list[BenchRecord], list[str]]:
    """One record per (shape, degree, method, repetition); oracle rows
    above the degree cap are skipped with a warning instead of hanging."""
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
                runner = _run_closed_form if method == "closed-form" else _run_oracle
                for repetition in range(repeat):
                    elapsed, count, terms = runner(shape, instance)
                    records.append(
                        BenchRecord(shape, label, method, repetition, elapsed, count, terms)
                    )
    return records, warnings


def write_csv(records: Sequence[BenchRecord], stream: TextIO) -> None:
    writer = csv.writer(stream)
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        writer.writerow(
            [
                rec.shape,
                rec.degrees,
                rec.method,
                rec.repetition,
                rec.wall_time_ns,
                rec.control_point_count,
                rec.term_count,
            ]
        )
