"""Brute-force blossom evaluation by literal enumeration of distinct-index
subsets, and the control nets built from it.

Every blossom is its polar-form definition summed term by term: one
product per index subset (curves), per pair of a u subset and a v subset
(tensor surfaces), and per pair of disjoint subsets (triangular
surfaces). This module is the ground truth the closed-form subdivision is
checked against, so it deliberately shares no code with that path and
does no memoization, factoring or pruning: combinatorial cost is the
price of trust.
"""

from __future__ import annotations

from itertools import combinations
from math import prod
from typing import Sequence

from .numerics import (
    RATIONAL_ONE,
    RATIONAL_ZERO,
    Rational,
    binomial,
    multinomial,
)
from .geometry import MonomialCurve, MonomialSurface, ParamRect, Point2, Point3, ZERO3

# Blossom argument bundles. Lengths must match the polynomial's degree(s);
# the evaluation functions enforce that.
CurveBlossomArgs = Sequence[Rational]
TriangleBlossomArgs = Sequence[Point2]


def monomial_blossom_curve(i: int, values: CurveBlossomArgs) -> Rational:
    """Blossom of u**i at the given n arguments.

    Averages the products over all i-element index subsets of {1..n};
    the empty subset makes the i = 0 case exactly 1.
    """
    n = len(values)
    if i < 0 or i > n:
        raise ValueError(f"monomial index {i} out of range for {n} arguments")
    total = RATIONAL_ZERO
    for subset in combinations(range(n), i):
        total += prod((values[k] for k in subset), start=RATIONAL_ONE)
    return total / binomial(n, i)


def blossom_curve(curve: MonomialCurve, values: CurveBlossomArgs) -> Point3:
    """Coefficient-weighted sum of monomial blossoms."""
    n = curve.degree
    if len(values) != n:
        raise ValueError(f"curve blossom needs {n} arguments, got {len(values)}")
    acc = ZERO3
    for i, coeff in enumerate(curve.coeffs):
        acc = acc + monomial_blossom_curve(i, values) * coeff
    return acc


def monomial_blossom_tensor(
    i: int,
    j: int,
    u_values: Sequence[Rational],
    v_values: Sequence[Rational],
) -> Rational:
    """Blossom of u**i v**j at n u-arguments and m v-arguments.

    Sums the products over every pair of an i-element subset of the u
    indices and a j-element subset of the v indices, and divides by the
    C(n, i) C(m, j) pairs. That this equals the product of the two
    univariate blossoms is asserted by the tests, not used here.
    """
    n, m = len(u_values), len(v_values)
    if not (0 <= i <= n and 0 <= j <= m):
        raise ValueError(f"monomial indices ({i}, {j}) out of range for ({n}, {m}) arguments")
    total = RATIONAL_ZERO
    for alpha in combinations(range(n), i):
        u_part = prod((u_values[k] for k in alpha), start=RATIONAL_ONE)
        for beta in combinations(range(m), j):
            total += u_part * prod((v_values[k] for k in beta), start=RATIONAL_ONE)
    return total / (binomial(n, i) * binomial(m, j))


def blossom_tensor(
    surface: MonomialSurface,
    u_values: Sequence[Rational],
    v_values: Sequence[Rational],
) -> Point3:
    n, m = surface.degrees
    if len(u_values) != n or len(v_values) != m:
        raise ValueError(
            f"tensor blossom needs ({n}, {m}) arguments, got ({len(u_values)}, {len(v_values)})"
        )
    acc = ZERO3
    for i, row in enumerate(surface.coeffs):
        for j, coeff in enumerate(row):
            acc = acc + monomial_blossom_tensor(i, j, u_values, v_values) * coeff
    return acc


def monomial_blossom_triangle(i: int, j: int, points: TriangleBlossomArgs) -> Rational:
    """Bivariate blossom of u**i v**j at N = len(points) arguments.

    Enumerates every ordered pair of disjoint index subsets (size i for
    the first coordinates, size j for the second) in lexicographic order
    and divides by the multinomial count. With i = 0 or j = 0 this
    reduces to the univariate blossom over the matching coordinate.
    """
    n_total = len(points)
    if i < 0 or j < 0 or i + j > n_total:
        raise ValueError(
            f"monomial indices ({i}, {j}) out of range for {n_total} arguments"
        )
    total = RATIONAL_ZERO
    indices = range(n_total)
    for alpha in combinations(indices, i):
        taken = set(alpha)
        u_part = prod((points[k].s for k in alpha), start=RATIONAL_ONE)
        remaining = [k for k in indices if k not in taken]
        for beta in combinations(remaining, j):
            total += u_part * prod((points[k].t for k in beta), start=RATIONAL_ONE)
    return total / multinomial(n_total, i, j)


def blossom_triangle(surface: MonomialSurface, points: TriangleBlossomArgs) -> Point3:
    n, m = surface.degrees
    if len(points) != n + m:
        raise ValueError(
            f"triangle blossom needs {n + m} arguments, got {len(points)}"
        )
    acc = ZERO3
    for i, row in enumerate(surface.coeffs):
        for j, coeff in enumerate(row):
            acc = acc + monomial_blossom_triangle(i, j, points) * coeff
    return acc


def blossom_net(obj, domain):
    """(index, control point) of obj restricted to domain, in the kernels'
    row-major order: (nu,) over a ParamInterval, (nu, mu) over a ParamRect
    or a DomainTriangle. Each point is the blossom at the domain's
    vertices: b nu times and a n - nu times, per direction of a rectangle;
    va nu, vb mu and vc N - nu - mu times on a triangle. The blossoms are
    looked up as module globals at each call, so a wrapper set on this
    module (perfbench's tracer) sees every one.
    """
    if isinstance(obj, MonomialCurve):
        n, a, b = obj.degree, domain.a, domain.b
        for nu in range(n + 1):
            yield (nu,), blossom_curve(obj, (b,) * nu + (a,) * (n - nu))
    elif isinstance(domain, ParamRect):
        (n, m), u, v = obj.degrees, domain.u_range, domain.v_range
        for nu in range(n + 1):
            for mu in range(m + 1):
                u_args = (u.b,) * nu + (u.a,) * (n - nu)
                v_args = (v.b,) * mu + (v.a,) * (m - mu)
                yield (nu, mu), blossom_tensor(obj, u_args, v_args)
    else:
        n_total = sum(obj.degrees)
        for nu in range(n_total + 1):
            for mu in range(n_total - nu + 1):
                args = (domain.va,) * nu + (domain.vb,) * mu + (domain.vc,) * (n_total - nu - mu)
                yield (nu, mu), blossom_triangle(obj, args)
