"""Closed-form subdivision control points.

Each control point of the restricted curve/patch is the blossom of the
monomial input at a fixed multiset of domain parameters; the functions
here compute those values directly from the coefficients with nested
bounded sums instead of enumerating index subsets. The blossom oracle
module provides the independent cross-check.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterator, Optional

from .numerics import RATIONAL_ZERO, TermCounter, binomial, multinomial
from .geometry import (
    BezierCurve,
    DomainTriangle,
    MonomialCurve,
    MonomialSurface,
    ParamInterval,
    ParamRect,
    Point3,
    TensorPatch,
    TrianglePatch,
    ZERO3,
)


def subdivide_curve(
    curve: MonomialCurve, interval: ParamInterval, counter: Optional[TermCounter] = None
) -> BezierCurve:
    """Bernstein control points of the curve restricted to [a, b].

    Control point nu equals the blossom at nu copies of b and n - nu
    copies of a, computed here as a double sum over coefficient index i
    and the count k of b-slots used by each monomial term.
    """
    n = curve.degree
    a, b = interval.a, interval.b
    points = []
    for nu in range(n + 1):
        acc = ZERO3
        for i, coeff in enumerate(curve.coeffs):
            s = RATIONAL_ZERO
            for k in range(max(0, i + nu - n), min(i, nu) + 1):
                s += binomial(nu, k) * binomial(n - nu, i - k) * b**k * a ** (i - k)
                if counter is not None:
                    counter.add()
            acc = acc + (s / binomial(n, i)) * coeff
        points.append(acc)
    return BezierCurve(tuple(points), interval)


def subdivide_tensor(
    surface: MonomialSurface, rect: ParamRect, counter: Optional[TermCounter] = None
) -> TensorPatch:
    """Bernstein control grid of the surface restricted to [a,b] x [c,d].

    The (nu, mu) point is the blossom at nu copies of b / n - nu of a in
    the u slots and mu copies of d / m - mu of c in the v slots; the two
    directions contribute independent bounded sums.
    """
    n, m = surface.degrees
    a, b = rect.u_range.a, rect.u_range.b
    c, d = rect.v_range.a, rect.v_range.b
    grid = []
    for nu in range(n + 1):
        row = []
        for mu in range(m + 1):
            acc = ZERO3
            for i, coeff_row in enumerate(surface.coeffs):
                for j, coeff in enumerate(coeff_row):
                    s = RATIONAL_ZERO
                    for k in range(max(0, i + nu - n), min(i, nu) + 1):
                        u_factor = binomial(nu, k) * binomial(n - nu, i - k) * b**k * a ** (i - k)
                        for r in range(max(0, j + mu - m), min(j, mu) + 1):
                            s += (
                                u_factor
                                * binomial(mu, r)
                                * binomial(m - mu, j - r)
                                * d**r
                                * c ** (j - r)
                            )
                            if counter is not None:
                                counter.add()
                    acc = acc + (s / (binomial(n, i) * binomial(m, j))) * coeff
            row.append(acc)
        grid.append(tuple(row))
    return TensorPatch(tuple(grid), rect)


def iter_placements(
    n_total: int, nu: int, mu: int, i: int, j: int
) -> Iterator[tuple[int, int, int, int, int, int]]:
    """Loop bounds of the triangular closed form for one (nu, mu, i, j) cell.

    Yields every (i_alpha, i_beta, i_gamma, j_alpha, j_beta, j_gamma) split
    of the monomial indices over the zones of nu, mu and N - nu - mu
    slots, in the nesting order i_alpha, i_beta, j_alpha, j_beta. Each
    range keeps the later counts within their zone sizes; a range with
    lo > hi is empty and contributes nothing.
    """
    lam = n_total - nu - mu
    for i_alpha in range(max(0, i + nu - n_total), min(i, nu) + 1):
        for i_beta in range(max(0, i - i_alpha - lam), min(i - i_alpha, mu) + 1):
            i_gamma = i - i_alpha - i_beta
            for j_alpha in range(
                max(0, j - (mu - i_beta) - (lam - i_gamma)), min(j, nu - i_alpha) + 1
            ):
                for j_beta in range(
                    max(0, j - j_alpha - (lam - i_gamma)), min(j - j_alpha, mu - i_beta) + 1
                ):
                    yield i_alpha, i_beta, i_gamma, j_alpha, j_beta, j - j_alpha - j_beta


def _numerator(value: Fraction, q: int) -> int:
    """Integer numerator of value over the denominator q, a multiple of
    value's own denominator."""
    return value.numerator * (q // value.denominator)


def subdivide_triangle(
    surface: MonomialSurface, tri: DomainTriangle, counter: Optional[TermCounter] = None
) -> TrianglePatch:
    """Bernstein control points of the surface restricted to a triangle.

    The patch has total degree N = n + m. Point (nu, mu) is the blossom at
    nu copies of vertex va, mu of vb, and N - nu - mu of vc; each monomial
    coefficient contributes a four-fold sum over the per-zone index counts
    produced by iter_placements.

    The sum runs in integers: the first vertex coordinates share the
    denominator q1 and the second q2, so every summand of cell (i, j) lies
    over q1**i * q2**j. Each cell's weight is put over the common
    denominator L = lcm(multinomial(N, i, j) * q1**i * q2**j), each
    coefficient axis over its own common denominator, and each output
    coordinate is one Fraction(total, L * q_axis).
    """
    n, m = surface.degrees
    n_total = n + m
    vertices = (tri.va, tri.vb, tri.vc)
    q1 = lcm(*(v.s.denominator for v in vertices))
    q2 = lcm(*(v.t.denominator for v in vertices))
    a1, b1, c1 = (_numerator(v.s, q1) for v in vertices)
    a2, b2, c2 = (_numerator(v.t, q2) for v in vertices)
    # Row r of a coordinate's table holds C(r, k) * x**k for k = 0..r.
    ta1, tb1, tc1, ta2, tb2, tc2 = (
        [[binomial(r, k) * x**k for k in range(r + 1)] for r in range(n_total + 1)]
        for x in (a1, b1, c1, a2, b2, c2)
    )
    cell_den = [
        [multinomial(n_total, i, j) * q1**i * q2**j for j in range(m + 1)] for i in range(n + 1)
    ]
    den = lcm(*(d for row in cell_den for d in row))
    scale = [[den // d for d in row] for row in cell_den]
    points = [c.as_tuple() for row in surface.coeffs for c in row]
    axis_den = [lcm(*(v.denominator for v in axis)) for axis in zip(*points)]
    coeffs = [
        [tuple(map(_numerator, c.as_tuple(), axis_den)) for c in row] for row in surface.coeffs
    ]
    rows = []
    for nu in range(n_total + 1):
        row = []
        for mu in range(n_total - nu + 1):
            lam = n_total - nu - mu
            a1_nu, b1_mu, c1_lam = ta1[nu], tb1[mu], tc1[lam]
            tx = ty = tz = 0
            for i, coeff_row in enumerate(coeffs):
                for j, (x, y, z) in enumerate(coeff_row):
                    s = 0
                    for i_a, i_b, i_g, j_a, j_b, j_g in iter_placements(n_total, nu, mu, i, j):
                        s += (
                            a1_nu[i_a]
                            * b1_mu[i_b]
                            * c1_lam[i_g]
                            * ta2[nu - i_a][j_a]
                            * tb2[mu - i_b][j_b]
                            * tc2[lam - i_g][j_g]
                        )
                        if counter is not None:
                            counter.add()
                    s *= scale[i][j]
                    tx += s * x
                    ty += s * y
                    tz += s * z
            row.append(
                Point3(*(Fraction(t, den * q) for t, q in zip((tx, ty, tz), axis_den)))
            )
        rows.append(tuple(row))
    return TrianglePatch(tuple(rows), tri)


def _binomial_chain(*pairs: tuple[int, int]) -> int:
    """Product of binomials that short-circuits to 0, treating a negative
    upper argument as an empty choice set."""
    out = 1
    for n, k in pairs:
        if n < 0:
            return 0
        out *= binomial(n, k)
        if out == 0:
            return 0
    return out


def placement_count_u_first(
    nu: int,
    mu: int,
    n_total: int,
    i_alpha: int,
    i_beta: int,
    i_gamma: int,
    j_alpha: int,
    j_beta: int,
    j_gamma: int,
) -> int:
    """Number of disjoint index-set pairs with the prescribed per-zone
    counts, grouping the first-coordinate placements before the second."""
    counts = (i_alpha, i_beta, i_gamma, j_alpha, j_beta, j_gamma)
    if any(c < 0 for c in counts):
        raise ValueError(f"zone counts must be non-negative, got {counts}")
    lam = n_total - nu - mu
    return _binomial_chain(
        (nu, i_alpha),
        (mu, i_beta),
        (lam, i_gamma),
        (nu - i_alpha, j_alpha),
        (mu - i_beta, j_beta),
        (lam - i_gamma, j_gamma),
    )


def placement_count_v_first(
    nu: int,
    mu: int,
    n_total: int,
    i_alpha: int,
    i_beta: int,
    i_gamma: int,
    j_alpha: int,
    j_beta: int,
    j_gamma: int,
) -> int:
    """Same count as placement_count_u_first with the grouping swapped:
    second-coordinate placements chosen first. The two must agree on
    every valid tuple."""
    counts = (i_alpha, i_beta, i_gamma, j_alpha, j_beta, j_gamma)
    if any(c < 0 for c in counts):
        raise ValueError(f"zone counts must be non-negative, got {counts}")
    lam = n_total - nu - mu
    return _binomial_chain(
        (nu, j_alpha),
        (mu, j_beta),
        (lam, j_gamma),
        (nu - j_alpha, i_alpha),
        (mu - j_beta, i_beta),
        (lam - j_gamma, i_gamma),
    )
