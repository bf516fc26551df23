"""The paper's closed form for triangular patches, kept as a reference.

Point (nu, mu) is the blossom at nu copies of va, mu of vb and N - nu - mu
of vc, summed four-fold over the placements of each monomial's indices in
those zones. No command but bench runs it: subdivision.subdivide_triangle
is the production kernel, and the tests hold it to this one.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from typing import Iterator

from .numerics import binomial, multinomial
from .geometry import (
    DomainTriangle, MonomialSurface, Point3, TrianglePatch, over_common_denominators,
)


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


def subdivide_triangle_four_fold(surface: MonomialSurface, tri: DomainTriangle) -> TrianglePatch:
    """subdivision.subdivide_triangle by the paper's closed form: point
    (nu, mu) is the blossom at nu copies of va, mu of vb and N - nu - mu
    of vc, and each monomial coefficient contributes a four-fold sum over
    the per-zone index counts produced by iter_placements.

    The sum runs in integers: the first vertex coordinates share the
    denominator q1 and the second q2, so every summand of cell (i, j) lies
    over q1**i * q2**j. Each cell's weight is put over the common
    denominator L = lcm(multinomial(N, i, j) * q1**i * q2**j), each
    coefficient axis over its own common denominator, and each output
    coordinate is one Fraction(total, L * q_axis).
    """
    n, m = surface.degrees
    n_total = n + m
    ((a1, a2), (b1, b2), (c1, c2)), (q1, q2) = over_common_denominators((tri.va, tri.vb, tri.vc))
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
    points, axis_den = over_common_denominators([c for row in surface.coeffs for c in row])
    coeffs = [points[i * (m + 1) : (i + 1) * (m + 1)] for i in range(n + 1)]
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
                    s *= scale[i][j]
                    tx += s * x
                    ty += s * y
                    tz += s * z
            row.append(
                Point3(*(Fraction(t, den * q) for t, q in zip((tx, ty, tz), axis_den)))
            )
        rows.append(tuple(row))
    return TrianglePatch(tuple(rows), tri)


def _placement_count(nu: int, mu: int, n_total: int, first: tuple, second: tuple) -> int:
    """Number of disjoint index-set pairs that put first[z] indices of one
    set and second[z] of the other in zone z (nu, mu and N - nu - mu
    slots), choosing the first set's indices before the second's. A zone
    left with negative room holds no placement."""
    counts = first + second
    if any(c < 0 for c in counts):
        raise ValueError(f"zone counts must be non-negative, got {counts}")
    zones = (nu, mu, n_total - nu - mu)
    uppers = zones + tuple(z - f for z, f in zip(zones, first))
    return 0 if min(uppers) < 0 else prod(map(binomial, uppers, counts))


def placement_count_u_first(
    nu: int, mu: int, n_total: int,
    i_alpha: int, i_beta: int, i_gamma: int,
    j_alpha: int, j_beta: int, j_gamma: int,
) -> int:
    """Number of disjoint index-set pairs with the prescribed per-zone
    counts, grouping the first-coordinate placements before the second."""
    return _placement_count(
        nu, mu, n_total, (i_alpha, i_beta, i_gamma), (j_alpha, j_beta, j_gamma)
    )


def placement_count_v_first(
    nu: int, mu: int, n_total: int,
    i_alpha: int, i_beta: int, i_gamma: int,
    j_alpha: int, j_beta: int, j_gamma: int,
) -> int:
    """Same count as placement_count_u_first with the grouping swapped:
    second-coordinate placements chosen first. The two must agree on
    every valid tuple."""
    return _placement_count(
        nu, mu, n_total, (j_alpha, j_beta, j_gamma), (i_alpha, i_beta, i_gamma)
    )
