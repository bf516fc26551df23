"""Closed-form subdivision control points.

Each control point of the restricted curve/patch is the blossom of the
monomial input at a fixed multiset of domain parameters. The curve and
tensor kernels compute those values directly from the coefficients with
the paper's nested bounded sums instead of enumerating index subsets.

The triangle kernel composes the surface with the domain's barycentric
linear forms instead (DeRose, "Composing Bezier simplexes", ACM TOG 1988;
Farouki and Rajan, "Algorithms for polynomials in Bernstein form", CAGD
1988): written homogeneously in the barycentric coordinates, the
coefficient of each Bernstein monomial is the control point times its
multinomial. The paper's four-fold sum for the triangle stays here as
_subdivide_triangle_four_fold, the reference that bench prices and the
tests compare against. The blossom oracle module provides the independent
cross-check of both.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from typing import Iterator

from .numerics import RATIONAL_ZERO, binomial, multinomial
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
    combine_points,
    over_common_denominators,
)


def _split_range(n: int, nu: int, i: int) -> range:
    """Values of k, the number of the i factors of a degree-n monomial
    term placed on the nu second-endpoint slots (the other i - k go to
    the n - nu first-endpoint slots): the univariate loop bound of the
    curve and tensor closed forms."""
    return range(max(0, i + nu - n), min(i, nu) + 1)


def _split_term(n: int, nu: int, i: int, k: int, a, b):
    """Summand k of the univariate split sum over _split_range: the ways to
    place k of i factors on nu b-slots and i - k on n - nu a-slots, times
    b**k * a**(i - k). A tensor patch multiplies one per direction."""
    return binomial(nu, k) * binomial(n - nu, i - k) * b**k * a ** (i - k)


def subdivide_curve(curve: MonomialCurve, interval: ParamInterval) -> BezierCurve:
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
            for k in _split_range(n, nu, i):
                s += _split_term(n, nu, i, k, a, b)
            acc = acc + (s / binomial(n, i)) * coeff
        points.append(acc)
    return BezierCurve(tuple(points), interval)


def subdivide_tensor(surface: MonomialSurface, rect: ParamRect) -> TensorPatch:
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
                    r_range = _split_range(m, mu, j)
                    for k in _split_range(n, nu, i):
                        u_factor = _split_term(n, nu, i, k, a, b)
                        for r in r_range:
                            s += u_factor * _split_term(m, mu, j, r, c, d)
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


def _times_linear(poly: list, x: int, y: int, z: int) -> list:
    """poly * (x*alpha + y*beta + z*gamma). A homogeneous polynomial of
    degree d in the barycentric coordinates is held as rows: poly[nu][mu]
    is the coefficient of alpha**nu * beta**mu * gamma**(d - nu - mu)."""
    d = len(poly)
    out = [[0] * (d + 1 - nu) for nu in range(d + 1)]
    for nu, row in enumerate(poly):
        above, here = out[nu + 1], out[nu]
        for mu, c in enumerate(row):
            above[mu] += x * c
            here[mu + 1] += y * c
            here[mu] += z * c
    return out


def _linear_powers(n: int, x: int, y: int, z: int, q: int) -> list:
    """[L**i * (q*E)**(n - i) for i in 0..n], where L = x*alpha + y*beta +
    z*gamma and E = alpha + beta + gamma: the monomials of one parameter,
    q times it at the barycentric point, made homogeneous of degree n."""
    powers = [[[1]]]
    for _ in range(n):
        powers = [_times_linear(p, q, q, q) for p in powers] + [_times_linear(powers[-1], x, y, z)]
    return powers


def subdivide_triangle(surface: MonomialSurface, tri: DomainTriangle) -> TrianglePatch:
    """Bernstein control points of the surface restricted to a triangle.

    The patch has total degree N = n + m. Point (nu, mu) is the blossom at
    nu copies of vertex va, mu of vb, and N - nu - mu of vc; it is found by
    composition with the triangle's barycentric linear forms (DeRose 1988;
    Farouki and Rajan 1988), in integers.

    The first vertex coordinates share the denominator q1 and the second
    q2. At the barycentric point (alpha, beta, gamma) the parameters are
    S / q1 and T / q2, where S = a1*alpha + b1*beta + c1*gamma and T is
    the same with the second coordinates. With E = alpha + beta + gamma,
    q1**n * q2**m times the surface is the form of degree N
    sum_i S**i (q1 E)**(n - i) * sum_j c_ij T**j (q2 E)**(m - j),
    and its alpha**nu beta**mu gamma**(N - nu - mu) coefficient is
    multinomial(N, nu, mu) times that multiple of point (nu, mu). Each
    coefficient axis is put over its own common denominator, so the form
    is summed in integers, and each output coordinate is one
    Fraction(total, multinomial(N, nu, mu) * q1**n * q2**m * q_axis).
    """
    n, m = surface.degrees
    n_total = n + m
    ((a1, a2), (b1, b2), (c1, c2)), (q1, q2) = over_common_denominators((tri.va, tri.vb, tri.vc))
    # Row (nu, mu): the alpha**nu beta**mu coefficient of each T**j (q2 E)**(m - j).
    t_powers = _linear_powers(m, a2, b2, c2, q2)
    t_cells = [(nu, mu) for nu in range(m + 1) for mu in range(m + 1 - nu)]
    t_table = [[p[nu][mu] for p in t_powers] for nu, mu in t_cells]
    points, axis_den = over_common_denominators([c for row in surface.coeffs for c in row])
    totals = [[[0, 0, 0] for _ in range(n_total + 1 - nu)] for nu in range(n_total + 1)]
    for i, s_power in enumerate(_linear_powers(n, a1, b1, c1, q1)):
        # sum_j c_ij T**j (q2 E)**(m - j), one integer point per cell.
        inner = list(zip(t_cells, combine_points(t_table, points[i * (m + 1) : (i + 1) * (m + 1)])))
        for nu_s, s_row in enumerate(s_power):
            for mu_s, s in enumerate(s_row):
                for (nu, mu), (x, y, z) in inner:
                    total = totals[nu_s + nu][mu_s + mu]
                    total[0] += s * x
                    total[1] += s * y
                    total[2] += s * z
    den = q1**n * q2**m
    for nu, row in enumerate(totals):
        for mu, total in enumerate(row):
            scale = multinomial(n_total, nu, mu) * den
            row[mu] = Point3(*(Fraction(t, scale * q) for t, q in zip(total, axis_den)))
    return TrianglePatch(totals, tri)


def _subdivide_triangle_four_fold(surface: MonomialSurface, tri: DomainTriangle) -> TrianglePatch:
    """subdivide_triangle by the paper's closed form: point (nu, mu) is the
    blossom at nu copies of va, mu of vb and N - nu - mu of vc, and each
    monomial coefficient contributes a four-fold sum over the per-zone
    index counts produced by iter_placements. No command runs it; bench
    prices it and the tests hold subdivide_triangle to it.

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


def subdivide(obj, domain):
    """The Bernstein form of a curve over a ParamInterval, or of a surface
    over a ParamRect or a DomainTriangle, by the kernel of the domain. The
    kernels are module globals looked up at each call, as blossom_net's are."""
    if isinstance(obj, MonomialCurve) and isinstance(domain, ParamInterval):
        return subdivide_curve(obj, domain)
    if isinstance(obj, MonomialSurface) and isinstance(domain, ParamRect):
        return subdivide_tensor(obj, domain)
    if isinstance(obj, MonomialSurface) and isinstance(domain, DomainTriangle):
        return subdivide_triangle(obj, domain)
    raise ValueError(f"cannot subdivide a {type(obj).__name__} over a {type(domain).__name__}")


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
    return _placement_count(
        nu, mu, n_total, (i_alpha, i_beta, i_gamma), (j_alpha, j_beta, j_gamma)
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
    return _placement_count(
        nu, mu, n_total, (j_alpha, j_beta, j_gamma), (i_alpha, i_beta, i_gamma)
    )
