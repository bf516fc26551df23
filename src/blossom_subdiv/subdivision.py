"""Production subdivision kernels.

Each control point of the restricted curve/patch is the blossom of the
monomial input at a fixed multiset of domain parameters. The curve and
triangle kernels compose the polynomial with the domain's linear forms,
in integers (DeRose, "Composing Bezier simplexes", ACM TOG 1988; Farouki
and Rajan, "Algorithms for polynomials in Bernstein form", CAGD 1988).
One recurrence, _powers, gives the table of power products L**i * E**(n
- i) of a parameter's linear form L and the sum of the coordinates E;
combine_points sums the monomial coefficients against that table, and
the coefficient of each Bernstein monomial is the control point times its
binomial or multinomial. The tensor kernel runs the paper's nested
bounded sums. The paper's curve and triangle closed forms are in the
reference module; the oracle is the independent check.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, islice
from math import lcm

from .numerics import RATIONAL_ZERO, binomial, multinomial
from .geometry import (
    BezierCurve, DomainTriangle, MonomialCurve, MonomialSurface, ParamInterval, ParamRect,
    Point3, TensorPatch, TrianglePatch, ZERO3, combine_points, over_common_denominators,
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


def _powers(start: list, form: tuple, count: int) -> list:
    """[start * (L / E)**k for k in 0..count], where form = (x, y, z) gives
    L = x*alpha + y*beta + z*gamma, E = alpha + beta + gamma, and E**count
    divides start. A homogeneous form of degree d is held as rows:
    rows[nu][mu] is the coefficient of alpha**nu * beta**mu * gamma**(d -
    nu - mu). Each power G follows from the one before, P, by G * E = P * L:
    G[nu][mu] = x P[nu-1][mu] + y P[nu][mu-1] + z P[nu][mu]
    - G[nu-1][mu] - G[nu][mu-1]. Row nu reads only rows nu and nu - 1, so
    a start of one row, free of alpha, gives powers of one row."""
    x, y, z = form
    powers = [start]
    for _ in range(count):
        prev, power = powers[-1], []
        for nu, row in enumerate(prev):
            cells, g, left = [], 0, 0  # G[nu][mu - 1] and P[nu][mu - 1]
            if nu:
                for p, p_below, g_below in zip(row, prev[nu - 1], power[-1]):
                    g = x * p_below - g_below + y * left + z * p - g
                    cells.append(g)
                    left = p
            else:
                for p in row:
                    g = y * left + z * p - g
                    cells.append(g)
                    left = p
            power.append(cells)
        powers.append(power)
    return powers


def _control_points(start: list, table: list, coeffs: list, scales: list) -> list[Point3]:
    """Control point k, over the cells of start row by row: the integer sum
    of coeffs[j] * scales[j] * cell k of table[j], per axis over its common
    denominator, divided by cell k of start times scales[0]."""
    points, axis_den = over_common_denominators(coeffs)
    points = [tuple([s * x for x in p]) for s, p in zip(scales, points)]
    totals = combine_points(zip(*[chain.from_iterable(f) for f in table]), points)
    dens = [scales[0] * d for d in axis_den]
    return [Point3(*map(Fraction, total, [c * d for d in dens]))
            for total, c in zip(totals, chain.from_iterable(start))]


def subdivide_curve(curve: MonomialCurve, interval: ParamInterval) -> BezierCurve:
    """Bernstein control points of the curve restricted to [a, b]: point nu
    is the blossom at nu copies of b and n - nu copies of a."""
    n = curve.degree
    a, b = interval.a, interval.b
    q = lcm(a.denominator, b.denominator)
    pa, pb = a.numerator * (q // a.denominator), b.numerator * (q // b.denominator)
    # q**n times the curve is sum_i q**(n - i) c_i L**i E**(n - i), with L =
    # pa sigma + pb tau and E = sigma + tau, where sigma, tau are gamma, beta.
    start = [[binomial(n, nu) for nu in range(n + 1)]]
    table = _powers(start, (0, pb, pa), n)
    scales = [q ** (n - i) for i in range(n + 1)]
    return BezierCurve(_control_points(start, table, curve.coeffs, scales), interval)


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


def subdivide_triangle(surface: MonomialSurface, tri: DomainTriangle) -> TrianglePatch:
    """Bernstein control points of the surface restricted to a triangle:
    point (nu, mu) of the degree-(n + m) patch is the blossom at nu copies
    of va, mu of vb and the rest of vc."""
    n, m = surface.degrees
    n_total = n + m
    ((a1, a2), (b1, b2), (c1, c2)), (q1, q2) = over_common_denominators((tri.va, tri.vb, tri.vc))
    # At (alpha, beta, gamma) the parameters are S / q1 and T / q2, with
    # S = a1 alpha + b1 beta + c1 gamma and T alike. table[i (m + 1) + j] is
    # S**i T**j E**(n_total - i - j), and c_ij takes q1**(n - i) q2**(m - j).
    start = [[multinomial(n_total, nu, mu) for mu in range(n_total + 1 - nu)]
             for nu in range(n_total + 1)]
    table = [f for s in _powers(start, (a1, b1, c1), n) for f in _powers(s, (a2, b2, c2), m)]
    scales = [q1 ** (n - i) * q2 ** (m - j) for i in range(n + 1) for j in range(m + 1)]
    points = iter(_control_points(start, table, [c for row in surface.coeffs for c in row], scales))
    return TrianglePatch([list(islice(points, len(row))) for row in start], tri)


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
