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
multinomial. The paper's four-fold sum for the triangle is in the
reference module. The blossom oracle provides the independent cross-check.
"""

from __future__ import annotations

from fractions import Fraction

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
