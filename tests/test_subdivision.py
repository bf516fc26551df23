"""Closed-form subdivision against the blossom oracle, the published-net
fixtures, independent conversion formulas, and the loop-bound machinery."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blossom_subdiv import (
    DomainTriangle,
    MonomialCurve,
    MonomialSurface,
    ParamInterval,
    ParamRect,
    Point2,
    Point3,
    barycentric_to_cartesian,
    binomial,
    blossom_curve,
    blossom_tensor,
    blossom_triangle,
    de_casteljau_curve,
    de_casteljau_tensor,
    de_casteljau_triangle,
    eval_monomial_curve,
    eval_monomial_surface,
    iter_placements,
    multinomial,
    placement_count_u_first,
    placement_count_v_first,
    subdivide_curve,
    subdivide_tensor,
    subdivide_triangle,
)
from blossom_subdiv.sampling import (
    random_curve,
    random_interval,
    random_point3,
    random_rational,
    random_rect,
    random_surface,
    random_triangle,
)
from blossom_subdiv.reference import subdivide_curve_split_sum, subdivide_triangle_four_fold
from blossom_subdiv.subdivision import subdivide

import golden


def scalar_curve(*xs) -> MonomialCurve:
    return MonomialCurve(tuple(Point3(x, 0, 0) for x in xs))


def brute_placements(n_total, nu, mu, i, j):
    """All zone splits satisfying the raw feasibility conditions, found by
    filtering the full grid instead of using the derived bounds."""
    lam = n_total - nu - mu
    out = set()
    for i_a in range(n_total + 1):
        for i_b in range(n_total + 1):
            i_g = i - i_a - i_b
            for j_a in range(n_total + 1):
                for j_b in range(n_total + 1):
                    j_g = j - j_a - j_b
                    if i_g < 0 or j_g < 0:
                        continue
                    if i_a + i_b > i or i_g > lam:
                        continue
                    if i_a + j_a > nu or i_b + j_b > mu or j_g > lam - i_g:
                        continue
                    out.add((i_a, i_b, i_g, j_a, j_b, j_g))
    return out


def brute_placement_count(nu, mu, lam, counts):
    """Literal count of disjoint index-set pairs with prescribed per-zone
    occupancy, by enumerating subsets of the slot indices."""
    i_a, i_b, i_g, j_a, j_b, j_g = counts
    n_total = nu + mu + lam
    i, j = i_a + i_b + i_g, j_a + j_b + j_g
    zone = lambda k: 0 if k < nu else (1 if k < nu + mu else 2)
    found = 0
    for alpha in combinations(range(n_total), i):
        taken = set(alpha)
        za = [0, 0, 0]
        for k in alpha:
            za[zone(k)] += 1
        if za != [i_a, i_b, i_g]:
            continue
        for beta in combinations([k for k in range(n_total) if k not in taken], j):
            zb = [0, 0, 0]
            for k in beta:
                zb[zone(k)] += 1
            if zb == [j_a, j_b, j_g]:
                found += 1
    return found


# Vertex and coefficient coordinates: zero (so 0 ** 0 appears in the
# sums), small rationals of either sign, and rationals over the coprime
# primes 2**31 - 1 and 2**31 - 19, whose common denominators grow fast.
coordinates = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=9),
    st.builds(Fraction, st.integers(-(2**32), 2**32), st.sampled_from([2**31 - 1, 2**31 - 19])),
)
points2 = st.builds(Point2, coordinates, coordinates)
points3 = st.builds(Point3, coordinates, coordinates, coordinates)


# The composition kernel and the paper's split sum: every curve check runs
# against both.
CURVE_KERNELS = (subdivide_curve, subdivide_curve_split_sum)


@st.composite
def curve_instances(draw):
    """A curve of degree 6 to 32, above the oracle's cap, and an interval
    whose ends may be equal, reversed, negative or over 32-bit primes."""
    n = draw(st.integers(6, 32))
    a = draw(coordinates)
    b = draw(st.one_of(st.just(a), coordinates))
    return MonomialCurve(tuple(draw(points3) for _ in range(n + 1))), ParamInterval(a, b)


def h32_curve(n):
    """A degree-n curve with coordinates over the primes 2**31 - 1 and
    2**31 - 19 and an all-zero z axis."""
    return MonomialCurve(
        tuple(
            Point3(Fraction(3**i - 2**32, 2**31 - 1), Fraction(2**32 - 5 * i, 2**31 - 19), 0)
            for i in range(n + 1)
        )
    )


# A reversed interval (a > b) with a negative end, over the 32-bit primes.
H32_INTERVAL = ParamInterval(Fraction(2**31, 2**31 - 19), Fraction(-(2**32), 2**31 - 1))


class TestSubdivideCurve:
    def test_constant_curve(self):
        curve = MonomialCurve((Point3(5, 6, 7),))
        for kernel in CURVE_KERNELS:
            bez = kernel(curve, ParamInterval(-2, 9))
            assert bez.control_points == (Point3(5, 6, 7),), kernel.__name__

    def test_square_over_shifted_interval(self):
        # blossom of u^2 is u1*u2: values at (1,1), (3,1), (3,3)
        for kernel in CURVE_KERNELS:
            bez = kernel(scalar_curve(0, 0, 1), ParamInterval(1, 3))
            assert [p.x for p in bez.control_points] == [1, 3, 9], kernel.__name__

    def test_degenerate_interval_collapses(self):
        curve = scalar_curve(2, -1, 4, 5)
        t = Fraction(3, 7)
        value = eval_monomial_curve(curve, t)
        for kernel in CURVE_KERNELS:
            bez = kernel(curve, ParamInterval(t, t))
            assert all(p == value for p in bez.control_points), kernel.__name__

    def test_cube_over_unit_interval(self):
        # Unit-domain conversion: w_nu = C(nu, i) / C(n, i) applied to u^3.
        for kernel in CURVE_KERNELS:
            bez = kernel(scalar_curve(0, 0, 0, 1), ParamInterval(0, 1))
            assert [p.x for p in bez.control_points] == [0, 0, 0, 1], kernel.__name__

    def test_reversed_interval_flips_orientation(self):
        curve = scalar_curve(1, 2, -3, 1)
        for kernel in CURVE_KERNELS:
            forward = kernel(curve, ParamInterval(Fraction(1, 4), Fraction(3, 2)))
            backward = kernel(curve, ParamInterval(Fraction(3, 2), Fraction(1, 4)))
            assert forward.control_points == tuple(reversed(backward.control_points))

    def test_matches_oracle_on_random_instances(self):
        rng = random.Random(301)
        for _ in range(30):
            curve = random_curve(rng, 3)
            interval = random_interval(rng)
            n = curve.degree
            for kernel in CURVE_KERNELS:
                bez = kernel(curve, interval)
                for nu, got in enumerate(bez.control_points):
                    args = [interval.b] * nu + [interval.a] * (n - nu)
                    assert got == blossom_curve(curve, args), kernel.__name__

    def test_geometric_consistency(self):
        rng = random.Random(302)
        ts = [Fraction(k, 10) for k in range(11)]
        for _ in range(10):
            curve = random_curve(rng, 3)
            interval = random_interval(rng)
            for kernel in CURVE_KERNELS:
                bez = kernel(curve, interval)
                for t in ts:
                    reparam = interval.a + (interval.b - interval.a) * t
                    assert de_casteljau_curve(bez, t) == eval_monomial_curve(curve, reparam)

    def test_corner_interpolation(self):
        rng = random.Random(303)
        curve = random_curve(rng, 4)
        interval = random_interval(rng)
        for kernel in CURVE_KERNELS:
            bez = kernel(curve, interval)
            assert bez.control_points[0] == eval_monomial_curve(curve, interval.a)
            assert bez.control_points[-1] == eval_monomial_curve(curve, interval.b)

    def test_split_halves_agree_at_shared_parameter(self):
        rng = random.Random(304)
        curve = random_curve(rng, 4)
        a, b = Fraction(-1, 3), Fraction(5, 4)
        mid = (a + b) / 2
        for kernel in CURVE_KERNELS:
            left = kernel(curve, ParamInterval(a, mid))
            right = kernel(curve, ParamInterval(mid, b))
            assert left.control_points[-1] == right.control_points[0]
            assert de_casteljau_curve(left, 1) == de_casteljau_curve(right, 0)

    @settings(max_examples=40)
    @given(curve_instances())
    @example((h32_curve(0), ParamInterval(Fraction(5, 2), Fraction(-1, 9))))
    @example((h32_curve(6), ParamInterval(Fraction(-3, 7), Fraction(-3, 7))))
    @example((h32_curve(32), H32_INTERVAL))
    @example((scalar_curve(*range(-16, 17)), ParamInterval(Fraction(-2, 13), Fraction(-9, 11))))
    def test_composition_equals_split_sum(self, instance):
        # Above the oracle's cap the split sum is the reference. The
        # examples add degree 0, a == b, a > b and negative ends.
        curve, interval = instance
        assert subdivide_curve(curve, interval) == subdivide_curve_split_sum(curve, interval)


class TestSubdivideTensor:
    def test_unit_square_net(self):
        patch = subdivide_tensor(golden.SAMPLE_SURFACE, golden.UNIT_SQUARE)
        expected = golden.net_points(golden.TPB_UNIT_SQUARE_NET)
        for (nu, mu), point in expected.items():
            assert patch.control_points[nu][mu] == point

    def test_inner_rect_net(self):
        patch = subdivide_tensor(golden.SAMPLE_SURFACE, golden.INNER_RECT)
        expected = golden.net_points(golden.TPB_INNER_RECT_NET)
        for (nu, mu), point in expected.items():
            assert patch.control_points[nu][mu] == point

    def test_constant_surface(self):
        surface = MonomialSurface(((Point3(1, 2, 3),),))
        patch = subdivide_tensor(surface, golden.INNER_RECT)
        assert patch.control_points == ((Point3(1, 2, 3),),)

    def test_matches_oracle_on_random_instances(self):
        rng = random.Random(311)
        for _ in range(30):
            surface = random_surface(rng, 3, 3)
            rect = random_rect(rng)
            patch = subdivide_tensor(surface, rect)
            n, m = surface.degrees
            a, b = rect.u_range.a, rect.u_range.b
            c, d = rect.v_range.a, rect.v_range.b
            for nu in range(n + 1):
                for mu in range(m + 1):
                    args_u = [b] * nu + [a] * (n - nu)
                    args_v = [d] * mu + [c] * (m - mu)
                    assert patch.control_points[nu][mu] == blossom_tensor(
                        surface, args_u, args_v
                    )

    def test_geometric_consistency_on_grid(self):
        rng = random.Random(312)
        grid = [Fraction(k, 4) for k in range(5)]
        for _ in range(5):
            surface = random_surface(rng, 3, 3)
            rect = random_rect(rng)
            patch = subdivide_tensor(surface, rect)
            a, b = rect.u_range.a, rect.u_range.b
            c, d = rect.v_range.a, rect.v_range.b
            for uu in grid:
                for vv in grid:
                    assert de_casteljau_tensor(patch, uu, vv) == eval_monomial_surface(
                        surface, a + (b - a) * uu, c + (d - c) * vv
                    )

    def test_corner_interpolation(self):
        patch = subdivide_tensor(golden.SAMPLE_SURFACE, golden.INNER_RECT)
        rect = golden.INNER_RECT
        surface = golden.SAMPLE_SURFACE
        assert patch.control_points[0][0] == eval_monomial_surface(
            surface, rect.u_range.a, rect.v_range.a
        )
        assert patch.control_points[-1][-1] == eval_monomial_surface(
            surface, rect.u_range.b, rect.v_range.b
        )

    def test_unit_square_matches_classical_conversion(self):
        # Independent route: p[nu][mu] = sum c_ij C(nu,i) C(mu,j) / (C(n,i) C(m,j)).
        surface = golden.SAMPLE_SURFACE
        n, m = surface.degrees
        patch = subdivide_tensor(surface, golden.UNIT_SQUARE)
        for nu in range(n + 1):
            for mu in range(m + 1):
                expected = Point3(0, 0, 0)
                for i in range(n + 1):
                    for j in range(m + 1):
                        weight = Fraction(
                            binomial(nu, i) * binomial(mu, j),
                            binomial(n, i) * binomial(m, j),
                        )
                        expected = expected + weight * surface.coeffs[i][j]
                assert patch.control_points[nu][mu] == expected

    def test_degenerate_rect_collapses(self):
        surface = golden.SAMPLE_SURFACE
        t, s = Fraction(2, 5), Fraction(-1, 3)
        rect = ParamRect(ParamInterval(t, t), ParamInterval(s, s))
        patch = subdivide_tensor(surface, rect)
        value = eval_monomial_surface(surface, t, s)
        assert all(p == value for row in patch.control_points for p in row)

    def test_one_sided_degenerate_rect_collapses_rows(self):
        # a == b pins u, so control points depend on mu only.
        surface = golden.SAMPLE_SURFACE
        t = Fraction(1, 7)
        rect = ParamRect(ParamInterval(t, t), ParamInterval(0, 1))
        patch = subdivide_tensor(surface, rect)
        first = patch.control_points[0]
        assert all(row == first for row in patch.control_points)
        assert first[0] == eval_monomial_surface(surface, t, 0)
        assert first[-1] == eval_monomial_surface(surface, t, 1)

    def test_split_rects_share_edge_control_points(self):
        rng = random.Random(313)
        surface = random_surface(rng, 3, 2)
        a, b = Fraction(0), Fraction(1)
        c, d = Fraction(-1, 2), Fraction(3, 4)
        mid = (a + b) / 2
        left = subdivide_tensor(surface, ParamRect(ParamInterval(a, mid), ParamInterval(c, d)))
        right = subdivide_tensor(surface, ParamRect(ParamInterval(mid, b), ParamInterval(c, d)))
        assert left.control_points[-1] == right.control_points[0]


class TestTriangularBounds:
    def test_squeezed_to_single_value(self):
        # All five slots belong to va, so the three u-indices must sit there.
        assert list(iter_placements(5, 5, 0, 3, 0)) == [(3, 0, 0, 0, 0, 0)]

    def test_zero_nu_forces_zero(self):
        # No va slots: every u-index falls to the vc zone.
        assert list(iter_placements(5, 0, 0, 3, 0)) == [(0, 0, 3, 0, 0, 0)]

    def test_enumerated_tuples_match_brute_filter_small(self):
        for n_total in range(5):
            for nu in range(n_total + 1):
                for mu in range(n_total - nu + 1):
                    for i in range(n_total + 1):
                        for j in range(n_total - i + 1):
                            assert set(iter_placements(n_total, nu, mu, i, j)) == (
                                brute_placements(n_total, nu, mu, i, j)
                            )


class TestPlacementCounts:
    def test_all_zero_counts(self):
        assert placement_count_u_first(1, 1, 2, 0, 0, 0, 0, 0, 0) == 1
        assert placement_count_v_first(1, 1, 2, 0, 0, 0, 0, 0, 0) == 1

    def test_small_hand_case(self):
        assert placement_count_u_first(1, 1, 2, 1, 0, 0, 0, 1, 0) == 1

    @pytest.mark.parametrize(
        "placement_count",
        [placement_count_u_first, placement_count_v_first],
        ids=["u_first", "v_first"],
    )
    def test_negative_counts_rejected(self, placement_count):
        with pytest.raises(ValueError):
            placement_count(1, 1, 2, -1, 0, 0, 0, 0, 0)

    def test_groupings_agree_small_grid(self):
        for n_total in range(6):
            for nu in range(n_total + 1):
                for mu in range(n_total - nu + 1):
                    lam = n_total - nu - mu
                    for counts in _zone_count_grid(nu, mu, lam):
                        assert placement_count_u_first(
                            nu, mu, n_total, *counts
                        ) == placement_count_v_first(nu, mu, n_total, *counts)

    def test_counts_match_literal_enumeration(self):
        for n_total in range(5):
            for nu in range(n_total + 1):
                for mu in range(n_total - nu + 1):
                    lam = n_total - nu - mu
                    for counts in _zone_count_grid(nu, mu, lam):
                        expected = brute_placement_count(nu, mu, lam, counts)
                        assert placement_count_u_first(nu, mu, n_total, *counts) == expected


def _zone_count_grid(nu, mu, lam):
    """Every per-zone occupancy tuple that fits the zone sizes."""
    for i_a in range(nu + 1):
        for j_a in range(nu - i_a + 1):
            for i_b in range(mu + 1):
                for j_b in range(mu - i_b + 1):
                    for i_g in range(lam + 1):
                        for j_g in range(lam - i_g + 1):
                            yield (i_a, i_b, i_g, j_a, j_b, j_g)


@st.composite
def triangle_instances(draw, max_degree=2):
    """A surface of degree at most max_degree in each direction,
    optionally with its x axis all zero, and a triangle that may repeat a
    vertex or be collinear."""
    n, m = draw(st.integers(0, max_degree)), draw(st.integers(0, max_degree))
    coeffs = [[draw(points3) for _ in range(m + 1)] for _ in range(n + 1)]
    if draw(st.booleans()):
        coeffs = [[Point3(0, c.y, c.z) for c in row] for row in coeffs]
    va, vb, vc = draw(points2), draw(points2), draw(points2)
    layout = draw(st.sampled_from(["general", "repeated", "collinear"]))
    if layout == "repeated":
        vb = va
    elif layout == "collinear":
        vc = va + 2 * (vb - va)
    return MonomialSurface(tuple(map(tuple, coeffs))), DomainTriangle(va, vb, vc)


@st.composite
def first_direction_instances(draw):
    """A surface of degree (n, 0), n from 6 to 24, and a triangle whose
    vertices vb and vc may coincide."""
    column = [draw(points3) for _ in range(draw(st.integers(6, 24)) + 1)]
    va, vb = draw(points2), draw(points2)
    vc = draw(st.one_of(st.just(vb), points2))
    return MonomialSurface(tuple((c,) for c in column)), DomainTriangle(va, vb, vc)


# The composition kernel and the paper's four-fold sum: every oracle check
# of the triangle runs against both.
TRIANGLE_KERNELS = (subdivide_triangle, subdivide_triangle_four_fold)


def h32_surface(n, m):
    """A degree-(n, m) surface with coordinates over the primes 2**31 - 1
    and 2**31 - 19 and an all-zero z axis."""
    return MonomialSurface(
        tuple(
            tuple(
                Point3(Fraction(3**i - 2**j, 2**31 - 1), Fraction(2**32 - i * j, 2**31 - 19), 0)
                for j in range(m + 1)
            )
            for i in range(n + 1)
        )
    )


H32_TRIANGLE = DomainTriangle(
    Point2(Fraction(2**32 - 5, 2**31 - 1), Fraction(-3, 7)),
    Point2(Fraction(-1, 2**31 - 19), Fraction(2**31, 2**31 - 1)),
    Point2(Fraction(5, 3), Fraction(-(2**32), 2**31 - 19)),
)


class TestSubdivideTriangle:
    @given(triangle_instances())
    @example((MonomialSurface(((Point3(3, -1, 0),),)), golden.UNIT_TRIANGLE))
    @example((golden.SAMPLE_SURFACE, DomainTriangle(Point2(0, 0), Point2(0, 0), Point2(0, 0))))
    def test_matches_oracle_property(self, instance):
        surface, tri = instance
        for kernel in TRIANGLE_KERNELS:
            patch = kernel(surface, tri)
            for nu, mu, got in patch.labelled_points():
                args = [tri.va] * nu + [tri.vb] * mu + [tri.vc] * (patch.degree - nu - mu)
                assert got == blossom_triangle(surface, args), kernel.__name__

    @settings(max_examples=40)
    @given(triangle_instances(max_degree=8))
    @example((h32_surface(0, 8), H32_TRIANGLE))
    @example((h32_surface(8, 0), H32_TRIANGLE))
    def test_composition_equals_four_fold_sum(self, instance):
        # Degrees up to 8 in each direction, above the oracle's cap, so
        # here the four-fold sum is the reference.
        surface, tri = instance
        assert subdivide_triangle(surface, tri) == subdivide_triangle_four_fold(surface, tri)

    @settings(max_examples=40)
    @given(first_direction_instances())
    @example((h32_surface(24, 0), H32_TRIANGLE))
    @example((h32_surface(9, 0), DomainTriangle(H32_TRIANGLE.va, H32_TRIANGLE.vb, H32_TRIANGLE.vb)))
    def test_first_row_is_the_curve_over_the_opposite_edge(self, instance):
        # Row 0 takes no copy of va, and a degree-(n, 0) surface reads only
        # the first coordinate, so row 0 is the curve of column 0 over
        # [vc.s, vb.s]: the full-row and one-row cases of one recurrence,
        # at degrees above the four-fold sum's limit.
        surface, tri = instance
        column = MonomialCurve(tuple(row[0] for row in surface.coeffs))
        curve = subdivide_curve(column, ParamInterval(tri.vc.s, tri.vb.s))
        assert subdivide_triangle(surface, tri).rows[0] == curve.control_points

    def test_unit_triangle_corners(self):
        patch = subdivide_triangle(golden.SAMPLE_SURFACE, golden.UNIT_TRIANGLE)
        n_total = patch.degree
        assert patch.point(n_total, 0) == golden.p3("0", "0", "0")
        assert patch.point(0, n_total) == golden.p3("4", "0", "1/5")
        assert patch.point(0, 0) == golden.p3("0", "2", "-4/5")

    def test_unit_triangle_full_net(self):
        patch = subdivide_triangle(golden.SAMPLE_SURFACE, golden.UNIT_TRIANGLE)
        expected = golden.tb_expected(golden.TB_UNIT_TRIANGLE_TABLE, 5)
        for (nu, mu), point in expected.items():
            assert patch.point(nu, mu) == point

    def test_offset_triangle_pure_va_corner(self):
        patch = subdivide_triangle(golden.SAMPLE_SURFACE, golden.OFFSET_TRIANGLE)
        assert patch.point(5, 0) == golden.p3("0", "17/20", "-9/20")
        assert patch.point(5, 0) == eval_monomial_surface(
            golden.SAMPLE_SURFACE, 0, Fraction(1, 2)
        )

    def test_offset_triangle_full_net(self):
        patch = subdivide_triangle(golden.SAMPLE_SURFACE, golden.OFFSET_TRIANGLE)
        expected = golden.tb_expected(golden.TB_OFFSET_TRIANGLE_TABLE, 5)
        for (nu, mu), point in expected.items():
            assert patch.point(nu, mu) == point

    def test_linear_surface_unit_triangle(self):
        surface = MonomialSurface(((Point3(0, 0, 0),), (Point3(1, 0, 0),)))
        patch = subdivide_triangle(surface, golden.UNIT_TRIANGLE)
        assert patch.point(1, 0).x == 0
        assert patch.point(0, 1).x == 1
        assert patch.point(0, 0).x == 0

    def test_degenerate_triangle_collapses(self):
        p = Point2(Fraction(1, 3), Fraction(-2, 7))
        tri = DomainTriangle(p, p, p)
        patch = subdivide_triangle(golden.SAMPLE_SURFACE, tri)
        value = eval_monomial_surface(golden.SAMPLE_SURFACE, p.s, p.t)
        assert all(point == value for _, _, point in patch.labelled_points())

    def test_matches_oracle_on_random_instances(self):
        rng = random.Random(321)
        for _ in range(20):
            surface = random_surface(rng, 2, 2)
            tri = random_triangle(rng)
            n, m = surface.degrees
            n_total = n + m
            for kernel in TRIANGLE_KERNELS:
                for nu, mu, got in kernel(surface, tri).labelled_points():
                    args = [tri.va] * nu + [tri.vb] * mu + [tri.vc] * (n_total - nu - mu)
                    assert got == blossom_triangle(surface, args), kernel.__name__

    def test_geometric_consistency_barycentric_samples(self):
        rng = random.Random(322)
        samples = [
            (Fraction(p, 4), Fraction(q, 4)) for p in range(5) for q in range(5 - p)
        ]
        for _ in range(5):
            surface = random_surface(rng, 3, 3)
            tri = random_triangle(rng)
            patch = subdivide_triangle(surface, tri)
            for u, v in samples:
                spot = barycentric_to_cartesian(tri, u, v)
                assert de_casteljau_triangle(patch, u, v) == eval_monomial_surface(
                    surface, spot.s, spot.t
                )

    def test_pure_vertex_corners_interpolate(self):
        rng = random.Random(323)
        surface = random_surface(rng, 3, 2)
        tri = random_triangle(rng)
        patch = subdivide_triangle(surface, tri)
        n_total = patch.degree
        assert patch.point(n_total, 0) == eval_monomial_surface(surface, tri.va.s, tri.va.t)
        assert patch.point(0, n_total) == eval_monomial_surface(surface, tri.vb.s, tri.vb.t)
        assert patch.point(0, 0) == eval_monomial_surface(surface, tri.vc.s, tri.vc.t)


class TestSubdivideDispatch:
    @pytest.mark.parametrize(
        "obj,domain",
        [
            (golden.SAMPLE_CURVE, golden.UNIT_SQUARE),
            (golden.SAMPLE_CURVE, golden.UNIT_TRIANGLE),
            (golden.SAMPLE_SURFACE, ParamInterval(0, 1)),
        ],
        ids=["curve-rect", "curve-triangle", "surface-interval"],
    )
    def test_mismatched_pair_is_refused(self, obj, domain):
        with pytest.raises(ValueError, match="cannot subdivide a Monomial"):
            subdivide(obj, domain)
