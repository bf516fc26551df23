import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from blossom_subdiv import (
    BezierCurve,
    DomainTriangle,
    MonomialCurve,
    MonomialSurface,
    ParamInterval,
    ParamRect,
    Point2,
    Point3,
    TensorPatch,
    TrianglePatch,
    barycentric_to_cartesian,
    binomial,
    de_casteljau_curve,
    de_casteljau_tensor,
    de_casteljau_triangle,
    eval_monomial_curve,
    eval_monomial_surface,
    multinomial,
)

import golden

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)
points3 = st.builds(Point3, rationals, rationals, rationals)
UNIT_INTERVAL = ParamInterval(0, 1)


def bernstein(n, k, t):
    """Degree-n Bernstein basis value C(n,k) t^k (1-t)^(n-k), exact."""
    t = Fraction(t)
    return binomial(n, k) * t**k * (1 - t) ** (n - k)


def triangle_bernstein(n_total, nu, mu, u, v):
    """Bivariate Bernstein basis with barycentric weights (u, v, 1-u-v)."""
    u, v = Fraction(u), Fraction(v)
    w = 1 - u - v
    return multinomial(n_total, nu, mu) * u**nu * v**mu * w ** (n_total - nu - mu)


def power_sum_curve(curve, u):
    """Independent evaluation: literal term-by-term power sum."""
    total = Point3(0, 0, 0)
    for i, c in enumerate(curve.coeffs):
        total = total + (u**i) * c
    return total


class TestMonomialEvaluation:
    def test_constant_curve(self):
        curve = MonomialCurve((Point3(1, 2, 3),))
        assert eval_monomial_curve(curve, 7) == Point3(1, 2, 3)

    def test_cubic_x_coordinate(self):
        # 3u + u^3 at u = 1/3 is 28/27
        assert eval_monomial_curve(golden.SAMPLE_CURVE, Fraction(1, 3)).x == Fraction(28, 27)

    @given(st.lists(points3, min_size=5, max_size=5), rationals)
    def test_horner_matches_power_sum(self, coeffs, u):
        curve = MonomialCurve(tuple(coeffs))
        assert eval_monomial_curve(curve, u) == power_sum_curve(curve, u)

    @pytest.mark.parametrize(
        "u,v,expected",
        [
            (0, 0, ("0", "0", "0")),
            (1, 1, ("4", "3", "3/4")),
            (0, 1, ("0", "2", "-4/5")),
        ],
    )
    def test_sample_surface_corners(self, u, v, expected):
        assert eval_monomial_surface(golden.SAMPLE_SURFACE, u, v) == golden.p3(*expected)

    @given(
        st.lists(st.lists(points3, min_size=3, max_size=3), min_size=3, max_size=3),
        rationals,
        rationals,
    )
    def test_surface_linear_in_coefficients(self, grid, u, v):
        a = MonomialSurface(tuple(tuple(row) for row in grid))
        b = MonomialSurface(
            tuple(tuple(Point3(p.y, p.z, p.x) for p in row) for row in grid)
        )
        summed = MonomialSurface(
            tuple(
                tuple(pa + pb for pa, pb in zip(ra, rb))
                for ra, rb in zip(a.coeffs, b.coeffs)
            )
        )
        assert eval_monomial_surface(summed, u, v) == eval_monomial_surface(
            a, u, v
        ) + eval_monomial_surface(b, u, v)


class TestDeCasteljau:
    @given(st.lists(points3, min_size=1, max_size=7))
    def test_endpoint_interpolation(self, pts):
        bez = BezierCurve(tuple(pts), UNIT_INTERVAL)
        assert de_casteljau_curve(bez, 0) == pts[0]
        assert de_casteljau_curve(bez, 1) == pts[-1]

    def test_scalar_quadratic_midpoint(self):
        # w = (0, 1, 0): value at 1/2 is 2 * (1/2)^2 = 1/2
        bez = BezierCurve((Point3(0, 0, 0), Point3(1, 0, 0), Point3(0, 0, 0)), UNIT_INTERVAL)
        assert de_casteljau_curve(bez, Fraction(1, 2)).x == Fraction(1, 2)

    @given(st.lists(points3, min_size=1, max_size=9), rationals)
    def test_matches_direct_bernstein_sum(self, pts, t):
        bez = BezierCurve(tuple(pts), UNIT_INTERVAL)
        n = bez.degree
        direct = Point3(0, 0, 0)
        for k, p in enumerate(pts):
            direct = direct + bernstein(n, k, t) * p
        assert de_casteljau_curve(bez, t) == direct

    def test_tensor_corners(self):
        patch = golden.unit_square_patch()
        assert de_casteljau_tensor(patch, 0, 0) == patch.control_points[0][0]
        assert de_casteljau_tensor(patch, 1, 1) == patch.control_points[3][2]

    def test_tensor_midpoint_against_monomial(self):
        patch = golden.unit_square_patch()
        half = Fraction(1, 2)
        assert de_casteljau_tensor(patch, half, half) == eval_monomial_surface(
            golden.SAMPLE_SURFACE, half, half
        )

    def test_triangle_corners(self):
        patch = golden.unit_triangle_patch()
        n = patch.degree
        assert de_casteljau_triangle(patch, 1, 0) == patch.point(n, 0)
        assert de_casteljau_triangle(patch, 0, 1) == patch.point(0, n)
        assert de_casteljau_triangle(patch, 0, 0) == patch.point(0, 0)

    @given(st.lists(points3, min_size=6, max_size=6), rationals, rationals)
    def test_triangle_matches_direct_bernstein_sum(self, pts, u, v):
        rows = (tuple(pts[3:6]), tuple(pts[1:3]), (pts[0],))
        patch = TrianglePatch(rows, golden.UNIT_TRIANGLE)
        direct = Point3(0, 0, 0)
        for nu, mu, p in patch.labelled_points():
            direct = direct + triangle_bernstein(2, nu, mu, u, v) * p
        assert de_casteljau_triangle(patch, u, v) == direct


class TestPartitionOfUnity:
    @given(st.integers(min_value=0, max_value=10), rationals)
    def test_univariate(self, n, t):
        assert sum(bernstein(n, k, t) for k in range(n + 1)) == 1

    @given(st.integers(min_value=0, max_value=8), rationals, rationals)
    def test_bivariate(self, n_total, u, v):
        total = sum(
            triangle_bernstein(n_total, nu, mu, u, v)
            for nu in range(n_total + 1)
            for mu in range(n_total - nu + 1)
        )
        assert total == 1


class TestBarycentric:
    def test_vertices(self):
        tri = golden.UNIT_TRIANGLE
        assert barycentric_to_cartesian(tri, 1, 0) == Point2(0, 0)
        assert barycentric_to_cartesian(tri, 0, 1) == Point2(1, 0)
        assert barycentric_to_cartesian(tri, 0, 0) == Point2(0, 1)

    def test_interior_point(self):
        third = Fraction(1, 3)
        assert barycentric_to_cartesian(golden.OFFSET_TRIANGLE, third, third) == Point2(
            third, third
        )

    def test_collinearity_predicate(self):
        flat = DomainTriangle(Point2(0, 0), Point2(1, 1), Point2(2, 2))
        assert flat.is_degenerate()
        assert not golden.UNIT_TRIANGLE.is_degenerate()


@pytest.mark.parametrize(
    "a,b", [(Point3(1, "2/3", -1), Point3("-1/2", 5, 0)), (Point2("7/3", -2), Point2(0, "1/9"))]
)
def test_point_difference_inverts_sum(a, b):
    assert (a + b) - b == a
    assert a - b == a + (-1) * b
    assert type(a - b) is type(a)


class TestTypeInvariants:
    def test_surface_grid_must_be_rectangular(self):
        """Monomial surfaces and tensor patches refuse the same grids, each
        in its own words."""
        p = Point3(0, 0, 0)
        rect = ParamRect(ParamInterval(0, 1), ParamInterval(0, 1))
        for make, empty, ragged in (
            (
                MonomialSurface,
                "surface needs a non-empty coefficient grid",
                "surface coefficient grid must be rectangular",
            ),
            (
                lambda grid: TensorPatch(grid, rect),
                "tensor patch needs a non-empty control grid",
                "tensor patch control grid must be rectangular",
            ),
        ):
            for grid, message in (((), empty), (((),), empty), (((p,), (p, p)), ragged)):
                with pytest.raises(ValueError, match=f"^{message}$"):
                    make(grid)

    def test_triangle_patch_row_lengths(self):
        with pytest.raises(ValueError):
            TrianglePatch(
                ((Point3(0, 0, 0), Point3(0, 0, 0)), (Point3(0, 0, 0), Point3(0, 0, 0))),
                golden.UNIT_TRIANGLE,
            )

    def test_triangle_patch_index_bounds(self):
        patch = golden.unit_triangle_patch()
        with pytest.raises(IndexError):
            patch.point(3, 3)

    def test_point_refuses_floats(self):
        with pytest.raises(TypeError):
            Point3(0.5, 0, 0)


P = Point3(1, 0, -1)
P_REPR = "Point3(x=Fraction(1, 1), y=Fraction(0, 1), z=Fraction(-1, 1))"
UNIT_REPR = "ParamInterval(a=Fraction(0, 1), b=Fraction(1, 1))"
RECT = ParamRect(UNIT_INTERVAL, ParamInterval(1, 2))
RECT_REPR = (
    f"ParamRect(u_range={UNIT_REPR}, v_range=ParamInterval(a=Fraction(1, 1), b=Fraction(2, 1)))"
)
TRI = DomainTriangle(Point2(0, 0), Point2(1, 0), Point2(0, 1))
TRI_REPR = (
    "DomainTriangle(va=Point2(s=Fraction(0, 1), t=Fraction(0, 1)), "
    "vb=Point2(s=Fraction(1, 1), t=Fraction(0, 1)), vc=Point2(s=Fraction(0, 1), t=Fraction(1, 1)))"
)

# One instance of each value type: a builder (called twice to get equal,
# distinct objects), its field names in order, and its repr. Point2(1, 2)
# and ParamInterval(1, 2) hold equal fields, so only the class tells them
# apart.
VALUES = {
    "Point3": (
        lambda: Point3(1, "2/3", -1), ("x", "y", "z"),
        "Point3(x=Fraction(1, 1), y=Fraction(2, 3), z=Fraction(-1, 1))",
    ),
    "Point2": (lambda: Point2(1, 2), ("s", "t"), "Point2(s=Fraction(1, 1), t=Fraction(2, 1))"),
    "ParamInterval": (
        lambda: ParamInterval(1, 2), ("a", "b"),
        "ParamInterval(a=Fraction(1, 1), b=Fraction(2, 1))",
    ),
    "ParamRect": (
        lambda: ParamRect(UNIT_INTERVAL, ParamInterval(1, 2)), ("u_range", "v_range"), RECT_REPR,
    ),
    "DomainTriangle": (
        lambda: DomainTriangle(Point2(0, 0), Point2(1, 0), Point2(0, 1)),
        ("va", "vb", "vc"),
        TRI_REPR,
    ),
    "MonomialCurve": (
        lambda: MonomialCurve([P]), ("coeffs",), f"MonomialCurve(coeffs=({P_REPR},))",
    ),
    "MonomialSurface": (
        lambda: MonomialSurface([[P]]), ("coeffs",), f"MonomialSurface(coeffs=(({P_REPR},),))",
    ),
    "BezierCurve": (
        lambda: BezierCurve([P], UNIT_INTERVAL), ("control_points", "domain"),
        f"BezierCurve(control_points=({P_REPR},), domain={UNIT_REPR})",
    ),
    "TensorPatch": (
        lambda: TensorPatch([[P]], RECT), ("control_points", "domain"),
        f"TensorPatch(control_points=(({P_REPR},),), domain={RECT_REPR})",
    ),
    "TrianglePatch": (
        lambda: TrianglePatch([[P]], TRI), ("rows", "domain"),
        f"TrianglePatch(rows=(({P_REPR},),), domain={TRI_REPR})",
    ),
}


@pytest.mark.parametrize("name", VALUES)
class TestValueSemantics:
    """What callers may rely on for every value type: equality by class
    and fields, a hash that agrees with it, immutability, a stable repr,
    and pickle/deepcopy round trips."""

    def test_equal_values_hash_alike(self, name):
        build, fields, _ = VALUES[name]
        a, b = build(), build()
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b) == hash(tuple(getattr(a, f) for f in fields))
        assert len({a, b}) == 1

    def test_unequal_to_other_types(self, name):
        a = VALUES[name][0]()
        for other, (build, _, _) in VALUES.items():
            if other != name:
                assert a != build() and not a == build()
        assert a != tuple(getattr(a, f) for f in VALUES[name][1])
        assert a != None  # noqa: E711

    def test_fields_are_read_only(self, name):
        build, fields, _ = VALUES[name]
        a = build()
        for f in fields:
            before = getattr(a, f)
            with pytest.raises(AttributeError):
                setattr(a, f, before)
            with pytest.raises(AttributeError):
                delattr(a, f)
            assert getattr(a, f) is before
        with pytest.raises(AttributeError):
            a.extra = 1

    def test_repr(self, name):
        build, _, text = VALUES[name]
        assert repr(build()) == text

    def test_keyword_construction(self, name):
        build, fields, _ = VALUES[name]
        a = build()
        assert type(a)(**{f: getattr(a, f) for f in fields}) == a

    def test_pickle_and_deepcopy_round_trip(self, name):
        a = VALUES[name][0]()
        for b in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a), copy.copy(a)):
            assert type(b) is type(a) and b == a and hash(b) == hash(a)
            with pytest.raises(AttributeError):
                setattr(b, VALUES[name][1][0], None)


@pytest.mark.parametrize("bad", [0.5, 1.0, True, False])
@pytest.mark.parametrize("make", [
    lambda v: Point3(v, 0, 0), lambda v: Point3(0, 0, v), lambda v: Point2(0, v),
    lambda v: ParamInterval(v, 1), lambda v: ParamInterval(0, v),
])
def test_exact_types_refuse_floats_and_bools(make, bad):
    with pytest.raises(TypeError):
        make(bad)
