from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blossom_subdiv import (
    BezierCurve,
    MonomialCurve,
    MonomialSurface,
    Point3,
    TensorPatch,
    TrianglePatch,
    eval_monomial_surface,
    subdivide_curve,
    subdivide_tensor,
    subdivide_triangle,
)
from blossom_subdiv.geometry import ParamInterval, evaluate
from blossom_subdiv.objmesh import mesh_document

import golden


def vertices(obj_text):
    out = []
    for line in obj_text.splitlines():
        if line.startswith("v "):
            out.append(tuple(float(x) for x in line.split()[1:]))
    return out


def records(obj_text, tag):
    return [line for line in obj_text.splitlines() if line.startswith(tag + " ")]


def float3(point):
    return (float(point.x), float(point.y), float(point.z))


class TestCurveMesh:
    def test_polyline_samples(self):
        bez = subdivide_curve(golden.SAMPLE_CURVE, ParamInterval(0, 1))
        text = mesh_document(bez, 5)
        vs = vertices(text)
        assert len(vs) == 5
        assert len(records(text, "l")) == 1
        assert len(records(text, "f")) == 0

    def test_with_net_appends_control_polygon(self):
        bez = subdivide_curve(golden.SAMPLE_CURVE, ParamInterval(0, 1))
        text = mesh_document(bez, 3, with_net=True)
        assert len(vertices(text)) == 3 + len(bez.control_points)
        assert len(records(text, "l")) == 2

    def test_monomial_curve_meshes_over_unit_domain(self):
        text = mesh_document(golden.SAMPLE_CURVE, 3)
        vs = vertices(text)
        assert vs[0] == (0.0, 0.0, 0.0)
        assert vs[-1] == (4.0, 0.0, 0.0)


class TestTensorMesh:
    def test_two_samples_gives_corners(self):
        patch = subdivide_tensor(golden.SAMPLE_SURFACE, golden.UNIT_SQUARE)
        text = mesh_document(patch, 2)
        vs = vertices(text)
        assert len(vs) == 4
        cp = patch.control_points
        assert set(vs) == {float3(cp[0][0]), float3(cp[0][2]), float3(cp[3][0]), float3(cp[3][2])}
        assert len(records(text, "f")) == 1

    def test_grid_midpoint_matches_exact_evaluation(self):
        patch = subdivide_tensor(golden.SAMPLE_SURFACE, golden.UNIT_SQUARE)
        text = mesh_document(patch, 33)
        vs = vertices(text)
        assert len(vs) == 33 * 33
        mid = vs[16 * 33 + 16]
        exact = eval_monomial_surface(golden.SAMPLE_SURFACE, Fraction(1, 2), Fraction(1, 2))
        assert mid == float3(exact)

    def test_quad_count(self):
        patch = subdivide_tensor(golden.SAMPLE_SURFACE, golden.UNIT_SQUARE)
        text = mesh_document(patch, 5)
        assert len(records(text, "f")) == 4 * 4

    def test_net_lines_cover_rows_and_columns(self):
        patch = subdivide_tensor(golden.SAMPLE_SURFACE, golden.UNIT_SQUARE)
        text = mesh_document(patch, 2, with_net=True)
        assert len(vertices(text)) == 4 + 12
        assert len(records(text, "l")) == 4 + 3


class TestTriangleMesh:
    def test_two_samples_gives_corners(self):
        patch = subdivide_triangle(golden.SAMPLE_SURFACE, golden.UNIT_TRIANGLE)
        text = mesh_document(patch, 2)
        vs = vertices(text)
        assert len(vs) == 3
        n = patch.degree
        assert set(vs) == {
            float3(patch.point(0, 0)),
            float3(patch.point(n, 0)),
            float3(patch.point(0, n)),
        }
        assert len(records(text, "f")) == 1

    def test_triangular_grid_counts(self):
        patch = subdivide_triangle(golden.SAMPLE_SURFACE, golden.UNIT_TRIANGLE)
        text = mesh_document(patch, 4)
        assert len(vertices(text)) == 4 + 3 + 2 + 1
        assert len(records(text, "f")) == 9  # (G-1)^2 triangles

    def test_net_edges(self):
        patch = subdivide_triangle(golden.SAMPLE_SURFACE, golden.UNIT_TRIANGLE)
        text = mesh_document(patch, 2, with_net=True)
        assert len(vertices(text)) == 3 + 21


class TestMeshValidation:
    def test_too_few_samples_rejected(self):
        patch = subdivide_tensor(golden.SAMPLE_SURFACE, golden.UNIT_SQUARE)
        with pytest.raises(ValueError):
            mesh_document(patch, 1)

    def test_seventeen_significant_digits(self):
        bez = subdivide_curve(golden.SAMPLE_CURVE, ParamInterval(0, 1))
        text = mesh_document(bez, 4)
        # t = 1/3 evaluates to x = 28/27; float round-trip must be exact.
        line = [l for l in text.splitlines() if l.startswith("v ")][1]
        assert float(line.split()[1]) == float(Fraction(28, 27))


# Coordinates of the two heights perfbench draws: |p|, q <= 9, and |p|, q
# in [2^31, 2^32); zero is drawn on its own so that it comes up often.
H9 = st.fractions(min_value=-9, max_value=9, max_denominator=9)
_H32_INT = st.integers(2**31, 2**32 - 1)
H32 = st.builds(lambda p, q, s: Fraction(s * p, q), _H32_INT, _H32_INT, st.sampled_from([1, -1]))


@st.composite
def bernstein_objects(draw):
    """A BezierCurve, TensorPatch or TrianglePatch of degrees 0-10, with
    coordinates of one height."""
    coord = st.one_of(st.just(Fraction(0)), draw(st.sampled_from([H9, H32])))
    point = st.builds(Point3, coord, coord, coord)
    points = lambda k: st.lists(point, min_size=k, max_size=k)
    kind = draw(st.sampled_from(["curve", "tensor", "triangle"]))
    n, m = draw(st.integers(0, 10)), draw(st.integers(0, 10))
    if kind == "curve":
        return BezierCurve(draw(points(n + 1)), ParamInterval(0, 1))
    if kind == "tensor":
        return TensorPatch([draw(points(m + 1)) for _ in range(n + 1)], golden.UNIT_SQUARE)
    return TrianglePatch([draw(points(n - nu + 1)) for nu in range(n + 1)], golden.UNIT_TRIANGLE)


def casteljau(values, k, g):
    """g**degree times the Bernstein polynomial with integer coefficients
    values at k/g, by de Casteljau's algorithm in integers."""
    while len(values) > 1:
        values = [(g - k) * a + k * b for a, b in zip(values, values[1:])]
    return values[0]


def casteljau_triangle(rows, r, c, g):
    """The same for a triangular net rows[nu][mu], at the barycentric
    weights r/g on nu, c/g on mu and the rest on the third index."""
    while len(rows) > 1:
        rows = [
            [r * below[j] + c * row[j + 1] + (g - r - c) * row[j] for j in range(len(below))]
            for row, below in zip(rows, rows[1:])
        ]
    return rows[0][0]


def vertex_line(coords):
    return "v " + " ".join(format(float(v), ".17g") for v in coords)


def reference_vertices(obj, samples, with_net):
    """The vertex lines of a mesh, each point evaluated on its own by de
    Casteljau's algorithm in integers (each axis over one denominator)
    and rounded by float(Fraction)."""
    g = samples - 1
    if isinstance(obj, BezierCurve):
        rows, degree = [obj.control_points], obj.degree
        grid = [(k, 0) for k in range(samples)]
    elif isinstance(obj, TensorPatch):
        rows, degree = obj.control_points, sum(obj.degrees)
        grid = [(k, l) for k in range(samples) for l in range(samples)]
    else:
        rows, degree = obj.rows, obj.degree
        grid = [(r, c) for r in range(samples) for c in range(samples - r)]
    axes = []
    for a in range(3):
        den = lcm(*(p.as_tuple()[a].denominator for row in rows for p in row))
        ints = [[int(p.as_tuple()[a] * den) for p in row] for row in rows]
        if isinstance(obj, BezierCurve):
            values = [casteljau(ints[0], k, g) for k, _ in grid]
        elif isinstance(obj, TensorPatch):
            along_v = [[casteljau(row, l, g) for row in ints] for l in range(samples)]
            values = [casteljau(along_v[l], k, g) for k, l in grid]
        else:
            values = [casteljau_triangle(ints, r, c, g) for r, c in grid]
        axes.append([Fraction(v, den * g**degree) for v in values])
    out = [vertex_line(coords) for coords in zip(*axes)]
    # The integer evaluation agrees with the library's, at one grid point.
    k, l = grid[len(grid) // 2]
    params = [Fraction(k, g)] if isinstance(obj, BezierCurve) else [Fraction(k, g), Fraction(l, g)]
    assert out[len(grid) // 2] == vertex_line(evaluate(obj, *params).as_tuple())
    return out + [vertex_line(p.as_tuple()) for row in rows for p in row] if with_net else out


class TestMeshMatchesEvaluation:
    @settings(max_examples=150)
    @given(bernstein_objects(), st.integers(2, 40), st.booleans())
    def test_vertices_are_rounded_exact_evaluations(self, obj, samples, with_net):
        """Samples up to the degree put some of the points that fix the
        polynomial outside the grid."""
        text = mesh_document(obj, samples, with_net)
        got = [line for line in text.splitlines() if line.startswith("v ")]
        assert got == reference_vertices(obj, samples, with_net)


@st.composite
def monomial_objects(draw):
    """A MonomialCurve or MonomialSurface of degrees 0-8, with coordinates
    of one height."""
    coord = st.one_of(st.just(Fraction(0)), draw(st.sampled_from([H9, H32])))
    point = st.builds(Point3, coord, coord, coord)
    points = lambda k: st.lists(point, min_size=k, max_size=k)
    n, m = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    if draw(st.booleans()):
        return MonomialCurve(draw(points(n + 1)))
    return MonomialSurface([draw(points(m + 1)) for _ in range(n + 1)])


def horner(values, k, g):
    """g**degree times the polynomial with integer coefficients values
    (constant term first) at k/g, by Horner's rule in integers."""
    acc = 0
    for power, c in enumerate(reversed(values)):
        acc = acc * k + c * g**power
    return acc


def monomial_reference_vertices(obj, samples):
    """The vertex lines of a monomial mesh, each point evaluated on its
    own by Horner's rule in integers (each axis over one denominator) and
    rounded by float(Fraction)."""
    g = samples - 1
    surface = isinstance(obj, MonomialSurface)
    rows = obj.coeffs if surface else [obj.coeffs]
    degree = len(rows) - 1 + len(rows[0]) - 1
    axes = []
    for a in range(3):
        den = lcm(*(p.as_tuple()[a].denominator for row in rows for p in row))
        ints = [[int(p.as_tuple()[a] * den) for p in row] for row in rows]
        # Along v (a curve's one direction) for each row, then along u.
        along_v = [[horner(row, l, g) for row in ints] for l in range(samples)]
        if surface:
            values = [horner(along_v[l], k, g) for k in range(samples) for l in range(samples)]
        else:
            values = [column[0] for column in along_v]
        axes.append([Fraction(v, den * g**degree) for v in values])
    return [vertex_line(coords) for coords in zip(*axes)]


_H32_POINT = Point3(Fraction(-(2**32) + 5, 2**31 + 11), 0, Fraction(2**31 + 3, 2**32 - 17))


class TestMonomialMeshMatchesHorner:
    @settings(max_examples=100)
    @given(monomial_objects(), st.integers(2, 40))
    @example(MonomialSurface([[_H32_POINT] * 4] * 9), 4)
    @example(MonomialCurve([_H32_POINT, Point3(0, 1, -1)] * 4 + [_H32_POINT]), 3)
    def test_vertices_are_rounded_exact_evaluations(self, obj, samples):
        """Samples up to the degree put some of the points that fix the
        polynomial outside the grid."""
        got = [line for line in mesh_document(obj, samples).splitlines() if line.startswith("v ")]
        assert got == monomial_reference_vertices(obj, samples)


def quad_records(samples, net):
    """The f and l records of a quad grid and its control net, numbered
    point by point."""
    vid = lambda r, c: r * samples + c + 1
    out = [
        f"f {vid(r, c)} {vid(r + 1, c)} {vid(r + 1, c + 1)} {vid(r, c + 1)}"
        for r in range(samples - 1)
        for c in range(samples - 1)
    ]
    if net:
        rows, cols = len(net), len(net[0])
        nid = lambda r, c: samples * samples + r * cols + c + 1
        # An l element needs two vertices: a net row or column of one
        # point (degree 0 in the other direction) has none.
        if cols > 1:
            out += ["l " + " ".join(str(nid(r, c)) for c in range(cols)) for r in range(rows)]
        if rows > 1:
            out += ["l " + " ".join(str(nid(r, c)) for r in range(rows)) for c in range(cols)]
    return out


def triangle_id(base, size, r, c):
    """OBJ number of point c of row r of a triangular grid whose rows hold
    size, size - 1, ... points, numbered row by row after base."""
    return base + r * size - r * (r - 1) // 2 + c + 1


def triangle_records(samples, net):
    """The f and l records of a triangle grid and its control net,
    numbered point by point."""
    vid = lambda r, c: triangle_id(0, samples, r, c)
    out = []
    for r in range(samples - 1):
        for c in range(samples - 1 - r):
            out.append(f"f {vid(r, c)} {vid(r + 1, c)} {vid(r, c + 1)}")
            if c + 1 < samples - 1 - r:
                out.append(f"f {vid(r + 1, c)} {vid(r + 1, c + 1)} {vid(r, c + 1)}")
    if net:
        nid = lambda nu, mu: triangle_id(samples * (samples + 1) // 2, net.degree + 1, nu, mu)
        for nu, mu, _ in net.labelled_points():
            if nu + mu < net.degree:
                out.append(f"l {nid(nu, mu)} {nid(nu + 1, mu)}")
                out.append(f"l {nid(nu, mu)} {nid(nu, mu + 1)}")
                out.append(f"l {nid(nu + 1, mu)} {nid(nu, mu + 1)}")
    return out


class TestGridRecords:
    """Face and net-line numbering, against a point-by-point enumeration."""

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_polyline(self, n):
        points = [Point3(k, 2 * k, 0) for k in range(n + 1)]
        for curve in (BezierCurve(points, ParamInterval(0, 1)), MonomialCurve(points)):
            # A monomial curve has no control net.
            net = n + 1 if isinstance(curve, BezierCurve) else 0
            for samples in range(2, 41):
                text = mesh_document(curve, samples, with_net=True)
                # The polyline, then the control polygon, which a degree-0
                # curve lacks: an l element needs two vertices.
                ids = [range(1, samples + 1), range(samples + 1, samples + net + 1)]
                want = ["l " + " ".join(map(str, line)) for line in ids if len(line) > 1]
                assert (records(text, "f"), records(text, "l")) == ([], want)
                assert len(vertices(text)) == samples + net

    @pytest.mark.parametrize("n,m", [(0, 0), (0, 2), (1, 2), (3, 1), (2, 0)])
    def test_quad_grid(self, n, m):
        grid = [[Point3(i, j, i * j) for j in range(m + 1)] for i in range(n + 1)]
        for patch in (TensorPatch(grid, golden.UNIT_SQUARE), MonomialSurface(grid)):
            for samples in range(2, 41):
                for with_net in (False, True):
                    text = mesh_document(patch, samples, with_net)
                    got = records(text, "f") + records(text, "l")
                    # A monomial surface has no control net.
                    net = getattr(patch, "control_points", None) if with_net else None
                    want = quad_records(samples, net)
                    assert got == want, (type(patch).__name__, samples, with_net)

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_triangle_grid(self, n):
        patch = TrianglePatch(
            [[Point3(nu, mu, nu - mu) for mu in range(n - nu + 1)] for nu in range(n + 1)],
            golden.UNIT_TRIANGLE,
        )
        for samples in range(2, 41):
            for with_net in (False, True):
                text = mesh_document(patch, samples, with_net)
                got = records(text, "f") + records(text, "l")
                net = patch if with_net else None
                assert got == triangle_records(samples, net), (samples, with_net)
