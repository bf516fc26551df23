from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blossom_subdiv import (
    BezierCurve,
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
    """A BezierCurve, TensorPatch or TrianglePatch of degrees 0-5, with
    coordinates of one height."""
    coord = st.one_of(st.just(Fraction(0)), draw(st.sampled_from([H9, H32])))
    point = st.builds(Point3, coord, coord, coord)
    points = lambda k: st.lists(point, min_size=k, max_size=k)
    kind = draw(st.sampled_from(["curve", "tensor", "triangle"]))
    n, m = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    if kind == "curve":
        return BezierCurve(draw(points(n + 1)), ParamInterval(0, 1))
    if kind == "tensor":
        return TensorPatch([draw(points(m + 1)) for _ in range(n + 1)], golden.UNIT_SQUARE)
    return TrianglePatch([draw(points(n - nu + 1)) for nu in range(n + 1)], golden.UNIT_TRIANGLE)


def reference_vertices(obj, samples, with_net):
    """The vertex lines of a mesh, each point evaluated exactly on its own
    (de Casteljau) and rounded by float()."""
    line = lambda p: "v " + " ".join(format(float(v), ".17g") for v in p.as_tuple())
    ts = [Fraction(k, samples - 1) for k in range(samples)]
    if isinstance(obj, BezierCurve):
        out = [line(evaluate(obj, t)) for t in ts]
        net = obj.control_points
    elif isinstance(obj, TensorPatch):
        out = [line(evaluate(obj, u, v)) for u in ts for v in ts]
        net = [p for row in obj.control_points for p in row]
    else:
        out = [line(evaluate(obj, u, v)) for i, u in enumerate(ts) for v in ts[: samples - i]]
        net = [p for _, _, p in obj.labelled_points()]
    return out + [line(p) for p in net] if with_net else out


class TestMeshMatchesEvaluation:
    @settings(max_examples=150)
    @given(bernstein_objects(), st.integers(2, 17), st.booleans())
    def test_vertices_are_rounded_exact_evaluations(self, obj, samples, with_net):
        text = mesh_document(obj, samples, with_net)
        got = [line for line in text.splitlines() if line.startswith("v ")]
        assert got == reference_vertices(obj, samples, with_net)
