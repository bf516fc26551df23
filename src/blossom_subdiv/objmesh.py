"""Wavefront OBJ export of exactly evaluated geometry.

This is the one place rationals become floats: vertices are converted
round-to-nearest and printed with 17 significant digits, everything
upstream stays exact. Curves export as polylines, tensor patches as quad
grids, triangular patches as barycentric triangle grids; --with-net adds
the control net as line elements. Bernstein forms are sampled in integers:
basis tables (Farouki and Rajan, CAGD 1988) give the first degree + 1
values along each grid direction, forward differencing (Lien, Shantz and
Pratt, SIGGRAPH 1987; Knuth, TAOCP 4.6.4) the rest at one addition per
degree, vertex and axis. Monomial forms stay on Horner until perfbench
stops keeping every finished job (ROADMAP item 1): 8x faster meshing would
read there as a memory regression."""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat
from math import comb
from typing import Iterable, Sequence, Union

from .geometry import (
    BezierCurve,
    MonomialCurve,
    MonomialSurface,
    Point3,
    TensorPatch,
    TrianglePatch,
    combine_points,
    evaluate,
    over_common_denominators,
)
from .numerics import MESH_VERTEX_BUDGET, multinomial

Meshable = Union[MonomialCurve, MonomialSurface, BezierCurve, TensorPatch, TrianglePatch]


def _vertex_text(points: Iterable[Sequence[int]], dens: Sequence[int]) -> list[str]:
    """OBJ vertex lines of integer points over per-axis denominators.
    int / int is correctly rounded, so each coordinate is float(Fraction(num, den))."""
    dx, dy, dz = dens
    try:
        return ["v %.17g %.17g %.17g" % (x / dx, y / dy, z / dz) for x, y, z in points]
    except OverflowError:
        raise ValueError("a mesh coordinate is beyond the range of a float") from None


def _vertex(p: Point3) -> str:
    coords = p.as_tuple()
    return _vertex_text([[v.numerator for v in coords]], [v.denominator for v in coords])[0]


def _bernstein_table(n: int, g: int) -> list[list[int]]:
    """Row k, for k = 0..n, holds g**n times the degree-n Bernstein basis at k/g."""
    return [[comb(n, i) * k**i * (g - k) ** (n - i) for i in range(n + 1)] for k in range(n + 1)]


def _differences(values: Sequence[int]) -> list[int]:
    """The forward differences of all orders at 0 of values at 0, 1, 2, ..."""
    out = []
    while values:
        out.append(values[0])
        values = [y - x for x, y in zip(values, values[1:])]
    return out


def _sums(diffs: Sequence[int], count: int) -> list[int]:
    """The values at 0..count - 1 of the polynomial whose forward
    differences at 0 are diffs: one running sum per order, in C."""
    diffs = diffs[:count]
    values = repeat(diffs[-1], count - len(diffs) + 1)
    for d in reversed(diffs[:-1]):
        values = accumulate(values, initial=d)
    return list(values)


def _vertex_lines(patch: Meshable, samples: int) -> list[str]:
    """Vertex lines at the parameters k/(samples - 1), in the order the
    polyline, quad grid or triangle grid numbers them."""
    g = samples - 1
    if isinstance(patch, (MonomialCurve, MonomialSurface)):
        ts = [Fraction(k, g) for k in range(samples)]
        if isinstance(patch, MonomialCurve):
            return [_vertex(evaluate(patch, t)) for t in ts]
        return [_vertex(evaluate(patch, u, v)) for u in ts for v in ts]
    # Each axis is an integer polynomial in the grid indices (r, c), over
    # g**degree times its denominator, fixed by the values corner[r][c] for
    # r, c <= degree (r + c <= degree on a triangle), in the grid or not.
    if isinstance(patch, BezierCurve):
        degree = patch.degree
        nums, dens = over_common_denominators(patch.control_points)
        corner, widths = [combine_points(_bernstein_table(degree, g), nums)], [samples]
    elif isinstance(patch, TensorPatch):
        n, m = patch.degrees
        degree = n + m
        nums, dens = over_common_denominators([p for row in patch.control_points for p in row])
        # Along v for each control row, then along u.
        table_v, table_u = _bernstein_table(m, g), _bernstein_table(n, g)
        rows = [combine_points(table_v, nums[i : i + m + 1]) for i in range(0, len(nums), m + 1)]
        corner = list(zip(*[combine_points(table_u, column) for column in zip(*rows)]))
        widths = [samples] * samples
    else:
        degree = patch.degree
        nums, dens = over_common_denominators([p for row in patch.rows for p in row])
        labels = [(i, j, degree - i - j) for i, j, _ in patch.labelled_points()]
        weights = [(multinomial(degree, i, j), i, j, k) for i, j, k in labels]
        # Grid rows r by the first barycentric weight r/g.
        basis = lambda r, c: [w * r**i * c**j * (g - r - c) ** k for w, i, j, k in weights]
        rows = [[basis(r, c) for c in range(degree + 1 - r)] for r in range(degree + 1)]
        corner = [combine_points(row, nums) for row in rows]
        widths = range(samples, 0, -1)
    axes = []
    for a in range(3):
        diffs = [_differences([p[a] for p in row]) for row in corner]
        # The order-j differences along c at c = 0 are a polynomial in r
        # (of degree - j on a triangle, given by rows r <= degree - j).
        along_r = [_sums(_differences([d[j] for d in diffs if j < len(d)]), len(widths))
                   for j in range(len(diffs[0]))]
        axes.append([x for d, w in zip(zip(*along_r), widths) for x in _sums(d, w)])
    return _vertex_text(zip(*axes), [g**degree * d for d in dens])


def _polyline(vertices: list[str], net: Sequence[Point3] | None) -> list[str]:
    lines = ["g curve", *vertices]
    lines.append("l " + " ".join(str(k + 1) for k in range(len(vertices))))
    if net:
        lines += ["g control-net", *[_vertex(p) for p in net]]
        if len(net) > 1:  # an l element joins at least two vertices
            lines.append("l " + " ".join(str(len(vertices) + k + 1) for k in range(len(net))))
    return lines


def _quad_grid(
    vertices: list[str], samples: int, net: Sequence[Sequence[Point3]] | None
) -> list[str]:
    lines = ["g patch", *vertices]
    # Row r starts at OBJ number s * r + 1, so a and a + s number (r, c) and (r + 1, c).
    s = samples
    starts = range(1, s * s - s, s)
    lines += [f"f {a} {a + s} {a + s + 1} {a + 1}" for r in starts for a in range(r, r + s - 1)]
    if net:
        lines += ["g control-net", *[_vertex(p) for row in net for p in row]]
        w = len(net[0])
        ids = [[str(s * s + r * w + c + 1) for c in range(w)] for r in range(len(net))]
        lines += ["l " + " ".join(line) for line in [*ids, *zip(*ids)] if len(line) > 1]
    return lines


def _triangle_id(base: int, size: int, r: int, c: int) -> int:
    """OBJ number of point c of row r in a triangular grid whose rows
    hold size, size - 1, ... points, numbered row by row after base."""
    return base + r * size - r * (r - 1) // 2 + c + 1


def _triangle_grid(vertices: list[str], samples: int, net: TrianglePatch | None) -> list[str]:
    lines = ["g patch", *vertices]
    start = 1  # OBJ number of point (r, 0); row r holds w = samples - r points
    for w in range(samples, 1, -1):
        for a in range(start, start + w - 1):  # a and a + w number (r, c) and (r + 1, c)
            lines.append(f"f {a} {a + w} {a + 1}")
            if a < start + w - 2:
                lines.append(f"f {a + w} {a + w + 1} {a + 1}")
        start += w
    if net:
        lines += ["g control-net", *[_vertex(p) for _, _, p in net.labelled_points()]]
        base = samples * (samples + 1) // 2
        nid = lambda nu, mu: _triangle_id(base, net.degree + 1, nu, mu)
        for nu, mu, _ in net.labelled_points():
            if nu + mu < net.degree:
                lines.append(f"l {nid(nu, mu)} {nid(nu + 1, mu)}")
                lines.append(f"l {nid(nu, mu)} {nid(nu, mu + 1)}")
                lines.append(f"l {nid(nu + 1, mu)} {nid(nu, mu + 1)}")
    return lines


def mesh_document(obj: Meshable, samples: int, with_net: bool = False) -> str:
    """Tessellate to OBJ text.

    Monomial inputs are sampled over the unit domain; Bernstein patches
    over their own parameter domain. samples is the per-edge vertex count
    and must be at least 2 (2 reproduces just the corners); a mesh of more
    than MESH_VERTEX_BUDGET sampled vertices is refused before any
    evaluation.
    """
    if samples < 2:
        raise ValueError(f"need at least 2 samples per edge, got {samples}")
    curve, triangle = isinstance(obj, (MonomialCurve, BezierCurve)), isinstance(obj, TrianglePatch)
    vertices = samples if curve else samples * (samples + 1) // 2 if triangle else samples * samples
    if vertices > MESH_VERTEX_BUDGET:
        raise ValueError(
            f"{samples} samples per edge give {vertices} mesh vertices, "
            f"over the budget of {MESH_VERTEX_BUDGET}"
        )
    vertex_lines = _vertex_lines(obj, samples)
    # Monomial documents have no control net.
    net = getattr(obj, "control_points", None) if with_net else None
    if curve:
        lines = _polyline(vertex_lines, net)
    elif triangle:
        lines = _triangle_grid(vertex_lines, samples, obj if with_net else None)
    else:
        lines = _quad_grid(vertex_lines, samples, net)
    return "\n".join(lines) + "\n"
