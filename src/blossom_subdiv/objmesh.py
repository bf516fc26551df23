"""Wavefront OBJ export of exactly evaluated geometry.

This is the one place rationals become floats: vertices are converted
round-to-nearest and printed with 17 significant digits, everything
upstream stays exact. Curves export as polylines, tensor patches as quad
grids, triangular patches as barycentric triangle grids; --with-net adds
the control net as line elements. Bernstein forms are sampled through
integer basis tables (Farouki and Rajan, CAGD 1988), monomial ones by
Horner.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Sequence, Union

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


def _fmt(num: int, den: int) -> str:
    # int / int is correctly rounded, so this is float(Fraction(num, den)).
    try:
        return format(num / den, ".17g")
    except OverflowError:
        raise ValueError("a mesh coordinate is beyond the range of a float") from None


def _vertex(p: Point3) -> str:
    return "v " + " ".join([_fmt(v.numerator, v.denominator) for v in p.as_tuple()])


def _bernstein_table(n: int, g: int) -> list[list[int]]:
    """Row k holds g**n times the degree-n Bernstein basis at k/g."""
    return [[comb(n, i) * k**i * (g - k) ** (n - i) for i in range(n + 1)] for k in range(g + 1)]


def _vertex_lines(patch: Meshable, samples: int) -> list[str]:
    """Vertex lines at the parameters k/(samples - 1), in the order the
    polyline, quad grid or triangle grid numbers them."""
    g = samples - 1
    if isinstance(patch, (MonomialCurve, MonomialSurface)):
        ts = [Fraction(k, g) for k in range(samples)]
        if isinstance(patch, MonomialCurve):
            return [_vertex(evaluate(patch, t)) for t in ts]
        return [_vertex(evaluate(patch, u, v)) for u in ts for v in ts]
    if isinstance(patch, BezierCurve):
        degree = patch.degree
        nums, dens = over_common_denominators(patch.control_points)
        points = combine_points(_bernstein_table(degree, g), nums)
    elif isinstance(patch, TensorPatch):
        n, m = patch.degrees
        degree = n + m
        nums, dens = over_common_denominators([p for row in patch.control_points for p in row])
        # v for each control row, then u for each sampled v.
        table_v, table_u = _bernstein_table(m, g), _bernstein_table(n, g)
        rows = [combine_points(table_v, nums[i * (m + 1) : (i + 1) * (m + 1)]) for i in range(n + 1)]
        columns = [combine_points(table_u, column) for column in zip(*rows)]
        points = [p for row in zip(*columns) for p in row]
    else:
        degree = patch.degree
        nums, dens = over_common_denominators([p for row in patch.rows for p in row])
        labels = [(nu, mu, degree - nu - mu) for nu, mu, _ in patch.labelled_points()]
        weights = [(multinomial(degree, nu, mu), nu, mu, lam) for nu, mu, lam in labels]
        power = [[k**e for e in range(degree + 1)] for k in range(g + 1)]
        # Rows by the first barycentric weight r/g; row r has g + 1 - r points.
        table = (
            [w * power[r][nu] * power[c][mu] * power[g - r - c][lam] for w, nu, mu, lam in weights]
            for r in range(g + 1)
            for c in range(g + 1 - r)
        )
        points = combine_points(table, nums)
    dx, dy, dz = (g**degree * d for d in dens)
    return [f"v {_fmt(x, dx)} {_fmt(y, dy)} {_fmt(z, dz)}" for x, y, z in points]


def _polyline(vertices: list[str], net: Sequence[Point3] | None) -> list[str]:
    lines = ["g curve", *vertices]
    lines.append("l " + " ".join(str(k + 1) for k in range(len(vertices))))
    if net:
        base = len(vertices)
        lines.append("g control-net")
        lines += [_vertex(p) for p in net]
        lines.append("l " + " ".join(str(base + k + 1) for k in range(len(net))))
    return lines


def _quad_grid(
    vertices: list[str], samples: int, net: Sequence[Sequence[Point3]] | None
) -> list[str]:
    lines = ["g patch", *vertices]
    vid = lambda r, c: r * samples + c + 1
    for r in range(samples - 1):
        for c in range(samples - 1):
            lines.append(f"f {vid(r, c)} {vid(r + 1, c)} {vid(r + 1, c + 1)} {vid(r, c + 1)}")
    if net:
        base = samples * samples
        net_cols = len(net[0])
        lines.append("g control-net")
        for row in net:
            lines += [_vertex(p) for p in row]
        nid = lambda r, c: base + r * net_cols + c + 1
        for r in range(len(net)):
            lines.append("l " + " ".join(str(nid(r, c)) for c in range(net_cols)))
        for c in range(net_cols):
            lines.append("l " + " ".join(str(nid(r, c)) for r in range(len(net))))
    return lines


def _triangle_id(base: int, size: int, r: int, c: int) -> int:
    """OBJ number of point c of row r in a triangular grid whose rows
    hold size, size - 1, ... points, numbered row by row after base."""
    return base + r * size - r * (r - 1) // 2 + c + 1


def _triangle_grid(vertices: list[str], samples: int, net: TrianglePatch | None) -> list[str]:
    lines = ["g patch", *vertices]
    vid = lambda r, c: _triangle_id(0, samples, r, c)
    for r in range(samples - 1):
        for c in range(samples - 1 - r):
            lines.append(f"f {vid(r, c)} {vid(r + 1, c)} {vid(r, c + 1)}")
            if c + 1 < samples - 1 - r:
                lines.append(f"f {vid(r + 1, c)} {vid(r + 1, c + 1)} {vid(r, c + 1)}")
    if net:
        lines.append("g control-net")
        lines += [_vertex(p) for _, _, p in net.labelled_points()]
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
