"""Wavefront OBJ export of exactly evaluated geometry.

This is the one place rationals become floats: vertices are converted
round-to-nearest and printed with 17 significant digits, everything
upstream stays exact. Curves export as polylines, tensor patches as quad
grids, triangular patches as barycentric triangle grids; --with-net adds
the control net as line elements.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

from .geometry import (
    BezierCurve,
    MonomialCurve,
    MonomialSurface,
    Point3,
    TensorPatch,
    TrianglePatch,
    evaluate,
)
from .numerics import MESH_VERTEX_BUDGET

Meshable = Union[MonomialCurve, MonomialSurface, BezierCurve, TensorPatch, TrianglePatch]


def _fmt(value: Fraction) -> str:
    try:
        return format(float(value), ".17g")
    except OverflowError:
        raise ValueError("a mesh coordinate is beyond the range of a float") from None


def _vertex(p: Point3) -> str:
    return f"v {_fmt(p.x)} {_fmt(p.y)} {_fmt(p.z)}"


def _params(samples: int) -> list[Fraction]:
    return [Fraction(k, samples - 1) for k in range(samples)]


def _polyline(points: list[Point3], net: Sequence[Point3] | None) -> list[str]:
    lines = ["g curve"]
    lines += [_vertex(p) for p in points]
    lines.append("l " + " ".join(str(k + 1) for k in range(len(points))))
    if net:
        base = len(points)
        lines.append("g control-net")
        lines += [_vertex(p) for p in net]
        lines.append("l " + " ".join(str(base + k + 1) for k in range(len(net))))
    return lines


def _quad_grid(grid: list[list[Point3]], net: Sequence[Sequence[Point3]] | None) -> list[str]:
    rows = len(grid)
    cols = len(grid[0])
    lines = ["g patch"]
    for row in grid:
        lines += [_vertex(p) for p in row]
    vid = lambda r, c: r * cols + c + 1
    for r in range(rows - 1):
        for c in range(cols - 1):
            lines.append(f"f {vid(r, c)} {vid(r + 1, c)} {vid(r + 1, c + 1)} {vid(r, c + 1)}")
    if net:
        base = rows * cols
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


def _triangle_grid(patch: TrianglePatch, samples: int, with_net: bool) -> list[str]:
    lines = ["g patch"]
    # Rows by the first barycentric weight; row r has samples - r points.
    for r in range(samples):
        u = Fraction(r, samples - 1)
        for c in range(samples - r):
            v = Fraction(c, samples - 1)
            lines.append(_vertex(evaluate(patch, u, v)))
    vid = lambda r, c: _triangle_id(0, samples, r, c)
    for r in range(samples - 1):
        for c in range(samples - 1 - r):
            lines.append(f"f {vid(r, c)} {vid(r + 1, c)} {vid(r, c + 1)}")
            if c + 1 < samples - 1 - r:
                lines.append(f"f {vid(r + 1, c)} {vid(r + 1, c + 1)} {vid(r, c + 1)}")
    if with_net:
        lines.append("g control-net")
        lines += [_vertex(p) for _, _, p in patch.labelled_points()]
        base = samples * (samples + 1) // 2
        nid = lambda nu, mu: _triangle_id(base, patch.degree + 1, nu, mu)
        for nu, mu, _ in patch.labelled_points():
            if nu + mu < patch.degree:
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
    ts = _params(samples)
    # Monomial documents have no control net.
    net = getattr(obj, "control_points", None) if with_net else None
    if curve:
        lines = _polyline([evaluate(obj, t) for t in ts], net)
    elif triangle:
        lines = _triangle_grid(obj, samples, with_net)
    else:
        lines = _quad_grid([[evaluate(obj, u, v) for v in ts] for u in ts], net)
    return "\n".join(lines) + "\n"
