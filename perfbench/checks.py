"""Independent exact checks of the program's outputs.

Nothing here imports blossom_subdiv. Points are 3-tuples of Fractions;
patches are evaluated by de Casteljau written out here and compared
with `==` against Horner evaluation of the monomial input at the mapped
domain point. Each check returns None when the output is right and a
one-line reason when it is not.
"""

from __future__ import annotations

import json
from fractions import Fraction

ONE = Fraction(1)


def lerp(p, q, s, t):
    return tuple(s * a + t * b for a, b in zip(p, q))


def horner_curve(coeffs, t):
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = tuple(a * t + b for a, b in zip(acc, c))
    return acc


def horner_surface(grid, u, v):
    return horner_curve([horner_curve(row, v) for row in grid], u)


def casteljau(points, t):
    layer = list(points)
    while len(layer) > 1:
        layer = [lerp(layer[k], layer[k + 1], ONE - t, t) for k in range(len(layer) - 1)]
    return layer[0]


def casteljau_tensor(grid, u, v):
    """grid[nu][mu]: nu runs along u, mu along v."""
    return casteljau([casteljau(row, v) for row in grid], u)


def casteljau_triangle(rows, u, v):
    """rows[nu][mu]; weight u pulls toward nu (va), v toward mu (vb),
    1 - u - v toward the remaining vertex vc."""
    w = ONE - u - v
    layer = [list(row) for row in rows]
    for level in range(len(rows) - 1, 0, -1):
        layer = [
            [
                tuple(
                    u * a + v * b + w * c
                    for a, b, c in zip(layer[nu + 1][mu], layer[nu][mu + 1], layer[nu][mu])
                )
                for mu in range(level - nu)
            ]
            for nu in range(level)
        ]
    return layer[0][0]


def fmt_vertex(p):
    """The OBJ vertex line for an exact point: round-to-nearest float,
    17 significant digits."""
    return "v " + " ".join(format(float(c), ".17g") for c in p)


def parse_point(raw):
    return tuple(Fraction(c) for c in raw)


def parse_patch(text):
    """Return (kind, control points) from a patch document; tb-patch
    points come back as rows[nu][mu]."""
    doc = json.loads(text)
    kind = doc["kind"]
    points = doc["control_points"]
    if kind == "bezier-curve":
        return kind, [parse_point(p) for p in points]
    if kind == "tpb-patch":
        return kind, [[parse_point(p) for p in row] for row in points]
    n_total = doc["degree"][0]
    rows = [[None] * (n_total - nu + 1) for nu in range(n_total + 1)]
    for entry in points:
        rows[entry["nu"]][entry["mu"]] = parse_point(entry["point"])
    return kind, rows


def check_patch(text, kind, shape, probes, evaluate, want):
    """Evaluate the patch at each probe parameter and compare with
    want(probe). shape is the expected point count per row (or the
    count for a curve)."""
    got_kind, points = parse_patch(text)
    if got_kind != kind:
        return f"expected a {kind} document, got {got_kind}"
    got_shape = [len(row) for row in points] if kind != "bezier-curve" else len(points)
    if got_shape != shape:
        return f"{kind} has shape {got_shape}, expected {shape}"
    for probe in probes:
        got = evaluate(points, *probe)
        expected = want(*probe)
        if got != expected:
            return f"{kind} at {tuple(map(str, probe))}: {tuple(map(str, got))} != {tuple(map(str, expected))}"
    return None


def grid_params(grid, samples):
    """Sample parameters in the program's OBJ vertex order."""
    ts = [Fraction(k, samples - 1) for k in range(samples)]
    if grid == "line":
        return [(t,) for t in ts]
    if grid == "quad":
        return [(u, v) for u in ts for v in ts]
    return [(ts[r], ts[c]) for r in range(samples) for c in range(samples - r)]


def check_obj(text, grid, samples, net_points, picks, want):
    """Compare the OBJ vertex lines at the picked grid indices with the
    rounded exact values want(params)."""
    vertices = [line for line in text.split("\n") if line.startswith("v ")]
    params = grid_params(grid, samples)
    if len(vertices) != len(params) + net_points:
        return f"OBJ has {len(vertices)} vertices, expected {len(params) + net_points}"
    for index in picks:
        expected = fmt_vertex(want(*params[index]))
        if vertices[index] != expected:
            return f"OBJ vertex {index}: {vertices[index]!r} != {expected!r}"
    return None


def check_point(text, want):
    got = parse_point(json.loads(text)["point"])
    if got != want:
        return f"eval gave {tuple(map(str, got))}, expected {tuple(map(str, want))}"
    return None
