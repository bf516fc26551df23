"""JSON document formats for polynomial inputs and subdivision outputs.

Rationals travel as strings ("p/q" or "p") so exactness survives
serialization; writing then re-reading a document reproduces identical
values. Key order and indentation are fixed so identical inputs yield
byte-identical files.
"""

from __future__ import annotations

import json
from typing import Union

from .numerics import format_rational, parse_rational
from .geometry import (
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
)

SURFACE_KINDS = ("curve", "surface")
PATCH_KINDS = ("bezier-curve", "tpb-patch", "tb-patch")

InputObject = Union[MonomialCurve, MonomialSurface]
PatchObject = Union[BezierCurve, TensorPatch, TrianglePatch]


class DocumentError(ValueError):
    """Malformed or inconsistent document content."""


def _point3_to_json(p: Point3) -> list[str]:
    return [format_rational(p.x), format_rational(p.y), format_rational(p.z)]


def _point3_from_json(raw) -> Point3:
    if not isinstance(raw, list) or len(raw) != 3:
        raise DocumentError(f"point must be a 3-element array, got {raw!r}")
    try:
        return Point3(*(parse_rational(c) for c in raw))
    except ValueError as exc:
        raise DocumentError(str(exc)) from None


def _point2_to_json(p: Point2) -> list[str]:
    return [format_rational(p.s), format_rational(p.t)]


def _point2_from_json(raw) -> Point2:
    if not isinstance(raw, list) or len(raw) != 2:
        raise DocumentError(f"parameter point must be a 2-element array, got {raw!r}")
    try:
        return Point2(*(parse_rational(c) for c in raw))
    except ValueError as exc:
        raise DocumentError(str(exc)) from None


def dumps(document: dict) -> str:
    """Canonical serialization: fixed key order, two-space indent,
    trailing newline."""
    return json.dumps(document, indent=2) + "\n"


def _unique_keys(pairs: list) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise DocumentError(f"duplicate key {key!r} in JSON object")
        obj[key] = value
    return obj


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def _loads(text: str) -> dict:
    try:
        obj = _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise DocumentError("invalid JSON: nested too deeply") from None
    if not isinstance(obj, dict):
        raise DocumentError("document must be a JSON object")
    return obj


def curve_document(curve: MonomialCurve) -> dict:
    return {
        "kind": "curve",
        "degree": [curve.degree],
        "coeffs": [_point3_to_json(c) for c in curve.coeffs],
    }


def surface_document(surface: MonomialSurface) -> dict:
    n, m = surface.degrees
    return {
        "kind": "surface",
        "degree": [n, m],
        "coeffs": [[_point3_to_json(c) for c in row] for row in surface.coeffs],
    }


def _degrees(obj: dict, rank: int) -> list[int]:
    """The "degree" array of a document: rank non-negative integers.
    JSON booleans are not integers here, although Python's bool is one."""
    degree = obj.get("degree")
    if not (
        isinstance(degree, list)
        and len(degree) == rank
        and all(type(d) is int and d >= 0 for d in degree)
    ):
        raise DocumentError(
            f"{obj['kind']} degree must be an array of {rank} non-negative integer(s)"
        )
    return degree


def _point_grid(raw, degrees: list[int], what: str) -> tuple:
    """Points nested one array level per degree, degree + 1 entries per
    level: a list for one degree, a list of rows for two."""
    if not isinstance(raw, list) or len(raw) != degrees[0] + 1:
        raise DocumentError(f"{what} must be an array of {degrees[0] + 1} entries")
    if len(degrees) == 1:
        return tuple(_point3_from_json(p) for p in raw)
    return tuple(_point_grid(row, degrees[1:], what) for row in raw)


def parse_input_document(text: str) -> InputObject:
    """Parse a monomial curve or surface document."""
    obj = _loads(text)
    kind = obj.get("kind")
    if kind not in SURFACE_KINDS:
        raise DocumentError(f"expected kind 'curve' or 'surface', got {kind!r}")
    degrees = _degrees(obj, 1 if kind == "curve" else 2)
    coeffs = _point_grid(obj.get("coeffs"), degrees, f"{kind} coeffs")
    return MonomialCurve(coeffs) if kind == "curve" else MonomialSurface(coeffs)


def bezier_curve_document(bezier: BezierCurve) -> dict:
    interval = bezier.domain
    return {
        "kind": "bezier-curve",
        "degree": [bezier.degree],
        "domain": {"a": format_rational(interval.a), "b": format_rational(interval.b)},
        "control_points": [_point3_to_json(p) for p in bezier.control_points],
    }


def tensor_patch_document(patch: TensorPatch) -> dict:
    n, m = patch.degrees
    rect = patch.domain
    return {
        "kind": "tpb-patch",
        "degree": [n, m],
        "domain": {
            "a": format_rational(rect.u_range.a),
            "b": format_rational(rect.u_range.b),
            "c": format_rational(rect.v_range.a),
            "d": format_rational(rect.v_range.b),
        },
        "control_points": [[_point3_to_json(p) for p in row] for row in patch.control_points],
    }


def triangle_patch_document(patch: TrianglePatch) -> dict:
    # Explicit (nu, mu) labels per point: self-describing rows are worth
    # the bytes given how easy triangular index conventions are to mix up.
    tri = patch.domain
    return {
        "kind": "tb-patch",
        "degree": [patch.degree],
        "domain": {
            "va": _point2_to_json(tri.va),
            "vb": _point2_to_json(tri.vb),
            "vc": _point2_to_json(tri.vc),
        },
        "control_points": [
            {"nu": nu, "mu": mu, "point": _point3_to_json(p)}
            for nu, mu, p in patch.labelled_points()
        ],
    }


def _parse_interval(raw, keys=("a", "b")) -> ParamInterval:
    if not isinstance(raw, dict):
        raise DocumentError("domain must be an object")
    try:
        return ParamInterval(parse_rational(raw[keys[0]]), parse_rational(raw[keys[1]]))
    except KeyError as exc:
        raise DocumentError(f"domain missing key {exc.args[0]!r}") from None
    except ValueError as exc:
        raise DocumentError(str(exc)) from None


def parse_patch_document(text: str) -> PatchObject:
    """Parse a Bernstein-form patch document.

    Returns a BezierCurve, TensorPatch or TrianglePatch, each with its
    domain attached.
    """
    obj = _loads(text)
    kind = obj.get("kind")
    if kind not in PATCH_KINDS:
        raise DocumentError(f"expected a patch kind {PATCH_KINDS}, got {kind!r}")
    points = obj.get("control_points")
    domain = obj.get("domain")
    if kind == "bezier-curve":
        degrees = _degrees(obj, 1)
        grid = _point_grid(points, degrees, f"{kind} control_points")
        return BezierCurve(grid, _parse_interval(domain))
    if kind == "tpb-patch":
        degrees = _degrees(obj, 2)
        grid = _point_grid(points, degrees, f"{kind} control_points")
        rect = ParamRect(
            _parse_interval(domain, ("a", "b")), _parse_interval(domain, ("c", "d"))
        )
        return TensorPatch(grid, rect)
    # tb-patch
    (n_total,) = _degrees(obj, 1)
    expected = (n_total + 1) * (n_total + 2) // 2
    if not isinstance(points, list) or len(points) != expected:
        raise DocumentError(
            f"tb-patch of degree {n_total} needs {expected} control points, "
            f"got {len(points) if isinstance(points, list) else points!r}"
        )
    if not isinstance(domain, dict):
        raise DocumentError("tb-patch domain must be an object")
    try:
        tri = DomainTriangle(
            _point2_from_json(domain["va"]),
            _point2_from_json(domain["vb"]),
            _point2_from_json(domain["vc"]),
        )
    except KeyError as exc:
        raise DocumentError(f"tb-patch domain missing vertex {exc.args[0]!r}") from None
    by_label = {}
    for entry in points:
        if not isinstance(entry, dict) or not {"nu", "mu", "point"} <= entry.keys():
            raise DocumentError("tb-patch control points need nu/mu/point entries")
        nu, mu = entry["nu"], entry["mu"]
        if not (type(nu) is int and type(mu) is int) or nu < 0 or mu < 0 or nu + mu > n_total:
            raise DocumentError(f"invalid tb-patch control index ({nu!r}, {mu!r})")
        if (nu, mu) in by_label:
            raise DocumentError(f"duplicate tb-patch control index ({nu}, {mu})")
        by_label[(nu, mu)] = _point3_from_json(entry["point"])
    rows = tuple(
        tuple(by_label[(nu, mu)] for mu in range(n_total - nu + 1))
        for nu in range(n_total + 1)
    )
    return TrianglePatch(rows, tri)


def parse_any_document(text: str) -> Union[InputObject, PatchObject]:
    """Dispatch on the kind field; accepts both input and patch documents."""
    obj = _loads(text)
    kind = obj.get("kind")
    if kind in SURFACE_KINDS:
        return parse_input_document(text)
    if kind in PATCH_KINDS:
        return parse_patch_document(text)
    raise DocumentError(f"unknown document kind {kind!r}")
