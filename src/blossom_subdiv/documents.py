"""JSON document formats for polynomial inputs and subdivision outputs.

Rationals travel as strings ("p/q" or "p") so exactness survives
serialization; writing then re-reading a document reproduces identical
values. Key order and indentation are fixed so identical inputs yield
byte-identical files.
"""

from __future__ import annotations

import json
from typing import Union

from .numerics import format_rational, parse_wire_rational, too_long
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

# The document grammar: each kind's type, degree rank, points key (also
# the type's attribute that holds them), domain keys and writer. A
# document holds "kind", then "degree" (rank integers), then "domain" for
# the patch kinds (a..b, a..b x c..d or three vertices), then the points:
# one array level per degree, or labelled entries for a tb-patch.
_KINDS = {
    "curve": (MonomialCurve, 1, "coeffs", None, "curve_document"),
    "surface": (MonomialSurface, 2, "coeffs", None, "surface_document"),
    "bezier-curve": (BezierCurve, 1, "control_points", "ab", "bezier_curve_document"),
    "tpb-patch": (TensorPatch, 2, "control_points", "abcd", "tensor_patch_document"),
    "tb-patch": (TrianglePatch, 1, "control_points", ("va", "vb", "vc"), "triangle_patch_document"),
}
SURFACE_KINDS = tuple(kind for kind, grammar in _KINDS.items() if grammar[3] is None)
PATCH_KINDS = tuple(kind for kind in _KINDS if kind not in SURFACE_KINDS)
_DOMAIN_KEYS = {kind: _KINDS[kind][3] for kind in PATCH_KINDS}

InputObject = Union[MonomialCurve, MonomialSurface]
PatchObject = Union[BezierCurve, TensorPatch, TrianglePatch]


class DocumentError(ValueError):
    """Malformed or inconsistent document content."""


def point_to_json(p: Union[Point3, Point2]) -> list[str]:
    """A point as its array of rational strings, one per coordinate."""
    return [format_rational(c) for c in p._astuple()]


def point_from_json(raw, cls: type = Point3) -> Union[Point3, Point2]:
    """The Point3 or Point2 that point_to_json wrote as raw."""
    size = len(cls.__slots__)
    if not isinstance(raw, list) or len(raw) != size:
        what = "point" if cls is Point3 else "parameter point"
        raise DocumentError(f"{what} must be a {size}-element array, got {raw!r}")
    try:
        return cls(*(parse_wire_rational(c) for c in raw))
    except ValueError as exc:
        raise DocumentError(str(exc)) from None


def domain_to_json(domain: Union[ParamInterval, ParamRect, DomainTriangle]) -> dict:
    """A patch document's domain object, keyed as _DOMAIN_KEYS lists."""
    if isinstance(domain, DomainTriangle):
        return dict(zip(_DOMAIN_KEYS["tb-patch"], map(point_to_json, domain._astuple())))
    ranges = domain._astuple() if isinstance(domain, ParamRect) else (domain,)
    ends = [format_rational(end) for interval in ranges for end in interval._astuple()]
    return dict(zip(_DOMAIN_KEYS["tpb-patch"], ends))


def domain_from_json(raw, kind: str) -> Union[ParamInterval, ParamRect, DomainTriangle]:
    """The domain of a patch document of the given kind, as domain_to_json wrote it."""
    if not isinstance(raw, dict):
        raise DocumentError(f"{kind} domain must be an object")
    missing = [key for key in _DOMAIN_KEYS[kind] if key not in raw]
    if missing:
        raise DocumentError(f"{kind} domain missing key {missing[0]!r}")
    if kind == "tb-patch":
        return DomainTriangle(*(point_from_json(raw[key], Point2) for key in _DOMAIN_KEYS[kind]))
    try:
        a, b, *cd = (parse_wire_rational(raw[key]) for key in _DOMAIN_KEYS[kind])
    except ValueError as exc:
        raise DocumentError(str(exc)) from None
    return ParamRect(ParamInterval(a, b), ParamInterval(*cd)) if cd else ParamInterval(a, b)


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
    except DocumentError:
        raise
    except ValueError:  # the decoder's int() of a literal past the digit limit
        raise DocumentError(too_long()) from None
    if not isinstance(obj, dict):
        raise DocumentError("document must be a JSON object")
    return obj


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
        return tuple(point_from_json(p) for p in raw)
    return tuple(_point_grid(row, degrees[1:], what) for row in raw)


def _points_json(points, rank: int) -> list:
    """points as _point_grid reads them: nested one array level per degree."""
    if rank == 1:
        return [point_to_json(p) for p in points]
    return [_points_json(row, rank - 1) for row in points]


def _write(kind: str, obj) -> dict:
    """The document of any kind but the tb-patch."""
    _, rank, key, domain_keys, _ = _KINDS[kind]
    doc = {"kind": kind, "degree": [obj.degree] if rank == 1 else list(obj.degrees)}
    if domain_keys is not None:
        doc["domain"] = domain_to_json(obj.domain)
    doc[key] = _points_json(getattr(obj, key), rank)
    return doc


def curve_document(curve: MonomialCurve) -> dict:
    return _write("curve", curve)


def surface_document(surface: MonomialSurface) -> dict:
    return _write("surface", surface)


def bezier_curve_document(bezier: BezierCurve) -> dict:
    return _write("bezier-curve", bezier)


def tensor_patch_document(patch: TensorPatch) -> dict:
    return _write("tpb-patch", patch)


def triangle_patch_document(patch: TrianglePatch) -> dict:
    # Explicit (nu, mu) labels per point: self-describing rows are worth
    # the bytes given how easy triangular index conventions are to mix up.
    return {
        "kind": "tb-patch",
        "degree": [patch.degree],
        "domain": domain_to_json(patch.domain),
        "control_points": [
            {"nu": nu, "mu": mu, "point": point_to_json(p)}
            for nu, mu, p in patch.labelled_points()
        ],
    }


def document(obj: Union[InputObject, PatchObject]) -> dict:
    """The document of any curve, surface or patch. Its writer is a module
    global looked up at each call, as subdivide's kernels are."""
    for cls, _, _, _, writer in _KINDS.values():
        if isinstance(obj, cls):
            return globals()[writer](obj)
    raise TypeError(f"no document kind for {type(obj).__name__}")


def _read(obj: dict, kinds: tuple, refusal: str) -> Union[InputObject, PatchObject]:
    """The object of a document whose kind is one of kinds; refusal, with
    the kind found in place of {!r}, names any other kind."""
    kind = obj.get("kind")
    if kind not in kinds:
        raise DocumentError(refusal.format(kind))
    cls, rank, key, domain_keys, _ = _KINDS[kind]
    degrees = _degrees(obj, rank)
    points = obj.get(key)
    if kind != "tb-patch":
        grid = _point_grid(points, degrees, f"{kind} {key}")
        if domain_keys is None:
            return cls(grid)
        return cls(grid, domain_from_json(obj.get("domain"), kind))
    (n_total,) = degrees
    expected = (n_total + 1) * (n_total + 2) // 2
    if not isinstance(points, list) or len(points) != expected:
        raise DocumentError(
            f"tb-patch of degree {n_total} needs {expected} control points, "
            f"got {len(points) if isinstance(points, list) else points!r}"
        )
    tri = domain_from_json(obj.get("domain"), kind)
    rows = [[None] * (n_total - nu + 1) for nu in range(n_total + 1)]
    for entry in points:
        if not isinstance(entry, dict) or not {"nu", "mu", "point"} <= entry.keys():
            raise DocumentError("tb-patch control points need nu/mu/point entries")
        nu, mu = entry["nu"], entry["mu"]
        if not (type(nu) is int and type(mu) is int) or nu < 0 or mu < 0 or nu + mu > n_total:
            raise DocumentError(f"invalid tb-patch control index ({nu!r}, {mu!r})")
        if rows[nu][mu] is not None:
            raise DocumentError(f"duplicate tb-patch control index ({nu}, {mu})")
        rows[nu][mu] = point_from_json(entry["point"])
    # As many entries as points and no index twice: every slot is filled.
    return TrianglePatch(rows, tri)


def parse_input_document(text: str) -> InputObject:
    """Parse a monomial curve or surface document."""
    return _read(_loads(text), SURFACE_KINDS, "expected kind 'curve' or 'surface', got {!r}")


def parse_patch_document(text: str) -> PatchObject:
    """Parse a Bernstein-form patch document: a BezierCurve, TensorPatch
    or TrianglePatch, each with its domain attached."""
    return _read(_loads(text), PATCH_KINDS, f"expected a patch kind {PATCH_KINDS}, got {{!r}}")


def parse_any_document(text: str) -> Union[InputObject, PatchObject]:
    """Parse a document of any kind."""
    return _read(_loads(text), tuple(_KINDS), "unknown document kind {!r}")
