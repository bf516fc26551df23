"""Exact-arithmetic subdivision of polynomial curves and surfaces into
Bernstein form, with a brute-force blossom oracle for cross-checking."""

from .numerics import Rational, binomial, multinomial, parse_rational, format_rational
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
    barycentric_to_cartesian,
    de_casteljau_curve,
    de_casteljau_tensor,
    de_casteljau_triangle,
    eval_monomial_curve,
    eval_monomial_surface,
)
from .subdivision import subdivide_curve, subdivide_tensor, subdivide_triangle

# The brute-force oracle and the paper's triangle reference load on first
# use (PEP 562), so a CLI process that subdivides, evaluates or meshes
# compiles neither. Each lazy name maps to the module that defines it.
_LAZY = {
    "blossom_curve": "oracle",
    "blossom_tensor": "oracle",
    "blossom_triangle": "oracle",
    "monomial_blossom_curve": "oracle",
    "monomial_blossom_tensor": "oracle",
    "monomial_blossom_triangle": "oracle",
    "iter_placements": "reference",
    "placement_count_u_first": "reference",
    "placement_count_v_first": "reference",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{_LAZY[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"

__all__ = [
    "Rational",
    "binomial",
    "multinomial",
    "parse_rational",
    "format_rational",
    "Point2",
    "Point3",
    "ParamInterval",
    "ParamRect",
    "DomainTriangle",
    "MonomialCurve",
    "MonomialSurface",
    "BezierCurve",
    "TensorPatch",
    "TrianglePatch",
    "eval_monomial_curve",
    "eval_monomial_surface",
    "de_casteljau_curve",
    "de_casteljau_tensor",
    "de_casteljau_triangle",
    "barycentric_to_cartesian",
    "blossom_curve",
    "blossom_tensor",
    "blossom_triangle",
    "monomial_blossom_curve",
    "monomial_blossom_tensor",
    "monomial_blossom_triangle",
    "subdivide_curve",
    "subdivide_tensor",
    "subdivide_triangle",
    "iter_placements",
    "placement_count_u_first",
    "placement_count_v_first",
    "__version__",
]
