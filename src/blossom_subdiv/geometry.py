"""Monomial- and Bernstein-basis curve/surface types plus exact evaluators.

Evaluation here (Horner, de Casteljau) is the geometric cross-check for
the subdivision formulas: independent code paths that must agree
bit-for-bit on exact rationals. The tests hold de Casteljau to direct
Bernstein sums.
"""

from __future__ import annotations

from math import lcm
from operator import mul
from typing import Iterable, Iterator, Sequence

from .numerics import (
    RATIONAL_ONE,
    RATIONAL_ZERO,
    Rational,
    as_rational,
)

_set = object.__setattr__


class _Value:
    """Base of the immutable value types. A subclass names its fields in
    __slots__ and sets each once in __init__ with object.__setattr__.
    Values are equal only to values of the same class with equal fields,
    hash as their field tuple, and pickle and copy through their
    constructor."""

    __slots__ = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (type(self), self._astuple())


def _grid(rows, owner: str, part: str) -> tuple[tuple, ...]:
    """rows as a tuple of row tuples, refused unless non-empty and rectangular."""
    rows = tuple(tuple(row) for row in rows)
    if not rows or not rows[0]:
        raise ValueError(f"{owner} needs a non-empty {part} grid")
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError(f"{owner} {part} grid must be rectangular")
    return rows


class Point3(_Value):
    """Point or coefficient in R^3. Scalar-valued data uses y = z = 0."""

    __slots__ = __match_args__ = ("x", "y", "z")

    def __init__(self, x: Rational, y: Rational, z: Rational):
        _set(self, "x", as_rational(x))
        _set(self, "y", as_rational(y))
        _set(self, "z", as_rational(z))

    # Spelled out rather than inherited: verify compares control points
    # in its inner loop.
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.x, self.y, self.z) == (other.x, other.y, other.z)
        return NotImplemented

    def __hash__(self):
        return hash((self.x, self.y, self.z))

    def __add__(self, other: "Point3") -> "Point3":
        return Point3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Point3") -> "Point3":
        return Point3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __mul__(self, scalar) -> "Point3":
        s = as_rational(scalar)
        return Point3(self.x * s, self.y * s, self.z * s)

    __rmul__ = __mul__

    def as_tuple(self) -> tuple[Rational, Rational, Rational]:
        return (self.x, self.y, self.z)


ZERO3 = Point3(RATIONAL_ZERO, RATIONAL_ZERO, RATIONAL_ZERO)


class Point2(_Value):
    """Parameter-plane point, e.g. a domain-triangle vertex."""

    __slots__ = __match_args__ = ("s", "t")

    def __init__(self, s: Rational, t: Rational):
        _set(self, "s", as_rational(s))
        _set(self, "t", as_rational(t))

    def __add__(self, other: "Point2") -> "Point2":
        return Point2(self.s + other.s, self.t + other.t)

    def __sub__(self, other: "Point2") -> "Point2":
        return Point2(self.s - other.s, self.t - other.t)

    def __mul__(self, scalar) -> "Point2":
        r = as_rational(scalar)
        return Point2(self.s * r, self.t * r)

    __rmul__ = __mul__


class ParamInterval(_Value):
    """Subdivision interval [a, b]. a == b (degenerate) and a > b
    (reversed orientation) are both allowed; the formulas stay valid."""

    __slots__ = __match_args__ = ("a", "b")

    def __init__(self, a: Rational, b: Rational):
        _set(self, "a", as_rational(a))
        _set(self, "b", as_rational(b))


class ParamRect(_Value):
    __slots__ = __match_args__ = ("u_range", "v_range")

    def __init__(self, u_range: ParamInterval, v_range: ParamInterval):
        _set(self, "u_range", u_range)
        _set(self, "v_range", v_range)


class DomainTriangle(_Value):
    """Parameter-plane triangle. Collinear vertices are representable
    (the formulas remain well-defined); policy about warning on them
    lives at the CLI boundary, not here."""

    __slots__ = __match_args__ = ("va", "vb", "vc")

    def __init__(self, va: Point2, vb: Point2, vc: Point2):
        _set(self, "va", va)
        _set(self, "vb", vb)
        _set(self, "vc", vc)

    def is_degenerate(self) -> bool:
        """True when the three vertices are collinear."""
        d1 = self.vb - self.va
        d2 = self.vc - self.va
        return d1.s * d2.t - d1.t * d2.s == 0


class MonomialCurve(_Value):
    """Polynomial curve sum(coeffs[i] * u**i), degree = len(coeffs) - 1."""

    __slots__ = __match_args__ = ("coeffs",)

    def __init__(self, coeffs: tuple[Point3, ...]):
        _set(self, "coeffs", tuple(coeffs))
        if not self.coeffs:
            raise ValueError("curve needs at least the constant coefficient")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


class MonomialSurface(_Value):
    """Polynomial surface sum(coeffs[i][j] * u**i * v**j), i-major grid."""

    __slots__ = __match_args__ = ("coeffs",)

    def __init__(self, coeffs: tuple[tuple[Point3, ...], ...]):
        _set(self, "coeffs", _grid(coeffs, "surface", "coefficient"))

    @property
    def degrees(self) -> tuple[int, int]:
        return (len(self.coeffs) - 1, len(self.coeffs[0]) - 1)


class BezierCurve(_Value):
    """Bernstein-form curve; the subdivision interval is kept as its
    domain, like the surface patches keep theirs."""

    __slots__ = __match_args__ = ("control_points", "domain")

    def __init__(self, control_points: tuple[Point3, ...], domain: ParamInterval):
        _set(self, "control_points", tuple(control_points))
        _set(self, "domain", domain)
        if not self.control_points:
            raise ValueError("Bezier curve needs at least one control point")

    @property
    def degree(self) -> int:
        return len(self.control_points) - 1


class TensorPatch(_Value):
    """Tensor-product Bernstein patch; domain kept as provenance."""

    __slots__ = __match_args__ = ("control_points", "domain")

    def __init__(self, control_points: tuple[tuple[Point3, ...], ...], domain: ParamRect):
        _set(self, "control_points", _grid(control_points, "tensor patch", "control"))
        _set(self, "domain", domain)

    @property
    def degrees(self) -> tuple[int, int]:
        return (len(self.control_points) - 1, len(self.control_points[0]) - 1)


class TrianglePatch(_Value):
    """Triangular Bernstein patch of total degree N.

    rows[nu][mu] holds the control point whose defining arguments take nu
    copies of vertex va, mu copies of vb, and N-nu-mu copies of vc; row nu
    has N-nu+1 entries, (N+1)(N+2)/2 points in total.
    """

    __slots__ = __match_args__ = ("rows", "domain")

    def __init__(self, rows: tuple[tuple[Point3, ...], ...], domain: DomainTriangle):
        rows = tuple(tuple(row) for row in rows)
        _set(self, "rows", rows)
        _set(self, "domain", domain)
        if not rows:
            raise ValueError("triangle patch needs at least one control point")
        n_total = len(rows) - 1
        for nu, row in enumerate(rows):
            if len(row) != n_total - nu + 1:
                raise ValueError(
                    f"triangle patch row {nu} must hold {n_total - nu + 1} points, got {len(row)}"
                )

    @property
    def degree(self) -> int:
        return len(self.rows) - 1

    def point(self, nu: int, mu: int) -> Point3:
        if nu < 0 or mu < 0 or nu + mu > self.degree:
            raise IndexError(f"invalid triangle index ({nu}, {mu}) for degree {self.degree}")
        return self.rows[nu][mu]

    def labelled_points(self) -> Iterator[tuple[int, int, Point3]]:
        """Row-major (nu, mu, point) triples."""
        for nu, row in enumerate(self.rows):
            for mu, p in enumerate(row):
                yield nu, mu, p


def eval_monomial_curve(curve: MonomialCurve, u: Rational) -> Point3:
    """Horner evaluation of the monomial form; exact."""
    u = as_rational(u)
    acc = curve.coeffs[-1]
    for coeff in reversed(curve.coeffs[:-1]):
        acc = acc * u + coeff
    return acc


def eval_monomial_surface(surface: MonomialSurface, u: Rational, v: Rational) -> Point3:
    """Nested Horner over the i-major coefficient grid; exact."""
    u = as_rational(u)
    v = as_rational(v)
    rows = []
    for row in surface.coeffs:
        acc = row[-1]
        for coeff in reversed(row[:-1]):
            acc = acc * v + coeff
        rows.append(acc)
    acc = rows[-1]
    for value in reversed(rows[:-1]):
        acc = acc * u + value
    return acc


def de_casteljau_points(points: Sequence[Point3], t: Rational) -> Point3:
    """Repeated affine interpolation on a row of control points."""
    t = as_rational(t)
    s = RATIONAL_ONE - t
    layer = list(points)
    while len(layer) > 1:
        layer = [s * layer[k] + t * layer[k + 1] for k in range(len(layer) - 1)]
    return layer[0]


def de_casteljau_curve(bezier: BezierCurve, t: Rational) -> Point3:
    """Bernstein-form curve value at t; agrees exactly with the direct
    basis summation (tested as an invariant)."""
    return de_casteljau_points(bezier.control_points, t)


def de_casteljau_tensor(patch: TensorPatch, u: Rational, v: Rational) -> Point3:
    """Curve de Casteljau per row (v direction), then once on the column."""
    column = [de_casteljau_points(row, v) for row in patch.control_points]
    return de_casteljau_points(column, u)


def de_casteljau_triangle(patch: TrianglePatch, u: Rational, v: Rational) -> Point3:
    """Triangular de Casteljau with barycentric weights (u, v, 1-u-v).

    Weight u pulls toward the nu index direction (vertex va), v toward mu
    (vertex vb), so (1,0) returns the pure-va corner, (0,1) the pure-vb
    corner, and (0,0) the pure-vc corner.
    """
    u = as_rational(u)
    v = as_rational(v)
    w = RATIONAL_ONE - u - v
    # Point (nu, mu) of the next level mixes (nu + 1, mu) from the row
    # below with (nu, mu + 1) and (nu, mu) from its own row.
    layer = patch.rows
    while len(layer) > 1:
        layer = [
            [u * p_a + v * p_b + w * p_c for p_a, p_c, p_b in zip(below, row, row[1:])]
            for row, below in zip(layer, layer[1:])
        ]
    return layer[0][0]


def over_common_denominators(points: Sequence[_Value]) -> tuple[list[tuple], list[int]]:
    """(numerators, denominators): the coordinates of Point2s or Point3s
    as integer tuples, each axis over its own common denominator."""
    coords = [p._astuple() for p in points]
    dens = [lcm(*(v.denominator for v in axis)) for axis in zip(*coords)]
    nums = [tuple([v.numerator * (q // v.denominator) for v, q in zip(c, dens)]) for c in coords]
    return nums, dens


def combine_points(table: Iterable[Sequence[int]], points: Sequence[tuple]) -> list[tuple]:
    """The integer point sum(row[k] * points[k]) of each table row, for
    points as over_common_denominators gives them."""
    axes = list(zip(*points))
    return [tuple([sum(map(mul, row, axis)) for axis in axes]) for row in table]


# Each kind's parameter count and evaluator.
_EVALUATORS = {
    MonomialCurve: (1, eval_monomial_curve),
    BezierCurve: (1, de_casteljau_curve),
    MonomialSurface: (2, eval_monomial_surface),
    TensorPatch: (2, de_casteljau_tensor),
    TrianglePatch: (2, de_casteljau_triangle),
}


def evaluate(obj, *params: Rational) -> Point3:
    """The point of any curve, surface or patch at its parameters: u for
    a curve, (u, v) for the others."""
    arity, evaluator = _EVALUATORS[type(obj)]
    if len(params) != arity:
        takes = "u only" if arity == 1 else "u and v"
        raise ValueError(f"{type(obj).__name__} evaluation takes {takes}")
    return evaluator(obj, *params)


def barycentric_to_cartesian(tri: DomainTriangle, u: Rational, v: Rational) -> Point2:
    """Affine combination u*va + v*vb + (1-u-v)*vc."""
    u = as_rational(u)
    v = as_rational(v)
    return u * tri.va + v * tri.vb + (RATIONAL_ONE - u - v) * tri.vc
