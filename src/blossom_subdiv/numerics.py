"""Exact scalar arithmetic and the combinatorial coefficients used by
every control-point formula.

The whole math core works over arbitrary-precision rationals; floating
point only ever appears at the mesh-export boundary.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

# The one scalar type of the library. fractions.Fraction already maintains
# the invariants we rely on: positive denominator, gcd-reduced canonical
# form after every operation, arbitrary precision, and 0 ** 0 == 1.
Rational = Fraction

RATIONAL_ZERO = Fraction(0)
RATIONAL_ONE = Fraction(1)

# Wire format for rationals: "p/q" or bare "p", optional leading sign on
# the numerator only. Deliberately tighter than Fraction's own parser
# (no decimals, no exponents, ASCII digits only) so files stay exact by
# construction.
_RATIONAL_PATTERN = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")

# Work caps, refused up front instead of hanging. They live here, in a
# module every command loads anyway, so the CLI can name them in its help
# without importing the code they guard.
#
# The brute-force oracle's cost is combinatorial in the degree: one
# worst-case tb pass takes about 3 s at 4x4 and 35-40 s at 5x5, and a
# 6x6 one was still running after 180 s (Python 3.11 on one core of a
# shared 2-vCPU host). So verify --max-degree and bench
# --max-oracle-degree above this are refused.
ORACLE_DEGREE_CAP = 5
# mesh evaluates every sampled vertex exactly and holds them all, at about
# 0.5 ms and 0.8 KB each on a degree-(3, 2) tensor patch and 1.6 ms on a
# degree-5 triangle patch (Python 3.11 on one core of a shared 2-vCPU
# host). So a mesh of more sampled vertices than this (a 128 x 128 grid:
# about 8 s and 30 MB on that tensor patch, 28 s on that triangle patch)
# is refused before any evaluation.
MESH_VERTEX_BUDGET = 2**14


def parse_rational(text: str) -> Rational:
    """Parse "p/q" or "p" into a canonical Rational.

    Rejects zero denominators and anything outside the documented grammar
    (decimals, exponents, signs on the denominator).
    """
    if not isinstance(text, str):
        raise ValueError(f"rational must be a string, got {type(text).__name__}")
    stripped = text.strip()
    if not _RATIONAL_PATTERN.fullmatch(stripped):
        raise ValueError(f"malformed rational {text!r}")
    if "/" in stripped:
        num, den = stripped.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator in rational {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(stripped))


def format_rational(value: Rational) -> str:
    """Canonical wire form: "p/q", or "p" when the denominator is 1."""
    return str(value)


def as_rational(value) -> Rational:
    """Coerce int/str/Fraction to Rational; floats are refused outright
    because they would silently break exactness."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot treat {type(value).__name__} as an exact rational")


def binomial(n: int, k: int) -> int:
    """C(n, k), with out-of-range k giving 0 instead of an error.

    The theorem loop bounds keep every call in range; the guard lets
    formula code mirror the stated summation limits without pre-filtering.
    Negative n is a genuine contract violation and is rejected.
    """
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def multinomial(total: int, i: int, j: int) -> int:
    """total! / (i! j! (total-i-j)!) for a three-way split."""
    if total < 0:
        raise ValueError(f"multinomial requires total >= 0, got {total}")
    if i < 0 or j < 0:
        raise ValueError(f"multinomial requires i, j >= 0, got i={i}, j={j}")
    if i + j > total:
        raise ValueError(f"multinomial requires i + j <= total, got {i}+{j} > {total}")
    return math.comb(total, i) * math.comb(total - i, j)

