"""Exact scalar arithmetic and the combinatorial coefficients used by
every control-point formula.

The whole math core works over arbitrary-precision rationals; floating
point only ever appears at the mesh-export boundary.
"""

from __future__ import annotations

import math
import re
import sys
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
# mesh evaluates every sampled vertex exactly and holds them all. At this
# budget (Python 3.11 on one core of a shared 2-vCPU host) a vertex costs
# about 2.4-2.9 us and 0.4-0.5 KB on a degree-(3, 2) monomial surface or
# tensor patch or a degree-5 triangle patch, and 1-2 us on a cubic Bezier
# curve (integer basis rows and forward differences, of which the float
# formatting is about half). Monomial curves stay on Fraction Horner: 35
# us a vertex at degree 3, 0.28 ms at degree 16 with h32 coefficients.
# So a mesh of more sampled vertices than this (a 128 x 128 grid: about
# 40 ms and 6 MB on that surface; 16,384 samples: about 4.5 s on that
# degree-16 curve) is refused before any evaluation.
MESH_VERTEX_BUDGET = 2**14


def too_long() -> str:
    """The message for an int past Python's text limit, whose own error
    names a setting the CLI lacks."""
    limit = sys.get_int_max_str_digits()
    return f"rational too long: a numerator or denominator has over {limit} digits"


def parse_wire_rational(text: str) -> Rational:
    """Parse "p/q" or "p", exactly as documents write it, into a canonical
    Rational. Rejects zero denominators and anything outside that grammar
    (whitespace, decimals, exponents, signs on the denominator)."""
    if not isinstance(text, str):
        raise ValueError(f"rational must be a string, got {type(text).__name__}")
    if not _RATIONAL_PATTERN.fullmatch(text):
        raise ValueError(f"malformed rational {text!r}")
    num, _, den = text.partition("/")
    try:
        num, den = int(num), int(den or "1")
    except ValueError:  # the pattern admits only digits, so there are too many
        raise ValueError(too_long()) from None
    if den == 0:
        raise ValueError(f"zero denominator in rational {text!r}")
    return Fraction(num, den)


def parse_rational(text: str) -> Rational:
    """parse_wire_rational of text without surrounding whitespace, as a
    command-line value or a library argument may carry it."""
    return parse_wire_rational(text.strip() if isinstance(text, str) else text)


def format_rational(value: Rational) -> str:
    """Canonical wire form: "p/q", or "p" when the denominator is 1."""
    try:
        return str(value)
    except ValueError:  # a numerator or denominator past the limit
        raise ValueError(too_long()) from None


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
