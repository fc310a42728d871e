"""Shared numeric helpers for mixed exact/floating-point values.

Values carried by step functions and L2 vectors are one of

* ``int`` / ``fractions.Fraction`` -- exact rationals (the fast path),
* ``sympy.Expr`` constants -- exact algebraic numbers such as sqrt(3)/9,
* ``float`` -- when an operation left the exact world.

Arithmetic mixes these freely; the helpers below centralize comparisons,
square roots and (de)serialization so the rest of the package does not
have to care which representation a value happens to use.
"""

from __future__ import annotations

import math
from fractions import Fraction

import sympy

__all__ = [
    "exact_sqrt",
    "as_float",
    "log_ratio",
    "num_eq",
    "num_le",
    "num_lt",
    "num_min",
    "num_max",
    "parse_rational",
    "format_rational",
    "value_to_json",
    "value_from_json",
]

_RATIONALS = (int, Fraction)
# value types compared with Python's own operators, before any sympy check
_PLAIN = frozenset((int, Fraction, float))


def _perfect_sqrt(fr: Fraction):
    """Exact rational sqrt of fr, or None when fr is not a perfect square."""
    if fr < 0:
        raise ValueError("square root of negative value")
    pn, pd = math.isqrt(fr.numerator), math.isqrt(fr.denominator)
    if pn * pn == fr.numerator and pd * pd == fr.denominator:
        return Fraction(pn, pd)
    return None


def exact_sqrt(x):
    """Square root preserving exactness.

    Rationals that are perfect squares stay rational; other exact values
    become sympy radicals; floats stay floats.
    """
    if isinstance(x, _RATIONALS) and not isinstance(x, bool):
        fr = Fraction(x)
        p = _perfect_sqrt(fr)
        if p is not None:
            return p
        return sympy.sqrt(sympy.Rational(fr.numerator, fr.denominator))
    if isinstance(x, sympy.Expr):
        return sympy.sqrt(x)
    return math.sqrt(x)


def as_float(x) -> float:
    if isinstance(x, sympy.Expr):
        return float(x.evalf(30))
    return float(x)


def log_ratio(num: int, den: int, log=math.log) -> float:
    """log(num / den) for positive integers, by ``log`` (math.log, log2, ...).

    Takes the log of the correctly rounded float quotient, as
    ``log(float(Fraction(num, den)))`` would; where that quotient
    underflows to 0, the log comes from the integer parts instead.
    """
    q = num / den
    if q:
        return log(q)
    return log(num) - log(den)


def _to_sympy(x):
    if isinstance(x, Fraction):
        return sympy.Rational(x.numerator, x.denominator)
    return sympy.sympify(x)


# A sympy evaluation at _SIGN_DIGITS digits that lands further than
# _SIGN_FLOOR from 0 decides the sign; the values carried here are sums
# of radicals of modest size, whose evaluation error sits far below it.
_SIGN_DIGITS = 30
_SIGN_FLOOR = sympy.Rational(1, 10 ** 20)


def _sym_sign(d):
    """Sign of an exact sympy constant d: -1, 0 or 1.

    Decided without sympy's assumption queries (``is_zero``,
    ``equals``): their handlers run in a randomly shuffled order and can
    contradict each other on radical expressions, raising
    ``InconsistentAssumptions`` for some orders.  Instead:

    * a rational by its numerator;
    * a nonzero value by an evaluation clearly separated from 0;
    * zero by the canonical form ``expand(radsimp(expand(d)))``, which is
      exact for rational combinations of square roots (square roots of
      distinct squarefree integers are linearly independent over Q;
      A. S. Besicovitch, J. London Math. Soc. 15, 1940).

    A value that is neither separated from 0 nor canonically zero raises
    ``ArithmeticError`` instead of being guessed.
    """
    if d.is_Rational:
        return (d.p > 0) - (d.p < 0)
    v = d.evalf(_SIGN_DIGITS)
    if v.is_Number and abs(v) > _SIGN_FLOOR:
        return 1 if v > 0 else -1
    c = sympy.expand(sympy.radsimp(sympy.expand(d)))
    if c.is_Rational:
        return (c.p > 0) - (c.p < 0)
    raise ArithmeticError("cannot decide the sign of %s exactly" % d)


def _compare(a, b) -> int:
    """Three-way comparison across all supported value types."""
    a_sym = isinstance(a, sympy.Expr)
    b_sym = isinstance(b, sympy.Expr)
    if not a_sym and not b_sym:
        if a == b:
            return 0
        return -1 if a < b else 1
    return _sym_sign(_to_sympy(a) - _to_sympy(b))


# The comparisons answer int/Fraction/float pairs with Python's operators
# (which compare these exactly) before any sympy check, and pass every
# other pair to _compare.

def num_eq(a, b) -> bool:
    if type(a) in _PLAIN and type(b) in _PLAIN:
        return a == b
    return _compare(a, b) == 0


def num_le(a, b) -> bool:
    if type(a) in _PLAIN and type(b) in _PLAIN:
        return a <= b
    return _compare(a, b) <= 0


def num_lt(a, b) -> bool:
    if type(a) in _PLAIN and type(b) in _PLAIN:
        return a < b
    return _compare(a, b) < 0


def num_min(a, b):
    return a if num_le(a, b) else b


def num_max(a, b):
    return b if num_le(a, b) else a


def parse_rational(s) -> Fraction:
    """Parse 'p/q', decimal strings, ints or floats into an exact Fraction."""
    if isinstance(s, Fraction):
        return s
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, float):
        return Fraction(s)
    txt = str(s).strip()
    return Fraction(txt)


def format_rational(fr: Fraction) -> str:
    fr = Fraction(fr)
    if fr.denominator == 1:
        return str(fr.numerator)
    return "%d/%d" % (fr.numerator, fr.denominator)


def value_to_json(v):
    """JSON encoding of a value; exact values go to strings, floats stay."""
    if isinstance(v, bool):
        return v
    if isinstance(v, _RATIONALS):
        return format_rational(Fraction(v))
    if isinstance(v, sympy.Expr):
        return "sym:" + sympy.srepr(v) if not v.is_Rational else format_rational(
            Fraction(int(v.p), int(v.q)))
    return float(v)


def value_from_json(v):
    if isinstance(v, str):
        if v.startswith("sym:"):
            return sympy.sympify(v[4:])
        return parse_rational(v)
    return v
