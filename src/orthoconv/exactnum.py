"""Exact numbers: the value types of the package and their helpers.

Values carried by step functions and L2 vectors are one of

* ``int`` / ``fractions.Fraction`` -- exact rationals (the fast path),
* :class:`RootSum` -- exact irrationals of a multiquadratic field, such
  as sqrt(3)/9 or 1 + sqrt(2)/2: everything the constructions make,
* ``float`` -- when an operation left the exact world.

Python's own operators compare and combine all four exactly, so callers
use ``==``, ``<=``, ``<`` and ``float()`` directly.  This module adds
exact square roots, rational parsing and formatting, and the JSON form
of values; sympy is imported only to write and read the ``"sym:"`` text
of irrational values.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "RootSum",
    "exact_sqrt",
    "sqrt_float",
    "log_ratio",
    "parse_rational",
    "format_rational",
    "value_to_json",
    "value_from_json",
]

_RATIONALS = (int, Fraction)
ZERO = Fraction(0)
ONE = Fraction(1)

# Trial division for squarefree parts stops at this prime bound; a
# cofactor without smaller prime factors is decided when it is a square
# or below the cube of the bound (then it has at most two prime factors).
_TRIAL_LIMIT = 1 << 16


@lru_cache(maxsize=4096)
def _squarefree(n: int):
    """(s, core) with n = s*s*core and core squarefree, for n >= 1."""
    s = core = 1
    p = 2
    while p <= _TRIAL_LIMIT and p * p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                core *= p
        p += 1 if p == 2 else 2
    r = math.isqrt(n)
    if r * r == n:
        return s * r, core
    if p <= _TRIAL_LIMIT or n < p * p * p:
        return s, core * n
    raise ValueError("cannot reduce the square root of a %d-bit integer"
                     % n.bit_length())


def _atom(d: int) -> int:
    """A prime factor of the squarefree key d > 1 (d itself past the limit)."""
    p = 2
    while p <= _TRIAL_LIMIT and p * p <= d:
        if d % p == 0:
            return p
        p += 1 if p == 2 else 2
    return d


# -- the multiquadratic field ----------------------------------------------


def _mul_terms(a: dict, b: dict) -> dict:
    """Product of two coefficient maps, sqrt(d1)*sqrt(d2) = g*sqrt(d1*d2/g**2)."""
    out = {}
    for d1, q1 in a.items():
        for d2, q2 in b.items():
            if d1 == 1:
                d, c = d2, q1 * q2
            elif d2 == 1:
                d, c = d1, q1 * q2
            elif d1 == d2:
                d, c = 1, q1 * q2 * d1
            else:
                g = math.gcd(d1, d2)
                d, c = (d1 // g) * (d2 // g), q1 * q2 * g
            out[d] = out.get(d, 0) + c
    return out


def _add_terms(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for d, q in b.items():
        out[d] = out.get(d, 0) + q if sign > 0 else out.get(d, 0) - q
    return out


def _from_terms(terms: dict):
    """Canonical value of a coefficient map: a Fraction when rational."""
    terms = {d: q for d, q in terms.items() if q}
    if not terms or (len(terms) == 1 and 1 in terms):
        return Fraction(terms.get(1, 0))
    return RootSum._new(terms)


def _split(terms: dict, p: int):
    """(a, b) with terms = a + b*sqrt(p), neither holding sqrt(p)."""
    a, b = {}, {}
    for d, q in terms.items():
        if d % p:
            a[d] = q
        else:
            b[d // p] = q
    return a, b


def _approx(terms: dict, prec: int):
    """(A, err): |value * 2**prec - A| <= err, in integer arithmetic."""
    total = 0
    for d, q in terms.items():
        n, m = abs(q.numerator), q.denominator
        if d == 1:
            t = (n << prec) // m
        else:
            t = math.isqrt(d * n * n << (2 * prec)) // m
        total += t if q > 0 else -t
    return total, len(terms)


def _sign_terms(terms: dict) -> int:
    """Exact sign of a coefficient map.

    A float evaluation decides when it lands clearly away from 0;
    otherwise, with value = a + b sqrt(p) for a prime p, the sign is that
    of a and b when they agree, and else sign(a) * sign(a**2 - p b**2),
    one prime fewer.
    """
    terms = {d: q for d, q in terms.items() if q}
    if not terms:
        return 0
    if len(terms) == 1:
        (d, q), = terms.items()
        return 1 if q > 0 else -1
    try:
        vals = [float(q) * math.sqrt(d) for d, q in terms.items()]
        mags = [abs(v) for v in vals]
        if min(mags) > 1e-290 and max(mags) < 1e290:
            s = sum(vals)
            if abs(s) > sum(mags) * (len(vals) + 4) * 2.0 ** -52:
                return 1 if s > 0 else -1
    except OverflowError:
        pass
    p = _atom(max(terms))
    a, b = _split(terms, p)
    sa, sb = _sign_terms(a), _sign_terms(b)
    if sa == 0 or sa == sb:
        return sb
    if sb == 0:
        return sa
    bb = _mul_terms(b, b)
    return sa * _sign_terms(_add_terms(_mul_terms(a, a), {d: q * p for d, q in bb.items()}, -1))


def _float_between(lo: Fraction, hi: Fraction):
    """The float both ends of [lo, hi] round to, or None."""
    f = float(lo)
    return f if float(hi) == f else None


class RootSum:
    """Exact element of a multiquadratic field: sum of q_d * sqrt(d).

    ``terms`` maps squarefree integers d >= 1 to nonzero Fractions q_d
    and holds at least one d > 1: a value with only the key 1 is a plain
    ``Fraction`` instead, which every operation returns when its result
    is rational.  Square roots of distinct squarefree integers are
    linearly independent over Q (A. S. Besicovitch, J. London Math. Soc.
    15, 1940), so this form is unique: two values are equal exactly when
    their maps are, and a RootSum is never zero.

    ``+ - * /`` with ints, Fractions and RootSums stay exact (the inverse
    multiplies by conjugates, one prime at a time); with a float the
    result is a float.  Signs come from a float evaluation, or exactly
    from squares when that is too close to call.  ``float()`` is
    correctly rounded.  ``_sympy_`` converts to sympy for the ``"sym:"`` text.
    """

    __slots__ = ("terms",)

    @classmethod
    def _new(cls, terms: dict) -> "RootSum":
        x = object.__new__(cls)
        x.terms = terms
        return x

    # -- arithmetic --------------------------------------------------

    def _other_terms(self, other):
        t = type(other)
        if t is RootSum:
            return other.terms
        if t is int or t is Fraction or t is bool:
            return {1: Fraction(other)}
        return None

    def __add__(self, other):
        o = self._other_terms(other)
        if o is None:
            return float(self) + other if type(other) is float else NotImplemented
        return _from_terms(_add_terms(self.terms, o))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._other_terms(other)
        if o is None:
            return float(self) - other if type(other) is float else NotImplemented
        return _from_terms(_add_terms(self.terms, o, -1))

    def __rsub__(self, other):
        o = self._other_terms(other)
        if o is None:
            return other - float(self) if type(other) is float else NotImplemented
        return _from_terms(_add_terms(o, self.terms, -1))

    def __mul__(self, other):
        t = type(other)
        if t is int or t is Fraction or t is bool:
            if not other:
                return ZERO
            return RootSum._new({d: q * other for d, q in self.terms.items()})
        if t is RootSum:
            return _from_terms(_mul_terms(self.terms, other.terms))
        if t is float:
            return float(self) * other
        return NotImplemented

    __rmul__ = __mul__

    def _inverse(self):
        num, den = {1: ONE}, self.terms
        while len(den) > 1 or 1 not in den:
            p = _atom(max(den))
            conj = {d: (q if d % p else -q) for d, q in den.items()}
            num = _mul_terms(num, conj)
            den = {d: q for d, q in _mul_terms(den, conj).items() if q}
        r = den[1]
        return _from_terms({d: q / r for d, q in num.items()})

    def __truediv__(self, other):
        t = type(other)
        if t is int or t is Fraction:
            return RootSum._new({d: q / other for d, q in self.terms.items()})
        if t is RootSum:
            return self * other._inverse()
        if t is float:
            return float(self) / other
        return NotImplemented

    def __rtruediv__(self, other):
        t = type(other)
        if t is int or t is Fraction:
            return self._inverse() * other
        if t is float:
            return other / float(self)
        return NotImplemented

    def __neg__(self):
        return RootSum._new({d: -q for d, q in self.terms.items()})

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- order -----------------------------------------------------------

    def sign(self) -> int:
        return _sign_terms(self.terms)

    def _cmp(self, other):
        """sign(self - other), or None for an operand of another kind."""
        if type(other) is float:
            if other != other:
                return None
            if math.isinf(other):
                return -1 if other > 0 else 1
            other = Fraction(other)
        o = self._other_terms(other)
        if o is None:
            return None
        return _sign_terms(_add_terms(self.terms, o, -1))

    def __eq__(self, other):
        if type(other) is RootSum:
            return self.terms == other.terms
        if type(other) in (int, Fraction, float):
            return False  # a RootSum is irrational
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c >= 0

    def __bool__(self):
        return True

    # -- conversions -----------------------------------------------------

    def __float__(self):
        prec = 64
        while True:
            A, err = _approx(self.terms, prec)
            f = _float_between(Fraction(A - err, 1 << prec), Fraction(A + err, 1 << prec))
            if f is not None:
                return f
            prec *= 2

    def __floor__(self):
        prec = 64
        while True:
            A, err = _approx(self.terms, prec)
            lo, hi = (A - err) >> prec, (A + err) >> prec
            if lo == hi:
                return lo
            prec *= 2

    def _sympy_(self):
        import sympy
        return sympy.Add(*[sympy.Rational(q.numerator, q.denominator) * sympy.sqrt(d)
                           for d, q in sorted(self.terms.items())])

    def __repr__(self):
        return "RootSum(%r)" % dict(sorted(self.terms.items()))

    def __str__(self):
        parts = []
        for d, q in sorted(self.terms.items()):
            c = format_rational(abs(q))
            term = c if d == 1 else ("sqrt(%d)" % d if c == "1" else "%s*sqrt(%d)" % (c, d))
            parts.append(("- " if q < 0 else "+ ") + term)
        s = " ".join(parts)
        return s[2:] if s[0] == "+" else "-" + s[2:]


def _root_of(x, depth: int = 6):
    """Nonnegative r with r*r == x inside the multiquadratic field, or None.

    For a rational x this always exists.  Otherwise x = a + b sqrt(p),
    and a root x0 + y0 sqrt(p) has x0**2 = (a +- c)/2 with
    c = sqrt(a**2 - p b**2), found by recursion one prime down.  When no
    root exists the recursion can cycle, so ``depth`` bounds it; the
    roots the constructions need are found within a few levels.
    """
    if type(x) is not RootSum:
        fr = Fraction(x)
        if fr < 0:
            return None
        if not fr:
            return ZERO
        sn, cn = _squarefree(fr.numerator)
        sd, cd = _squarefree(fr.denominator)
        q = Fraction(sn, sd * cd)
        core = cn * cd
        return q if core == 1 else RootSum._new({core: q})
    if depth == 0 or x.sign() < 0:
        return None
    p = _atom(max(x.terms))
    a, b = _split(x.terms, p)
    a, b = _from_terms(a), _from_terms(b)
    c = _root_of(a * a - p * b * b, depth - 1)
    if c is None:
        return None
    for half in ((a + c) / 2, (a - c) / 2):
        x0 = _root_of(half, depth - 1)
        if x0 is None or not x0:
            continue
        r = x0 + b / (2 * x0) * _root_of(Fraction(p))
        if r * r == x:
            return abs(r)
    return None


def exact_sqrt(x):
    """Square root preserving exactness.

    Rationals that are perfect squares stay rational, other rationals and
    field elements give a field element; floats stay floats.  Raises
    ValueError for a negative value, and for a field element whose root
    lies outside every multiquadratic field; TypeError for any other type.
    """
    t = type(x)
    if t is float:
        return math.sqrt(x)
    if t is not RootSum and not isinstance(x, _RATIONALS):
        raise TypeError("no exact square root of a %s" % t.__name__)
    r = _root_of(x)
    if r is None:
        if x < 0:
            raise ValueError("square root of negative value")
        raise ValueError("square root of %s leaves the multiquadratic field" % x)
    return r


def sqrt_float(x) -> float:
    """Correctly rounded float of sqrt(x), for an exact x >= 0."""
    if type(x) is not RootSum:
        if not x:
            return 0.0
        x = {1: Fraction(x)}
    terms = x.terms if type(x) is RootSum else x
    prec = 64
    while True:
        A, err = _approx(terms, 2 * prec)
        lo = math.isqrt(max(A - err, 0))
        f = _float_between(Fraction(lo, 1 << prec), Fraction(math.isqrt(A + err) + 1, 1 << prec))
        if f is not None:
            return f
        prec *= 2


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


def _compare(a, b) -> int:
    """Three-way comparison of two values.  The package compares with
    Python's operators; this name stays because the benchmark tracer
    (``perfbench/tracer.py``) counts its calls."""
    return (a > b) - (a < b)


def parse_rational(s) -> Fraction:
    """Parse 'p/q', decimal strings, ints or floats into an exact Fraction.

    Raises ValueError for anything that is not a finite rational, a zero
    denominator or an infinite float included.
    """
    if isinstance(s, Fraction):
        return s
    try:
        return Fraction(s) if isinstance(s, (int, float)) else Fraction(str(s).strip())
    except (ZeroDivisionError, OverflowError):
        raise ValueError("%r is not a finite rational" % (s,)) from None


def format_rational(fr: Fraction) -> str:
    fr = Fraction(fr)
    if fr.denominator == 1:
        return str(fr.numerator)
    return "%d/%d" % (fr.numerator, fr.denominator)


def value_to_json(v):
    """JSON encoding of a value; exact values go to strings, floats stay.

    Irrational exact values are written as ``"sym:"`` plus the sympy
    ``srepr`` of the value.
    """
    if isinstance(v, bool):
        return v
    if isinstance(v, _RATIONALS):
        return format_rational(Fraction(v))
    if type(v) is RootSum:
        import sympy
        return "sym:" + sympy.srepr(v._sympy_())
    return float(v)


def _from_sympy(e):
    """A sympy constant as a Fraction or RootSum; raises ValueError unless
    it is a rational combination of square roots of positive integers."""
    import sympy
    total = ZERO
    for term in sympy.Add.make_args(sympy.expand(e)):
        coeff, rest = term.as_coeff_Mul()
        if not coeff.is_Rational:
            raise ValueError("not an exact multiquadratic value: %s" % e)
        if rest == 1:
            root = 1
        elif (rest.is_Pow and rest.exp == sympy.S.Half and rest.base.is_Integer
              and rest.base > 0):
            root = exact_sqrt(int(rest.base))
        else:
            raise ValueError("not an exact multiquadratic value: %s" % e)
        total = total + Fraction(int(coeff.p), int(coeff.q)) * root
    return total


def value_from_json(v):
    if isinstance(v, str):
        if v.startswith("sym:"):
            import sympy
            return _from_sympy(sympy.sympify(v[4:]))
        return parse_rational(v)
    return v
