"""Exact numbers: the value types of the package and their helpers.

Values come in two regimes that do not mix:

* exact -- ``int`` and ``fractions.Fraction`` rationals, and
  :class:`RootSum` irrationals of a multiquadratic field, such as
  sqrt(3)/9 or 1 + sqrt(2)/2: everything the constructions make;
* float -- the V calculus, and the figures a report rounds.

Python's own operators compare and combine exact values exactly, so
callers use ``==``, ``<=``, ``<`` and ``float()`` directly.  A RootSum
refuses a float operand with ``TypeError``; ``float()`` crosses from the
exact regime on purpose.  This module adds
exact square roots, rational parsing and formatting, and the JSON form
of values.  It needs no other package: the ``"sym:"`` text of irrational
values is sympy's ``srepr`` form, written and read here.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "RootSum",
    "exact_sqrt",
    "sqrt_float",
    "floor_log2",
    "log_ratio",
    "echo",
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


def _terms_of(x):
    """(squarefree key, rational coefficient) pairs of an exact value, with
    sum of q * sqrt(d) equal to x; None for a float or any other type."""
    t = type(x)
    if t is int or t is Fraction:
        return ((1, x),) if x else ()
    if t is RootSum:
        return x.terms.items()
    return None


def _key_product(d1: int, d2: int):
    """(d, g) with sqrt(d1) * sqrt(d2) = g * sqrt(d), for squarefree keys."""
    g = math.gcd(d1, d2)
    return (d1 // g) * (d2 // g), g


def _mul_terms(a: dict, b: dict) -> dict:
    """Product of two coefficient maps, key by key as in :func:`_key_product`."""
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
                d, g = _key_product(d1, d2)
                c = q1 * q2 * g
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
    if not terms:
        return ZERO
    if len(terms) == 1 and 1 in terms:
        return Fraction(terms[1])
    return RootSum._new(terms)


def _from_int_terms(nums: dict, den: int):
    """The value sum of nums[d] / den * sqrt(d), for int numerators."""
    terms = {d: Fraction(n, den) for d, n in nums.items() if n}
    return _from_terms(terms) if terms else ZERO  # most Gram entries are 0


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
    multiplies by conjugates, one prime at a time); a float operand, in
    arithmetic or in an order comparison, raises TypeError, and a
    RootSum never equals one.  Signs come from a float evaluation, or
    exactly from squares when that is too close to call.  ``float()`` is
    correctly rounded.  ``_sympy_`` is sympy's conversion hook, so
    ``sympy.sympify`` takes a RootSum; the package itself never calls it.
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
            return NotImplemented
        return _from_terms(_add_terms(self.terms, o))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._other_terms(other)
        if o is None:
            return NotImplemented
        return _from_terms(_add_terms(self.terms, o, -1))

    def __rsub__(self, other):
        o = self._other_terms(other)
        if o is None:
            return NotImplemented
        return _from_terms(_add_terms(o, self.terms, -1))

    def __mul__(self, other):
        t = type(other)
        if t is int or t is Fraction or t is bool:
            if not other:
                return ZERO
            return RootSum._new({d: q * other for d, q in self.terms.items()})
        if t is RootSum:
            return _from_terms(_mul_terms(self.terms, other.terms))
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
        return NotImplemented

    def __rtruediv__(self, other):
        t = type(other)
        if t is int or t is Fraction:
            return self._inverse() * other
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
    field elements give a field element.  Raises ValueError for a negative
    value, and for a field element whose root lies outside every
    multiquadratic field; TypeError for any other type, a float included.
    """
    t = type(x)
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


def floor_log2(x) -> int:
    """The j with 2**j <= x < 2**(j+1), decided exactly, for a finite
    int, Fraction or float x > 0; ValueError else.

    A Fraction n/d lies within a factor 2 of 2**j, j the difference of
    the bit lengths of n and d: one shifted comparison decides between j
    and j - 1.
    """
    t = type(x)
    if t is int and x > 0:
        return x.bit_length() - 1
    if t is float and 0 < x < math.inf:
        return math.frexp(x)[1] - 1
    if t is Fraction and x > 0:
        n, d = x.numerator, x.denominator
        j = n.bit_length() - d.bit_length()
        return j if (n >= d << j if j >= 0 else n << -j >= d) else j - 1
    raise ValueError("no dyadic level of %r" % (x,))


def log_ratio(num: int, den: int, log=math.log) -> float:
    """log(num / den) for positive integers, by ``log`` (math.log, log2, ...).

    Takes the log of the correctly rounded float quotient, as
    ``log(float(Fraction(num, den)))`` would; where that quotient
    underflows to 0, the log comes from the integer parts of the reduced
    fraction instead, so num / den need not be reduced.
    """
    q = num / den
    if q:
        return log(q)
    g = math.gcd(num, den)
    return log(num // g) - log(den // g)


def _compare(a, b) -> int:
    """Three-way comparison of two values.  The package compares with
    Python's operators; this name stays because the benchmark tracer
    (``perfbench/tracer.py``) counts its calls."""
    return (a > b) - (a < b)


ECHO_CHARS = 60


def echo(value) -> str:
    """``repr(value)`` for an error message; past ECHO_CHARS characters, its
    first ECHO_CHARS characters and the length of the value's text."""
    r = repr(value)
    if len(r) <= ECHO_CHARS:
        return r
    n = len(value) if isinstance(value, str) else len(str(value))
    return "%s... (%d characters)" % (r[:ECHO_CHARS], n)


def _exponent_above_limit(text: str) -> bool:
    """Whether text is a literal that Fraction reads, with a decimal
    exponent whose absolute value is above Python's digit limit for
    integer strings.  The literal is checked with each run of exponent
    digits cut to one 0, so no power of ten is built."""
    limit = sys.get_int_max_str_digits()
    i = max(text.rfind("e"), text.rfind("E"))
    if not limit or i < 0:
        return False
    exp = text[i + 1:]
    digits = exp.lstrip("+-").replace("_", "").lstrip("0")
    if not (digits.isdecimal() and (len(digits) > len(str(limit)) or int(digits) > limit)):
        return False
    try:
        Fraction(text[:i + 1] + re.sub(r"\d+", "0", exp))
    except ValueError:
        return False
    return True


def parse_rational(s) -> Fraction:
    """Parse 'p/q', decimal strings, ints or floats into an exact Fraction.

    Raises ValueError for anything that is not a finite rational, a bool,
    a zero denominator or an infinite float included.  A literal whose
    decimal exponent has an absolute value above Python's digit limit for
    integer strings (``sys.get_int_max_str_digits()``, no limit when 0)
    is refused too: its power of ten would take minutes to build.  So is a text whose
    numerator, denominator or decimal digits run past that limit.  A
    message shows the value through :func:`echo`.
    """
    if isinstance(s, Fraction):
        return s
    if isinstance(s, bool):
        raise ValueError("%s is not a rational" % echo(s))
    if isinstance(s, (int, float)):
        text = s
    else:
        text = str(s).strip()
        if ("e" in text or "E" in text) and _exponent_above_limit(text):
            raise ValueError("%s has a decimal exponent above %d, Python's limit "
                             "for integer strings" % (echo(s), sys.get_int_max_str_digits()))
    try:
        if type(text) is str and text.isascii():
            # ASCII digits, or ASCII digits "/" ASCII digits, read as two
            # ints; every other form goes through Fraction's parser
            num, slash, den = text.partition("/")
            if num.isdigit() and (not slash or den.isdigit()):
                n = int(num)
                d = int(den) if slash else 1
                if d:
                    return Fraction(n, d)
        return Fraction(text)
    except (ZeroDivisionError, OverflowError):
        raise ValueError("%s is not a finite rational" % echo(s)) from None
    except ValueError as e:
        if str(e).startswith("Invalid literal"):  # Fraction's message, capped
            raise ValueError("Invalid literal for Fraction: %s" % echo(text)) from None
        # int() refused a run of digits past Python's limit for integer strings
        raise ValueError("%s has more than %d digits, Python's limit for integer "
                         "strings" % (echo(s), sys.get_int_max_str_digits())) from None


def format_rational(fr: Fraction) -> str:
    fr = Fraction(fr)
    if fr.denominator == 1:
        return str(fr.numerator)
    return "%d/%d" % (fr.numerator, fr.denominator)


def _srepr_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return "Integer(%d)" % q.numerator
    return "Rational(%d, %d)" % (q.numerator, q.denominator)


def _srepr_term(d: int, q: Fraction) -> str:
    """q * sqrt(d) in sympy's srepr form, for squarefree d >= 1."""
    if d == 1:
        return _srepr_rational(q)
    root = "Pow(Integer(%d), Rational(1, 2))" % d
    if q == 1:
        return root
    if q > 0:
        return "Mul(%s, %s)" % (_srepr_rational(q), root)
    if q == -1:
        return "Mul(Integer(-1), %s)" % root
    return "Mul(Integer(-1), %s, %s)" % (_srepr_rational(-q), root)


def _srepr(terms: dict) -> str:
    """sympy's srepr of the expanded sum of q * sqrt(d), without sympy.

    srepr orders the terms of an Add by value, ascending; q*|q|*d orders
    q*sqrt(d) the same way, exactly.  The one exception is sympy's: a
    positive rational and one negative irrational term put the rational
    first.
    """
    items = sorted(terms.items(), key=lambda t: t[1] * abs(t[1]) * t[0])
    if len(items) == 1:
        return _srepr_term(*items[0])
    if len(items) == 2 and items[1][0] == 1 and items[0][1] < 0 < items[1][1]:
        items.reverse()
    return "Add(%s)" % ", ".join(_srepr_term(d, q) for d, q in items)


_RATIONAL = r"Integer\(-?\d+\)|Rational\(-?\d+, [1-9]\d*\)"
_ROOT = r"Pow\(Integer\(\d+\), Rational\(1, 2\)\)"
_TERM = r"(?:%s|%s|Mul\((?:(?:%s), )*%s\))" % (_RATIONAL, _ROOT, _RATIONAL, _ROOT)
_SYM = re.compile(r"%s|Add\(%s(?:, %s)+\)" % (_TERM, _TERM, _TERM))
_TERMS = re.compile(_TERM)
_FACTORS = re.compile(r"Integer\((-?\d+)\)|Rational\((-?\d+), (\d+)\)"
                      r"|Pow\(Integer\((\d+)\), Rational\(1, 2\)\)")


def _read_srepr(text: str):
    """The value of srepr text written by :func:`_srepr`, its terms in any
    order; a root of a non-squarefree integer reads through
    :func:`exact_sqrt`.  Raises ValueError for any other text."""
    if not _SYM.fullmatch(text):
        raise ValueError("not an exact multiquadratic value: %s" % text)
    total = ZERO
    for term in _TERMS.finditer(text):
        value = ONE
        for m in _FACTORS.finditer(term.group()):
            n, p, q, root = m.groups()
            if n is not None:
                value = value * int(n)
            elif p is not None:
                value = value * Fraction(int(p), int(q))
            else:
                value = value * exact_sqrt(int(root))
        total = total + value
    return total


def value_to_json(v):
    """JSON encoding of a value; exact values go to strings, floats stay.

    Irrational exact values are written as ``"sym:"`` plus sympy's
    ``srepr`` of the expanded sum, spelled by :func:`_srepr`.
    """
    if isinstance(v, bool):
        return v
    if isinstance(v, _RATIONALS):
        return format_rational(Fraction(v))
    if type(v) is RootSum:
        return "sym:" + _srepr(v.terms)
    return float(v)


def value_from_json(v):
    if isinstance(v, str):
        if v.startswith("sym:"):
            return _read_srepr(v[4:])
        return parse_rational(v)
    return v
