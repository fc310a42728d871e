"""Piecewise-constant functions on (0,1] with exact rational breakpoints.

A :class:`StepFunction` is a finite sequence of half-open pieces

    (0, b_1], (b_1, b_2], ..., (b_{m-1}, 1]

with one value per piece; the last breakpoint is always 1.  The
left-open / right-closed convention is used uniformly, matching the
triadic cells (n*w, (n+1)*w] of the grids used throughout.

Breakpoints live on an integer lattice: a function holds one common
denominator ``den`` and a tuple of strictly increasing integer numerators
``n_1 < ... < n_m = den``, so that b_k = n_k / den.  The lattice is
reduced (gcd of ``den`` and all numerators is 1), so equal functions have
identical representations.  Merging, bisecting, cell indices and lengths
are integer operations; a binary operation on two denominators rescales
both to their lcm once.  ``Fraction`` breakpoints are built only at the
API boundary (:attr:`StepFunction.breakpoints`, on first access).  Point
sets (``info.PointSet``) share this form, including 0 as numerator 0;
:func:`lattice_of` and :func:`format_lattice` are its helpers.

The conditional L2 norm over the level-i triadic grid (cells of width
3**-(2**i)) is computed sparsely: runs of cells interior to a single
piece are emitted as one output piece, so the full grid (3**16 cells at
level 4, 3**32 at level 5) is never materialized.  Cost is proportional
to the number of breakpoints, not the number of cells.
"""

from __future__ import annotations

import bisect
import math
import operator
from fractions import Fraction

from .exactnum import (
    format_rational,
    parse_rational,
    value_from_json,
    value_to_json,
)

__all__ = [
    "StepFunction",
    "grid_width",
    "grid_size",
    "pointwise",
    "clip_min",
    "pos_part",
    "cond_norm",
]

ZERO = Fraction(0)
ONE = Fraction(1)
_RATIONAL_TYPES = frozenset((int, Fraction))
_REAL_TYPES = frozenset((int, Fraction, float))


def grid_size(level: int) -> int:
    """Number of cells in the level-i triadic grid: 3**(2**i)."""
    return 3 ** (2 ** level)


def grid_width(level: int) -> Fraction:
    """Cell width of the level-i triadic grid."""
    return Fraction(1, grid_size(level))


class _Levels:
    """Exact levels of ratios den / n > 0 for one base b: the largest
    k >= 0 with n * b**(2**k) <= den (< den when strict), or -1.  For
    b = 3 and a gap n / den, k is the finest grid level whose cells are
    at least as wide as the gap.

    The powers b**(2**k) are kept as they are first needed.  A product
    n * p has the bit length of n plus that of p, or one less.  So with t
    the difference of the bit lengths of den and n, every power of fewer
    than t bits stays below den and every one of more than t + 1 bits
    exceeds it: only a power of t or t + 1 bits is multiplied out.
    """

    def __init__(self, base: int):
        self.powers = [base]
        self.bits = [base.bit_length()]

    def __call__(self, n: int, den: int, strict: bool = False) -> int:
        t = den.bit_length() - n.bit_length()
        powers, bits = self.powers, self.bits
        while bits[-1] <= t + 1:
            powers.append(powers[-1] ** 2)
            bits.append(powers[-1].bit_length())
        k = bisect.bisect_left(bits, t) - 1
        while bits[k + 1] <= t + 1:
            m = n * powers[k + 1]
            if not (m < den if strict else m <= den):
                break
            k += 1
        return k


def lattice_of(points):
    """(den, numerators) of rationals on their reduced common denominator.

    The lcm of reduced denominators is itself reduced: a prime dividing
    it divides no numerator of a point whose denominator holds its full
    power.
    """
    den = math.lcm(*(p.denominator for p in points))
    return den, [p.numerator * (den // p.denominator) for p in points]


def format_lattice(den: int, nums) -> list:
    """``[format_rational(Fraction(n, den)) for n in nums]`` without
    building the Fractions.

    Each point takes one gcd; the points of a lattice share few values of
    it, so each reduced denominator ``den // g`` is printed once.
    """
    tails = {}  # g -> "/den//g", or "" for an integer point
    out = []
    for n in nums:
        g = math.gcd(n, den)
        tail = tails.get(g)
        if tail is None:
            tail = tails[g] = "" if g == den else "/%d" % (den // g)
        out.append("%d%s" % (n // g, tail))
    return out


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _min(a, b):
    return a if a <= b else b


def _max(a, b):
    """The larger value, b on a tie (``max(a, b)`` returns a): a tie of 1
    with 1.0 gives 1.0, which decides the type of later sums."""
    return b if a <= b else a


def _weighted_sum(terms, den):
    """Sum of w * Fraction(n, den) over (w, n) in order, from Fraction(0).

    The result has the type and, for float weights, the rounding of
    summing those Fractions with Python's mixed arithmetic; a float weight
    meets n / den, which is float(Fraction(n, den)) (both are correctly
    rounded), instead of a reduced Fraction.  Rational weights only: one
    Fraction over the lcm of their denominators, the same value.  Int,
    Fraction and float weights: integer divisions, no Fraction per term.
    With a RootSum weight the sum is exact, and a float among them raises
    TypeError.
    """
    terms = list(terms)
    types = {type(w) for w, _ in terms}
    if types <= _RATIONAL_TYPES:
        if Fraction not in types:
            return Fraction(sum(w * n for w, n in terms), den)
        lcm = math.lcm(*(w.denominator for w, _ in terms))
        return Fraction(sum(w.numerator * (lcm // w.denominator) * n for w, n in terms),
                        lcm * den)
    if types <= _REAL_TYPES:
        total = 0.0
        if len(types) == 1:  # floats only
            for w, n in terms:
                total += w * (n / den)
            return total
        # the rational terms before the first float sum exactly; from there
        # on the sum is a float, and a rational term adds its correctly
        # rounded float, p*n / (q*den) for w = p/q, as a Fraction would
        k = 0
        while type(terms[k][0]) is not float:
            k += 1
        if k:
            total = float(_weighted_sum(terms[:k], den))
        for w, n in terms[k:]:
            total += (w * (n / den) if type(w) is float
                      else (w.numerator * n) / (w.denominator * den))
        return total
    total = ZERO
    for w, n in terms:
        total = total + w * Fraction(n, den)
    return total


def _merge(den, a, va, b, vb, op):
    """Canonical runs (nums, values) of op(f, g), for f with the values va
    on the pieces ending at a and g with vb on those ending at b, both on
    the lattice den.  Adjacent equal values merge and a run keeps its
    first value, as the step-function constructor does.
    """
    nums, vals = [], []
    ia = ib = 0
    while True:
        x, y = a[ia], b[ib]
        v = op(va[ia], vb[ib])
        if x <= y:
            ia += 1
        if y <= x:
            ib += 1
            x = y
        if vals and vals[-1] == v:
            nums[-1] = x
        else:
            nums.append(x)
            vals.append(v)
        if x == den:
            return nums, vals


class StepFunction:
    """Immutable piecewise-constant function on (0,1].

    breakpoints: strictly increasing Fractions in (0,1], last equal to 1;
    held as integer numerators over one reduced denominator (see the
    module docstring).
    values: one per piece; ints, Fractions and ``exactnum.RootSum`` field
    elements (exact), or ints, Fractions and floats.  A RootSum meets a
    float in no operation: that raises TypeError.
    Adjacent pieces with equal values are merged on construction, so two
    equal functions always have identical representations.
    """

    __slots__ = ("den", "nums", "values", "_breakpoints")

    def __init__(self, breakpoints, values):
        den, nums = lattice_of(
            [b if isinstance(b, Fraction) else Fraction(b) for b in breakpoints])
        self._set(den, nums, values)

    @classmethod
    def from_lattice(cls, den: int, nums, values) -> "StepFunction":
        """Function with breakpoints n / den for n in nums (any den > 0)."""
        f = cls.__new__(cls)
        f._set(den, nums, values)
        return f

    @classmethod
    def from_runs(cls, den: int, runs) -> "StepFunction":
        """v on each (lo / den, hi / den] of the runs (lo, hi, v), 0 elsewhere.

        lo < hi are integers in 0..den, in any order.  Raises ValueError
        when two runs overlap.
        """
        nums, vals = [], []
        pos = 0
        for lo, hi, v in sorted(runs):
            if lo < pos:
                raise ValueError("overlapping pieces")
            if lo > pos:
                nums.append(lo)
                vals.append(0)
            nums.append(hi)
            vals.append(v)
            pos = hi
        if pos < den:
            nums.append(den)
            vals.append(0)
        return cls.from_lattice(den, nums, vals)

    @classmethod
    def _reduced(cls, den: int, nums, values) -> "StepFunction":
        """Function from canonical runs: valid breakpoints, no two adjacent
        values equal.  Only the lattice is reduced."""
        f = cls.__new__(cls)
        f._hold(den, nums, values)
        return f

    def _set(self, den, nums, values):
        vals = list(values)
        if len(nums) != len(vals):
            raise ValueError("breakpoints and values must have equal length")
        if not nums:
            raise ValueError("a step function needs at least one piece")
        # canonical form: merge adjacent equal values
        cnums, cvals = [], []
        prev = 0
        for n, v in zip(nums, vals):
            if n <= prev:
                raise ValueError("breakpoints must be strictly increasing in (0,1]")
            prev = n
            if cvals and cvals[-1] == v:
                cnums[-1] = n
            else:
                cnums.append(n)
                cvals.append(v)
        if prev != den:
            raise ValueError("last breakpoint must be 1")
        self._hold(den, cnums, cvals)

    def _hold(self, den, nums, values):
        g = math.gcd(den, *nums)
        if g > 1:
            den //= g
            nums = [n // g for n in nums]
        self.den = den
        self.nums = tuple(nums)
        self.values = tuple(values)
        self._breakpoints = None

    @property
    def breakpoints(self):
        """The breakpoints as Fractions, built on first access."""
        if self._breakpoints is None:
            den = self.den
            self._breakpoints = tuple(Fraction(n, den) for n in self.nums)
        return self._breakpoints

    # -- constructors ------------------------------------------------

    @classmethod
    def constant(cls, v) -> "StepFunction":
        return cls.from_lattice(1, (1,), (v,))

    @classmethod
    def indicator(cls, lo, hi, value=1) -> "StepFunction":
        """value on (lo, hi], 0 elsewhere."""
        lo, hi = Fraction(lo), Fraction(hi)
        if not (ZERO <= lo < hi <= ONE):
            raise ValueError("need 0 <= lo < hi <= 1")
        bps, vals = [], []
        if lo > ZERO:
            bps.append(lo)
            vals.append(0)
        bps.append(hi)
        vals.append(value)
        if hi < ONE:
            bps.append(ONE)
            vals.append(0)
        return cls(bps, vals)

    @classmethod
    def from_cells(cls, cell_values) -> "StepFunction":
        """Function constant on len(cell_values) consecutive cells of equal
        width."""
        n = len(cell_values)
        return cls.from_lattice(n, range(1, n + 1), cell_values)

    # -- basic queries -----------------------------------------------

    def pieces(self):
        lo = ZERO
        for b, v in zip(self.breakpoints, self.values):
            yield lo, b, v
            lo = b

    def _lengths(self):
        """(value, piece length in units of 1/den) for every piece."""
        nums = self.nums
        return zip(self.values, map(operator.sub, nums, (0,) + nums[:-1]))

    def eval(self, t):
        t = Fraction(t)
        if not ZERO < t <= ONE:
            raise ValueError("step functions live on (0,1]")
        # first breakpoint n/den >= t, i.e. n >= ceil(t * den)
        i = bisect.bisect_left(self.nums, _ceil_div(t.numerator * self.den, t.denominator))
        return self.values[i]

    __call__ = eval

    def min_value(self):
        out = self.values[0]
        for v in self.values[1:]:
            out = _min(out, v)
        return out

    def max_value(self):
        out = self.values[0]
        for v in self.values[1:]:
            out = _max(out, v)
        return out

    def is_nonnegative(self) -> bool:
        return all(0 <= v for v in self.values)

    def __eq__(self, other):
        if not isinstance(other, StepFunction):
            return NotImplemented
        return (self.den == other.den and self.nums == other.nums
                and len(self.values) == len(other.values)
                and all(a == b for a, b in zip(self.values, other.values)))

    def __hash__(self):
        return hash((self.den, self.nums))

    def approx_equal(self, other, tol=1e-9) -> bool:
        diff = pointwise(self, other, "-")
        return all(abs(float(v)) <= tol for v in diff.values)

    def pointwise_le(self, other, tol=0) -> bool:
        other = _coerce(other)
        diff = pointwise(self, other, "-")
        if tol:
            return all(float(v) <= tol for v in diff.values)
        return all(v <= 0 for v in diff.values)

    def __repr__(self):
        parts = ", ".join(
            "(%s,%s]:%s" % (format_rational(lo), format_rational(hi), v)
            for lo, hi, v in self.pieces())
        return "StepFunction{%s}" % parts

    # -- algebra -----------------------------------------------------

    def _common_lattice(self, other):
        """(den, nums of self, nums of other) on one lattice."""
        den, a = self.den, self.nums
        b = other.nums
        if other.den != den:
            den = math.lcm(den, other.den)
            a = _rescale(a, den // self.den)
            b = _rescale(b, den // other.den)
        return den, a, b

    def _binary(self, other, op):
        other = _coerce(other)
        den, a, b = self._common_lattice(other)
        return StepFunction._reduced(den, *_merge(den, a, self.values, b, other.values, op))

    def __add__(self, other):
        return self._binary(other, operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, operator.sub)

    def __rsub__(self, other):
        return _coerce(other)._binary(self, operator.sub)

    def __mul__(self, other):
        if isinstance(other, StepFunction):
            return self._binary(other, operator.mul)
        return self.map_values(lambda v: v * other)

    __rmul__ = __mul__

    def __neg__(self):
        return self.map_values(lambda v: -v)

    def map_values(self, fn) -> "StepFunction":
        return StepFunction.from_lattice(self.den, self.nums, [fn(v) for v in self.values])

    def minimum(self, other) -> "StepFunction":
        return self._binary(other, _min)

    def maximum(self, other) -> "StepFunction":
        return self._binary(other, _max)

    def abs(self) -> "StepFunction":
        return self.map_values(lambda v: v if 0 <= v else -v)

    def indicator_ge(self, c) -> "StepFunction":
        """Indicator of the level set (f >= c)."""
        return self.map_values(lambda v: 1 if c <= v else 0)

    def level_set_ge(self, c):
        """Maximal intervals (lo, hi] where f >= c."""
        runs = []
        prev = 0
        for n, v in zip(self.nums, self.values):
            if c <= v:
                if runs and runs[-1][1] == prev:
                    runs[-1][1] = n
                else:
                    runs.append([prev, n])
            prev = n
        den = self.den
        return [(Fraction(lo, den), Fraction(hi, den)) for lo, hi in runs]

    def restrict(self, lo, hi) -> "StepFunction":
        """f * 1_{(lo,hi]}: zero outside (lo, hi]."""
        lo, hi = Fraction(lo), Fraction(hi)
        ind = StepFunction.indicator(lo, hi) if lo < hi else StepFunction.constant(0)
        return self._binary(ind, operator.mul)

    # -- integrals and norms ------------------------------------------

    def integral(self):
        return _weighted_sum(self._lengths(), self.den)

    def inner(self, other: "StepFunction"):
        """Integral of self * other, the value and type of
        ``(self * other).integral()``, without building the product: the
        sum runs over the same canonical runs, so float sums round alike.
        """
        den, a, b = self._common_lattice(other)
        nums, vals = _merge(den, a, self.values, b, other.values, operator.mul)
        return _weighted_sum(zip(vals, map(operator.sub, nums, [0] + nums[:-1])), den)

    def integral_sq(self):
        return _weighted_sum([(v * v, n) for v, n in self._lengths()], self.den)

    def l2_norm(self):
        return float(self.integral_sq()) ** 0.5

    def measure_where(self, pred):
        """Lebesgue measure of the set where pred(value) holds."""
        return Fraction(sum(n for v, n in self._lengths() if pred(v)), self.den)

    def measure_ge(self, c):
        """Lebesgue measure of the level set (f >= c)."""
        return self.measure_where(lambda v: c <= v)

    def measure_gt(self, c):
        return self.measure_where(lambda v: not v <= c)

    # -- serialization -------------------------------------------------

    def to_json(self) -> dict:
        return {
            "breakpoints": format_lattice(self.den, self.nums),
            "values": [value_to_json(v) for v in self.values],
        }

    @classmethod
    def from_json(cls, data: dict) -> "StepFunction":
        bps = [parse_rational(b) for b in data["breakpoints"]]
        vals = [value_from_json(v) for v in data["values"]]
        return cls(bps, vals)


def _coerce(x) -> StepFunction:
    if isinstance(x, StepFunction):
        return x
    return StepFunction.constant(x)


def _rescale(nums, k: int):
    return nums if k == 1 else [n * k for n in nums]


_OPS = {
    "+": operator.add,
    "-": operator.sub,
    "min": _min,
    "max": _max,
    "mul": operator.mul,
}


def pointwise(f: StepFunction, g, op="+") -> StepFunction:
    """Pointwise combination of step functions; op in {+,-,min,max,mul}."""
    if op not in _OPS:
        raise ValueError("unknown op %r" % op)
    return f._binary(_coerce(g), _OPS[op])


def clip_min(f: StepFunction, c) -> StepFunction:
    """f wedge c: pointwise minimum with the constant c."""
    return f.minimum(c)


def pos_part(f: StepFunction, c=0) -> StepFunction:
    """(f - c)^+ pointwise."""
    return f.map_values(lambda v: v - c if c <= v else 0 * v)


def cond_norm(f: StepFunction, level: int) -> StepFunction:
    """Conditional L2 norm over the level-i triadic grid.

    On each grid cell the result is the float sqrt(mean of f**2 over
    the cell); the output is measurable for that grid.  Requires f >= 0.
    Cells not cut by a breakpoint of f are handled in bulk, so the cost
    is O(#pieces), independent of the 3**(2**i) cell count.
    """
    if not f.is_nonnegative():
        raise ValueError("cond_norm requires a nonnegative function")
    return StepFunction._reduced(*_cond_runs(f.den, f.nums, f.values, level))


def _cond_runs(den, nums, values, level):
    """cond_norm of the function with values ``values`` on the pieces
    ending at n / den for n in nums, as (lattice, breakpoints, values):
    canonical, but not reduced.

    One forward walk: a piece ending inside a cell marks that cell, whose
    mean of f**2 is summed over the pieces it meets and replaces them.
    The sum takes f's pieces as ``_weighted_sum`` terms in order, cut at
    the cell ends; a cell that starts where a piece ends begins with that
    piece as a term of length 0, which sends a sum with a float value
    there down the float path.
    """
    size = grid_size(level)
    lat = math.lcm(den, size)
    nums = _rescale(nums, lat // den)
    w = lat // size  # cell width in lattice units
    width = grid_width(level)
    wf = float(width)
    tiny = not wf  # from level 10 on (3**-1024) the float width is 0
    out_n, out_v = [], []
    i = pos = 0
    while pos < lat:
        b, v = nums[i], values[i]
        r = b % w
        if r:  # piece i ends inside the cell (c0, c1]
            c0 = b - r
            c1 = c0 + w
            if pos < c0:
                if out_v and out_v[-1] == v:
                    out_n[-1] = c0
                else:
                    out_n.append(c0)
                    out_v.append(v)
            terms = [(values[i - 1], 0)] if i and nums[i - 1] == c0 else []
            lo = c0
            while b < c1:
                terms.append((v, b - lo))
                lo = b
                i += 1
                b, v = nums[i], values[i]
            terms.append((v, c1 - lo))
            if tiny:
                mean = _weighted_sum([(Fraction(t) ** 2 if type(t) is float else t * t, n)
                                      for t, n in terms], w)
                if any(type(t) is float for t, _ in terms):
                    mean = float(mean)
            else:
                mean = _weighted_sum([(t * t, n) for t, n in terms], lat)
                # a float meets width as float(width), as Fraction's operator would
                mean = mean / wf if type(mean) is float else mean / width
            v = float(mean) ** 0.5
            pos = c1
            if b == c1:
                i += 1
        else:
            pos = b
            i += 1
        if out_v and out_v[-1] == v:
            out_n[-1] = pos
        else:
            out_n.append(pos)
            out_v.append(v)
    return lat, out_n, out_v
