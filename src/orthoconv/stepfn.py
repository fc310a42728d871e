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
:func:`lattice_of` and :func:`format_lattice_point` are its helpers.

The conditional L2 norm over the level-i triadic grid (cells of width
3**-(2**i)) is computed sparsely: runs of cells interior to a single
piece are emitted as one output piece, so the full grid (3**16 cells at
level 4, 3**32 at level 5) is never materialized.  Cost is proportional
to the number of breakpoints, not the number of cells.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction

from .exactnum import (
    exact_sqrt,
    format_rational,
    parse_rational,
    value_from_json,
    value_to_json,
)

__all__ = [
    "StepFunction",
    "TriadicAtom",
    "grid_width",
    "grid_size",
    "pointwise",
    "clip_min",
    "pos_part",
    "cond_norm",
]

ZERO = Fraction(0)
ONE = Fraction(1)


def grid_size(level: int) -> int:
    """Number of cells in the level-i triadic grid: 3**(2**i)."""
    return 3 ** (2 ** level)


def grid_width(level: int) -> Fraction:
    """Cell width of the level-i triadic grid."""
    return Fraction(1, grid_size(level))


def lattice_of(points):
    """(den, numerators) of rationals on their reduced common denominator.

    The lcm of reduced denominators is itself reduced: a prime dividing
    it divides no numerator of a point whose denominator holds its full
    power.
    """
    den = math.lcm(*(p.denominator for p in points))
    return den, [p.numerator * (den // p.denominator) for p in points]


def format_lattice_point(n: int, den: int) -> str:
    """``format_rational(Fraction(n, den))`` without building the Fraction."""
    g = math.gcd(n, den)
    if g == den:
        return str(n // g)
    return "%d/%d" % (n // g, den // g)


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

    Python's mixed arithmetic throughout, so the result has the type and,
    for float weights, the rounding of summing those Fractions; a float
    weight meets n / den, which is float(Fraction(n, den)) (both are
    correctly rounded), instead of a reduced Fraction.  Rational weights
    only: one Fraction over the lcm of their denominators, the same value.
    """
    terms = list(terms)
    if all(type(w) is int or type(w) is Fraction for w, _ in terms):
        lcm = math.lcm(*(w.denominator for w, _ in terms))
        return Fraction(sum(w.numerator * (lcm // w.denominator) * n for w, n in terms),
                        lcm * den)
    total = ZERO
    for w, n in terms:
        total = total + (w * (n / den) if type(w) is float else w * Fraction(n, den))
    return total


class TriadicAtom:
    """Cell (n*w, (n+1)*w] of the level-i grid, w = 3**-(2**i)."""

    __slots__ = ("level", "index")

    def __init__(self, level: int, index: int):
        n = grid_size(level)
        if not 0 <= index < n:
            raise ValueError("atom index %d out of range for level %d" % (index, level))
        self.level = level
        self.index = index

    @property
    def width(self) -> Fraction:
        return grid_width(self.level)

    def interval(self):
        w = self.width
        return (self.index * w, (self.index + 1) * w)

    def contains(self, t) -> bool:
        lo, hi = self.interval()
        return lo < t <= hi

    def __repr__(self):
        return "TriadicAtom(level=%d, index=%d)" % (self.level, self.index)

    def __eq__(self, other):
        return (isinstance(other, TriadicAtom)
                and (self.level, self.index) == (other.level, other.index))

    def __hash__(self):
        return hash((self.level, self.index))


class StepFunction:
    """Immutable piecewise-constant function on (0,1].

    breakpoints: strictly increasing Fractions in (0,1], last equal to 1;
    held as integer numerators over one reduced denominator (see the
    module docstring).
    values: one per piece; ints, Fractions, floats or ``exactnum.RootSum``
    field elements.
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
        g = math.gcd(den, *cnums)
        if g > 1:
            den //= g
            cnums = [n // g for n in cnums]
        self.den = den
        self.nums = tuple(cnums)
        self.values = tuple(cvals)
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
    def indicator(cls, lo, hi, value=1, base=0) -> "StepFunction":
        """value on (lo, hi], base elsewhere."""
        lo, hi = Fraction(lo), Fraction(hi)
        if not (ZERO <= lo < hi <= ONE):
            raise ValueError("need 0 <= lo < hi <= 1")
        bps, vals = [], []
        if lo > ZERO:
            bps.append(lo)
            vals.append(base)
        bps.append(hi)
        vals.append(value)
        if hi < ONE:
            bps.append(ONE)
            vals.append(base)
        return cls(bps, vals)

    @classmethod
    def from_cells(cls, cell_values, width=None) -> "StepFunction":
        """Function constant on consecutive cells of equal width.

        width defaults to 1/len(cell_values).
        """
        n = len(cell_values)
        if width is not None and Fraction(width) * n != ONE:
            raise ValueError("cells must tile (0,1]")
        return cls.from_lattice(n, range(1, n + 1), cell_values)

    # -- basic queries -----------------------------------------------

    def pieces(self):
        lo = ZERO
        for b, v in zip(self.breakpoints, self.values):
            yield lo, b, v
            lo = b

    def _lengths(self):
        """(value, piece length in units of 1/den) for every piece."""
        prev = 0
        for n, v in zip(self.nums, self.values):
            yield v, n - prev
            prev = n

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
        va, vb = self.values, other.values
        nums, vals = [], []
        ia = ib = 0
        while True:
            x, y = a[ia], b[ib]
            vals.append(op(va[ia], vb[ib]))
            if x < y:
                nums.append(x)
                ia += 1
            elif y < x:
                nums.append(y)
                ib += 1
            else:
                nums.append(x)
                if x == den:
                    break
                ia += 1
                ib += 1
        return StepFunction.from_lattice(den, nums, vals)

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return _coerce(other)._binary(self, lambda a, b: a - b)

    def __mul__(self, other):
        if isinstance(other, StepFunction):
            return self._binary(other, lambda a, b: a * b)
        return self.map_values(lambda v: v * other)

    __rmul__ = __mul__

    def __neg__(self):
        return self.map_values(lambda v: -v)

    def map_values(self, fn) -> "StepFunction":
        return StepFunction.from_lattice(self.den, self.nums, [fn(v) for v in self.values])

    def minimum(self, other) -> "StepFunction":
        return self._binary(_coerce(other), _min)

    def maximum(self, other) -> "StepFunction":
        return self._binary(_coerce(other), _max)

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
        return self._binary(ind, lambda a, b: a * b)

    def translate_scale(self, a, b) -> "StepFunction":
        """Map this function on (0,1] onto the window (a,b], zero outside."""
        a, b = Fraction(a), Fraction(b)
        if not ZERO <= a < b <= ONE:
            raise ValueError("bad window")
        # on the lattice 1/(scale*den): a -> A*den, breakpoint n -> A*den + W*n
        scale, (A, B) = lattice_of((a, b))
        W = B - A
        den = scale * self.den
        start = A * self.den
        nums, vals = [], []
        if start:
            nums.append(start)
            vals.append(0)
        nums.extend(start + W * n for n in self.nums)
        vals.extend(self.values)
        if nums[-1] < den:
            nums.append(den)
            vals.append(0)
        return StepFunction.from_lattice(den, nums, vals)

    # -- integrals and norms ------------------------------------------

    def integral(self):
        return _weighted_sum(self._lengths(), self.den)

    def inner(self, other: "StepFunction"):
        """Integral of self * other, the value and type of
        ``(self * other).integral()``, in one pass without building the
        product: runs of equal products are summed as the one piece the
        product's canonical form would hold, so float sums round alike.
        """
        den, a, b = self._common_lattice(other)
        va, vb = self.values, other.values
        terms = []
        run_v = None
        run_lo = prev = 0
        ia = ib = 0
        while True:
            x, y = a[ia], b[ib]
            v = va[ia] * vb[ib]
            if run_v is None:
                run_v = v
            elif run_v != v:
                terms.append((run_v, prev - run_lo))
                run_v, run_lo = v, prev
            if x < y:
                prev = x
                ia += 1
            elif y < x:
                prev = y
                ib += 1
            else:
                prev = x
                if x == den:
                    break
                ia += 1
                ib += 1
        terms.append((run_v, den - run_lo))
        return _weighted_sum(terms, den)

    def integral_sq(self):
        return _weighted_sum(((v * v, n) for v, n in self._lengths()), self.den)

    def integral_sq_between(self, lo, hi):
        """Integral of f**2 over (lo, hi]."""
        lo, hi = Fraction(lo), Fraction(hi)
        if hi <= lo:
            return ZERO
        scale, (lo_n, hi_n) = lattice_of((lo, hi))
        return _sq_between(self.nums, self.values, scale, lo_n * self.den,
                           hi_n * self.den, scale * self.den)

    def l2_norm_sq(self):
        return self.integral_sq()

    def l2_norm(self, exact: bool = False):
        s = self.integral_sq()
        return exact_sqrt(s) if exact else float(s) ** 0.5

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
            "breakpoints": [format_lattice_point(n, self.den) for n in self.nums],
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


def _sq_between(nums, values, k, lo, hi, den):
    """Integral of f**2 over (lo/den, hi/den], f's breakpoints at n*k/den."""
    # piece i covers (nums[i-1], nums[i]]; lo sits strictly before its end,
    # or at it, which adds a zero-length term (as summing Fractions would)
    i = bisect.bisect_left(nums, _ceil_div(lo, k))
    terms = []
    pos = lo
    while pos < hi:
        end = nums[i] * k
        seg_hi = end if end < hi else hi
        v = values[i]
        terms.append((v * v, seg_hi - pos))
        pos = seg_hi
        i += 1
    return _weighted_sum(terms, den)


_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "min": _min,
    "max": _max,
    "mul": lambda a, b: a * b,
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


def cond_norm(f: StepFunction, level: int, exact: bool = False) -> StepFunction:
    """Conditional L2 norm over the level-i triadic grid.

    On each grid cell the result is the constant sqrt(mean of f**2 over
    the cell); the output is measurable for that grid.  Requires f >= 0.
    Cells not cut by a breakpoint of f are handled in bulk, so the cost
    is O(#pieces), independent of the 3**(2**i) cell count.
    """
    if not f.is_nonnegative():
        raise ValueError("cond_norm requires a nonnegative function")
    size = grid_size(level)
    width = grid_width(level)
    # one lattice holding both f and the grid; coarser grids divide it too
    den = math.lcm(f.den, size)
    nums = _rescale(f.nums, den // f.den)
    w = den // size  # cell width in lattice units

    # cells containing a breakpoint strictly inside need averaging
    marked = []
    for n in nums[:-1]:
        idx, r = divmod(n, w)
        if r and (not marked or marked[-1] != idx):
            marked.append(idx)

    cell_rms = {}
    for idx in marked:
        lo = idx * w
        mean = _sq_between(nums, f.values, 1, lo, lo + w, den) / width
        cell_rms[idx] = exact_sqrt(mean) if exact else float(mean) ** 0.5

    # cut the function at marked-cell boundaries, then rewrite values
    cuts = set(nums)
    for idx in marked:
        cuts.add(idx * w)
        cuts.add((idx + 1) * w)
    cuts.discard(0)
    bps = sorted(cuts)

    vals = []
    i = 0
    lo = 0
    two_w = 2 * w
    for b in bps:
        while nums[i] < b:
            i += 1
        rms = cell_rms.get((lo + b) // two_w)
        vals.append(f.values[i] if rms is None else rms)
        lo = b
    return StepFunction.from_lattice(den, bps, vals)
