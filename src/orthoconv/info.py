"""Coefficient sequences, tail-sum sets and information functions.

For a square-summable sequence with sum of squares 1, the tail set

    B = {sum of a_m**2 for m >= n : n >= 1} together with 0

partitions (0,1]; the information function assigns to each gap
(alpha, beta] between consecutive points the value -log_base(beta-alpha).
Base 3 is the variant the operator calculus works with, base 2 the one
the classical criteria use.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction

from .exactnum import format_rational, log_ratio, parse_rational
from .stepfn import (StepFunction, format_lattice_point, grid_size, grid_width,
                     lattice_of)

__all__ = [
    "CoefficientSeq",
    "PointSet",
    "tail_set",
    "info_fn",
    "info_fn_closed",
    "cantor_points",
    "cantor_info_fn",
    "dyadic_floor",
    "dyadic_halffloor",
    "floor_pow2",
    "is_triadic_fn",
    "is_type_level",
    "type_level_representation",
]

ZERO = Fraction(0)
ONE = Fraction(1)

# materialization guard for per-cell representations at deep levels
MAX_REPRESENTATION_CELLS = 200_000


class CoefficientSeq:
    """Finite coefficient sequence with exact squares.

    Inputs may be Fractions, ints, floats, or strings like '1/3' or
    '0.25'.  Squares and tail sums are kept as exact rationals; the
    normalized form rescales the squares so they sum to 1 exactly.
    """

    def __init__(self, coeffs):
        vals = [parse_rational(c) for c in coeffs]
        if not vals:
            raise ValueError("empty coefficient sequence")
        self.coeffs = tuple(vals)
        self.squares = tuple(c * c for c in vals)
        self.total = sum(self.squares, start=ZERO)

    @classmethod
    def from_squares(cls, squares):
        """Build from exact squared moduli (values used by every criterion)."""
        sq = [parse_rational(s) for s in squares]
        if not sq:
            raise ValueError("empty coefficient sequence")
        if any(s < 0 for s in sq):
            raise ValueError("squares must be nonnegative")
        obj = cls.__new__(cls)
        obj.coeffs = tuple(float(s) ** 0.5 for s in sq)
        obj.squares = tuple(sq)
        obj.total = sum(sq, start=ZERO)
        return obj

    def __len__(self):
        return len(self.coeffs)

    def normalized(self) -> "CoefficientSeq":
        """Rescale so that the squares sum to 1 exactly."""
        if self.total == 0:
            raise ValueError("cannot normalize the zero sequence")
        if self.total == 1:
            return self
        return CoefficientSeq.from_squares([s / self.total for s in self.squares])

    def is_normalized(self, tol=1e-12) -> bool:
        return abs(self.total - 1) <= tol

    def moduli_decreasing(self) -> bool:
        return all(self.squares[i] >= self.squares[i + 1]
                   for i in range(len(self.squares) - 1))


class PointSet:
    """Sorted set of exact rationals in [0,1] containing 0 and 1.

    Held on the integer lattice of ``stepfn``: a reduced denominator
    ``den`` and the strictly increasing numerators ``nums``, from 0 to
    ``den``.  ``points`` gives the Fractions, built on first access.
    """

    def __init__(self, points, closed: bool = False):
        pts = sorted({Fraction(p) for p in points})
        if not pts or pts[0] != ZERO or pts[-1] != ONE:
            raise ValueError("a point set must contain 0 and 1")
        den, nums = lattice_of(pts)
        self._set(den, nums, closed)
        self._points = tuple(pts)

    @classmethod
    def from_lattice(cls, den: int, nums, closed: bool = False) -> "PointSet":
        """Set of n / den for strictly increasing nums from 0 to den, den reduced."""
        if not nums or nums[0] != 0 or nums[-1] != den:
            raise ValueError("a point set must contain 0 and 1")
        obj = cls.__new__(cls)
        obj._set(den, nums, closed)
        return obj

    def _set(self, den, nums, closed):
        self.den = den
        self.nums = tuple(nums)
        self.closed = closed
        self._points = None

    @property
    def points(self):
        if self._points is None:
            den = self.den
            self._points = tuple(Fraction(n, den) for n in self.nums)
        return self._points

    def __len__(self):
        return len(self.nums)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, t):
        t = Fraction(t)
        n, r = divmod(t.numerator * self.den, t.denominator)
        if r:
            return False
        i = bisect.bisect_left(self.nums, n)
        return i < len(self.nums) and self.nums[i] == n

    def __eq__(self, other):
        return (isinstance(other, PointSet)
                and self.den == other.den and self.nums == other.nums)

    def __hash__(self):
        return hash((self.den, self.nums))

    def __repr__(self):
        if len(self.nums) <= 8:
            inner = ", ".join(format_rational(p) for p in self.points)
        else:
            inner = "%s, ..., %s (%d points)" % (
                format_rational(self.points[0]), format_rational(self.points[-1]),
                len(self.nums))
        return "PointSet{%s}" % inner

    def gaps(self):
        """Consecutive pairs (alpha, beta) with no set point in between."""
        pts = self.points
        return [(pts[i], pts[i + 1]) for i in range(len(pts) - 1)]

    def min_gap(self) -> Fraction:
        nums = self.nums
        return Fraction(min(b - a for a, b in zip(nums, nums[1:])), self.den)

    def union(self, other) -> "PointSet":
        return PointSet(self.points + tuple(Fraction(p) for p in other))

    def restrict(self, lo, hi) -> tuple:
        lo, hi = Fraction(lo), Fraction(hi)
        return tuple(p for p in self.points if lo <= p <= hi)

    def to_json(self):
        den = self.den
        return [format_lattice_point(n, den) for n in self.nums]

    @classmethod
    def from_json(cls, data):
        return cls([parse_rational(p) for p in data])


def tail_set(seq: CoefficientSeq) -> PointSet:
    """Tail sums of the squared coefficients, plus 0, normalized to sum 1.

    The squares go on their common denominator; the tails are then
    integers over the total, already monotone, and zero coefficients
    give repeated tails that are kept once.
    """
    den, squares = lattice_of(seq.squares)
    total = sum(squares)
    if total == 0:
        raise ValueError("cannot normalize the zero sequence")
    nums = [0]
    tail = 0
    for s in reversed(squares):
        tail += s
        if tail != nums[-1]:
            nums.append(tail)
    g = math.gcd(*nums)
    if g > 1:
        total //= g
        nums = [n // g for n in nums]
    return PointSet.from_lattice(total, nums)


def _gap_log_value(gap: int, den: int, base: int):
    """-log_base(gap/den), exact integer when gap/den is a power of 1/base."""
    if den % gap == 0:
        e = 0
        d = den // gap
        while d % base == 0:
            d //= base
            e += 1
        if d == 1:
            return e
    return -log_ratio(gap, den) / math.log(base)


def info_fn(B: PointSet, base: int = 3) -> StepFunction:
    """Information function of the partition of (0,1] given by B.

    Value -log_base(beta - alpha) on each gap (alpha, beta].  If every
    gap is a power of 1/base the values are exact integers, otherwise
    floats.
    """
    if base not in (2, 3):
        raise ValueError("base must be 2 or 3")
    den, nums = B.den, B.nums
    vals = [_gap_log_value(b - a, den, base) for a, b in zip(nums, nums[1:])]
    if not all(type(v) is int for v in vals):
        vals = [float(v) for v in vals]
    return StepFunction.from_lattice(den, nums[1:], vals)


def info_fn_closed(B: PointSet, clip) -> StepFunction:
    """Closed-set information function with large values clipped.

    The exact function is +infinity on B itself; B is a null set for the
    closed sets handled here, so as a step function the result agrees
    with the finite-set information function off B, with values above
    ``clip`` replaced by ``clip``.
    """
    h = info_fn(B, base=3)
    return h.map_values(lambda v: v if v <= clip else clip)


def cantor_points(depth: int) -> PointSet:
    """Endpoints of the depth-d middle-thirds construction."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    # left ends of the surviving intervals, in units of 3**-depth
    den = 3 ** depth
    width = den
    lefts = [0]
    for _ in range(depth):
        width //= 3
        lefts = [x for a in lefts for x in (a, a + 2 * width)]
    # width is 1 now, so the lattice is reduced
    return PointSet.from_lattice(den, [x for a in lefts for x in (a, a + width)],
                                 closed=True)


def cantor_info_fn(depth: int, clip) -> StepFunction:
    """Depth-d truncation of the Cantor-set information function.

    Value m on each removed middle third of generation m <= depth, and
    ``clip`` on the 2**d surviving intervals (standing in for all the
    deeper, larger values); values above ``clip`` are clipped to it.
    On the 3**d lattice a gap of width 3**(d-m) carries the value m, so
    the values come from a table of d+1 widths.
    """
    B = cantor_points(depth)
    value = {3 ** (depth - m): m if m <= clip else clip
             for m in range(depth + 1)}
    nums = B.nums
    return StepFunction.from_lattice(B.den, nums[1:],
                                     [value[b - a] for a, b in zip(nums, nums[1:])])


def floor_pow2(a):
    """Largest power 2**j <= a, for a >= 1; exponent returned too."""
    if not 1 <= a:
        raise ValueError("dyadic floor defined for values >= 1 only")
    x = float(a)
    j = max(0, math.floor(math.log2(x)))
    # float log may be off by one near powers of two; fix exactly
    while not 2 ** j <= a:
        j -= 1
    while 2 ** (j + 1) <= a:
        j += 1
    return j, Fraction(2 ** j)


def dyadic_floor(f: StepFunction) -> StepFunction:
    """Round every value down to a power of two: 2**j for 2**j <= v < 2**(j+1)."""
    return f.map_values(lambda v: floor_pow2(v)[1])


def dyadic_halffloor(f: StepFunction) -> StepFunction:
    """Half the dyadic floor: 2**(j-1) for 2**j <= v < 2**(j+1) (1/2 at j=0)."""
    return f.map_values(lambda v: floor_pow2(v)[1] / 2)


def _aligned(x: Fraction, size: int) -> bool:
    """True when x is an integer multiple of 1/size."""
    return (x.numerator * size) % x.denominator == 0


def is_triadic_fn(h: StepFunction, max_level: int = None):
    """Check the cell-alignment property of a bounded function h >= 1.

    For every j with 2**j <= max h, the level set (h >= 2**j) must be a
    union of level-j cells.  Returns (True, None) or (False, (j, n))
    with the first offending cell.  Works from the level-set boundaries,
    so no cell enumeration happens.
    """
    if not 1 <= h.min_value():
        raise ValueError("triadic functions must satisfy h >= 1")
    top = float(h.max_value())
    j_hi = 0
    while 2 ** (j_hi + 1) <= top:
        j_hi += 1
    if max_level is not None:
        j_hi = min(j_hi, max_level)
    for j in range(j_hi + 1):
        size = grid_size(j)
        for lo, hi in h.level_set_ge(2 ** j):
            for x in (lo, hi):
                if x not in (ZERO, ONE) and not _aligned(x, size):
                    n = (x.numerator * size) // x.denominator
                    return False, (j, n)
    return True, None


def is_type_level(h: StepFunction, j: int):
    """Normal-form check at level j.

    Requires h triadic with, additionally,
    1. h constant on every level-(j+1) cell, and
    2. every value below 2**(j+1) an exact power 2**j' with j' <= j.

    Returns (ok, reason).
    """
    tri, witness = is_triadic_fn(h)
    if not tri:
        return False, "not triadic at (level, cell)=%r" % (witness,)
    size = grid_size(j + 1)
    for n in h.nums[:-1]:
        if (n * size) % h.den:
            return False, "not constant on level-%d cells (breakpoint %s)" % (
                j + 1, format_lattice_point(n, h.den))
    limit = 2 ** (j + 1)
    for v in h.values:
        if limit <= v:
            continue
        if not _is_exact_pow2_leq(v, j):
            return False, "value %r below %d is not a power 2**j' with j' <= %d" % (
                v, limit, j)
    return True, None


def _is_exact_pow2_leq(v, j: int) -> bool:
    for jp in range(j + 1):
        if v == 2 ** jp:
            return True
    return False


def type_level_representation(h: StepFunction, j: int):
    """Excess decomposition of a level-j normal form.

    For each level-j cell inside (h >= 2**j), the part of h - 2**j above
    2**j decomposes over the level-(j+1) cells where h >= 2**(j+1):

        (h - 2**j) 1_cell = sum_k (2**j + a_k) 1_{subcell(k)},  a_k >= 0.

    Returns a list of (m, [(n, a_k), ...]) with m the level-j cell index
    and n the level-(j+1) cell indices.  Raises if the number of listed
    subcells would be astronomically large.
    """
    ok, reason = is_type_level(h, j)
    if not ok:
        raise ValueError("not a level-%d normal form: %s" % (j, reason))
    wj = grid_width(j)
    wj1 = grid_width(j + 1)
    sizej = grid_size(j)
    out = {}
    count = 0
    for lo, hi in h.level_set_ge(2 ** (j + 1)):
        ncells = (hi - lo) / wj1
        count += int(ncells)
        if count > MAX_REPRESENTATION_CELLS:
            raise ValueError("representation too large to materialize "
                             "(more than %d cells)" % MAX_REPRESENTATION_CELLS)
        n0 = int(lo / wj1)
        for k in range(int(ncells)):
            n = n0 + k
            cell_lo = n * wj1
            v = h.eval(cell_lo + wj1)
            a_k = v - 2 * (2 ** j)  # v - 2**j - 2**j
            m = (cell_lo.numerator * sizej) // cell_lo.denominator
            out.setdefault(m, []).append((n, a_k))
    return sorted(out.items())
