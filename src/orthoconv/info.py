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

from .exactnum import floor_log2, format_rational, log_ratio, parse_rational
from .stepfn import StepFunction, format_lattice, grid_size, grid_width, lattice_of

__all__ = [
    "CoefficientSeq",
    "PointSet",
    "tail_set",
    "info_fn",
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
    '0.25'.  The squares are held on the integer lattice of ``stepfn``:
    numerators ``nums`` over one reduced denominator ``den``.  ``squares``
    gives them as Fractions, built on first access, and ``square_floats``
    as floats, each ``n / den`` (correctly rounded, as ``float`` of the
    Fraction is).  The normalized form puts the numerators over their sum,
    so its squares sum to 1 exactly.  Whether every coefficient is
    nonnegative is decided once, on the signed numerators.  The normalized
    form, the tail set, the nonzero terms and their slice sums are built
    once, on first use, and kept.
    """

    def __init__(self, coeffs):
        vals = [parse_rational(c) for c in coeffs]
        if not vals:
            raise ValueError("empty coefficient sequence")
        # lcm(q_i)**2 = lcm(q_i**2), and it stays reduced for the squares.
        # The square (p/q)**2 sits on it as p*p * (den2 // (q*q)): one
        # division of the wide den2 by a small int, where squaring the
        # lattice numerator p * (den // q) would multiply two wide ints.
        den2 = math.lcm(*(v.denominator for v in vals)) ** 2
        nums = [v.numerator ** 2 * (den2 // v.denominator ** 2) for v in vals]
        # on a reduced lattice gcd(nums) is the gcd of the reduced numerators
        g = math.gcd(*(v.numerator for v in vals))
        self._set(den2, nums, all(v.numerator >= 0 for v in vals), g * g)

    @classmethod
    def from_squares(cls, squares):
        """Build from exact squared moduli (values used by every criterion)."""
        sq = [parse_rational(s) for s in squares]
        if not sq:
            raise ValueError("empty coefficient sequence")
        if any(s < 0 for s in sq):
            raise ValueError("squares must be nonnegative")
        obj = cls.__new__(cls)
        obj._set(*lattice_of(sq), True, math.gcd(*(s.numerator for s in sq)))
        obj._squares = tuple(sq)
        return obj

    def _set(self, den, nums, nonneg, num_gcd):
        self.den = den
        self.nums = tuple(nums)
        self._sum = sum(self.nums)
        self._nonneg = nonneg
        self._num_gcd = num_gcd
        # built on first use
        self._squares = self._floats = self._neg_log2 = None
        self._normal = self._tails = self._terms = self._slices = None

    @property
    def squares(self):
        if self._squares is None:
            den = self.den
            self._squares = tuple(Fraction(n, den) for n in self.nums)
        return self._squares

    @property
    def total(self) -> Fraction:
        return Fraction(self._sum, self.den)

    def square_floats(self):
        if self._floats is None:
            den = self.den
            self._floats = tuple(n / den for n in self.nums)
        return self._floats

    def neg_log2_moduli(self):
        """The float -log2 |a_n| = -0.5 log2(n / den) per term, or None for
        a zero term; computed as for the reduced Fraction also where the
        square is below the float range.  Block decisions on these values
        are made on the integers ``nums`` and ``den`` instead.
        """
        if self._neg_log2 is None:
            den = self.den
            self._neg_log2 = tuple(-0.5 * log_ratio(n, den, math.log2) if n else None
                                   for n in self.nums)
        return self._neg_log2

    def nonzero_terms(self) -> tuple:
        """(n, num, s, z) for every nonzero term a_n, in order: num / den
        the exact square, s its float and z the float -log2 |a_n|."""
        if self._terms is None:
            self._terms = tuple(
                (n, num, s, z) for n, (num, s, z) in
                enumerate(zip(self.nums, self.square_floats(), self.neg_log2_moduli()), start=1)
                if num)
        return self._terms

    def slice_sums(self) -> tuple:
        """The slice sums of the nonzero terms (see ``_slice_sums``)."""
        if self._slices is None:
            self._slices = tuple(_slice_sums(self.nonzero_terms()))
        return self._slices

    def nonnegative(self) -> bool:
        """Whether every coefficient a_n >= 0."""
        return self._nonneg

    def __len__(self):
        return len(self.nums)

    def normalized(self) -> "CoefficientSeq":
        """Rescale so that the squares sum to 1 exactly.

        The result's coefficients are the moduli |a_n|: every criterion
        reads the squares only, and the slice criteria need a_n >= 0.
        """
        if self._sum == self.den and self._nonneg:
            return self
        if self._normal is None:
            if self._sum == 0:
                raise ValueError("cannot normalize the zero sequence")
            # the gcd of the numerators divides their sum; after it the lattice is reduced
            g = self._num_gcd
            self._normal = CoefficientSeq.__new__(CoefficientSeq)
            nums = self.nums if g == 1 else [n // g for n in self.nums]
            self._normal._set(self._sum // g, nums, True, 1)
        return self._normal

    def moduli_decreasing(self) -> bool:
        nums = self.nums
        return all(nums[i] >= nums[i + 1] for i in range(len(nums) - 1))


class PointSet:
    """Sorted set of exact rationals in [0,1] containing 0 and 1.

    Held on the integer lattice of ``stepfn``: a reduced denominator
    ``den`` and the strictly increasing numerators ``nums``, from 0 to
    ``den``.  ``points`` gives the Fractions, built on first access.
    """

    def __init__(self, points):
        pts = sorted({Fraction(p) for p in points})
        if not pts or pts[0] != ZERO or pts[-1] != ONE:
            raise ValueError("a point set must contain 0 and 1")
        den, nums = lattice_of(pts)
        self._set(den, nums)
        self._points = tuple(pts)

    @classmethod
    def from_lattice(cls, den: int, nums) -> "PointSet":
        """Set of n / den for strictly increasing nums from 0 to den, den reduced."""
        if not nums or nums[0] != 0 or nums[-1] != den:
            raise ValueError("a point set must contain 0 and 1")
        obj = cls.__new__(cls)
        obj._set(den, nums)
        return obj

    def _set(self, den, nums):
        self.den = den
        self.nums = tuple(nums)
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

    def restrict(self, lo, hi) -> tuple:
        lo, hi = Fraction(lo), Fraction(hi)
        return tuple(p for p in self.points if lo <= p <= hi)

    def to_json(self):
        return format_lattice(self.den, self.nums)

    @classmethod
    def from_json(cls, data):
        return cls([parse_rational(p) for p in data])


def tail_set(seq: CoefficientSeq) -> PointSet:
    """Tail sums of the squared coefficients, plus 0, normalized to sum 1.

    The normalized squares sit on a reduced lattice over their sum; the
    tails are then integers over it, already monotone and reduced, and
    zero coefficients give repeated tails that are kept once.  The set is
    built once and kept on ``seq.normalized()``; later calls return it.
    """
    seq = seq.normalized()
    if seq._tails is None:
        nums = [0]
        tail = 0
        for s in reversed(seq.nums):
            tail += s
            if tail != nums[-1]:
                nums.append(tail)
        seq._tails = PointSet.from_lattice(seq.den, nums)
    return seq._tails


def _slice_sums(terms) -> list:
    """sum_n s_n z_n,i**2 for the slices i >= 0, in the order of the
    terms, tuples that end in the weight s and z; slice 0 is z ^ 2.

    A term adds to the slices i >= 1 below its top only, those with
    z > 2**i: above it z_i = 0, and the additions skipped there are +0.0.
    """
    sums = [0.0]
    for *_, s, z in terms:
        sums[0] += s * min(z, 2.0) ** 2
        i, lo = 1, 2.0
        while z > lo:
            if i == len(sums):
                sums.append(0.0)
            hi = 2 * lo
            sums[i] += s * ((z if z < hi else hi) - lo) ** 2  # s * z_i**2
            i, lo = i + 1, hi
    return sums


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
    # a quotient that rounds to 1.0 gives log 0.0, and -0.0 is not an
    # information value: ``or`` turns it into 0.0
    return -log_ratio(gap, den) / math.log(base) or 0.0


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


def _cantor_lefts(depth: int, lat: int, lo: int = 0, hi=None) -> list:
    """Left ends of the depth-d Cantor intervals that meet [lo, hi], with
    the nearest interval on each side; every interval when hi is None.
    Points are numerators over lat, a multiple of 3**depth.

    Generation by generation, the children of the kept intervals are cut
    to the run that meets the window and one interval beyond it on each
    side: the run stays contiguous, so the gaps between kept intervals
    are the true gaps, and the ones that lo and hi cut are whole.
    """
    width = lat
    lefts = [0]
    for _ in range(depth):
        width //= 3
        lefts = [x for a in lefts for x in (a, a + 2 * width)]
        if hi is not None:
            # [x, x + width] meets [lo, hi] when x + width >= lo and x <= hi
            i = bisect.bisect_left(lefts, lo - width)
            j = bisect.bisect_right(lefts, hi)
            lefts = lefts[max(i - 1, 0):j + 1]
    return lefts


def cantor_points(depth: int) -> PointSet:
    """Endpoints of the depth-d middle-thirds construction."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    # the intervals have width 1 on the 3**depth lattice, so it is reduced
    den = 3 ** depth
    return PointSet.from_lattice(den, [x for a in _cantor_lefts(depth, den)
                                       for x in (a, a + 1)])


def cantor_info_fn(depth: int, lo=0, hi=1) -> StepFunction:
    """Depth-d truncation of the Cantor-set information function, times
    the indicator of (lo, hi].

    Value m on each removed middle third of generation m <= depth, and
    d on the 2**d surviving intervals (standing in for all the deeper,
    larger values).  A gap of generation m is 3**(d-m) surviving widths
    wide, so the values come from a table of d+1 widths.
    Only the intervals that meet [lo, hi], and the nearest one on each
    side, are built (see ``_cantor_lefts``), so the cost grows with the
    pieces in the window; the whole interval (0, 1] walks every piece.
    The result is ``cantor_info_fn(depth).restrict(lo, hi)``, built on
    the lattice lcm(3**d, lo.den, hi.den).
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    lo, hi = Fraction(lo), Fraction(hi)
    if not ZERO <= lo < hi <= ONE:
        raise ValueError("need 0 <= lo < hi <= 1")
    lat = math.lcm(3 ** depth, lo.denominator, hi.denominator)
    a = lo.numerator * (lat // lo.denominator)
    b = hi.numerator * (lat // hi.denominator)
    keep = () if (a, b) == (0, lat) else (a, b)  # () walks every interval
    s = lat // 3 ** depth  # the width of a surviving interval
    pts = [x for c in _cantor_lefts(depth, lat, *keep) for x in (c, c + s)]
    value = {s * 3 ** (depth - m): m for m in range(depth + 1)}
    # the kept points reach from at most a to at least b: the pieces that
    # end at pts[i..j-1], and the one cut by b, meet (a, b]
    i = bisect.bisect_right(pts, a)
    j = bisect.bisect_left(pts, b)
    nums = pts[i:j + 1]
    vals = [value[q - p] for p, q in zip(pts[i - 1:j], nums)]
    nums[-1] = b
    if a:
        nums.insert(0, a)
        vals.insert(0, 0)
    if b < lat:
        nums.append(lat)
        vals.append(0)
    return StepFunction.from_lattice(lat, nums, vals)


def floor_pow2(a):
    """Largest power 2**j <= a, for a >= 1; exponent returned too."""
    if not 1 <= a:
        raise ValueError("dyadic floor defined for values >= 1 only")
    j = floor_log2(a)
    return j, Fraction(1 << j)


def dyadic_floor(f: StepFunction) -> StepFunction:
    """Round every value down to a power of two: 2**j for 2**j <= v < 2**(j+1)."""
    return f.map_values(lambda v: floor_pow2(v)[1])


def dyadic_halffloor(f: StepFunction) -> StepFunction:
    """Half the dyadic floor: 2**(j-1) for 2**j <= v < 2**(j+1) (1/2 at j=0)."""
    return f.map_values(lambda v: floor_pow2(v)[1] / 2)


def _aligned(x: Fraction, size: int) -> bool:
    """True when x is an integer multiple of 1/size."""
    return (x.numerator * size) % x.denominator == 0


def is_triadic_fn(h: StepFunction):
    """Check the cell-alignment property of a bounded function h >= 1.

    For every j with 2**j <= max h, the level set (h >= 2**j) must be a
    union of level-j cells.  Returns (True, None) or (False, (j, n))
    with the first offending cell.  Works from the level-set boundaries,
    so no cell enumeration happens.
    """
    if not 1 <= h.min_value():
        raise ValueError("triadic functions must satisfy h >= 1")
    for j in range(floor_log2(h.max_value()) + 1):
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
                j + 1, format_lattice(h.den, [n])[0])
    limit = 2 ** (j + 1)
    for v in h.values:
        # h >= 1, so a value below the limit is in a band 2**j' with j' <= j
        if v < limit and v != 1 << floor_log2(v):
            return False, "value %r below %d is not a power 2**j' with j' <= %d" % (
                v, limit, j)
    return True, None


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
