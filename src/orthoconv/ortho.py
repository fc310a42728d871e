"""L2 vectors with external coordinates, and orthogonal processes.

An :class:`OrthoVector` is a function on [0,1) (stored as a step
function; pointwise statements hold on piece interiors) plus a sparse
coordinate vector over an abstract orthonormal family indexed by
integers.  Abstract coordinates are realized as unit vectors with
mutually disjoint supports off [0,1); under that representation contract
pointwise maxima on [0,1) come from the body part alone, while every
norm and inner product includes the external part.  Gram matrices of
exact vectors come from one integer kernel, :func:`gram_matrix`.

An :class:`OrthoProcess` maps the points of a time set to vectors with
the increment norms ||X(t)-X(s)||**2 = 3*24**2 * lambda([s,t] cap D) over
a carrier D (the ``simple`` scaling of the constructions).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import mul

from .exactnum import _from_int_terms, _key_product, _terms_of, value_to_json
from .info import PointSet
from .stepfn import StepFunction, grid_size, grid_width

__all__ = [
    "OrthoVector",
    "IdAllocator",
    "OrthoProcess",
    "ProductProcess",
    "gram_matrix",
    "gram_check",
    "maximal_function",
    "menshov_bound_check",
    "m_grid",
    "SIMPLE_FACTOR",
    "PRODUCT_MAX_FACTORS",
]

ZERO = Fraction(0)
SIMPLE_FACTOR = 3 * 24 * 24  # increment normalization of simple processes
PRODUCT_MAX_FACTORS = 4  # factor budget of ProductProcess and divergent_prefix


class IdAllocator:
    """Deterministic source of fresh external coordinate ids."""

    def __init__(self, start: int = 0):
        self.next_id = start

    @classmethod
    def after(cls, *vectors) -> "IdAllocator":
        top = -1
        for v in vectors:
            for i in v.ext:
                top = max(top, i)
        return cls(top + 1)

    def fresh(self) -> int:
        out = self.next_id
        self.next_id += 1
        return out


class OrthoVector:
    """body + sum of ext[i] * e_i over the abstract orthonormal family."""

    __slots__ = ("body", "ext")

    def __init__(self, body: StepFunction = None, ext: dict = None):
        self.body = body if body is not None else StepFunction.constant(0)
        self.ext = {i: c for i, c in (ext or {}).items() if c != 0}

    @classmethod
    def basis(cls, i: int) -> "OrthoVector":
        return cls(ext={i: 1})

    def __add__(self, other):
        ext = dict(self.ext)
        for i, c in other.ext.items():
            ext[i] = ext.get(i, 0) + c
        return OrthoVector(self.body + other.body, ext)

    def __sub__(self, other):
        ext = dict(self.ext)
        for i, c in other.ext.items():
            ext[i] = ext.get(i, 0) - c
        return OrthoVector(self.body - other.body, ext)

    def __mul__(self, scalar):
        return OrthoVector(self.body * scalar,
                           {i: c * scalar for i, c in self.ext.items()})

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def inner(self, other):
        total = self.body.inner(other.body)
        for i, c in self.ext.items():
            if i in other.ext:
                total = total + c * other.ext[i]
        return total

    def norm_sq(self):
        (row,) = gram_matrix([self])
        return row[0]

    def is_zero(self) -> bool:
        return (not self.ext) and all(v == 0 for v in self.body.values)

    def equals(self, other) -> bool:
        return (self - other).is_zero()

    def body_support_in(self, lo, hi) -> bool:
        """True when the body vanishes outside (lo, hi]."""
        for plo, phi, v in self.body.pieces():
            if v == 0:
                continue
            if plo < Fraction(lo) or phi > Fraction(hi):
                return False
        return True

    def to_json(self):
        return {
            "body": self.body.to_json(),
            "ext": {str(i): value_to_json(c) for i, c in sorted(self.ext.items())},
        }


class OrthoProcess:
    """Vectors indexed by the points of a time set, with
    ||X(t)-X(s)||**2 = SIMPLE_FACTOR * lambda([s,t] cap D), D the carrier:
    a finite union of closed intervals given as (lo, hi) pairs.
    """

    def __init__(self, times, vectors: dict, carrier):
        self.times = tuple(sorted(Fraction(t) for t in times))
        if not self.times:
            raise ValueError("a process needs at least one time point")
        self.vectors = {Fraction(t): v for t, v in vectors.items()}
        for t in self.times:
            if t not in self.vectors:
                raise ValueError("missing vector at time %s" % t)
        self.carrier = tuple((Fraction(a), Fraction(b)) for a, b in carrier)

    def carrier_measure_between(self, s, t):
        s, t = Fraction(s), Fraction(t)
        if t < s:
            s, t = t, s
        total = ZERO
        for a, b in self.carrier:
            lo, hi = max(a, s), min(b, t)
            if hi > lo:
                total += hi - lo
        return total

    def expected_increment_sq(self, s, t):
        return SIMPLE_FACTOR * self.carrier_measure_between(s, t)

    def to_json(self):
        return {
            "mode": "simple",  # the one scaling, named as the reports always have
            "carrier": [[str(a), str(b)] for a, b in self.carrier],
            "times": [str(t) for t in self.times],
            "vectors": {str(t): self.vectors[t].to_json() for t in self.times},
        }


def gram_matrix(vectors):
    """Upper triangle of the Gram matrix, one row at a time.

    Yields, for each i, the list of ``vectors[i].inner(vectors[j])`` for
    j = i..n-1, equal in value and type to those pairwise inner products.
    Exact vectors (int, Fraction and RootSum values) are computed on
    integers: the bodies sit on one lattice 1/D, every value is split into
    its squarefree components with int numerators over one denominator Q,
    and an entry collects, for each pair of keys, the integral of the
    product of the two components plus D times the dot product of their
    external maps, all in units of 1/(Q*Q*D).  The body integral of u*v is
    the sum over v's breakpoints of the prefix integral of u times the jump
    of v there.  One Fraction (or RootSum) is built per entry.  Any other
    value, such as a float, raises TypeError before the first row.
    """
    vectors = list(vectors)
    bodies, exts = [], []
    for v in vectors:
        body = [_terms_of(a) for a in v.body.values]
        ext = [(i, _terms_of(c)) for i, c in v.ext.items()]
        if any(p is None for p in body) or any(p is None for _, p in ext):
            raise TypeError("gram_matrix takes int, Fraction and RootSum values only")
        bodies.append(body)
        exts.append(ext)
    D = math.lcm(*(v.body.den for v in vectors))
    Q = math.lcm(*{q.denominator for parts in bodies for p in parts for _, q in p},
                 *{q.denominator for ext in exts for _, p in ext for _, q in p})
    nums = [[n * (D // v.body.den) for n in v.body.nums] for v in vectors]
    points = sorted({0}.union(*nums))
    where = {n: m for m, n in enumerate(points)}
    lengths = [b - a for a, b in zip(points, points[1:])]

    # per vector and key: piece values, the jumps at breakpoints (point
    # indices and int jumps) and the external map
    pieces, jumps, coords = [], [], []
    for ns, body, ext in zip(nums, bodies, exts):
        ends = [where[n] for n in ns]
        keyed = {}
        for k, parts in enumerate(body):
            for d, q in parts:
                keyed.setdefault(d, [0] * len(ends))[k] = q.numerator * (Q // q.denominator)
        pieces.append((ends, keyed))
        col = []
        for d, vals in keyed.items():
            idx, steps = [], []
            for m, a, b in zip(ends, vals, vals[1:] + [0]):
                if a != b:
                    idx.append(m)
                    steps.append(a - b)
            col.append((d, idx, steps))
        jumps.append(col)
        keyed_ext = {}
        for i, parts in ext:
            for d, q in parts:
                keyed_ext.setdefault(d, {})[i] = q.numerator * (Q // q.denominator)
        coords.append(list(keyed_ext.items()))

    den = Q * Q * D
    zeros = itertools.repeat(0)
    for i, (ends, keyed) in enumerate(pieces):
        prefix = []  # (key, lookup of the prefix integral at a point index)
        for d, vals in keyed.items():
            dense, prev = [], 0
            for m, a in zip(ends, vals):
                dense += [a] * (m - prev)
                prev = m
            F = list(itertools.accumulate(map(mul, dense, lengths), initial=0))
            prefix.append((d, F.__getitem__))
        ext_i = [(d, e.get) for d, e in coords[i]]
        row = []
        for col, ext_j in zip(jumps[i:], coords[i:]):
            acc = {}
            for d1, at in prefix:
                for d2, idx, steps in col:
                    s = sum(map(mul, map(at, idx), steps))
                    if s:
                        d, g = _key_product(d1, d2)
                        acc[d] = acc.get(d, 0) + g * s
            for d1, get in ext_i:
                for d2, e in ext_j:
                    # row i's coefficient at each id of e, 0 where it has none
                    s = sum(map(mul, map(get, e, zeros), e.values()))
                    if s:
                        d, g = _key_product(d1, d2)
                        acc[d] = acc.get(d, 0) + g * D * s
            row.append(_from_int_terms(acc, den))
        yield row


def gram_check(X: OrthoProcess):
    """Largest deviation |  ||X(t)-X(s)||**2 - expected  | over all pairs.

    Exact zero is achievable (and asserted in tests) for constructed
    processes; returns the deviation as an exact number (the Fraction 0
    when every pair matches).  The squared increment norm
    is G[k][k] + G[i][i] - 2 G[i][k] from the Gram matrix of the process,
    which for exact vectors is the value of the pairwise difference, and
    the expected value is additive in time.
    """
    worst = ZERO
    ts = X.times
    rows = list(gram_matrix([X.vectors[t] for t in ts]))
    expected = [X.expected_increment_sq(ts[0], t) for t in ts]
    # deviation(i, k) = (G[k][k] - E[k]) + (G[i][i] + E[i]) - 2 G[i][k]
    ahead = [row[0] - e for row, e in zip(rows, expected)]
    for i, row in enumerate(rows):
        behind = row[0] + expected[i]
        for k in range(i + 1, len(ts)):
            dev = ahead[k] + behind - 2 * row[k - i]
            if dev != 0:
                dev = dev if 0 <= dev else -dev
                if worst <= dev:
                    worst = dev
    return worst


def maximal_function(X: OrthoProcess) -> StepFunction:
    """Pointwise max over time of the body parts.

    External coordinates do not enter (they live off [0,1) under the
    representation contract); :func:`m_grid` adds their contribution to
    the L2 norm of the maximum.
    """
    out = None
    for t in X.times:
        body = X.vectors[t].body
        out = body if out is None else out.maximum(body)
    return out


def _max_abs(vectors):
    """(pointwise max of |body| over vectors, its squared L2 norm plus the
    square of each external coordinate's largest |value|)."""
    body_max = None
    ext = {}
    for v in vectors:
        b = v.body.abs()
        body_max = b if body_max is None else body_max.maximum(b)
        for i, c in v.ext.items():
            a = c if 0 <= c else -c
            if i not in ext or ext[i] <= a:
                ext[i] = a
    nsq = body_max.integral_sq()
    for a in ext.values():
        nsq = nsq + a * a
    return body_max, nsq


def menshov_bound_check(vectors):
    """Maximal-partial-sum bound for finitely many orthogonal vectors.

    Returns (lhs, rhs) with lhs = || max_n |Y_1+...+Y_n| ||**2 and
    rhs = k**2 * sum ||Y_n||**2, k = log2(N) + 1; raises when the input
    is not pairwise orthogonal, asserts lhs <= rhs.
    """
    n = len(vectors)
    if n == 0:
        raise ValueError("need at least one vector")
    norms = []
    for i, row in enumerate(gram_matrix(vectors)):
        norms.append(row[0])
        for k, ip in enumerate(row[1:], i + 1):
            if ip != 0:
                raise ValueError("vectors %d and %d are not orthogonal" % (i, k))
    partial = []
    acc = None
    for v in vectors:
        acc = v if acc is None else acc + v
        partial.append(acc)
    lhs = _max_abs(partial)[1]
    k = math.log2(n) + 1
    rhs = k * k * sum(float(s) for s in norms)
    if float(lhs) > rhs * (1 + 1e-12) + 1e-12:
        raise AssertionError("maximal bound violated: %s > %s" % (lhs, rhs))
    return float(lhs), rhs


def m_grid(X: OrthoProcess, B: PointSet, j: int):
    """Per-cell maximal oscillations at grid level j.

    For each level-j cell with interior points of B, the maximum over
    the cell's B-points of |X(t) - X(cell start)|; cells without
    interior B-points report zero (their record is omitted).  Returns a
    list of (n, body of the max, squared norm including external parts).
    """
    w = grid_width(j)
    size = grid_size(j)
    out = []
    pts = list(B.points)
    for n in _cells_with_interior_points(pts, size):
        lo = n * w
        hi = lo + w
        cell_pts = [t for t in pts if lo <= t <= hi and t in X.vectors]
        if Fraction(lo) not in X.vectors:
            raise ValueError("process missing the cell-start time %s" % lo)
        base = X.vectors[Fraction(lo)]
        diffs = [X.vectors[t] - base for t in cell_pts]
        body_max, nsq = _max_abs(diffs)
        out.append((n, body_max, nsq))
    return out


def _cells_with_interior_points(pts, size: int):
    seen = []
    for t in pts:
        num = t.numerator * size
        if num % t.denominator:
            n = num // t.denominator
            if not seen or seen[-1] != n:
                seen.append(n)
    return seen


class ProductProcess:
    """Finite product-space glueing of independent block processes.

    Factor s lives on the time block (cuts[s+1], cuts[s]] with its own
    coordinate; for a time t in block s the value at a product point is

        X_s(t)(w_s) + sum over s' > s of (final value of X_{s'})(w_{s'}).

    Bodies only: external coordinates of the factors do not contribute to
    pointwise values (representation contract).  So a factor enters by
    its maximal function alone: ``maxima[s]`` is that of X_s.
    """

    def __init__(self, maxima, cuts):
        if not maxima:
            raise ValueError("need at least one block")
        if len(maxima) > PRODUCT_MAX_FACTORS:
            raise ValueError("product budget: at most %d factors" % PRODUCT_MAX_FACTORS)
        cuts = [Fraction(c) for c in cuts]
        if len(cuts) != len(maxima) + 1 or any(
                cuts[i] <= cuts[i + 1] for i in range(len(cuts) - 1)):
            raise ValueError("cuts must be strictly decreasing, one more than blocks")
        self.maxima = list(maxima)
        self.cuts = cuts

    def oscillation_exceedance(self, y):
        """Product measure of {some factor oscillates to >= y}.

        Factors are independent, so the measure is 1 - prod_s (1 - p_s),
        with p_s = lambda(w_s : max over t of X_s(t)(w_s) >= y), read from
        the maximal function of factor s.
        """
        miss = Fraction(1)
        per_block = []
        for m in self.maxima:
            p = m.measure_ge(y)
            per_block.append(p)
            miss *= (1 - p)
        return 1 - miss, per_block
