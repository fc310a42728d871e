"""L2 vectors with external coordinates, and orthogonal processes.

An :class:`OrthoVector` is a function on [0,1) (stored as a step
function; pointwise statements hold on piece interiors) plus a sparse
coordinate vector over an abstract orthonormal family indexed by
integers.  Abstract coordinates are realized as unit vectors with
mutually disjoint supports off [0,1); under that representation contract
pointwise maxima on [0,1) come from the body part alone, while every
norm and inner product includes the external part.

An :class:`OrthoProcess` maps the points of a time set to vectors with
prescribed increment norms: ``unit`` scaling means
||X(t)-X(s)||**2 = t-s, ``simple`` scaling means
||X(t)-X(s)||**2 = 3*24**2 * lambda([s,t] cap D) over a carrier D.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .exactnum import exact_sqrt, value_to_json
from .info import PointSet
from .stepfn import StepFunction, grid_size, grid_width

__all__ = [
    "OrthoVector",
    "IdAllocator",
    "OrthoProcess",
    "ProductProcess",
    "gram_check",
    "maximal_function",
    "exceedance_measure",
    "menshov_bound_check",
    "m_grid",
    "SIMPLE_FACTOR",
]

ZERO = Fraction(0)
ONE = Fraction(1)
SIMPLE_FACTOR = 3 * 24 * 24  # increment normalization of simple processes


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
    def basis(cls, i: int, coeff=1) -> "OrthoVector":
        return cls(ext={i: coeff})

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
        return self.inner(self)

    def norm(self, exact: bool = False):
        s = self.norm_sq()
        return exact_sqrt(s) if exact else math.sqrt(float(s))

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
    """Vectors indexed by the points of a time set.

    mode 'unit':   ||X(t)-X(s)||**2 = t - s,
    mode 'simple': ||X(t)-X(s)||**2 = SIMPLE_FACTOR * lambda([s,t] cap D),
    with D a finite union of closed intervals given as (lo, hi) pairs.
    """

    def __init__(self, times, vectors: dict, mode: str = "unit", carrier=None):
        self.times = tuple(sorted(Fraction(t) for t in times))
        if not self.times:
            raise ValueError("a process needs at least one time point")
        self.vectors = {Fraction(t): v for t, v in vectors.items()}
        for t in self.times:
            if t not in self.vectors:
                raise ValueError("missing vector at time %s" % t)
        if mode not in ("unit", "simple"):
            raise ValueError("mode must be 'unit' or 'simple'")
        self.mode = mode
        self.carrier = tuple((Fraction(a), Fraction(b)) for a, b in carrier) \
            if carrier else ((self.times[0], self.times[-1]),)

    def __getitem__(self, t):
        return self.vectors[Fraction(t)]

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
        if self.mode == "unit":
            return abs(Fraction(t) - Fraction(s))
        return SIMPLE_FACTOR * self.carrier_measure_between(s, t)

    def to_unit(self) -> "OrthoProcess":
        """Rescale a simple process to unit increments (divide by 24 sqrt 3)."""
        if self.mode == "unit":
            return self
        factor = 1 / (24 * exact_sqrt(3))
        out = OrthoProcess(self.times,
                           {t: self.vectors[t] * factor for t in self.times},
                           mode="unit", carrier=self.carrier)
        return out

    def to_json(self):
        return {
            "mode": self.mode,
            "carrier": [[str(a), str(b)] for a, b in self.carrier],
            "times": [str(t) for t in self.times],
            "vectors": {str(t): self.vectors[t].to_json() for t in self.times},
        }


def gram_check(X: OrthoProcess):
    """Largest deviation |  ||X(t)-X(s)||**2 - expected  | over all pairs.

    Exact zero is achievable (and asserted in tests) for constructed
    processes; returns the deviation as an exact number when possible
    (the Fraction 0 when every pair matches).
    """
    worst = ZERO
    ts = X.times
    for i in range(len(ts)):
        for k in range(i + 1, len(ts)):
            d = X.vectors[ts[k]] - X.vectors[ts[i]]
            dev = d.norm_sq() - X.expected_increment_sq(ts[i], ts[k])
            if dev != 0:
                dev = dev if 0 <= dev else -dev
                if worst <= dev:
                    worst = dev
    return worst


def maximal_function(X: OrthoProcess, subset=None, absolute: bool = False,
                     baseline=None) -> StepFunction:
    """Pointwise max over time of the body parts (optionally |.|).

    ``subset`` restricts the times; ``baseline`` subtracts a fixed vector
    first.  External coordinates do not enter (they live off [0,1) under
    the representation contract); :func:`m_grid` adds their contribution
    to the L2 norm of the maximum.
    """
    times = X.times if subset is None else [t for t in X.times if t in subset]
    if not times:
        return StepFunction.constant(0)
    out = None
    for t in times:
        v = X.vectors[t]
        body = v.body if baseline is None else (v - baseline).body
        if absolute:
            body = body.abs()
        out = body if out is None else out.maximum(body)
    return out


def exceedance_measure(m: StepFunction, y, window=None, strict: bool = False):
    """lambda({max >= y}) (or > y), optionally within a window (lo, hi]."""
    f = m if window is None else m.restrict(*window)
    return f.measure_gt(y) if strict else f.measure_ge(y)


def _max_abs_ext(vectors) -> dict:
    out = {}
    for v in vectors:
        for i, c in v.ext.items():
            a = c if 0 <= c else -c
            if i not in out or out[i] <= a:
                out[i] = a
    return out


def menshov_bound_check(vectors, tol: float = 1e-9):
    """Maximal-partial-sum bound for finitely many orthogonal vectors.

    Returns (lhs, rhs) with lhs = || max_n |Y_1+...+Y_n| ||**2 and
    rhs = k**2 * sum ||Y_n||**2, k = log2(N) + 1; raises when the input
    is not pairwise orthogonal, asserts lhs <= rhs.
    """
    n = len(vectors)
    if n == 0:
        raise ValueError("need at least one vector")
    for i in range(n):
        for k in range(i + 1, n):
            ip = vectors[i].inner(vectors[k])
            if abs(float(ip)) > tol:
                raise ValueError("vectors %d and %d are not orthogonal" % (i, k))
    partial = []
    acc = None
    for v in vectors:
        acc = v if acc is None else acc + v
        partial.append(acc)
    body_max = None
    for p in partial:
        b = p.body.abs()
        body_max = b if body_max is None else body_max.maximum(b)
    lhs = body_max.integral_sq()
    for i, a in _max_abs_ext(partial).items():
        lhs = lhs + a * a
    k = math.log2(n) + 1
    rhs = k * k * sum(float(v.norm_sq()) for v in vectors)
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
        body_max = None
        for d in diffs:
            b = d.body.abs()
            body_max = b if body_max is None else body_max.maximum(b)
        nsq = body_max.integral_sq()
        for i, a in _max_abs_ext(diffs).items():
            nsq = nsq + a * a
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
    pointwise values (representation contract).
    """

    def __init__(self, blocks, cuts):
        if not blocks:
            raise ValueError("need at least one block")
        if len(blocks) > 4:
            raise ValueError("product budget: at most 4 factors")
        cuts = [Fraction(c) for c in cuts]
        if len(cuts) != len(blocks) + 1 or any(
                cuts[i] <= cuts[i + 1] for i in range(len(cuts) - 1)):
            raise ValueError("cuts must be strictly decreasing, one more than blocks")
        self.blocks = list(blocks)
        self.cuts = cuts

    def factor_final(self, s) -> OrthoVector:
        blk = self.blocks[s]
        return blk.vectors[blk.times[-1]]

    def factor_max_event_measure(self, s, y, absolute: bool = False):
        """lambda(w_s : max over t of X_s(t)(w_s) >= y), bodies only;
        set absolute=True for the |.| variant."""
        m = maximal_function(self.blocks[s], absolute=absolute)
        return m.measure_ge(y)

    def oscillation_exceedance(self, y, absolute: bool = False):
        """Product measure of {some factor oscillates to >= y}.

        Factors are independent, so the measure is
        1 - prod_s (1 - lambda(factor-s event)).
        """
        miss = Fraction(1)
        per_block = []
        for s in range(len(self.blocks)):
            p = self.factor_max_event_measure(s, y, absolute=absolute)
            per_block.append(p)
            miss *= (1 - p)
        return 1 - miss, per_block

    def max_exceedance(self, y, absolute: bool = False):
        """Exact product measure of {max over all times |X(t)(w)| >= y}.

        Iterates the product of the per-factor body partitions; with at
        most 4 small factors the atom count stays modest.
        """
        piecewise = []
        for s, blk in enumerate(self.blocks):
            cuts = set()
            for t in blk.times:
                cuts.update(blk.vectors[t].body.breakpoints)
            cuts = sorted(cuts)
            pieces = []
            lo = ZERO
            for b in cuts:
                pieces.append((lo, b))
                lo = b
            piecewise.append(pieces)
        total = ZERO
        for combo in itertools.product(*piecewise):
            measure = Fraction(1)
            for lo, hi in combo:
                measure *= hi - lo
            if measure == 0:
                continue
            mx = None
            for s, blk in enumerate(self.blocks):
                shift = ZERO
                for sp in range(s + 1, len(self.blocks)):
                    shift = shift + self.factor_final(sp).body.eval(combo[sp][1])
                fhi = combo[s][1]
                for t in blk.times:
                    val = blk.vectors[t].body.eval(fhi) + shift
                    if absolute:
                        val = val if 0 <= val else -val
                    if mx is None or mx <= val:
                        mx = val
            if y <= mx:
                total += measure
        return total
