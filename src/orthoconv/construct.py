"""Explicit orthogonal families and high-maximal-function processes.

The generator family of depth k consists of 3**k vectors

    phi_n = 3**-k (sqrt(3) chi + sum_{l=1..k} 3**l 1_(first l-1 ternary
            digits match n) * hat(digit_l - n_l)),

with hat(m) the mod-3 residue taken in {-1,0,1} and chi a unit vector
off the window.  The family is orthogonal with squared norm 3/3**k, sums
to sqrt(3) chi, and its running maxima equal the ternary digit-sum
function: the quantitative engine behind every construction here.

Complexity certificates wrap a carrier set D (union of closed intervals
with endpoints in the time set B) together with an achieved threshold y:
for any challenge window [a,b) and unit vector chi off the window, the
certificate builds a process on D cap B whose pointwise maximum beats
y/sqrt(b-a) outside a small exceptional part of the window, ends exactly
at 24*sqrt(3*lambda(D))*chi, and stays inside L2(window) + span(chi) +
fresh coordinates.  Certificates combine by disjoint union (merge) and
by equal-length nesting under a fresh generator family (nest); the
divergent-process builder drives those combiners along the dyadic floor
of the information function of B.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction

from .exactnum import RootSum, exact_sqrt, sqrt_float
from .info import PointSet, info_fn, dyadic_floor
from .ortho import (
    IdAllocator,
    OrthoProcess,
    OrthoVector,
    ProductProcess,
    gram_check,
    maximal_function,
)
from .stepfn import StepFunction

__all__ = [
    "TernaryContext",
    "hat_residue",
    "phi_family",
    "digit_sum_fn",
    "bernstein_check",
    "ComplexityCert",
    "trivial_cert",
    "grid_cert",
    "example_process",
    "merge",
    "nest",
    "corollary_union",
    "corollary_equal_blocks",
    "build_divergent",
    "divergent_prefix",
    "split_increment",
    "householder_family",
]

ZERO = Fraction(0)
ONE = Fraction(1)


def hat_residue(m: int) -> int:
    """Residue of m mod 3 folded into {-1, 0, 1} (2 maps to -1)."""
    r = m % 3
    return r if r < 2 else -1


def _digits(n: int, k: int):
    """Base-3 digits of n, most significant first, padded to length k."""
    out = []
    for _ in range(k):
        out.append(n % 3)
        n //= 3
    return out[::-1]


class TernaryContext:
    """Ternary digit functions to depth k on the unit interval.

    digit(l) is the l-th digit (1-based) as a step function taking
    values {0,1,2}, constant on cells of width 3**-l; pointwise
    statements hold on cell interiors under the half-open convention.
    """

    def __init__(self, k: int):
        if k < 0:
            raise ValueError("depth must be >= 0")
        self.k = k

    def digit(self, l: int) -> StepFunction:
        if not 1 <= l <= self.k:
            raise ValueError("digit index out of range")
        n = 3 ** l
        return StepFunction.from_cells([c % 3 for c in range(n)])

    def digit_indicator(self, l: int, value: int) -> StepFunction:
        n = 3 ** l
        return StepFunction.from_cells([1 if c % 3 == value else 0 for c in range(n)])

    def hat_of_digit(self, l: int, shift: int) -> StepFunction:
        """hat(digit_l - shift) as a step function."""
        n = 3 ** l
        return StepFunction.from_cells(
            [hat_residue(c % 3 - shift) for c in range(n)])


def digit_sum_fn(k: int) -> StepFunction:
    """Number of ternary digits equal to 1 among the first k digits."""
    if k == 0:
        return StepFunction.constant(0)
    vals = []
    for m in range(3 ** k):
        vals.append(sum(1 for d in _digits(m, k) if d == 1))
    return StepFunction.from_cells(vals)


def phi_family(k: int, chi: OrthoVector, window=(ZERO, ONE), scale=1,
               require_empty_body: bool = False):
    """The depth-k generator family transplanted onto a window.

    chi must be a unit vector whose body vanishes on the window (for the
    default window that means an empty body; pass
    ``require_empty_body=True`` to enforce the stricter form).  The
    bodies are rescaled by 1/sqrt(b-a) so that all inner products match
    the unit-window family; ``scale`` multiplies everything.

    Sparse construction: vector n has one body run per (digit position,
    differing digit) pair, so at most 2k+1 body pieces.
    """
    if k < 0 or k > 7:
        raise ValueError("depth must be in 0..7 (3**k vectors)")
    a, b = Fraction(window[0]), Fraction(window[1])
    if not ZERO <= a < b <= ONE:
        raise ValueError("bad window")
    if chi.norm_sq() != 1:
        raise ValueError("chi must be a unit vector")
    if require_empty_body and not chi.body_support_in(ONE, ONE):
        raise ValueError("chi must have an empty body")
    if not _body_vanishes_on(chi, a, b):
        raise ValueError("chi must vanish on the challenge window")
    w = b - a
    inv_sqrt_w = 1 / exact_sqrt(w)
    chi_coeff = scale * exact_sqrt(Fraction(3)) / (3 ** k)
    cellw = w / 3 ** k
    out = []
    for n in range(3 ** k):
        nd = _digits(n, k)
        runs = []  # (cell_lo_index, cell_count, value) in window cells
        for l in range(1, k + 1):
            base_prefix = 0
            for r in range(l - 1):
                base_prefix += nd[r] * 3 ** (k - 1 - r)
            span = 3 ** (k - l)
            for d in range(3):
                if d == nd[l - 1]:
                    continue
                lo_cell = base_prefix + d * span
                val = Fraction(3 ** l, 3 ** k) * hat_residue(d - nd[l - 1])
                runs.append((lo_cell, span, val))
        body = _body_from_runs(runs, a, cellw, scale * inv_sqrt_w)
        vec = OrthoVector(body) + chi_coeff * chi
        out.append(vec)
    return out


def _body_vanishes_on(v: OrthoVector, a, b) -> bool:
    for lo, hi, val in v.body.pieces():
        if val == 0:
            continue
        if hi > a and lo < b:
            return False
    return True


def _body_from_runs(runs, a, cellw, factor) -> StepFunction:
    """Assemble a window body from disjoint cell runs (zero elsewhere)."""
    pieces = sorted((lo, lo + cnt, val) for lo, cnt, val in runs)
    bps, vals = [], []
    pos = ZERO
    for lo_cell, hi_cell, val in pieces:
        lo = a + lo_cell * cellw
        hi = a + hi_cell * cellw
        if lo > pos:
            bps.append(lo)
            vals.append(0)
        bps.append(hi)
        vals.append(val * factor)
        pos = hi
    if pos < ONE:
        bps.append(ONE)
        vals.append(0)
    if not bps:
        return StepFunction.constant(0)
    return StepFunction(bps, vals)


def bernstein_check(k: int):
    """Exact lower-tail mass of the ones-digit count against e**(-k/144).

    Returns (tail, bound, ok) with tail = P(Bin(k, 1/3) < k/6) as an
    exact rational.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    tail = Fraction(0)
    j = 0
    while 6 * j < k:
        tail += Fraction(math.comb(k, j) * 2 ** (k - j), 3 ** k)
        j += 1
    bound = math.exp(-k / 144.0)
    return tail, bound, float(tail) <= bound


# ---------------------------------------------------------------------------
# orthogonal completions


def householder_family(head: OrthoVector, alphas, alloc: IdAllocator):
    """Orthonormal family (f_r) with sum_r alphas[r] * f_r = head.

    head must be a unit vector and (alphas) a unit coefficient vector.
    Realized through the reflection swapping the first coordinate with
    (alphas) over the basis (head, fresh ids); entries stay exact.
    """
    alphas = list(alphas)
    r_count = len(alphas)
    if r_count == 1:
        return [head]
    a1 = alphas[0]
    if a1 == 1:
        fam = [head]
        for _ in range(r_count - 1):
            fam.append(OrthoVector.basis(alloc.fresh()))
        return fam
    basis = [head] + [OrthoVector.basis(alloc.fresh()) for _ in range(r_count - 1)]
    denom = 1 - a1  # v.v / 2 with v = e_1 - alpha
    fam = []
    for r in range(r_count):
        vr = (1 - a1 if r == 0 else -alphas[r])
        vec = None
        for m in range(r_count):
            vm = (1 - a1 if m == 0 else -alphas[m])
            coeff = (1 if m == r else 0) - vm * vr / denom
            if coeff == 0:
                continue
            term = coeff * basis[m]
            vec = term if vec is None else vec + term
        fam.append(vec if vec is not None else 0 * head)
    return fam


def split_increment(vec: OrthoVector, sublengths, alloc: IdAllocator):
    """Orthogonal parts of vec with squared norms proportional to sublengths.

    Returns u_1..u_R with sum u_r = vec exactly, <u_r, u_p> = 0 and
    ||u_r||**2 = (sub_r / total) * ||vec||**2.  Zero sublengths give zero
    parts.
    """
    subs = [Fraction(s) for s in sublengths]
    total = sum(subs, start=ZERO)
    if total <= 0:
        raise ValueError("need positive total length")
    norm_sq = vec.norm_sq()
    norm = exact_sqrt(norm_sq)
    pos = [i for i, s in enumerate(subs) if s > 0]
    alphas = [exact_sqrt(subs[i] / total) for i in pos]
    unit = vec * (1 / norm)
    fam = householder_family(unit, alphas, alloc)
    out = [OrthoVector() for _ in subs]
    for alpha, f, i in zip(alphas, fam, pos):
        out[i] = (norm * alpha) * f
    return out


# ---------------------------------------------------------------------------
# complexity certificates


class ComplexityCert:
    """Carrier set with an achieved maximal-function threshold.

    intervals: disjoint closed intervals (lo, hi) with endpoints in B.
    y_sq: the square of the certified threshold gain y >= 0, exact in a
    multiquadratic field (``merge`` takes y = sqrt(sum y_l**2), which
    may lie outside it); thresholds are compared by their squares, and
    :attr:`y` is the root itself.  eps is the nominal failure fraction
    carried by the combination rules, kept for reporting only --
    verification always measures the achieved failure exactly.
    """

    def __init__(self, B: PointSet, intervals, y_sq, eps, kind, builder,
                 children=(), y=None):
        raw = sorted((Fraction(lo), Fraction(hi)) for lo, hi in intervals)
        for (l1, h1), (l2, h2) in zip(raw, raw[1:]):
            if h1 > l2:
                raise ValueError("carrier intervals must have disjoint interiors")
        ivs = []
        for lo, hi in raw:
            if hi <= lo:
                raise ValueError("degenerate carrier interval")
            if lo not in B or hi not in B:
                raise ValueError("carrier endpoints must lie in the time set")
            if ivs and ivs[-1][1] == lo:
                ivs[-1] = (ivs[-1][0], hi)
            else:
                ivs.append((lo, hi))
        self.B = B
        self.intervals = tuple(ivs)
        self.y_sq = y_sq
        self._y = y
        self.eps = eps
        self.kind = kind
        self._builder = builder
        self.children = tuple(children)

    @property
    def measure(self) -> Fraction:
        return sum((hi - lo for lo, hi in self.intervals), start=ZERO)

    @property
    def y(self):
        """The threshold sqrt(y_sq); raises ValueError where that root
        lies outside every multiquadratic field (see ``exact_sqrt``)."""
        if self._y is None:
            self._y = exact_sqrt(self.y_sq)
        return self._y

    def times(self):
        pts = set()
        for lo, hi in self.intervals:
            pts.update(self.B.restrict(lo, hi))
        return sorted(pts)

    def final_target(self, chi: OrthoVector) -> OrthoVector:
        return (24 * exact_sqrt(3 * self.measure)) * chi

    def witness(self, a, b, chi: OrthoVector, alloc: IdAllocator = None) -> OrthoProcess:
        """Build the challenge process for the window [a,b) and unit chi."""
        if alloc is None:
            alloc = IdAllocator.after(chi)
        a, b = Fraction(a), Fraction(b)
        vectors = self._builder(a, b, chi, alloc)
        return OrthoProcess(list(vectors), vectors, mode="simple",
                            carrier=self.intervals)

    def verify_challenge(self, a, b, chi: OrthoVector, alloc=None,
                         check_gram: bool = True) -> dict:
        """Direct evaluation of all certificate conditions on one challenge."""
        a, b = Fraction(a), Fraction(b)
        X = self.witness(a, b, chi, alloc)
        t0, t1 = X.times[0], X.times[-1]
        report = {"process": X, "kind": self.kind}
        report["starts_at_zero"] = X.vectors[t0].is_zero()
        report["final_value_ok"] = X.vectors[t1].equals(self.final_target(chi))
        report["membership_ok"] = all(
            _membership_ok(X.vectors[t], a, b, chi) for t in X.times)
        if check_gram:
            report["gram_deviation"] = gram_check(X)
        if b > a:
            w = b - a
            m = maximal_function(X)
            good = _measure_ge_root(m.restrict(a, b) if a > ZERO or b < ONE else m,
                                    self.y_sq, w)
            report["window"] = (a, b)
            report["threshold"] = sqrt_float(self.y_sq / w)
            report["good_measure"] = good
            report["achieved_eps"] = float((w - good) / w)
            report["nominal_eps"] = self.eps
        return report


def _measure_ge_root(f: StepFunction, y_sq, w=ONE) -> Fraction:
    """Measure of (f >= sqrt(y_sq / w)), decided on squares:
    v >= 0 and v**2 * w >= y_sq."""
    return f.measure_where(lambda v: 0 <= v and y_sq <= v * v * w)


def _membership_ok(v: OrthoVector, a, b, chi: OrthoVector) -> bool:
    """v must equal window body + multiple of chi + pure external part."""
    window_body = v.body.restrict(a, b) if a < b else v.body * 0
    c = v.inner(chi)
    residue = v - OrthoVector(window_body) - c * chi
    return all(x == 0 for x in residue.body.values)


def trivial_cert(B: PointSet, lo, hi) -> ComplexityCert:
    """Zero-threshold certificate for a single interval with endpoints in B.

    The witness is a pure bridge: orthogonal increments with the exact
    prescribed norms, heading to the required final value, built over
    the challenge vector and fresh coordinates only (no window body), so
    it is valid even for an empty window.
    """
    lo, hi = Fraction(lo), Fraction(hi)

    def build(a, b, chi, alloc):
        pts = [Fraction(p) for p in B.restrict(lo, hi)]
        target = (24 * exact_sqrt(3 * (hi - lo))) * chi
        subs = [pts[r + 1] - pts[r] for r in range(len(pts) - 1)]
        if not subs:
            return {pts[0]: OrthoVector()}
        parts = split_increment(target, subs, alloc)
        vectors = {pts[0]: OrthoVector()}
        acc = OrthoVector()
        for r, u in enumerate(parts):
            acc = acc + u
            vectors[pts[r + 1]] = acc
        return vectors

    return ComplexityCert(B, [(lo, hi)], ZERO, None, "trivial", build, y=ZERO)


def grid_cert(B: PointSet, lo, hi, k: int) -> ComplexityCert:
    """Certificate from a full depth-k grid inside [lo, hi].

    Requires {lo + m (hi-lo) 3**-k} a subset of B.  Threshold
    y = 4 k sqrt(hi - lo); nominal failure fraction e**(-k/144) (for
    small k the recorded achieved failure exceeds it -- the nominal value
    is asymptotic and reported, never asserted).
    """
    lo, hi = Fraction(lo), Fraction(hi)
    length = hi - lo
    cell = length / 3 ** k
    grid = [lo + m * cell for m in range(3 ** k + 1)]
    for g in grid:
        if g not in B:
            raise ValueError("grid point %s missing from the time set" % g)

    def build(a, b, chi, alloc):
        scale = 24 * exact_sqrt(length)
        if b > a:
            fam = phi_family(k, chi, window=(a, b), scale=scale)
        elif k == 0:
            fam = [(scale * exact_sqrt(Fraction(3))) * chi]
        else:
            raise ValueError("positive-threshold certificate challenged "
                             "on an empty window")
        vectors = {}
        acc = OrthoVector()
        pts = [Fraction(p) for p in B.restrict(lo, hi)]
        for m in range(3 ** k):
            cell_lo, cell_hi = grid[m], grid[m + 1]
            vectors[cell_lo] = acc
            inner = [p for p in pts if cell_lo < p < cell_hi]
            if inner:
                subs = [q - p for p, q in zip([cell_lo] + inner, inner + [cell_hi])]
                parts = split_increment(fam[m], subs, alloc)
                run = acc
                for p, u in zip(inner, parts[:-1]):
                    run = run + u
                    vectors[p] = run
            acc = acc + fam[m]
        vectors[grid[-1]] = acc
        return vectors

    return ComplexityCert(B, [(lo, hi)], 16 * k * k * length, math.exp(-k / 144.0),
                          "grid[k=%d]" % k, build, y=4 * k * exact_sqrt(length))


def example_process(k: int, chi: OrthoVector, window=(ZERO, ONE),
                    B: PointSet = None, interval=(ZERO, ONE)):
    """Grid certificate challenged immediately on one window.

    Returns (cert, report); the report carries the witness process and
    the exact achieved exceedance numbers for the challenge.
    """
    if B is None:
        cell = (Fraction(interval[1]) - Fraction(interval[0])) / 3 ** k
        B = PointSet([Fraction(interval[0]) + m * cell for m in range(3 ** k + 1)]
                     + [ZERO, ONE])
    cert = grid_cert(B, interval[0], interval[1], k)
    report = cert.verify_challenge(window[0], window[1], chi)
    return cert, report


def _rationalize_ratios(ratios, denom_pow: int = 24):
    """Exact rational under-approximations of window ratios.

    Rational ratios pass through; irrational ones (field elements) are
    floored to a multiple of 3**-denom_pow so breakpoints stay rational,
    with the lost sliver booked as unused window (it can only increase
    the recorded failure, never fake success).
    """
    scale = 3 ** denom_pow
    return [Fraction(math.floor(r * scale), scale) if type(r) is RootSum else Fraction(r)
            for r in ratios]


def merge(certs, B: PointSet = None) -> ComplexityCert:
    """Disjoint-union combination of certificates.

    The union keeps the worst nominal failure fraction and reaches
    y = sqrt(sum y_l**2).  A challenge window splits proportionally to
    the y_l**2 among the positive-threshold parts (zero-threshold parts
    are challenged with an empty window; their witnesses carry no body);
    the challenge vector decomposes along an exact orthonormal family
    weighted by sqrt(measure_l / measure).
    """
    certs = list(certs)
    if not certs:
        raise ValueError("nothing to merge")
    if B is None:
        B = certs[0].B
    intervals = [iv for c in certs for iv in c.intervals]
    y_sq = sum((c.y_sq for c in certs), start=ZERO)
    eps = None
    for c in certs:
        if c.eps is not None:
            eps = c.eps if eps is None else max(eps, c.eps)
    total_measure = sum((c.measure for c in certs), start=ZERO)

    def build(a, b, chi, alloc):
        alphas = [exact_sqrt(c.measure / total_measure) for c in certs]
        chis = householder_family(chi, alphas, alloc)
        w = b - a
        positive = [i for i, c in enumerate(certs)
                    if c.y_sq != 0] if w > 0 else []
        if positive:
            fracs = _rationalize_ratios([certs[i].y_sq / y_sq for i in positive])
        windows = {}
        pos = a
        for idx, i in enumerate(positive):
            width = w * fracs[idx]
            windows[i] = (pos, pos + width)
            pos += width
        vectors = {}
        subs = []
        for i, c in enumerate(certs):
            wa, wb = windows.get(i, (a, a))
            sub = c.witness(wa, wb, chis[i], alloc)
            subs.append(sub)
        times = sorted({t for sub in subs for t in sub.times})
        for t in times:
            acc = OrthoVector()
            for c, sub in zip(certs, subs):
                at = _last_time_leq(sub.times, t)
                if at is not None:
                    acc = acc + sub.vectors[at]
            vectors[t] = acc
        return vectors

    return ComplexityCert(B, intervals, y_sq, eps, "merge", build, children=certs)


def _last_time_leq(times, t):
    i = bisect.bisect_right(times, t)
    return times[i - 1] if i else None


def nest(k: int, sub_certs, B: PointSet = None) -> ComplexityCert:
    """Equal-length nesting of 3**k certificates under a generator family.

    The sub-carriers must be single intervals of a common length with
    disjoint interiors; the combination weakens every sub-threshold to
    the common minimum y and reaches

        y' = 3**(k/2) y + 4 k sqrt(measure of the union),

    with the nominal failure fraction growing by e**(-k/144).  The
    witness lays the depth-k family over the window and hands the n-th
    sub-certificate the n-th window cell with challenge vector
    phi_n / ||phi_n||.
    """
    sub_certs = list(sub_certs)
    if len(sub_certs) != 3 ** k:
        raise ValueError("need exactly 3**k sub-certificates")
    if B is None:
        B = sub_certs[0].B
    ivs = []
    for c in sub_certs:
        if len(c.intervals) != 1:
            raise ValueError("nesting needs single-interval carriers")
        ivs.append(c.intervals[0])
    ivs_sorted = sorted(ivs)
    eta = ivs_sorted[0][1] - ivs_sorted[0][0]
    for lo, hi in ivs_sorted:
        if hi - lo != eta:
            raise ValueError("carriers must share a common length")
    order = sorted(range(len(sub_certs)), key=lambda i: ivs[i])
    measure = eta * 3 ** k
    low = sub_certs[0]
    for c in sub_certs[1:]:
        if c.y_sq < low.y_sq:
            low = c
    y_out = exact_sqrt(3 ** k) * low.y + 4 * k * exact_sqrt(3 ** k * eta)
    eps_children = [c.eps for c in sub_certs if c.eps is not None]
    eps = (max(eps_children) if eps_children else 0.0) + math.exp(-k / 144.0)

    def build(a, b, chi, alloc):
        w = b - a
        if w <= 0:
            raise ValueError("positive-threshold certificate challenged "
                             "on an empty window")
        scale = 24 * exact_sqrt(measure)
        fam = phi_family(k, chi, window=(a, b), scale=scale)
        cells = [(a + n * w / 3 ** k, a + (n + 1) * w / 3 ** k)
                 for n in range(3 ** k)]
        phi_norm = 24 * exact_sqrt(3 * eta)
        vectors = {}
        acc = OrthoVector()
        for pos, i in enumerate(order):
            cert = sub_certs[i]
            chi_n = fam[pos] * (1 / phi_norm)
            sub = cert.witness(cells[pos][0], cells[pos][1], chi_n, alloc)
            for t in sub.times:
                vectors[t] = acc + sub.vectors[t]
            acc = acc + fam[pos]
        return vectors

    return ComplexityCert(B, ivs_sorted, y_out * y_out, eps, "nest[k=%d]" % k, build,
                          children=sub_certs, y=y_out)


def corollary_union(certs, h: StepFunction, B: PointSet = None) -> ComplexityCert:
    """Union form: parts certified at ||h 1_part|| combine to ||h 1_union||.

    Checks that each threshold matches the norm of h over the part; the
    merged threshold then equals the norm over the union exactly.
    """
    for c in certs:
        want_sq = sum((h.restrict(lo, hi).integral_sq() for lo, hi in c.intervals),
                      start=ZERO)
        if c.y_sq != want_sq:
            raise ValueError("threshold does not match ||h|| on a part")
    return merge(certs, B)


def corollary_equal_blocks(k: int, certs, level_value, B: PointSet = None):
    """Equal-length form with a constant excess value over the block.

    With every part certified at level_value * sqrt(part length), the
    nested threshold equals (level_value + 4k) * sqrt(union measure):
    the constant-excess case, which is the one the combination rules use.
    """
    certs = list(certs)
    eta = certs[0].intervals[0][1] - certs[0].intervals[0][0]
    want = level_value * exact_sqrt(eta)
    for c in certs:
        if c.y != want:
            raise ValueError("parts must share the constant-excess threshold")
    out = nest(k, certs, B)
    target = (level_value + 4 * k) * exact_sqrt(eta * 3 ** k)
    if out.y != target:
        raise AssertionError("nested threshold mismatch: %s vs %s"
                             % (out.y, target))
    return out


# ---------------------------------------------------------------------------
# the divergent-process builder


def _hu_min_on(hu: StepFunction, lo, hi):
    vals = [v for plo, phi, v in hu.pieces() if phi > lo and plo < hi]
    out = vals[0]
    for v in vals[1:]:
        if v < out:
            out = v
    return out


def build_divergent(B: PointSet, y_target=None, chi: OrthoVector = None,
                    check_gram: bool = True) -> dict:
    """Process with a large maximal function on a finite triadic set.

    Runs the backward recursion along the dyadic floor of the
    information function: cells whose interior meets B recurse into
    their subcells, runs of empty subcells become zero-threshold
    bridges, equal-width certified subcells are either nested under a
    generator family or grouped by block selection and merged.  At every
    step the combination with the larger achieved threshold is kept.

    Returns a report with the top certificate, the witness process on
    the whole interval, and exact exceedance measures; no claim is made
    beyond the directly measured numbers.
    """
    from .sets import is_triadic_set
    from .stepfn import grid_width
    from .vcalc import select_blocks
    ok, witness_bad = is_triadic_set(B)
    if not ok:
        raise ValueError("time set is not triadic: %r" % (witness_bad,))
    for p in B.points:
        if (p.numerator * 81) % p.denominator:
            raise ValueError("level budget exceeded: %s is finer than level 2" % p)
    h = info_fn(B, base=3).maximum(1)
    hu = dyadic_floor(h)
    steps = []

    def cert_for(child_level: int, lo: Fraction, hi: Fraction) -> ComplexityCert:
        """Certificate for the cell [lo, hi] whose subcells sit at child_level."""
        interior = [p for p in B.restrict(lo, hi) if lo < p < hi]
        if not interior or child_level > 2:
            return trivial_cert(B, lo, hi)
        width = grid_width(child_level)
        count = int((hi - lo) / width)
        children = [(lo + n * width, lo + (n + 1) * width) for n in range(count)]
        # subcells with interior points recurse; empty stretches split into
        # whole gaps of B (gap endpoints are in B, so each is a carrier)
        pieces = []
        run_start = None

        def flush_run(run_end):
            pts = list(B.restrict(run_start, run_end))
            for g1, g2 in zip(pts, pts[1:]):
                pieces.append(("gap", g1, g2))

        for clo, c_hi in children:
            if any(clo < p < c_hi for p in interior):
                if run_start is not None:
                    flush_run(clo)
                    run_start = None
                pieces.append(("cell", clo, c_hi))
            elif run_start is None:
                run_start = clo
        if run_start is not None:
            flush_run(hi)
        certs = []
        cellish = []  # (index into certs, min dyadic-floor value) for width-wide pieces
        for kind, plo, phi_ in pieces:
            if kind == "cell":
                c = cert_for(child_level + 1, plo, phi_)
            else:
                c = trivial_cert(B, plo, phi_)
            idx = len(certs)
            certs.append(c)
            if phi_ - plo == width:
                cellish.append((idx, _hu_min_on(hu, plo, phi_)))
        parent_level = child_level - 1
        target = Fraction(2) ** child_level  # excess means hu >= 2**(parent+1)
        candidates = []
        if parent_level >= 1:
            excess = [(idx, v) for idx, v in cellish if target <= v]
            if excess:
                sel = select_blocks([v - target for _, v in excess], parent_level)
                if sel.blocks:
                    grouped = set()
                    parts = []
                    for blk in sel.blocks:
                        members = [certs[excess[p][0]] for p in blk]
                        grouped.update(excess[p][0] for p in blk)
                        parts.append(nest(2 ** (parent_level - 1), members, B))
                    rest = [c for i, c in enumerate(certs) if i not in grouped]
                    candidates.append(("blocks+merge", merge(parts + rest, B)))
        if len(certs) >= 2:
            candidates.append(("merge", merge(certs, B)))
        if len(cellish) == len(certs) == count:
            k_all = {3: 1, 9: 2, 81: 4}.get(count)
            if k_all is not None:
                candidates.append(("nest[k=%d]" % k_all, nest(k_all, certs, B)))
        if len(certs) == 1:
            candidates.append(("single", certs[0]))
        best_name, best = candidates[0]
        for name, c in candidates[1:]:
            if best.y_sq < c.y_sq:
                best_name, best = name, c
        steps.append({"cell": (str(lo), str(hi)), "choice": best_name,
                      "y": sqrt_float(best.y_sq)})
        return best

    top = cert_for(0, ZERO, ONE)
    if chi is None:
        chi = OrthoVector.basis(0)
    report = top.verify_challenge(ZERO, ONE, chi, check_gram=check_gram)
    m = maximal_function(report["process"])
    out = {
        "cert": top,
        "report": report,
        "steps": steps,
        "achieved_y": sqrt_float(top.y_sq),
        "exceedance_at_achieved_y": _measure_ge_root(m, top.y_sq),
    }
    if y_target is not None:
        out["y_target"] = float(y_target)
        out["exceedance_at_target"] = m.measure_ge(y_target)
    return out


def divergent_prefix(block_sets, cuts, chi_ids=None) -> ProductProcess:
    """Finite product-space prefix of the divergence construction.

    Each entry of block_sets is a finite triadic PointSet in unit
    coordinates; its divergent process becomes one independent factor on
    the corresponding time block (cuts strictly decreasing, at most 4
    blocks).  Returns the glued product process.
    """
    if len(block_sets) > 4:
        raise ValueError("product budget: at most 4 factors")
    blocks = []
    for s, Bs in enumerate(block_sets):
        chi = OrthoVector.basis(0 if chi_ids is None else chi_ids[s])
        rep = build_divergent(Bs, chi=chi)
        blocks.append(rep["report"]["process"])
    return ProductProcess(blocks, cuts)
