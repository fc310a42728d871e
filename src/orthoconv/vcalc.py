"""The conditional-norm contraction calculus on step functions.

One contraction level is

    V_j h = (h ^ 2**j) + ||(h - 2**j)^+||_j

where ||.||_j is the conditional L2 norm over the level-j triadic grid,
and the full functional is the L2 norm of the downward composition

    V h = || V_0 V_1 ... V_i h ||   once 2**i >= max h,

at which point every deeper level acts as the identity, so the limit is
attained.  The barred variant keeps an extra plateau:

    Vbar_j h = (h ^ 2**j) + 2**j 1_(h >= 2**j) + ||(h - 2**(j+1))^+||_j.

The block-selection routine and the level-j reduction operator implement
the combinatorial step used to lower a normal form while losing at most
a controlled conditional-norm defect.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .info import type_level_representation
from .stepfn import StepFunction, cond_norm, grid_size, grid_width, pos_part

__all__ = [
    "VTrace",
    "v_step",
    "v_bar_step",
    "v_composite",
    "v_functional",
    "stabilization_level",
    "select_blocks",
    "BlockSelection",
    "type_reduction",
    "TypeReduction",
]


class VTrace:
    """Record of a downward composition V_lo ... V_hi.

    levels: list of (j, function after applying V_j, L2 norm of it),
    ordered by application (j = hi first).  ``final`` is the last
    function, ``norm`` its L2 norm.
    """

    def __init__(self, start: StepFunction, levels, stabilized_at=None):
        self.start = start
        self.levels = levels
        self.stabilized_at = stabilized_at

    @property
    def final(self) -> StepFunction:
        return self.levels[-1][1] if self.levels else self.start

    @property
    def norm(self):
        return self.levels[-1][2] if self.levels else self.start.l2_norm()

    def to_json(self):
        return {
            "levels": [
                {"j": j, "norm": float(n), "pieces": len(f.values)}
                for j, f, n in self.levels
            ],
            "final_norm": float(self.norm),
            "stabilized_at": self.stabilized_at,
        }


def v_step(h: StepFunction, j: int, exact: bool = False) -> StepFunction:
    """(h ^ 2**j) + ||(h - 2**j)^+||_j."""
    c = Fraction(2) ** j
    return h.minimum(c) + cond_norm(pos_part(h, c), j, exact=exact)


def v_bar_step(h: StepFunction, j: int, exact: bool = False) -> StepFunction:
    """(h ^ 2**j) + 2**j 1_(h >= 2**j) + ||(h - 2**(j+1))^+||_j."""
    c = Fraction(2) ** j
    plateau = h.indicator_ge(c) * c
    return h.minimum(c) + plateau + cond_norm(pos_part(h, 2 * c), j, exact=exact)


def v_composite(h: StepFunction, j_lo: int, j_hi: int,
                exact: bool = False, bar: bool = False) -> VTrace:
    """V_{j_lo}(V_{j_lo+1}(... V_{j_hi} h)), finest level first."""
    if j_lo > j_hi:
        raise ValueError("need j_lo <= j_hi")
    step = v_bar_step if bar else v_step
    levels = []
    cur = h
    for j in range(j_hi, j_lo - 1, -1):
        cur = step(cur, j, exact=exact)
        levels.append((j, cur, cur.l2_norm(exact=exact)))
    return VTrace(h, levels)


def stabilization_level(h: StepFunction) -> int:
    """ceil(log2(max(h, 1))): V_j acts as the identity above this level."""
    m = max(float(h.max_value()), 1.0)
    i = max(0, math.ceil(math.log2(m)))
    while not h.max_value() <= 2 ** i:
        i += 1
    while i > 0 and h.max_value() <= 2 ** (i - 1):
        i -= 1
    return i


def v_functional(h: StepFunction, exact: bool = False):
    """The limit functional V h for bounded h >= 0.

    Equal to ||V_0 ... V_i h|| at the stabilization level i; for bounded
    inputs the limit is attained there.  Returns (value, VTrace).
    """
    if not h.is_nonnegative():
        raise ValueError("V is defined for nonnegative functions")
    i = stabilization_level(h)
    trace = v_composite(h, 0, i, exact=exact)
    trace.stabilized_at = i
    return trace.norm, trace


class BlockSelection:
    """Result of the block-selection algorithm on a value list.

    Attributes mirror the construction: ``b`` is the modified sequence
    (b_k = a_k or a_k + 2**i), ``c``/``d`` the two defect pieces with
    a_k + 2**i - b_k = c_k + d_k, and ``blocks`` the selected index
    classes, each of size 3**(2**(i-1)), on which b_k = a_k + 2**i and
    b_k <= 2**(i+1) + min over the class.
    """

    def __init__(self, a, i, b, c, d, blocks):
        self.a = list(a)
        self.i = i
        self.b = b
        self.c = c
        self.d = d
        self.blocks = blocks

    def check(self):
        """Re-verify every certified postcondition; raises on failure."""
        i = self.i
        gain = Fraction(2) ** i
        nu = grid_size(i - 1)  # 3**(2**(i-1))
        blocked = set()
        for blk in self.blocks:
            if len(blk) != nu:
                raise AssertionError("block size %d != %d" % (len(blk), nu))
            m = min(self.a[k] for k in blk)
            for k in blk:
                if not self.b[k] <= 2 * gain + m:
                    raise AssertionError("b_k exceeds 2**(i+1) + block min")
                blocked.add(k)
        for k in range(len(self.a)):
            if k in blocked:
                if self.b[k] != self.a[k] + gain:
                    raise AssertionError("blocked entries must gain 2**i")
            else:
                if self.b[k] != self.a[k]:
                    raise AssertionError("unblocked entries must be unchanged")
            if self.a[k] + gain - self.b[k] != self.c[k] + self.d[k]:
                raise AssertionError("defect split broken at %d" % k)
            # d_k <= 2**-i (a_k + 2**i)
            if not self.d[k] * gain <= self.a[k] + gain:
                raise AssertionError("d bound broken at %d" % k)
        csq = sum((x * x for x in self.c), start=Fraction(0))
        bound = Fraction(nu) * gain * gain * (gain + 1)
        if not csq <= bound:
            raise AssertionError("sum of c**2 exceeds the block budget")
        return True


def select_blocks(a, i: int) -> BlockSelection:
    """Partition the small entries of a into full value-coherent blocks.

    Sort ascending; among the entries <= 2**(2i), form consecutive runs
    of size nu = 3**(2**(i-1)) and keep the runs whose spread is at most
    2**i.  Kept runs gain 2**i (b_k = a_k + 2**i); everything else keeps
    its value and the missing gain is booked to c (small entries) or d
    (entries at least 2**(2i)).
    """
    if i < 1:
        raise ValueError("block selection needs level i >= 1")
    a = [Fraction(x) if isinstance(x, int) else x for x in a]
    if any(x < 0 for x in a):
        raise ValueError("entries must be nonnegative")
    K = len(a)
    gain = Fraction(2) ** i
    nu = grid_size(i - 1)
    order = sorted(range(K), key=lambda k: (a[k], k))
    limit = Fraction(2) ** (2 * i)
    L = 0
    while L < K and a[order[L]] <= limit:
        L += 1
    t = L // nu
    blocks = []
    blocked = set()
    for s in range(t):
        idx = order[s * nu:(s + 1) * nu]
        lo = a[idx[0]]
        hi = a[idx[-1]]
        if hi - gain <= lo:  # spread at most 2**i
            blocks.append(tuple(idx))
            blocked.update(idx)
    b, c, d = [], [], []
    for k in range(K):
        if k in blocked:
            b.append(a[k] + gain)
            c.append(Fraction(0))
            d.append(Fraction(0))
        elif a[k] <= limit:
            b.append(a[k])
            c.append(gain)
            d.append(Fraction(0))
        else:
            b.append(a[k])
            c.append(Fraction(0))
            d.append(gain)
    return BlockSelection(a, i, b, c, d, blocks)


class TypeReduction:
    """Output of the level-j reduction operator.

    ``reduced`` is the lowered normal form, ``f_corr`` and ``g_corr``
    the two nonnegative corrections with

        (reduced - 2**j)^+ = (h - 2**j)^+ - f_corr - g_corr,

    where ||f_corr||_j <= 2**-j (for j >= 5) and
    g_corr <= 2**-j (h - 2**j)^+ pointwise.
    """

    def __init__(self, h, j, reduced, f_corr, g_corr, selections):
        self.h = h
        self.j = j
        self.reduced = reduced
        self.f_corr = f_corr
        self.g_corr = g_corr
        self.selections = selections

    def defect_certificate(self, exact: bool = False):
        """Split V_j h - V_j(reduced) into p + q with certified bounds.

        p is dominated by ||f_corr||_j (so p <= 2**-j for j >= 5) and q
        by ||g_corr||_j <= 2**-j (V_j h - 2**j)^+.  Both are grid-j
        measurable by construction.
        """
        vh = v_step(self.h, self.j, exact=exact)
        vu = v_step(self.reduced, self.j, exact=exact)
        defect = vh - vu
        fbound = cond_norm(self.f_corr, self.j, exact=exact)
        p = defect.minimum(fbound)
        q = defect - p
        return vh, vu, p, q, fbound


def type_reduction(h: StepFunction, j: int) -> TypeReduction:
    """Lower a level-j normal form along block selections.

    Applies the block-selection algorithm to the excess values above
    2**(j+1) inside each level-j cell, and rebuilds the function with
    the selected blocks keeping their excess while the rest loses the
    c/d corrections.  Requires j >= 5 so the conditional-norm defect of
    the c-part fits under 2**-j.
    """
    if j < 5:
        raise ValueError("the reduction operator needs level j >= 5")
    rep = type_level_representation(h, j)  # validates the normal form
    w1 = grid_width(j + 1)
    gain = Fraction(2) ** j
    f_pieces = []
    g_pieces = []
    selections = []
    for m, cells in rep:
        a = [a_k for _, a_k in cells]
        sel = select_blocks(a, j)
        selections.append((m, sel))
        for (n, a_k), ck, dk in zip(cells, sel.c, sel.d):
            lo = n * w1
            if ck:
                f_pieces.append((lo, lo + w1, ck))
            if dk:
                g_pieces.append((lo, lo + w1, dk))
    f_corr = _from_sparse_pieces(f_pieces)
    g_corr = _from_sparse_pieces(g_pieces)
    reduced = h - f_corr - g_corr
    return TypeReduction(h, j, reduced, f_corr, g_corr, selections)


def _from_sparse_pieces(pieces) -> StepFunction:
    """Step function equal to v on each listed (lo, hi] and 0 elsewhere."""
    out = StepFunction.constant(0)
    if not pieces:
        return out
    bps = []
    vals = []
    pos = Fraction(0)
    for lo, hi, v in sorted(pieces):
        if lo < pos:
            raise ValueError("overlapping pieces")
        if lo > pos:
            bps.append(lo)
            vals.append(0)
        bps.append(hi)
        vals.append(v)
        pos = hi
    if pos < 1:
        bps.append(Fraction(1))
        vals.append(0)
    return StepFunction(bps, vals)
