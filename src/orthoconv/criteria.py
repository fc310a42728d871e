"""Convergence criteria evaluated on finite coefficient sequences.

Every operation returns plain numbers computed from the sequence alone;
for finite inputs these are partial values, and no convergence verdict
is attached to them.  The slice convention for a positive number z is

    z_0 = z ^ 2,   z_i = z ^ 2**(i+1) - z ^ 2**i   (i >= 1).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exactnum import floor_log2, log_ratio
from .info import CoefficientSeq, _slice_sums, info_fn, tail_set
from .stepfn import _Levels, _rescale

__all__ = [
    "rm_weyl",
    "alpha_condition",
    "beta_condition",
    "gamma_condition",
    "sandwich_check",
    "tandori_sum",
    "theorem_conditions",
    "measure_criterion",
    "full_report",
]


def _log2_sq(x: float) -> float:
    if x == 0:
        return 0.0
    return math.log2(x) ** 2


def rm_weyl(seq: CoefficientSeq, r) -> dict:
    """Weighted square sum with weights r_n, plus the r_n / log2(n)**2 ratios.

    Increasing positive weights are Weyl weights exactly when the ratio
    sequence stays bounded; the report carries the ratios (n >= 2), their
    max, and the last few values as the tail trend.
    """
    r = [float(x) for x in r]
    if len(r) != len(seq):
        raise ValueError("weight list must match the sequence length")
    if any(b < a for a, b in zip(r, r[1:])) or any(x < 0 for x in r):
        raise ValueError("weights must be increasing and nonnegative")
    weighted = sum(rn * sq for rn, sq in zip(r, seq.square_floats()))
    ratios = [r[n - 1] / (math.log2(n) ** 2) for n in range(2, len(r) + 1)]
    return {
        "weighted_sum": weighted,
        "ratios": ratios,
        "ratio_max": max(ratios) if ratios else None,
        "ratio_tail": ratios[-3:],
    }


def alpha_condition(seq: CoefficientSeq) -> float:
    """sum a_n**2 log2(|a_n|)**2, for decreasing moduli; 0*log(0)**2 = 0."""
    if not seq.moduli_decreasing():
        raise ValueError("the distribution criterion needs decreasing |a_n|")
    total = 0.0
    for s in seq.square_floats():
        if s > 0:
            total += s * _log2_sq(math.sqrt(s))
    return total


def beta_condition(seq: CoefficientSeq) -> dict:
    """Block sums sum_i sqrt(sum over block i of a**2 log2(a)**2).

    Blocks are [2**-2**(i+1), 2**-2**i) in |a|, i >= 1, lower-closed
    upper-open as printed, decided exactly on the squares' integers;
    moduli >= 1/4 land in a reported residual.
    """
    blocks = {}
    residual = []
    level = _Levels(2)
    for n, num, s, _ in seq.nonzero_terms():
        # 2**i < z <= 2**(i+1) exactly when 2**(i+1) < -log2(a**2) <= 2**(i+2)
        i = level(num, seq.den, strict=True) - 1
        if i < 1:
            residual.append(n)
            continue
        blocks[i] = blocks.get(i, 0.0) + s * _log2_sq(math.sqrt(s))
    terms = {i: math.sqrt(v) for i, v in sorted(blocks.items())}
    return {
        "terms": terms,
        "sum": sum(terms.values()),
        "residual_indices": residual,
    }


def gamma_condition(seq: CoefficientSeq) -> dict:
    """Slice sums sum_{i>=1} sqrt(sum_n a_n**2 z_i**2) with z = -log2 a_n.

    Requires nonnegative coefficients; zero terms are skipped.  The i=0
    slice is reported separately for transparency.
    """
    if not seq.nonnegative():
        raise ValueError("the slice criterion assumes a_n >= 0")
    sums = seq.slice_sums()
    terms = {i: math.sqrt(tot) for i, tot in enumerate(sums) if i and tot}
    return {"terms": terms, "sum": sum(terms.values()), "slice0": math.sqrt(sums[0])}


def sandwich_check(seq: CoefficientSeq) -> dict:
    """Two-sided bounds tying the block form to the slice form.

    With u_i the indicator of {n : 2**i <= -log2 a_n < 2**(i+1)} in the
    weighted space mu = sum a_n**2 delta_n:

        A- = sum 2**i ||u_{i+1} + u_{i+2} + ...||
        A+ = sum 2**i ||u_i + u_{i+1} + ...||
        B- = sum 2**i ||u_i||,   B+ = sum 2**(i+1) ||u_i||

    and the chain B- <= A+ <= B+ holds along with A- <= slice sum <= A+
    and B- <= block sum <= B+ (block boundaries in the z convention,
    upper-closed in |a|, decided exactly).
    """
    if not seq.nonnegative():
        raise ValueError("assumes a_n >= 0")
    weights = {}   # i -> sum of a_n**2 over the i-th z-block, i >= 1
    beta_terms = {}
    level = _Levels(2)
    for _, num, s, z in seq.nonzero_terms():
        # 2**i <= z < 2**(i+1) exactly when 2**(i+1) <= -log2(a**2) < 2**(i+2)
        i = level(num, seq.den) - 1
        if i < 1:
            continue
        weights[i] = weights.get(i, 0.0) + s
        beta_terms[i] = beta_terms.get(i, 0.0) + s * z ** 2
    imax = max(weights) if weights else 0
    sums = seq.slice_sums()
    gamma_terms = {i: math.sqrt(sums[i] if i < len(sums) else 0.0) for i in range(1, imax + 1)}
    norm_sq = {i: weights.get(i, 0.0) for i in range(1, imax + 1)}
    tail = {}
    running = 0.0
    for i in range(imax, 0, -1):
        running += norm_sq[i]
        tail[i] = running
    a_minus = sum(2.0 ** i * math.sqrt(tail.get(i + 1, 0.0))
                  for i in range(1, imax + 1))
    a_plus = sum(2.0 ** i * math.sqrt(tail.get(i, 0.0))
                 for i in range(1, imax + 1))
    b_minus = sum(2.0 ** i * math.sqrt(norm_sq[i]) for i in range(1, imax + 1))
    b_plus = sum(2.0 ** (i + 1) * math.sqrt(norm_sq[i]) for i in range(1, imax + 1))
    gamma_sum = sum(gamma_terms.values())
    beta_sum = sum(math.sqrt(v) for v in beta_terms.values())
    return {
        "A_minus": a_minus, "A_plus": a_plus,
        "B_minus": b_minus, "B_plus": b_plus,
        "gamma_sum": gamma_sum, "beta_sum_zblocks": beta_sum,
    }


def tandori_sum(seq: CoefficientSeq) -> dict:
    """Index-block sums sum_i sqrt(sum_{2**2**i <= n < 2**2**(i+1)} a_n**2 log2(n)**2).

    n = 1 sits below every block (its weight vanishes anyway) and is
    reported separately.  Depends on the positions of the coefficients,
    not only their values.
    """
    blocks = {}
    below = []
    for n, (num, s) in enumerate(zip(seq.nums, seq.square_floats()), start=1):
        if not num:
            continue
        if n < 2:
            below.append(n)
            continue
        # 2**2**i <= n exactly when 2**i <= floor(log2 n)
        i = floor_log2(floor_log2(n))
        blocks.setdefault(i, 0.0)
        blocks[i] += s * _log2_sq(n)
    terms = {i: math.sqrt(v) for i, v in sorted(blocks.items())}
    return {"terms": terms, "sum": sum(terms.values()), "below_blocks": below}


def theorem_conditions(seq: CoefficientSeq, indicator: str = "I") -> dict:
    """The three information-function criteria for the tail partition.

    Uses the base-2 information function J of the tail set:
      alpha1 = ||J||,
      beta1  = sum_{i>=1} ||J 1_(2**i <= X < 2**(i+1))||  with X = J
               (switch X to the base-3 function H via indicator='H'),
      gamma1 = sum_{i>=0} ||J_i|| over the standard slices.

    One walk over the pieces of J, and the gaps of B inside them, gives
    all three.  The X-block of a gap g is decided exactly, on the
    integers: X >= 2**i when g * base**(2**i) <= B.den.  The norms have
    the values, types and float bits of the composed ``(J * ind).l2_norm()``
    and ``(clip_min(J, 2**(i+1)) - clip_min(J, 2**i)).l2_norm()``: each
    term of a sum is one run of equal values of those functions' canonical
    forms, in order.
    """
    B = tail_set(seq)
    J = info_fn(B, base=2)
    den, bn = B.den, B.nums
    level = _Levels(2 if indicator == "I" else 3)
    # J's values are all ints, and the sums exact, or all floats; a float
    # sum adds w * (n / den) per run, or (w * n) / den for an int w
    exact = type(J.values[0]) is int
    alpha = 0
    beta = {}   # X-block i -> sum of J**2 over it
    gamma = {}  # slice i -> sum of J_i**2
    # the runs of pieces with J >= 2**k, k >= 1: where each starts, and
    # whether clipping J at 2**k keeps the int 2**k on it (not when J
    # equals the float 2**k on its first piece)
    run_lo, run_int = [0], [True]

    def add(acc, i, w, n):
        if exact:
            acc[i] = acc.get(i, 0) + w * n
        else:
            acc[i] = acc.get(i, 0.0) + (w * (n / den) if type(w) is float else (w * n) / den)

    def end_run(j, n):
        # on a run at or above 2**j, slice j-1 is 2**(j-1) (slice 0 is 2),
        # an int when both clips keep their ints
        w = 4 ** (j - 1) if j > 1 else 4
        if not (exact or run_int[j] and (j == 1 or run_int[j - 1])):
            w = float(w)
        add(gamma, j - 1, w, n)

    t = lo = top = 0
    for hi, v in zip(_rescale(J.nums, den // J.den), J.values):
        n = hi - lo
        vv = v * v
        alpha += vv * n if exact else vv * (n / den)
        # beta: the gaps of this piece, in runs of one X-block
        blk = run = 0
        g_prev = None
        while bn[t] < hi:
            g = bn[t + 1] - bn[t]
            if g != g_prev:
                g_prev = g
                i = level(g, den)
            if i != blk:
                if blk > 0:
                    add(beta, blk, vv, run)
                blk, run = i, 0
            run += g
            t += 1
        if blk > 0:
            add(beta, blk, vv, run)
        # gamma: 2**k <= v < 2**(k+1), or k = 0 below 2
        k = floor_log2(v) if v >= 2 else 0
        for j in range(top, k, -1):
            end_run(j, lo - run_lo[j])
        for j in range(top + 1, k + 1):
            if j == len(run_lo):
                run_lo.append(0)
                run_int.append(True)
            run_lo[j] = lo
            run_int[j] = v != 1 << j
        d = v - (1 << k) if k else v
        if d:
            add(gamma, k, d * d, n)
        top = k
        lo = hi
    for j in range(top, 0, -1):
        end_run(j, den - run_lo[j])
    if exact:
        alpha = Fraction(alpha, den)
    beta_terms, gamma_terms = {}, {}
    for acc, terms in ((beta, beta_terms), (gamma, gamma_terms)):
        for i in sorted(acc):
            term = float(Fraction(acc[i], den) if exact else acc[i]) ** 0.5
            if term:
                terms[i] = term
    return {
        "alpha1": float(alpha) ** 0.5,
        "beta1_terms": beta_terms, "beta1": sum(beta_terms.values()),
        "gamma1_terms": gamma_terms, "gamma1": sum(gamma_terms.values()),
        "indicator_variant": indicator,
    }


def measure_criterion(atom_probs) -> dict:
    """Information criterion for an atomic probability space.

    H = -log3 P(atom) on each atom; returns sum_i ||H_i|| over the
    standard slices, with H_0 = H ^ 2 and ||g||**2 = sum_n P_n g(n)**2.
    The probabilities must be positive and sum to 1 within 1e-9, compared
    exactly.
    """
    probs = [Fraction(p) for p in atom_probs]
    if any(p <= 0 for p in probs):
        raise ValueError("atom probabilities must be positive")
    if abs(sum(probs, start=Fraction(0)) - 1) > Fraction(1, 10 ** 9):
        raise ValueError("atom probabilities must sum to 1")
    weighted = [(float(p), -log_ratio(p.numerator, p.denominator) / math.log(3))
                for p in probs]
    terms = {i: math.sqrt(tot) for i, tot in enumerate(_slice_sums(weighted)) if tot}
    return {"terms": terms, "sum": sum(terms.values())}


def full_report(seq: CoefficientSeq, indicator: str = "I") -> dict:
    """All criteria bundled, as used by the analyze front end.

    The criteria read the moduli of the normalized sequence, which builds
    its tail set, nonzero terms and slice sums once for all of them.
    """
    seq = seq.normalized()
    return {
        "beta": beta_condition(seq),
        "gamma": gamma_condition(seq),
        "sandwich": sandwich_check(seq),
        "tandori": tandori_sum(seq),
        "information": theorem_conditions(seq, indicator=indicator),
        "alpha": alpha_condition(seq) if seq.moduli_decreasing() else None,
    }
