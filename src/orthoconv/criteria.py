"""Convergence criteria evaluated on finite coefficient sequences.

Every operation returns plain numbers computed from the sequence alone;
for finite inputs these are partial values, and no convergence verdict
is attached to them.  The slice convention for a positive number z is

    z_0 = z ^ 2,   z_i = z ^ 2**(i+1) - z ^ 2**i   (i >= 1).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exactnum import log_ratio
from .info import CoefficientSeq, info_fn, tail_set
from .stepfn import clip_min

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


def _nonzero_terms(seq: CoefficientSeq):
    """(n, s, z, zf) for every nonzero term a_n, in order: s the float
    square, z and zf as in ``CoefficientSeq.neg_log2_moduli``."""
    return [(n, s, *zs) for n, (s, zs) in
            enumerate(zip(seq.square_floats(), seq.neg_log2_moduli()), start=1)
            if zs is not None]


def _beta_block(z):
    """Block index i >= 1 with 2**-2**(i+1) <= |a| < 2**-2**i, else None.

    Lower-closed upper-open in |a| as printed, i.e. 2**i < z <= 2**(i+1)
    for z = -log2 |a| > 0.  Moduli >= 1/4 fall in no block (the residual
    bucket).  Exact 2-power boundaries are classified exactly.
    """
    if z <= 2:
        return None
    i = 1
    while z > 2 ** (i + 1):
        i += 1
    return i


def beta_condition(seq: CoefficientSeq) -> dict:
    """Block sums sum_i sqrt(sum over block i of a**2 log2(a)**2).

    Blocks are [2**-2**(i+1), 2**-2**i) in |a|, i >= 1, lower-closed
    upper-open as printed; moduli >= 1/4 land in a reported residual.
    """
    blocks = {}
    residual = []
    for n, s, z, _ in _nonzero_terms(seq):
        i = _beta_block(z)
        if i is None:
            residual.append(n)
            continue
        blocks.setdefault(i, 0.0)
        blocks[i] += s * _log2_sq(math.sqrt(s))
    terms = {i: math.sqrt(v) for i, v in sorted(blocks.items())}
    return {
        "terms": terms,
        "sum": sum(terms.values()),
        "residual_indices": residual,
    }


def _slice(z: float, i: int) -> float:
    """z_i = z ^ 2**(i+1) - z ^ 2**i for i >= 1; z_0 = z ^ 2."""
    if i == 0:
        return min(z, 2.0)
    return min(z, 2.0 ** (i + 1)) - min(z, 2.0 ** i)


def gamma_condition(seq: CoefficientSeq) -> dict:
    """Slice sums sum_{i>=1} sqrt(sum_n a_n**2 z_i**2) with z = -log2 a_n.

    Requires nonnegative coefficients; zero terms are skipped.  The i=0
    slice is reported separately for transparency.
    """
    if any(c < 0 for c in seq.coeffs):
        raise ValueError("the slice criterion assumes a_n >= 0")
    imax = 0
    sz = [(s, zf) for _, s, _, zf in _nonzero_terms(seq)]
    for _, z in sz:
        if z > 2.0:
            imax = max(imax, int(math.ceil(math.log2(z))))
    terms = {}
    for i in range(1, imax + 1):
        tot = 0.0
        for s, z in sz:
            tot += s * _slice(z, i) ** 2
        if tot:
            terms[i] = math.sqrt(tot)
    slice0 = math.sqrt(sum(s * _slice(z, 0) ** 2 for s, z in sz) or 0.0)
    return {"terms": terms, "sum": sum(terms.values()), "slice0": slice0}


def sandwich_check(seq: CoefficientSeq) -> dict:
    """Two-sided bounds tying the block form to the slice form.

    With u_i the indicator of {n : 2**i <= -log2 a_n < 2**(i+1)} in the
    weighted space mu = sum a_n**2 delta_n:

        A- = sum 2**i ||u_{i+1} + u_{i+2} + ...||
        A+ = sum 2**i ||u_i + u_{i+1} + ...||
        B- = sum 2**i ||u_i||,   B+ = sum 2**(i+1) ||u_i||

    and the chain B- <= A+ <= B+ holds along with A- <= slice sum <= A+
    and B- <= block sum <= B+ (block boundaries in the z convention,
    upper-closed in |a|).
    """
    if any(c < 0 for c in seq.coeffs):
        raise ValueError("assumes a_n >= 0")
    weights = {}   # i -> sum of a_n**2 over the i-th z-block, i >= 1
    gamma_terms = {}
    beta_terms = {}
    terms = _nonzero_terms(seq)
    for _, s, z, _ in terms:
        if z < 2:
            continue
        i = 1
        while z >= 2 ** (i + 1):
            i += 1
        weights.setdefault(i, 0.0)
        weights[i] += s
        beta_terms.setdefault(i, 0.0)
        beta_terms[i] += s * float(z) ** 2
    imax = max(weights) if weights else 0
    for i in range(1, imax + 1):
        tot = 0.0
        for _, s, _, zf in terms:
            tot += s * _slice(zf, i) ** 2
        gamma_terms[i] = math.sqrt(tot)
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
        i = 0
        while 2 ** (2 ** (i + 1)) <= n:
            i += 1
        blocks.setdefault(i, 0.0)
        blocks[i] += s * _log2_sq(n)
    terms = {i: math.sqrt(v) for i, v in sorted(blocks.items())}
    return {"terms": terms, "sum": sum(terms.values()), "below_blocks": below}


def theorem_conditions(seq: CoefficientSeq, indicator: str = "I",
                       B=None, H=None) -> dict:
    """The three information-function criteria for the tail partition.

    Uses the base-2 information function J of the tail set:
      alpha1 = ||J||,
      beta1  = sum_{i>=1} ||J 1_(2**i <= X < 2**(i+1))||  with X = J
               (switch X to the base-3 function H via indicator='H'),
      gamma1 = sum_{i>=0} ||J_i|| over the standard slices.
    A caller that has built the tail set B of ``seq`` or its base-3
    information function H passes them in, and they are not rebuilt.
    """
    if B is None:
        B = tail_set(seq)
    J = info_fn(B, base=2)
    alpha1 = J.l2_norm()
    if indicator == "I":
        X = J
    else:
        X = info_fn(B, base=3) if H is None else H
    xmax = float(X.max_value())
    beta_terms = {}
    i = 1
    while 2 ** i <= max(xmax, 2.0):
        ind = X.indicator_ge(2 ** i) - X.indicator_ge(2 ** (i + 1))
        term = (J * ind).l2_norm()
        if term:
            beta_terms[i] = term
        i += 1
    jmax = float(J.max_value())
    gamma_terms = {}
    i = 0
    while True:
        lo = 0 if i == 0 else 2 ** i
        hi = 2 if i == 0 else 2 ** (i + 1)
        piece = clip_min(J, hi) - clip_min(J, lo) if i else clip_min(J, 2)
        term = piece.l2_norm()
        if term:
            gamma_terms[i] = term
        if hi >= jmax:
            break
        i += 1
    return {
        "alpha1": alpha1,
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
    hs = [-log_ratio(p.numerator, p.denominator) / math.log(3) for p in probs]
    hmax = max(hs)
    terms = {}
    i = 0
    while True:
        tot = sum(float(p) * _slice(h, i) ** 2 for p, h in zip(probs, hs))
        if tot:
            terms[i] = math.sqrt(tot)
        if (2 if i == 0 else 2 ** (i + 1)) >= hmax:
            break
        i += 1
    return {"terms": terms, "sum": sum(terms.values())}


def full_report(seq: CoefficientSeq, indicator: str = "I", B=None, H=None) -> dict:
    """All criteria bundled, as used by the analyze front end.

    The criteria read the moduli of the normalized sequence.  B and H, the
    tail set and its base-3 information function, are passed on to
    ``theorem_conditions``.
    """
    seq = seq.normalized()
    report = {
        "beta": beta_condition(seq),
        "gamma": gamma_condition(seq),
        "sandwich": sandwich_check(seq),
        "tandori": tandori_sum(seq),
        "information": theorem_conditions(seq, indicator=indicator, B=B, H=H),
    }
    if seq.moduli_decreasing():
        report["alpha"] = alpha_condition(seq)
    else:
        report["alpha"] = None
    return report
