"""The one-walk V step, conditional norm and information criteria against
the composed step-function versions they replaced.

The references below are those versions, kept here: the V step as
``h.minimum(c) + cond_norm(pos_part(h, c), j)``, the conditional norm
with a bisect per marked cell, a set of cuts and a sort, and the
information criteria as norms of ``J * ind`` and of differences of
``clip_min``.  They sum with the old ``_weighted_sum``, so none of the
new summing code is on the reference side.  Results must agree in the
lattice, the values, the value types and the float bits.
"""

import bisect
import math
from fractions import Fraction as F

from hypothesis import example, given, settings
import hypothesis.strategies as st

from orthoconv.criteria import theorem_conditions
from orthoconv.info import CoefficientSeq, info_fn, tail_set
from orthoconv.stepfn import (
    StepFunction, _weighted_sum, clip_min, cond_norm, grid_size, grid_width, pos_part,
)
from orthoconv.vcalc import v_step

ZERO = F(0)
REAL = (int, F, float)


# -- references ---------------------------------------------------------

def ref_weighted_sum(terms, den):
    terms = list(terms)
    if all(type(w) is int or type(w) is F for w, _ in terms):
        lcm = math.lcm(*(w.denominator for w, _ in terms))
        return F(sum(w.numerator * (lcm // w.denominator) * n for w, n in terms), lcm * den)
    if all(type(w) in REAL for w, _ in terms):
        k = next(i for i, (w, _) in enumerate(terms) if type(w) is float)
        total = float(ref_weighted_sum(terms[:k], den)) if k else 0.0
        for w, n in terms[k:]:
            total += (w * (n / den) if type(w) is float
                      else (w.numerator * n) / (w.denominator * den))
        return total
    total = ZERO
    for w, n in terms:
        total = total + (w * (n / den) if type(w) is float else w * F(n, den))
    return total


def ref_pieces_between(nums, values, lo, hi):
    i = bisect.bisect_left(nums, lo)
    terms = []
    pos = lo
    while pos < hi:
        seg_hi = min(nums[i], hi)
        terms.append((values[i], seg_hi - pos))
        pos = seg_hi
        i += 1
    return terms


def ref_cond_norm(f, level):
    if not f.is_nonnegative():
        raise ValueError("cond_norm requires a nonnegative function")
    size = grid_size(level)
    width = grid_width(level)
    den = math.lcm(f.den, size)
    nums = [n * (den // f.den) for n in f.nums]
    w = den // size
    marked = []
    for n in nums[:-1]:
        idx, r = divmod(n, w)
        if r and (not marked or marked[-1] != idx):
            marked.append(idx)
    tiny = not float(width)
    cell_rms = {}
    for idx in marked:
        lo = idx * w
        terms = ref_pieces_between(nums, f.values, lo, lo + w)
        if tiny:
            mean = ref_weighted_sum([(F(v) ** 2 if type(v) is float else v * v, n)
                                     for v, n in terms], w)
            if any(type(v) is float for v, _ in terms):
                mean = float(mean)
        else:
            mean = ref_weighted_sum([(v * v, n) for v, n in terms], den) / width
        cell_rms[idx] = float(mean) ** 0.5
    cuts = set(nums)
    for idx in marked:
        cuts.add(idx * w)
        cuts.add((idx + 1) * w)
    cuts.discard(0)
    vals, i, lo = [], 0, 0
    for b in sorted(cuts):
        while nums[i] < b:
            i += 1
        rms = cell_rms.get((lo + b) // (2 * w))
        vals.append(f.values[i] if rms is None else rms)
        lo = b
    return StepFunction.from_lattice(den, sorted(cuts), vals)


def ref_v_step(h, j):
    c = 1 << j
    return h.minimum(c) + ref_cond_norm(pos_part(h, c), j)


def ref_l2_norm(f):
    prev, terms = 0, []
    for n, v in zip(f.nums, f.values):
        terms.append((v * v, n - prev))
        prev = n
    return float(ref_weighted_sum(terms, f.den)) ** 0.5


def ref_block_indicators(B, X, base, exact_blocks):
    """i -> the indicator of 2**i <= X < 2**(i+1), on the gaps of B: from
    X's values (the composed version), or exactly from the gaps."""
    out = {}
    xmax = float(X.max_value())
    i = 1
    while 2 ** i <= max(xmax, 2.0):
        if exact_blocks:
            den, nums = B.den, B.nums
            gaps = [F(b - a, den) for a, b in zip(nums, nums[1:])]
            out[i] = StepFunction.from_lattice(den, nums[1:], [
                int(g <= F(1, base ** 2 ** i) and not g <= F(1, base ** 2 ** (i + 1)))
                for g in gaps])
        else:
            out[i] = X.indicator_ge(2 ** i) - X.indicator_ge(2 ** (i + 1))
        i += 1
    return out


def ref_theorem_conditions(seq, indicator="I", exact_blocks=True):
    B = tail_set(seq)
    J = info_fn(B, base=2)
    X = J if indicator == "I" else info_fn(B, base=3)
    beta_terms = {}
    for i, ind in ref_block_indicators(B, X, 2 if indicator == "I" else 3,
                                       exact_blocks).items():
        term = ref_l2_norm(J * ind)
        if term:
            beta_terms[i] = term
    jmax = float(J.max_value())
    gamma_terms = {}
    i = 0
    while True:
        lo = 0 if i == 0 else 2 ** i
        hi = 2 if i == 0 else 2 ** (i + 1)
        piece = clip_min(J, hi) - clip_min(J, lo) if i else clip_min(J, 2)
        term = ref_l2_norm(piece)
        if term:
            gamma_terms[i] = term
        if hi >= jmax:
            break
        i += 1
    return {
        "alpha1": ref_l2_norm(J),
        "beta1_terms": beta_terms, "beta1": sum(beta_terms.values()),
        "gamma1_terms": gamma_terms, "gamma1": sum(gamma_terms.values()),
        "indicator_variant": indicator,
    }


# -- comparison ---------------------------------------------------------

def typed(x):
    """Value with its type, floats by their bits."""
    return (type(x), x.hex() if type(x) is float else x)


def same_function(f, g):
    return (f.den, f.nums, [typed(v) for v in f.values]) == \
        (g.den, g.nums, [typed(v) for v in g.values])


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (ValueError, TypeError) as e:
        return type(e)


def same_outcome(a, b):
    if isinstance(a, StepFunction) and isinstance(b, StepFunction):
        return same_function(a, b)
    return a == b


def report_bits(rep):
    return {k: ({i: typed(x) for i, x in v.items()} if isinstance(v, dict) else typed(v))
            for k, v in rep.items()}


# -- strategies ---------------------------------------------------------

# thresholds 2**j as ints, floats and Fractions, zeros of all three types
TIES = [0, 0.0, F(0), 1, 1.0, 2, 2.0, F(2), 4, 4.0, F(4), 8, 8.0, 16.0, 1024, 1024.0]
values = st.one_of(
    st.integers(min_value=0, max_value=20),
    st.fractions(min_value=0, max_value=20, max_denominator=64),
    st.floats(min_value=0, max_value=20, allow_nan=False),
    st.floats(min_value=1000, max_value=3000, allow_nan=False),
    st.sampled_from(TIES),
)


@st.composite
def walk_functions(draw, level):
    """Step functions whose breakpoints sit on the level's cell ends, just
    inside cells (so that a marked cell often starts where a piece ends)
    and elsewhere; values of mixed types, ties and zeros."""
    size = grid_size(level)
    bps = set()
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        cell = draw(st.integers(min_value=0, max_value=size - 1))
        kind = draw(st.sampled_from(["end", "inside", "both", "other"]))
        if kind in ("end", "both") and cell:
            bps.add(F(cell, size))
        if kind in ("inside", "both"):
            q = draw(st.integers(min_value=2, max_value=7))
            bps.add(F(cell, size) + F(draw(st.integers(min_value=1, max_value=q - 1)), q * size))
        if kind == "other":
            bps.add(draw(st.fractions(min_value=0, max_value=1, max_denominator=500)
                         .filter(lambda x: 0 < x < 1)))
    bps = sorted(bps | {F(1)})
    vals = draw(st.lists(values, min_size=len(bps), max_size=len(bps)))
    return StepFunction(bps, vals)


levels = st.one_of(st.integers(min_value=0, max_value=3), st.just(10))


@st.composite
def function_and_level(draw):
    level = draw(levels)
    return draw(walk_functions(level)), level


# -- the V step and the conditional norm --------------------------------

@given(function_and_level())
@settings(max_examples=400, deadline=None)
def test_v_step_matches_composed(fl):
    h, j = fl
    assert same_outcome(outcome(v_step, h, j), outcome(ref_v_step, h, j))


@given(function_and_level())
@settings(max_examples=300, deadline=None)
def test_cond_norm_matches_composed(fl):
    f, level = fl
    assert same_outcome(outcome(cond_norm, f, level), outcome(ref_cond_norm, f, level))


def test_cond_norm_cell_starting_on_a_breakpoint_keeps_the_float_path():
    # the cell (8/9, 1] starts where the piece of the float 0.3 ends, so its
    # sum begins with that piece at length 0 and is taken in floats, which
    # here differs in the last bit from rounding the exact mean once
    f = StepFunction([F(8, 9), F(143, 144), F(1)], [0.3, 7, 1])
    got = cond_norm(f, 1)
    assert same_function(got, ref_cond_norm(f, 1))
    exact_mean = ((F(143, 144) - F(8, 9)) * 49 + (1 - F(143, 144))) * 9
    assert got.values[-1] != float(exact_mean) ** 0.5
    float_sum = 0.0 + 0.09 * 0.0 + (49 * 15) / 144 + (1 * 1) / 144
    assert got.values[-1] == (float_sum / float(F(1, 9))) ** 0.5


def test_v_step_at_level_ten_takes_exact_cell_means():
    # cells of width 3**-1024 have a float width of 0
    h = StepFunction([F(1, 3), F(2, 3), F(1)], [1500.5, 2000, 1024.0])
    assert same_function(v_step(h, 10), ref_v_step(h, 10))


@given(st.lists(st.tuples(st.one_of(st.integers(-5, 20),
                                    st.fractions(min_value=-5, max_value=20, max_denominator=30),
                                    st.floats(min_value=-5, max_value=20, allow_nan=False)),
                          st.integers(min_value=0, max_value=10 ** 6)), max_size=8),
       st.sampled_from([1, 7, 3 ** 20, 2 ** 70 + 1]))
@settings(max_examples=300, deadline=None)
def test_weighted_sum_matches_reference(terms, den):
    assert typed(_weighted_sum(terms, den)) == typed(ref_weighted_sum(terms, den))


# -- the information criteria --------------------------------------------

coefficients = st.one_of(
    st.integers(min_value=0, max_value=9),
    st.fractions(min_value=0, max_value=3, max_denominator=50),
    st.floats(min_value=0, max_value=3, allow_nan=False),
    st.integers(min_value=0, max_value=12).map(lambda k: F(1, 2 ** k)),
    st.integers(min_value=0, max_value=8).map(lambda k: F(1, 3 ** k)),
)
EPS = F(1, 10 ** 30)
# squares 2**-4 and 3**-4 of the total, and a hair above and below them
NEAR_BOUNDARY = [[c, 3, 2, 1, 1] for c in (1 - EPS, F(1), 1 + EPS)] + \
    [[c, 8, 4] for c in (1 - EPS, F(1), 1 + EPS)] + \
    [[1 - EPS, 255, 22, 5, 1], [1, 255, 22, 5, 1]]


# J equal to the float 2**10 or 2**9 on the first piece of a run, which a
# clip then keeps as a float: the run's slice term w * (n / den) differs in
# the last bit from (w * n) / den where n / den is subnormal
FLOAT_CLIP_RUNS = [[1, F(1, 3 * 2 ** 515), F(1, 2 ** 512)],
                   [1, F(1, 3 * 2 ** 515), F(1, 2 ** 256)]]


def _blocks_agree(seq, indicator):
    """True when the float X values put every gap in its exact block."""
    B = tail_set(seq)
    base = 2 if indicator == "I" else 3
    X = info_fn(B, base=base)
    exact = ref_block_indicators(B, X, base, True)
    return all(exact[i] == ind for i, ind in ref_block_indicators(B, X, base, False).items())


@given(st.lists(coefficients, min_size=1, max_size=30).filter(lambda c: any(c)),
       st.sampled_from("IH"))
@settings(max_examples=250, deadline=None)
@example(NEAR_BOUNDARY[0], "I")
@example(NEAR_BOUNDARY[2], "I")
@example(NEAR_BOUNDARY[3], "H")
@example(NEAR_BOUNDARY[5], "H")
@example([1, 1, 1, 1], "I")
@example([2], "H")
def test_theorem_conditions_match_composed(coeffs, indicator):
    seq = CoefficientSeq(coeffs).normalized()
    got = report_bits(theorem_conditions(seq, indicator))
    assert got == report_bits(ref_theorem_conditions(seq, indicator))
    # where the float values decide every block as the gaps do, the
    # composed version with the float indicator gives the same bits
    if _blocks_agree(seq, indicator):
        assert got == report_bits(ref_theorem_conditions(seq, indicator, exact_blocks=False))


def test_near_boundary_inputs_match_exact_blocks():
    for coeffs in NEAR_BOUNDARY + FLOAT_CLIP_RUNS:
        seq = CoefficientSeq(coeffs).normalized()
        for indicator in "IH":
            assert report_bits(theorem_conditions(seq, indicator)) == \
                report_bits(ref_theorem_conditions(seq, indicator))
