"""Step-function algebra and conditional norms."""

import bisect
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from orthoconv.exactnum import exact_sqrt, format_rational
from orthoconv.stepfn import (
    StepFunction, _Levels, clip_min, cond_norm, format_lattice, grid_size,
    pointwise, pos_part,
)


def test_eval_constant():
    f = StepFunction.constant(1)
    assert f.eval(F(1, 2)) == 1


def test_eval_left_open_right_closed():
    f = StepFunction([F(1, 3), F(1)], [1, 2])
    assert f.eval(F(1, 3)) == 1
    assert f.eval(F(34, 100)) == 2


def test_eval_outside_domain():
    f = StepFunction.constant(1)
    with pytest.raises(ValueError):
        f.eval(0)
    with pytest.raises(ValueError):
        f.eval(F(3, 2))


def test_clip_of_constant():
    assert clip_min(StepFunction.constant(5), 2) == StepFunction.constant(2)


def test_band_slice_of_constant():
    f = StepFunction.constant(5)
    f1 = clip_min(f, 4) - clip_min(f, 2)
    assert f1 == StepFunction.constant(2)


def test_upper_slice_decomposition():
    f = StepFunction.constant(5)
    up1 = f - clip_min(f, 2)
    assert up1 == StepFunction.constant(3)
    down1 = clip_min(f, 2)
    mid1 = clip_min(f, 4) - clip_min(f, 2)
    up2 = f - clip_min(f, 4)
    assert down1 + mid1 + up2 == f


def test_l2_norm_constant():
    assert StepFunction.constant(-3).l2_norm() == pytest.approx(3.0)


def test_l2_norm_two_pieces():
    f = StepFunction([F(1, 3), F(1)], [1, 2])
    assert f.integral_sq() == F(3)
    assert f.l2_norm() == pytest.approx(math.sqrt(3))


def test_l2_norm_indicator():
    f = StepFunction.indicator(0, F(1, 9))
    assert f.l2_norm() == pytest.approx(1 / 3)


def test_cond_norm_measurable_fixed_point():
    f = StepFunction([F(1, 3), F(2, 3), F(1)], [1, 2, 1])
    assert cond_norm(f, 0) == f


def test_cond_norm_two_level_zero():
    f = StepFunction([F(1, 3), F(1)], [1, 2])
    assert cond_norm(f, 0) == f


def test_cond_norm_half_cell():
    f = StepFunction.indicator(0, F(1, 6))
    g = cond_norm(f, 0)
    assert g.breakpoints == (F(1, 3), F(1))
    assert g.values[0] == pytest.approx(math.sqrt(1 / 2))
    assert g.values[1] == 0


def test_cond_norm_rejects_negative():
    f = StepFunction([F(1, 2), F(1)], [-1, 1])
    with pytest.raises(ValueError):
        cond_norm(f, 0)


def test_cond_norm_never_materializes_deep_grids():
    # level 5 has 3**32 cells; sparse handling must stay instant
    f = StepFunction([F(1, 3 ** 30), F(1)], [2, 1])
    g = cond_norm(f, 5)
    assert g.eval(F(1)) == 1


def test_pointwise_ops_and_canonical_merge():
    f = StepFunction([F(1, 2), F(1)], [1, 3])
    g = StepFunction([F(1, 4), F(1)], [5, 1])
    s = pointwise(f, g, "+")
    assert s.eval(F(1, 8)) == 6
    assert s.eval(F(3, 8)) == 2
    assert s.eval(F(3, 4)) == 4
    m = pointwise(f, g, "min")
    assert m.eval(F(1, 8)) == 1 and m.eval(F(3, 4)) == 1
    p = pos_part(f, 2)
    assert p.eval(F(1, 4)) == 0 and p.eval(F(3, 4)) == 1


def test_restrict_and_translate():
    f = StepFunction.constant(2)
    r = f.restrict(F(1, 3), F(2, 3))
    assert r.integral() == F(2, 3)


# Denominators: small triadic and mixed ones, and 1000+-bit products of
# large primes (Mersenne primes) like the common denominators of rational
# tail sets, also times powers of 3.
M89, M127, M521, M607, M1279 = (2 ** p - 1 for p in (89, 127, 521, 607, 1279))
DENOMINATORS = [9, 27, 81, 243, 54, 162, 3 ** 40,
                M521 * M607, M1279, M89 * M127 * M521 * M607,
                M521 * M607 * 3 ** 5, M1279 * 3 ** 16, M127 * 3 ** 81]


@st.composite
def breakpoints_01(draw):
    den = draw(st.sampled_from(DENOMINATORS))
    num = draw(st.integers(min_value=1, max_value=den - 1))
    return F(num, den)


values = st.one_of(
    st.fractions(min_value=0, max_value=20, max_denominator=64),
    st.integers(min_value=0, max_value=20),
    st.floats(min_value=0, max_value=20, allow_nan=False),
    # equal values of different types: a merged run keeps its first value
    st.sampled_from([0, 0.0, F(0), 1, 1.0, F(1), 2, 2.0]))


@st.composite
def raw_step_functions(draw, vals=values):
    """(breakpoints, values) as plain lists, before canonical merging."""
    bps = sorted(set(draw(st.lists(breakpoints_01(), min_size=0, max_size=8)))
                 | {F(1)})
    return bps, draw(st.lists(vals, min_size=len(bps), max_size=len(bps)))


@st.composite
def step_functions(draw):
    bps, vals = draw(raw_step_functions(
        st.fractions(min_value=0, max_value=20, max_denominator=64)))
    return StepFunction(bps, vals)


@given(step_functions())
@settings(max_examples=60, deadline=None)
def test_json_roundtrip_exact(f):
    assert StepFunction.from_json(f.to_json()) == f


@given(step_functions(), st.integers(min_value=0, max_value=2))
@settings(max_examples=60, deadline=None)
def test_cond_norm_preserves_l2_norm(f, level):
    g = cond_norm(f, level)
    assert abs(g.l2_norm() - f.l2_norm()) <= 1e-12


@given(step_functions(), step_functions(), st.integers(min_value=0, max_value=2))
@settings(max_examples=60, deadline=None)
def test_cond_norm_monotone_and_subadditive(f, g, level):
    bigger = f + g
    assert cond_norm(f, level).pointwise_le(cond_norm(bigger, level), tol=1e-12)
    lhs = cond_norm(bigger, level)
    rhs = cond_norm(f, level) + cond_norm(g, level)
    assert lhs.pointwise_le(rhs, tol=1e-12)


@given(step_functions(), st.integers(min_value=0, max_value=2))
@settings(max_examples=40, deadline=None)
def test_cond_norm_output_measurable(f, level):
    g = cond_norm(f, level)
    size = grid_size(level)
    for b in g.breakpoints[:-1]:
        assert (b.numerator * size) % b.denominator == 0


# -- plain-Fraction oracle ------------------------------------------------
# A step function is (breakpoints, values) with Fraction breakpoints, run
# through direct Fraction versions of the library's algorithms.  The
# integer-lattice implementation must match them, float results bit for
# bit and value types included.

def o_canon(bps, vals):
    ob, ov = [], []
    for b, v in zip(bps, vals):
        if ov and ov[-1] == v:
            ob[-1] = b
        else:
            ob.append(b)
            ov.append(v)
    return ob, ov


def o_eval(f, t):
    return f[1][bisect.bisect_left(f[0], t)]


def o_binary(f, g, op):
    bps = sorted(set(f[0]) | set(g[0]))
    return o_canon(bps, [op(o_eval(f, b), o_eval(g, b)) for b in bps])


def o_integral_sq_between(f, lo, hi):
    total = F(0)
    i = bisect.bisect_left(f[0], lo)
    pos = lo
    while pos < hi:
        seg_hi = min(f[0][i], hi)
        total = total + f[1][i] * f[1][i] * (seg_hi - pos)
        pos = seg_hi
        i += 1
    return total


def o_cond_norm(f, level):
    size = grid_size(level)
    width = F(1, size)
    marked = sorted({math.floor(b * size) for b in f[0][:-1]
                     if (b * size).denominator != 1})
    rms = {idx: float(o_integral_sq_between(f, idx * width, (idx + 1) * width)
                      / width) ** 0.5 for idx in marked}
    cuts = sorted((set(f[0]) | {k * width for idx in marked for k in (idx, idx + 1)})
                  - {F(0)})
    vals, lo = [], F(0)
    for b in cuts:
        cell = math.floor((lo + b) / 2 * size)
        vals.append(rms[cell] if cell in rms else o_eval(f, b))
        lo = b
    return o_canon(cuts, vals)


def o_indicator(lo, hi):
    bps = [b for b in (lo, hi, F(1)) if b > 0]
    vals = ([0] if lo > 0 else []) + [1] + ([0] if hi < 1 else [])
    return sorted(set(bps)), vals


def typed(vals):
    return [(type(v), v) for v in vals]


def same(g, o):
    """The library function g equals the oracle pair o, value types included."""
    ob, ov = o
    return g.breakpoints == tuple(ob) and typed(g.values) == typed(ov)


# ties keep the library's choice: min takes a, max takes b
O_OPS = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
         "min": lambda a, b: a if a <= b else b,
         "max": lambda a, b: b if a <= b else a, "mul": lambda a, b: a * b}


@given(raw_step_functions(), raw_step_functions(),
       st.sampled_from(sorted(O_OPS)))
@settings(max_examples=150, deadline=None)
def test_lattice_binary_ops_match_oracle(rf, rg, op):
    f, g = StepFunction(*rf), StepFunction(*rg)
    assert same(pointwise(f, g, op), o_binary(o_canon(*rf), o_canon(*rg), O_OPS[op]))


@given(raw_step_functions(), breakpoints_01(), breakpoints_01())
@settings(max_examples=100, deadline=None)
def test_lattice_restrict_translate_integral_match_oracle(rf, x, y):
    lo, hi = min(x, y), max(x, y)
    f, o = StepFunction(*rf), o_canon(*rf)
    ind = o_indicator(lo, hi) if lo < hi else ([F(1)], [0])
    assert same(f.restrict(lo, hi), o_binary(o, ind, lambda a, b: a * b))
    assert f.integral_sq() == o_integral_sq_between(o, F(0), F(1))


@given(raw_step_functions(), st.lists(breakpoints_01(), max_size=4))
@settings(max_examples=100, deadline=None)
def test_lattice_eval_matches_oracle(rf, ts):
    f, o = StepFunction(*rf), o_canon(*rf)
    # also just right of each breakpoint, within one lattice step
    for t in ts + rf[0] + [b + F(1, 2 * f.den) for b in o[0][:-1]]:
        assert (type(f.eval(t)), f.eval(t)) == (type(o_eval(o, t)), o_eval(o, t))


@given(raw_step_functions(), st.integers(min_value=0, max_value=4))
@settings(max_examples=100, deadline=None)
def test_lattice_cond_norm_matches_oracle(rf, level):
    assert same(cond_norm(StepFunction(*rf), level), o_cond_norm(o_canon(*rf), level))


@given(raw_step_functions(), st.sampled_from([3, 7, 3 ** 20, M127, M521 * 3 ** 4]),
       st.lists(breakpoints_01(), max_size=3))
@settings(max_examples=100, deadline=None)
def test_lattice_canonical_form_is_unique(rf, k, extra):
    bps, vals = rf
    f = StepFunction(bps, vals)
    # the same function on a k times finer lattice
    den = math.lcm(*(b.denominator for b in bps)) * k
    g = StepFunction.from_lattice(den, [b.numerator * (den // b.denominator)
                                        for b in bps], vals)
    # ... and with extra breakpoints inside pieces, which merging removes
    split = sorted(set(bps) | set(extra))
    h = StepFunction(split, [o_eval((bps, vals), b) for b in split])
    for other in (g, h):
        assert other == f and hash(other) == hash(f)
        assert (other.den, other.nums) == (f.den, f.nums)
    assert math.gcd(f.den, *f.nums) == 1
    assert f.breakpoints == tuple(o_canon(bps, vals)[0])


# -- step functions made of runs ---------------------------------------------


def fraction_runs_oracle(pieces):
    """The Fraction-breakpoint builder that ``StepFunction.from_runs``
    replaced: v on each (lo, hi], 0 elsewhere."""
    out = StepFunction.constant(0)
    if not pieces:
        return out
    bps = []
    vals = []
    pos = F(0)
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
        bps.append(F(1))
        vals.append(0)
    return StepFunction(bps, vals)


def same_lattice(f, g):
    return (f.den, f.nums, typed(f.values)) == (g.den, g.nums, typed(g.values))


run_values = st.one_of(values, st.sampled_from([0, F(0), 1, F(1), 1.0]),
                       st.sampled_from([exact_sqrt(2), -exact_sqrt(3) / 9]))


@st.composite
def runs_on_lattice(draw):
    """(den, runs): disjoint runs, adjacent ones included, in any order."""
    den = draw(st.sampled_from([1, 3, 9, 81, 6 * 81, 2 ** 61 - 1]))
    cuts = sorted(set(draw(st.lists(st.integers(0, den), max_size=8))) | {0, den})
    runs = [(lo, hi, draw(run_values)) for lo, hi in zip(cuts, cuts[1:])
            if draw(st.booleans())]
    return den, draw(st.permutations(runs))


@given(runs_on_lattice())
@settings(max_examples=300, deadline=None)
def test_from_runs_matches_fraction_builder(dr):
    den, runs = dr
    want = fraction_runs_oracle([(F(lo, den), F(hi, den), v) for lo, hi, v in runs])
    assert same_lattice(StepFunction.from_runs(den, runs), want)


def test_from_runs_refuses_overlap():
    for runs in ([(0, 3, 1), (2, 5, 1)], [(0, 3, 1), (0, 2, 2)], [(4, 9, 1), (0, 5, 1)]):
        with pytest.raises(ValueError, match="overlapping pieces"):
            StepFunction.from_runs(9, runs)


@pytest.mark.parametrize("window", [(0, 1), (F(1, 3), F(2, 3)), (F(1, 9), F(5, 27)),
                                    (F(2, 7), F(5, 7))])
@pytest.mark.parametrize("scale", [1, F(2, 3), exact_sqrt(2)])
def test_phi_family_bodies_match_fraction_builder(window, scale):
    from orthoconv.construct import _phi_runs, phi_family
    from orthoconv.ortho import OrthoVector
    a, b = F(window[0]), F(window[1])
    chi = OrthoVector.basis(0)
    for k in range(4):
        fam = phi_family(k, chi, window=window, scale=scale)
        factor = scale * (1 / exact_sqrt(b - a))
        cellw = (b - a) / 3 ** k
        chi_coeff = scale * exact_sqrt(F(3)) / (3 ** k)
        for n, vec in enumerate(fam):
            body = fraction_runs_oracle([(a + lo * cellw, a + (lo + cnt) * cellw, val * factor)
                                         for lo, cnt, val in _phi_runs(n, k)])
            want = OrthoVector(body) + chi_coeff * chi
            assert same_lattice(vec.body, want.body) and vec.ext == want.ext


@pytest.mark.parametrize("seed", range(6))
def test_type_reduction_corrections_match_fraction_builder(seed):
    import random
    from orthoconv.info import type_level_representation
    from orthoconv.stepfn import grid_width
    from orthoconv.suites import _sparse_type5_fn
    from orthoconv.vcalc import type_reduction
    h = _sparse_type5_fn(random.Random(seed))
    red = type_reduction(h, 5)
    w1 = grid_width(6)
    f_pieces, g_pieces = [], []
    for (m, cells), (m2, sel) in zip(type_level_representation(h, 5), red.selections):
        assert m == m2
        for (n, _), ck, dk in zip(cells, sel.c, sel.d):
            if ck:
                f_pieces.append((n * w1, (n + 1) * w1, ck))
            if dk:
                g_pieces.append((n * w1, (n + 1) * w1, dk))
    assert f_pieces or g_pieces
    assert same_lattice(red.f_corr, fraction_runs_oracle(f_pieces))
    assert same_lattice(red.g_corr, fraction_runs_oracle(g_pieces))


def sparse_type5_oracle(rng):
    """The Fraction-breakpoint builder that ``suites._sparse_type5_fn``
    replaced: 2**6 + r on random level-6 cells, the base 2**5 elsewhere."""
    from orthoconv.stepfn import grid_width
    j = 5
    w1 = grid_width(j + 1)
    wj = grid_width(j)
    base = F(2) ** j
    pieces = []
    for cell in rng.sample(range(6), 2):
        lo = cell * wj
        for r in range(rng.randrange(2, 6)):
            slo = lo + r * w1
            pieces.append((slo, slo + w1, F(2) ** (j + 1) + rng.randrange(0, 2 ** (2 * j))))
    pieces.sort()
    bps, vals = [], []
    pos = F(0)
    for slo, shi, v in pieces:
        if slo > pos:
            bps.append(slo)
            vals.append(base)
        bps.append(shi)
        vals.append(v)
        pos = shi
    if pos < 1:
        bps.append(F(1))
        vals.append(base)
    return StepFunction(bps, vals)


def test_sparse_type5_fn_matches_fraction_builder():
    import random
    from orthoconv.suites import _sparse_type5_fn
    for seed in range(200):
        got = _sparse_type5_fn(random.Random(seed))
        assert same_lattice(got, sparse_type5_oracle(random.Random(seed))), seed


# -- exact levels of ratios ------------------------------------------------

@given(st.sampled_from([2, 3]), st.integers(min_value=0, max_value=11),
       st.integers(min_value=1, max_value=2 ** 260),
       st.sampled_from([-1, 0, 1]), st.integers(min_value=0, max_value=2 ** 40),
       st.booleans())
@settings(max_examples=400, deadline=None)
def test_levels_match_fraction_comparisons(base, k, n, sign, offset, strict):
    # den within 2**-200 (relative) of n * base**(2**k), when n is large
    den = max(1, n * base ** 2 ** k + sign * offset)
    ratio = F(den, n)
    want = -1
    while (ratio > base ** 2 ** (want + 1)) if strict else (ratio >= base ** 2 ** (want + 1)):
        want += 1
    assert _Levels(base)(n, den, strict) == want


# -- printing a lattice ----------------------------------------------------

@given(st.integers(min_value=1, max_value=2 ** 300),
       st.lists(st.integers(min_value=0, max_value=2 ** 300), max_size=40),
       st.data())
@settings(max_examples=200, deadline=None)
def test_format_lattice_matches_format_rational(den, nums, data):
    # g == 1, g == den (the integer points, 0 among them), and many
    # distinct g: multiples of the divisors of a smooth den
    if data.draw(st.booleans()):
        den = math.factorial(data.draw(st.integers(1, 60)))
        nums = [n * math.gcd(den, d) for n, d in zip(nums, data.draw(
            st.lists(st.integers(1, den), min_size=len(nums), max_size=len(nums))))]
    nums = nums + [0, den, 2 * den, 1]
    assert format_lattice(den, nums) == [format_rational(F(n, den)) for n in nums]
