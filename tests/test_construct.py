"""Generator family, certificates, and the divergent-process builder."""

import math
from fractions import Fraction as F

import pytest
import sympy

from orthoconv.construct import (
    TernaryContext, bernstein_check, build_divergent,
    corollary_equal_blocks, corollary_union, digit_sum_fn, divergent_prefix,
    example_process, grid_cert, hat_residue, householder_family, merge, nest,
    phi_family, split_increment, trivial_cert,
)
from orthoconv.info import PointSet
from orthoconv.ortho import IdAllocator, OrthoVector, maximal_function
from orthoconv.stepfn import StepFunction
from orthoconv.exactnum import exact_sqrt
from orthoconv.suites import run_suite


def unit_chi(i=0):
    return OrthoVector.basis(i)


def test_hat_residue():
    assert [hat_residue(m) for m in range(-3, 4)] == [0, 1, -1, 0, 1, -1, 0]
    for m in range(-10, 10):
        assert (hat_residue(m) - m) % 3 == 0
        assert hat_residue(m) in (-1, 0, 1)


def test_ternary_context_digits():
    ctx = TernaryContext(2)
    x1, x2 = ctx.digit(1), ctx.digit(2)
    assert x1.eval(F(1, 6)) == 0 and x1.eval(F(1, 2)) == 1 and x1.eval(F(5, 6)) == 2
    assert x2.eval(F(1, 18)) == 0 and x2.eval(F(5, 18)) == 2
    assert set(x2.values) <= {0, 1, 2}
    # digit functions are constant on cells of width 3**-l
    assert all((b.numerator * 9) % b.denominator == 0 for b in x2.breakpoints[:-1])


def test_digit_sum():
    ds = digit_sum_fn(2)
    assert ds.measure_ge(2) == F(1, 9)
    assert ds.measure_ge(1) == F(5, 9)
    assert ds.integral() == F(2, 3)


# -- the generator family ---------------------------------------------------

def test_family_norms_and_gram_k1():
    fam = phi_family(1, unit_chi())
    for i, u in enumerate(fam):
        assert u.norm_sq() == F(3, 3)
        for v in fam[i + 1:]:
            assert u.inner(v) == 0


def test_family_hat_packet_inner_products():
    # the packets 1_(prefix) hat(digit_l - d) behind the family: squared
    # norms 2/3**l and cross products -1/3**l for differing last digit
    ctx = TernaryContext(3)
    for l in (1, 2, 3):
        prefix = StepFunction.constant(1)
        for r in range(1, l):
            prefix = prefix * ctx.digit_indicator(r, 0)
        g0 = prefix * ctx.hat_of_digit(l, 0)
        g1 = prefix * ctx.hat_of_digit(l, 1)
        assert (g0 * g0).integral() == F(2, 3 ** l)
        assert (g0 * g1).integral() == F(-1, 3 ** l)
        assert g0.integral() == 0


def test_family_sum_identities():
    # over a full digit range the hat packets cancel; over partial ranges
    # they stay below the ones-indicator scaled by the suffix count, with
    # equality on the matching digit cell
    ctx = TernaryContext(2)
    k = 2
    for l in (1, 2):
        ones = ctx.digit_indicator(l, 1)
        full = (ctx.hat_of_digit(l, 0) + ctx.hat_of_digit(l, 1)
                + ctx.hat_of_digit(l, 2))
        assert full == StepFunction.constant(0)
        for lam_num in (0, 1, 2):
            lam = F(lam_num, 2)
            partial = lam * ctx.hat_of_digit(l, 0)
            assert partial.pointwise_le(ones)
            partial2 = ctx.hat_of_digit(l, 0) + lam * ctx.hat_of_digit(l, 1)
            assert partial2.pointwise_le(ones)
            partial3 = (ctx.hat_of_digit(l, 0) + ctx.hat_of_digit(l, 1)
                        + lam * ctx.hat_of_digit(l, 2))
            assert partial3.pointwise_le(ones)
        # equality of the saturated partial sum on the matching cells
        eq1 = ctx.hat_of_digit(l, 0) + ctx.hat_of_digit(l, 1)
        assert (eq1 - ones) * ctx.digit_indicator(l, 1) == StepFunction.constant(0)


def test_family_exactness_suite():
    r = run_suite("family_exactness", seed=0)
    assert r["passed"], r


def test_family_on_window():
    fam = phi_family(1, unit_chi(), window=(F(1, 3), F(2, 3)))
    for u in fam:
        assert u.norm_sq() == 1
        assert u.body_support_in(F(1, 3), F(2, 3))
    tot = fam[0] + fam[1] + fam[2]
    assert all(v == 0 for v in tot.body.values)


def test_family_rejects_bad_chi():
    with pytest.raises(ValueError):
        phi_family(1, OrthoVector.basis(0) * 2)
    body_chi = OrthoVector(StepFunction.indicator(0, F(1, 2)))
    with pytest.raises(ValueError):
        phi_family(1, body_chi)  # body meets the window
    with pytest.raises(ValueError):
        phi_family(8, unit_chi())


def test_bernstein_examples():
    tail, bound, ok = bernstein_check(1)
    assert tail == F(2, 3) and ok
    tail6, _, ok6 = bernstein_check(6)
    assert tail6 == F(64, 729) and ok6
    tail144, bound144, ok144 = bernstein_check(144)
    assert float(tail144) < bound144 == pytest.approx(math.exp(-1))
    assert ok144


def test_bernstein_suite():
    r = run_suite("digit_tail_bound", seed=0, count=200)
    assert r["passed"], r


# -- orthogonal completions --------------------------------------------------

def test_householder_family_exact():
    alloc = IdAllocator(10)
    head = unit_chi()
    alphas = [exact_sqrt(F(1, 2)), F(1, 2), F(1, 2)]
    fam = householder_family(head, alphas, alloc)
    for i, u in enumerate(fam):
        assert sympy.simplify(sympy.sympify(u.norm_sq()) - 1) == 0
        for v in fam[i + 1:]:
            assert sympy.simplify(sympy.sympify(u.inner(v))) == 0
    comb = OrthoVector()
    for a, u in zip(alphas, fam):
        comb = comb + a * u
    assert comb.equals(head)


def test_split_increment_exact():
    alloc = IdAllocator(5)
    vec = OrthoVector(StepFunction.indicator(0, F(1, 2), value=2, base=0), {0: 1})
    parts = split_increment(vec, [F(1, 4), F(1, 2), F(1, 4)], alloc)
    total = OrthoVector()
    for u in parts:
        total = total + u
    assert total.equals(vec)
    for i, u in enumerate(parts):
        for v in parts[i + 1:]:
            assert sympy.simplify(sympy.sympify(u.inner(v))) == 0
    ns = vec.norm_sq()
    for u, frac in zip(parts, [F(1, 4), F(1, 2), F(1, 4)]):
        assert sympy.simplify(sympy.sympify(u.norm_sq()) - frac * ns) == 0


def test_split_increment_zero_part():
    alloc = IdAllocator(5)
    vec = unit_chi()
    parts = split_increment(vec, [F(1, 2), 0, F(1, 2)], alloc)
    assert parts[1].is_zero()


# -- certificates -------------------------------------------------------------

def test_trivial_cert_conditions():
    B = PointSet([0, F(1, 4), F(1, 2), 1])
    cert = trivial_cert(B, 0, 1)
    rep = cert.verify_challenge(0, 1, unit_chi())
    assert rep["starts_at_zero"] and rep["final_value_ok"] and rep["membership_ok"]
    assert rep["gram_deviation"] == 0
    assert cert.y == 0


def test_trivial_cert_empty_window():
    B = PointSet([0, F(1, 2), 1])
    cert = trivial_cert(B, 0, 1)
    rep = cert.verify_challenge(F(1, 4), F(1, 4), unit_chi())
    assert rep["final_value_ok"] and rep["gram_deviation"] == 0
    # bridge witnesses carry no body at all
    X = rep["process"]
    assert all(X.vectors[t].body == StepFunction.constant(0) for t in X.times)


def test_grid_cert_k1():
    B = PointSet([0, F(1, 3), F(2, 3), 1])
    cert = grid_cert(B, 0, 1, 1)
    assert cert.y == 4
    rep = cert.verify_challenge(0, 1, unit_chi())
    assert rep["final_value_ok"] and rep["membership_ok"]
    assert rep["gram_deviation"] == 0
    assert rep["good_measure"] == F(1, 3)
    assert rep["achieved_eps"] == pytest.approx(2 / 3)
    # the achieved failure measure even satisfies the asymptotic bound here
    assert rep["achieved_eps"] <= rep["nominal_eps"]


def test_grid_cert_requires_grid_points():
    B = PointSet([0, F(1, 3), 1])
    with pytest.raises(ValueError):
        grid_cert(B, 0, 1, 1)


def test_grid_cert_refines_extra_points():
    B = PointSet([0, F(1, 6), F(1, 3), F(2, 3), 1])
    cert = grid_cert(B, 0, 1, 1)
    rep = cert.verify_challenge(0, 1, unit_chi())
    assert rep["final_value_ok"] and rep["membership_ok"]
    assert rep["gram_deviation"] == 0
    assert F(1, 6) in rep["process"].vectors


def test_example_process_final_value():
    cert, rep = example_process(1, unit_chi())
    X = rep["process"]
    final = X.vectors[X.times[-1]]
    target = (24 * exact_sqrt(3)) * unit_chi()
    assert final.equals(target)
    # increment norms: 3 * 24**2 * 3**-k
    t0, t1 = X.times[0], X.times[1]
    inc = X.vectors[t1] - X.vectors[t0]
    assert sympy.simplify(sympy.sympify(inc.norm_sq()) - 3 * 24 ** 2 * F(1, 3)) == 0


def test_example_process_rescaled_window():
    cert, rep = example_process(
        1, unit_chi(), window=(F(1, 3), F(2, 3)),
        B=PointSet([0, F(1, 4), F(5, 12), F(7, 12), F(3, 4), 1]),
        interval=(F(1, 4), F(3, 4)))
    assert rep["final_value_ok"] and rep["membership_ok"]
    assert rep["gram_deviation"] == 0
    assert sympy.simplify(sympy.sympify(cert.y) - 4 * sympy.sqrt(F(1, 2))) == 0


def test_merge_identity_single():
    B = PointSet([0, F(1, 3), F(2, 3), 1])
    cert = grid_cert(B, 0, 1, 1)
    merged = merge([cert])
    assert merged.y * merged.y == 16
    rep = merged.verify_challenge(0, 1, unit_chi())
    assert rep["final_value_ok"] and rep["gram_deviation"] == 0


def test_merge_two_equal_halves():
    pts = [F(n, 6) for n in range(7)]
    B = PointSet(pts)
    c1 = grid_cert(B, 0, F(1, 2), 1)
    c2 = grid_cert(B, F(1, 2), 1, 1)
    merged = merge([c1, c2])
    # equal thresholds: y_total = y sqrt(2)
    want = sympy.sympify(c1.y) * sympy.sqrt(2)
    assert sympy.simplify(sympy.sympify(merged.y) - want) == 0
    rep = merged.verify_challenge(0, 1, unit_chi())
    assert rep["final_value_ok"] and rep["membership_ok"]
    assert rep["gram_deviation"] == 0
    # failure fraction no worse than the worst part
    sub1 = c1.verify_challenge(0, F(1, 2), unit_chi(1))
    assert rep["achieved_eps"] <= sub1["achieved_eps"] + 1e-9


@pytest.fixture
def sympy_seeds():
    """Seeds for sympy's random order of assumption queries.

    Each seed is set with a cleared cache, so that every expression is
    built, and its facts deduced, afresh; afterwards the generators are
    reseeded from the system, as at import.
    """
    def each(count):
        for s in range(count):
            sympy.core.random.seed(s)
            sympy.core.cache.clear_cache()
            yield s
    yield each
    sympy.core.random.seed()


def test_exact_zero_any_assumption_order():
    # a Gram deviation of the merged certificate below; some query orders
    # of sympy's is_zero on its sympy form raise InconsistentAssumptions,
    # while field arithmetic reduces it to the rational 0
    r = 1 - 1 / (2 * (1 - exact_sqrt(2) / 2))
    dev = -48 + 96 * r * r
    assert dev == 0 and type(dev) is F


def test_merge_gram_exact_any_assumption_order(sympy_seeds):
    pts = [F(n, 6) for n in range(7)]
    for s in sympy_seeds(200):
        B = PointSet(pts)
        merged = merge([grid_cert(B, 0, F(1, 2), 1),
                        grid_cert(B, F(1, 2), 1, 1)])
        rep = merged.verify_challenge(0, 1, unit_chi())
        assert rep["gram_deviation"] == 0 and rep["final_value_ok"], s


def test_merge_rejects_overlap():
    B = PointSet([0, F(1, 3), F(2, 3), 1])
    c1 = trivial_cert(B, 0, F(2, 3))
    c2 = trivial_cert(B, F(1, 3), 1)
    with pytest.raises(ValueError):
        merge([c1, c2])


def test_merge_empty():
    with pytest.raises(ValueError):
        merge([])


def test_nest_three_gaps():
    B = PointSet([0, F(1, 3), F(2, 3), 1])
    subs = [trivial_cert(B, 0, F(1, 3)), trivial_cert(B, F(1, 3), F(2, 3)),
            trivial_cert(B, F(2, 3), 1)]
    cert = nest(1, subs)
    assert cert.y == 4
    rep = cert.verify_challenge(0, 1, unit_chi())
    assert rep["final_value_ok"] and rep["membership_ok"]
    assert rep["gram_deviation"] == 0
    assert rep["good_measure"] == F(1, 3)


def test_nest_validates_carriers():
    B = PointSet([0, F(1, 3), F(1, 2), F(2, 3), 1])
    subs = [trivial_cert(B, 0, F(1, 3)), trivial_cert(B, F(1, 3), F(1, 2)),
            trivial_cert(B, F(1, 2), 1)]
    with pytest.raises(ValueError):
        nest(1, subs)  # unequal lengths
    with pytest.raises(ValueError):
        nest(1, subs[:2])  # wrong count


def test_corollary_union_form():
    pts = [F(n, 6) for n in range(7)]
    B = PointSet(pts)
    c1 = grid_cert(B, 0, F(1, 2), 1)
    c2 = grid_cert(B, F(1, 2), 1, 1)
    h = StepFunction.constant(c1.y / exact_sqrt(F(1, 2)))
    out = corollary_union([c1, c2], h)
    want_sq = (h * h).integral()
    assert out.y * out.y == want_sq


def test_corollary_equal_blocks_form():
    B = PointSet([0, F(1, 3), F(2, 3), 1])
    subs = [trivial_cert(B, 0, F(1, 3)), trivial_cert(B, F(1, 3), F(2, 3)),
            trivial_cert(B, F(2, 3), 1)]
    out = corollary_equal_blocks(1, subs, level_value=0)
    assert out.y == 4


# -- the divergent-process builder -------------------------------------------

def test_build_divergent_trivial_set():
    # nothing outside the base quadruple: the builder still nests once
    out = build_divergent(PointSet([0, F(1, 3), F(2, 3), 1]))
    assert out["achieved_y"] == pytest.approx(4.0)


def test_build_divergent_base_set_is_rescaled_depth1():
    out = build_divergent(PointSet([0, F(1, 3), F(2, 3), 1]), y_target=4)
    assert out["achieved_y"] == pytest.approx(4.0)
    assert out["exceedance_at_achieved_y"] == F(1, 3)
    rep = out["report"]
    assert rep["final_value_ok"] and rep["membership_ok"]
    assert rep["gram_deviation"] == 0
    # matches the direct depth-1 grid construction exactly
    direct = grid_cert(PointSet([0, F(1, 3), F(2, 3), 1]), 0, 1, 1)
    m_direct = maximal_function(
        direct.verify_challenge(0, 1, unit_chi())["process"])
    m_built = maximal_function(rep["process"])
    assert m_direct == m_built


def test_build_divergent_full_level1_grid():
    out = build_divergent(PointSet([F(n, 9) for n in range(10)]), y_target=8)
    assert out["achieved_y"] == pytest.approx(8.0)
    assert out["exceedance_at_target"] == F(5, 9)
    rep = out["report"]
    assert rep["final_value_ok"] and rep["membership_ok"]
    assert rep["gram_deviation"] == 0


def test_build_divergent_rejects_bad_sets():
    with pytest.raises(ValueError):
        build_divergent(PointSet([0, F(1, 2), 1]))
    with pytest.raises(ValueError):
        build_divergent(PointSet([0, F(1, 3), F(2, 3), F(1, 243), F(2, 243), 1]))


def test_build_divergent_large_max_event():
    # quantitative engine: the unit-scaled process exceeds 1 with measure
    # greater than 1/6 on a rich enough set
    out = build_divergent(PointSet([F(n, 81) for n in range(82)]),
                          check_gram=False)
    X = out["report"]["process"]
    m = maximal_function(X, absolute=True)
    thr = 24 * math.sqrt(3)  # unit rescaling of the exceedance level 1
    measure = m.measure_gt(thr)
    assert float(measure) > 1 / 6


def test_divergent_prefix_product():
    B = PointSet([0, F(1, 3), F(2, 3), 1])
    pp = divergent_prefix([B, B], [1, F(1, 2), 0])
    union, per = pp.oscillation_exceedance(24)
    assert per == [F(1, 3), F(1, 3)]
    assert union == F(5, 9)


def test_family_ranged_sum_identities_k3():
    # partial sums of hat(digit_l - m_l) over index ranges with a common
    # prefix: below the ones-indicator scaled by the suffix count, with
    # equality on the matching digit cell, and zero over a full range
    k = 3
    ctx = TernaryContext(k)

    def digits(n):
        return [(n // 3 ** (k - 1 - r)) % 3 for r in range(k)]

    # (prefix digits, suffix digits): the varied position is in between,
    # so len(prefix) + 1 + len(suffix) == k
    rngs = [([0, 0], []), ([1], [2]), ([], [0, 2]), ([2], [1])]
    for prefix, suffix in rngs:
        l = len(prefix) + 1
        lo = sum(p * 3 ** (k - 1 - r) for r, p in enumerate(prefix))
        for last_digit in (0, 1, 2):
            hi = lo + last_digit * 3 ** (k - l) + sum(
                s * 3 ** (k - l - 1 - r) for r, s in enumerate(suffix))
            total = StepFunction.constant(0)
            for m in range(lo, hi + 1):
                md = digits(m)
                if md[:l - 1] != prefix:
                    continue
                total = total + ctx.hat_of_digit(l, md[l - 1])
            bound = 3 ** (k - l) * ctx.digit_indicator(l, 1)
            assert total.pointwise_le(bound)
        # a full last-range cancels exactly
        full = StepFunction.constant(0)
        for m in range(lo, lo + 3 ** (k - l + 1)):
            md = digits(m)
            if md[:l - 1] != prefix:
                continue
            full = full + ctx.hat_of_digit(l, md[l - 1])
        assert full == StepFunction.constant(0)


def test_nest_degenerate_passthrough():
    B = PointSet([0, F(1, 3), F(2, 3), 1])
    inner = grid_cert(B, 0, 1, 1)
    out = nest(0, [inner])
    # one part, depth zero: same threshold, conditions still verified
    assert out.y == inner.y
    rep = out.verify_challenge(0, 1, unit_chi())
    assert rep["final_value_ok"] and rep["membership_ok"]
    assert rep["gram_deviation"] == 0


def test_nest_over_grid_children():
    # depth-1 outer family carrying three depth-1 grid parts
    pts = {F(0), F(1)}
    for block in range(3):
        lo = F(block, 3)
        for m in range(4):
            pts.add(lo + m * F(1, 9))
    B = PointSet(pts)
    subs = [grid_cert(B, F(b, 3), F(b + 1, 3), 1) for b in range(3)]
    out = nest(1, subs, B)
    assert out.y == exact_sqrt(3) * subs[0].y + 4
    rep = out.verify_challenge(0, 1, unit_chi())
    assert rep["final_value_ok"] and rep["membership_ok"]
    assert rep["gram_deviation"] == 0
    # outer digit term plus inner maxima decompose the assembled maximum
    assert rep["good_measure"] > 0
