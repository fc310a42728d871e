"""Triadic sets, envelopes, distance sums, cell permutations, Cantor."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from orthoconv.info import PointSet, cantor_info_fn, cantor_points, info_fn
from orthoconv.sets import (
    BASE_POINTS, CellPermutation, cantor_tail_integral_oracle,
    cantor_tail_norm_sq_oracle, continuity_verdict, generate,
    is_triadic_set, monotonicity_checks, rho, rho_sums,
)
from orthoconv.stepfn import StepFunction, grid_size, grid_width
from orthoconv.vcalc import v_functional
from orthoconv.suites import run_suite, random_triadic_set
import random


def test_base_quadruple_is_triadic():
    assert is_triadic_set(PointSet(BASE_POINTS)) == (True, None)


def test_half_point_is_not_triadic():
    ok, witness = is_triadic_set(PointSet([0, F(1, 3), F(1, 2), F(2, 3), 1]))
    assert not ok
    assert witness == ("unpaired", F(1, 2))


def test_full_level1_grid_is_triadic():
    assert is_triadic_set(PointSet([F(n, 9) for n in range(10)])) == (True, None)


def test_missing_base_detected():
    ok, witness = is_triadic_set(PointSet([0, F(2, 3), 1]))
    assert not ok
    assert witness == ("missing-base", F(1, 3))


def test_open_cell_detected():
    # 1/81 inside the level-2 cell (0, 1/81]... choose a point pair whose
    # cell interior meets the set without carrying its endpoints
    B = PointSet([0, F(1, 3), F(2, 3), 1, F(4, 81), F(5, 81)])
    ok, witness = is_triadic_set(B)
    assert not ok


def test_generate_base_cases():
    assert generate(PointSet([0, 1])).generated == PointSet(BASE_POINTS)
    assert generate(PointSet([0, F(1, 2), 1])).generated == PointSet(BASE_POINTS)


def test_generate_clustered_point():
    res = generate(PointSet([0, F(1, 100), 1]))
    # 0.01 has a neighbor (0) within 3**-2**(i-1) for i = 1, 2, 3
    levels = sorted({i for i, _ in res.index_pairs})
    assert levels == [1, 2, 3]
    assert F(1, 81) in res.generated
    assert is_triadic_set(res.generated) == (True, None)


def test_rho_and_sums_base():
    A = PointSet([0, 1])
    s1, s2 = rho_sums(A)
    assert s1 == F(2, 3)  # 1/3 + 1/3
    assert s2 == 0
    assert rho(F(1, 3), A.points) == F(1, 3)


def test_rho_sums_covering_case():
    A = PointSet([F(n, 9) for n in range(10)])
    gen = generate(A).generated
    s1, s2 = rho_sums(A, gen)
    assert s2 == 0  # every grid point is its own envelope point
    assert s1 <= 3


def test_envelope_geometry_suite():
    r = run_suite("envelope_geometry", seed=0, count=100)
    assert r["passed"], r


def test_monotonicity_checks():
    A = PointSet([0, F(1, 2), 1])
    A1 = PointSet([0, F(1, 2), F(7, 9), 1])
    rep = monotonicity_checks(A, A1)
    assert rep["envelope_nested"]
    assert rep["h_envelope_dominates"]
    rep2 = monotonicity_checks(A, A)
    assert rep2["envelope_nested"]


def test_monotonicity_requires_inclusion():
    with pytest.raises(ValueError):
        monotonicity_checks(PointSet([0, F(1, 2), 1]), PointSet([0, F(1, 3), 1]))


def test_cell_permutation_identity():
    cp = CellPermutation(0, 0, [0, 1, 2])
    assert cp.is_identity()
    f = StepFunction.indicator(0, F(1, 9))
    assert cp.pushforward(f) == f


def test_cell_permutation_swap_relocates_indicator():
    cp = CellPermutation(0, 0, [2, 1, 0])
    f = StepFunction.indicator(0, F(1, 9))
    pf = cp.pushforward(f)
    assert pf == StepFunction.indicator(F(2, 9), F(1, 3))
    # involution
    assert cp.pushforward(pf) == f
    # measure preserved on every level set
    assert pf.integral() == f.integral()


def test_cell_permutation_point_map():
    cp = CellPermutation(0, 0, [2, 1, 0])
    assert cp.apply_point(F(1, 18)) == F(1, 18) + F(2, 9)
    assert cp.apply_point(F(1, 2)) == F(1, 2)  # outside the permuted cell


def test_cell_permutation_validates():
    with pytest.raises(ValueError):
        CellPermutation(0, 0, [0, 0, 2])


def test_cell_permutation_suite():
    r = run_suite("cell_permutation", seed=0, count=20)
    assert r["passed"], r


def test_straddling_gap_breaks_set_invariance():
    # a gap crossing the permuted subcells recomposes, and the functional
    # moves: the set-level identity needs the subcell boundaries in the set
    B = PointSet([0, F(1, 18), F(1, 3), F(2, 3), 1])
    cp = CellPermutation(0, 0, [2, 1, 0])
    v1, _ = v_functional(info_fn(B, base=3).maximum(1))
    v2, _ = v_functional(info_fn(cp.apply_point_set(B), base=3).maximum(1))
    assert abs(v1 - v2) > 1e-6


def test_random_triadic_set_generator():
    rng = random.Random(0)
    for _ in range(20):
        B = random_triadic_set(rng)
        assert is_triadic_set(B) == (True, None)


def test_cantor_oracles_closed_forms():
    for k in range(0, 13):
        sq = cantor_tail_norm_sq_oracle(k)
        assert abs(float(sq) - 15 * (2 / 3) ** k) < 1e-12
        integ = cantor_tail_integral_oracle(k)
        assert abs(float(integ) - 3 * (2 / 3) ** k) < 1e-12


def test_cantor_suite():
    r = run_suite("cantor_tail", seed=0)
    assert r["passed"], r


def test_continuity_verdict_finite_set():
    B = PointSet([0, F(1, 3), F(2, 3), 1])
    rep = continuity_verdict(B, 0, [F(1, 3)])
    assert rep["windows"][0]["trace"][0] >= 0


def test_continuity_verdict_trivial_set():
    rep = continuity_verdict(PointSet([0, 1]), 0, [F(1, 2)], clip_floor=0)
    assert rep["windows"][0]["trace"][0] == 0


def test_continuity_verdict_requires_membership():
    with pytest.raises(ValueError):
        continuity_verdict(PointSet([0, 1]), F(1, 2), [F(1, 4)])


def test_cell_permutation_preserves_level_set_measures():
    rng = random.Random(11)
    from orthoconv.suites import random_step_fn
    for _ in range(10):
        j = rng.choice([0, 1])
        m = rng.randrange(3 ** (2 ** j))
        perm = list(range(3 ** (2 ** j)))
        rng.shuffle(perm)
        cp = CellPermutation(j, m, perm)
        f = random_step_fn(rng, 81, 0.0, 9.0)
        pf = cp.pushforward(f)
        for thr in (1, 2.5, 5, 8):
            assert f.measure_ge(thr) == pf.measure_ge(thr)


def test_power_length_gaps_carry_exact_powers():
    rng = random.Random(3)
    from orthoconv.stepfn import grid_width
    for _ in range(15):
        B = random_triadic_set(rng)
        h = info_fn(B, base=3)
        for (a, b) in B.gaps():
            for i in (0, 1, 2):
                if b - a == grid_width(i):
                    assert h.eval(b) == 2 ** i


@pytest.mark.parametrize("t", [F(2), F(-1, 3), F(4, 3)])
def test_continuity_verdict_rejects_time_outside_unit_interval(t):
    with pytest.raises(ValueError):
        continuity_verdict("cantor", t, [F(1, 3)], depths=[4])


@pytest.mark.parametrize("window", [F(0), F(-1, 3)])
def test_continuity_verdict_rejects_nonpositive_window(window):
    with pytest.raises(ValueError):
        continuity_verdict("cantor", 0, [F(1, 3), window], depths=[4])


# ---------------------------------------------------------------------------
# Quadratic Fraction-point oracles for the lattice set geometry: the
# pairwise-minimum distance sums and the point-by-point envelope and
# triadic check that the integer-lattice versions replace.


def oracle_rho_sums(A, G):
    s1 = sum((min(abs(a - t) for a in A.points) for t in G.points), start=F(0))
    s2 = sum((min(abs(g - s) for g in G.points) for s in A.points), start=F(0))
    return s1, s2


def _oracle_cell_of(t, size):
    q, r = divmod(t.numerator * size, t.denominator)
    return q - 1 if r == 0 else q


def _oracle_is_multiple(x, size):
    return (x.numerator * size) % x.denominator == 0


def oracle_generate(A):
    """(envelope, index_pairs) of A."""
    pts = list(A.points)
    out = set(BASE_POINTS)
    pairs = []
    for k, t in enumerate(pts):
        if t == 0:
            continue
        dists = [t - pts[k - 1]]
        if k + 1 < len(pts):
            dists.append(pts[k + 1] - t)
        r = min(dists)
        i = 1
        while r <= F(1, grid_size(i - 1)):
            size = grid_size(i)
            n = _oracle_cell_of(t, size)
            out.add(n * grid_width(i))
            out.add((n + 1) * grid_width(i))
            pairs.append((i, n))
            i += 1
    return PointSet(out), sorted(set(pairs))


def oracle_is_triadic_set(B):
    pts = set(B.points)
    for p in BASE_POINTS:
        if p not in pts:
            return False, ("missing-base", p)
    min_gap = B.min_gap()
    top = 0
    while grid_width(top) >= min_gap:
        top += 1
        if top > 20:
            break
    levels = range(top + 1)
    for t in B.points:
        paired = False
        for i in levels:
            w = grid_width(i)
            if not _oracle_is_multiple(t, grid_size(i)):
                continue
            if (t - w >= 0 and t - w in pts) or (t + w <= 1 and t + w in pts):
                paired = True
                break
        if not paired:
            return False, ("unpaired", t)
    for i in levels:
        size = grid_size(i)
        w = grid_width(i)
        for t in B.points:
            if t in (0, 1) or _oracle_is_multiple(t, size):
                continue
            n = _oracle_cell_of(t, size)
            if n * w not in pts or (n + 1) * w not in pts:
                return False, ("open-cell", (i, n))
    return True, None


# denominators 3**k, 100 and products of two 500-bit integers
denominators = st.one_of(
    st.integers(1, 12).map(lambda k: 3 ** k),
    st.just(100),
    st.builds(lambda p, q: p * q, st.integers(2 ** 499, 2 ** 500),
              st.integers(2 ** 499, 2 ** 500)),
)


@st.composite
def points(draw):
    den = draw(denominators)
    return F(draw(st.integers(1, den - 1)), den)


@st.composite
def point_sets(draw, max_points=10):
    """Sets with mixed denominators, some points within 3**-k of another."""
    pts = {F(0), F(1)}
    for _ in range(draw(st.integers(0, max_points))):
        p = draw(points())
        pts.add(p)
        if draw(st.booleans()):
            near = p + draw(st.sampled_from([1, -1])) * F(1, 3 ** draw(st.integers(1, 40)))
            if 0 < near < 1:
                pts.add(near)
    return PointSet(pts)


@st.composite
def near_triadic_sets(draw):
    """An envelope with one neighbor pair added or one inner point removed."""
    env = generate(draw(point_sets(max_points=6))).generated
    pts = set(env.points)
    if draw(st.booleans()):
        i = draw(st.integers(0, 3))
        n = draw(st.integers(0, grid_size(i) - 1))
        pts |= {n * grid_width(i), (n + 1) * grid_width(i)}
    else:
        inner = sorted(pts - {0, 1})
        pts.discard(draw(st.sampled_from(inner)))
    return PointSet(pts)


def assert_same_sums(got, want):
    assert got == want
    assert all(type(x) is F for x in got)
    assert [str(x) for x in got] == [str(x) for x in want]


@settings(max_examples=100, deadline=None)
@given(point_sets())
def test_rho_sums_envelope_matches_quadratic_oracle(A):
    G = generate(A).generated
    assert_same_sums(rho_sums(A, G), oracle_rho_sums(A, G))
    assert_same_sums(rho_sums(A), oracle_rho_sums(A, G))


@settings(max_examples=150, deadline=None)
@given(point_sets(), point_sets())
def test_rho_sums_any_pair_matches_quadratic_oracle(A, G):
    # A need not lie inside G, nor share its lattice
    assert_same_sums(rho_sums(A, G), oracle_rho_sums(A, G))


@settings(max_examples=150, deadline=None)
@given(point_sets())
def test_generate_matches_fraction_oracle(A):
    res = generate(A)
    envelope, pairs = oracle_generate(A)
    assert res.generated == envelope
    assert (res.generated.den, res.generated.nums) == (envelope.den, envelope.nums)
    assert res.index_pairs == pairs


@settings(max_examples=150, deadline=None)
@given(st.one_of(point_sets(), near_triadic_sets()))
def test_is_triadic_set_witness_matches_fraction_oracle(B):
    got = is_triadic_set(B)
    assert got == oracle_is_triadic_set(B)
    if got[1] is not None:
        assert type(got[1][1]) is (tuple if got[1][0] == "open-cell" else F)


@pytest.mark.parametrize("extra, witness", [
    ([F(4, 81), F(5, 81)], ("open-cell", (1, 0))),
    # the last inner point is the only one in an open cell
    ([F(80, 81)], ("open-cell", (1, 8))),
    ([F(8, 9)], None),
])
def test_is_triadic_set_open_cell_witness(extra, witness):
    B = PointSet([0, F(1, 3), F(2, 3), 1] + extra)
    assert is_triadic_set(B) == oracle_is_triadic_set(B) == (witness is None, witness)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10),
       st.one_of(st.integers(0, 12),
                 st.fractions(min_value=0, max_value=12, max_denominator=7),
                 st.floats(min_value=0, max_value=12)))
def test_cantor_info_fn_matches_clipped_info_fn(depth, clip):
    got = cantor_info_fn(depth, clip)
    want = info_fn(cantor_points(depth), base=3).map_values(
        lambda v: v if v <= clip else clip)
    assert (got.den, got.nums, got.values) == (want.den, want.nums, want.values)
    assert [type(v) for v in got.values] == [type(v) for v in want.values]
