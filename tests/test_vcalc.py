"""Contraction calculus: single levels, compositions, block selection."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from orthoconv.exactnum import exact_sqrt
from orthoconv.stepfn import StepFunction, cond_norm, pos_part
from orthoconv.vcalc import (
    select_blocks, stabilization_level, type_reduction, v_bar_step,
    v_composite, v_functional, v_step,
)
from orthoconv.info import info_fn, PointSet
from orthoconv.suites import (
    run_suite, random_triadic_fn, _dense_v_composite,
)
import random


def test_v_step_below_threshold_is_identity():
    h = StepFunction.constant(F(3, 4))
    assert v_step(h, 0) == h


def test_v_step_fixes_constants():
    h = StepFunction.constant(7)
    assert v_step(h, 1) == h


def test_v_step_indicator_example():
    h = StepFunction.indicator(0, F(1, 3), value=2)
    assert v_step(h, 0) == h


def test_v_bar_step_at_threshold():
    h = StepFunction.constant(2)
    assert v_bar_step(h, 1) == StepFunction.constant(4)


def test_v_bar_step_below_is_identity():
    h = StepFunction.constant(F(3, 2))
    assert v_bar_step(h, 1) == h


def test_v_bar_step_constant_arithmetic():
    j = 1
    h = StepFunction.constant(2 ** (j + 1) + 1)
    out = v_bar_step(h, j)
    assert out == StepFunction.constant(2 ** (j + 1) + 1)


def test_v_bar_preserves_triadic():
    from orthoconv.info import is_triadic_fn
    rng = random.Random(4)
    for _ in range(10):
        h = random_triadic_fn(rng, max_power=2).minimum(8)
        out = v_bar_step(h, 1)
        ok, _ = is_triadic_fn(out.maximum(1))
        assert ok


def test_v_composite_identity_cases():
    h = StepFunction.constant(1)
    tr = v_composite(h, 0, 3)
    assert all(f == h for _, f, _ in tr.levels)
    assert tr.norm == 1
    h2 = StepFunction([F(1, 3), F(1)], [F(1, 2), 1])
    tr2 = v_composite(h2, 1, 3)  # bounded by 2**1
    assert tr2.final == h2


def test_v_composite_matches_dense_oracle_simple():
    B = PointSet([0, F(1, 9), 1])
    h = info_fn(B, 3).maximum(1)
    cells = [float(h.eval(F(n + 1, 81))) for n in range(81)]
    want = _dense_v_composite(cells, 0, 2)
    got = v_composite(h, 0, 2).final
    for n in range(81):
        assert float(got.eval(F(n + 1, 81))) == pytest.approx(want[n], abs=1e-9)


def test_v_functional_zero_and_constants():
    assert v_functional(StepFunction.constant(0))[0] == 0
    assert v_functional(StepFunction.constant(1))[0] == pytest.approx(1.0)


def test_v_functional_clipped_thirds():
    B = PointSet([0, F(1, 3), F(2, 3), 1])
    h = info_fn(B, 3).maximum(1)
    val, trace = v_functional(h)
    assert val == pytest.approx(1.0)
    assert trace.stabilized_at == 0


def test_stabilization_level():
    assert stabilization_level(StepFunction.constant(1)) == 0
    assert stabilization_level(StepFunction.constant(4)) == 2
    assert stabilization_level(StepFunction.constant(5)) == 3


def float_log_stabilization_level(h):
    """The float-log version that stabilization_level replaced, for values
    inside the float range."""
    top = h.max_value()
    i = max(0, math.ceil(math.log2(max(float(top), 1.0))))
    while not top <= 2 ** i:
        i += 1
    while i > 0 and top <= 2 ** (i - 1):
        i -= 1
    return i


# values >= 0 inside the float range, many within 2**-200 of a power of two
stabilization_values = st.one_of(
    st.integers(0, 2 ** 1000),
    st.builds(lambda j, s, m, q: F(2) ** j * (1 + s * F(m, 2 ** 200 * q)),
              st.integers(-20, 1000), st.sampled_from([1, -1]), st.integers(0, 1),
              st.integers(1, 2 ** 30)),
    st.fractions(min_value=0, max_value=10 ** 6),
    st.floats(min_value=0, max_value=2.0 ** 1000),
)


@given(stabilization_values, stabilization_values)
@settings(max_examples=300, deadline=None)
def test_stabilization_level_matches_float_log_version(a, b):
    # the level is decided on the larger of two pieces, of any two value types
    h = StepFunction([F(1, 3), F(1)], [a, b])
    assert stabilization_level(h) == float_log_stabilization_level(h)


def test_stabilization_level_refuses_field_values_above_one():
    # levels are decided for rationals and floats; a field value at most 1 needs none
    with pytest.raises(ValueError):
        stabilization_level(StepFunction.constant(2 + exact_sqrt(2)))
    assert stabilization_level(StepFunction.constant(exact_sqrt(2) - 1)) == 0


def test_stabilization_level_beyond_the_float_range():
    # float() of these values overflows; floor_log2 builds no grid
    assert stabilization_level(StepFunction.constant(10 ** 400)) == 1329
    assert stabilization_level(StepFunction.constant(F(2 ** 2000))) == 2000
    assert stabilization_level(StepFunction.constant(F(2 ** 2000) + F(1, 3))) == 2001


def test_vtrace_json():
    _, trace = v_functional(StepFunction.constant(4))
    data = trace.to_json()
    assert data["stabilized_at"] == 2
    assert len(data["levels"]) == 3


def test_select_blocks_empty():
    sel = select_blocks([], 1)
    assert sel.b == [] and sel.blocks == []
    sel.check()


def test_select_blocks_full_block_of_zeros():
    sel = select_blocks([0, 0, 0], 1)
    assert len(sel.blocks) == 1
    assert sel.b == [F(2), F(2), F(2)]
    assert sel.c == [0, 0, 0] and sel.d == [0, 0, 0]
    sel.check()


def test_select_blocks_large_entry_goes_to_d():
    sel = select_blocks([0, 5], 1)
    assert sel.blocks == []
    assert sel.b == [F(0), F(5)]
    assert sel.c == [F(2), F(0)]
    assert sel.d == [F(0), F(2)]
    sel.check()


def test_select_blocks_requires_level():
    with pytest.raises(ValueError):
        select_blocks([1], 0)


def test_select_blocks_spread_rejects_block():
    # spread 5 > 2**1 prevents the run from being selected
    sel = select_blocks([0, 3, 5, 0, 0, 0], 1)
    assert len(sel.blocks) == 1
    members = sorted(sel.blocks[0])
    assert [sel.a[k] for k in members] == [0, 0, 0]
    sel.check()


def test_select_blocks_orders_entries_closer_than_float_resolution():
    # 1 + e and 1 round to the same float; the block's true minimum is 1,
    # so its spread is 2 + e > 2**1 and the run must not be selected
    e = F(1, 10 ** 30)
    sel = select_blocks([1 + e, 3 + e, F(1)], 1)
    assert sel.blocks == []
    sel.check()


def test_type_reduction_needs_level_five():
    h = StepFunction.constant(4)
    with pytest.raises(ValueError):
        type_reduction(h, 2)


def test_type_reduction_constant_unchanged():
    h = StepFunction.constant(F(2) ** 5)
    red = type_reduction(h, 5)
    assert red.reduced == h
    assert red.f_corr == StepFunction.constant(0)
    assert red.g_corr == StepFunction.constant(0)


def test_type_reduction_single_excess_cell():
    from orthoconv.stepfn import grid_width
    w = grid_width(6)
    h = StepFunction.constant(F(2) ** 5).maximum(
        StepFunction.indicator(0, w, value=F(2) ** 6 + 3))
    red = type_reduction(h, 5)
    # one member never fills a block: the value keeps a = 3, c picks up 2**5
    assert red.reduced.eval(w / 2) == F(2) ** 6 + 3 - F(2) ** 5
    assert red.f_corr.eval(w / 2) == F(2) ** 5
    assert red.g_corr == StepFunction.constant(0)


def test_type_reduction_certificates_random():
    r = run_suite("reduction_defect", seed=0, count=10)
    assert r["passed"], r


def test_type_descent_suite():
    r = run_suite("type_descent", seed=0, count=25)
    assert r["passed"], r


def test_block_selection_suite():
    r = run_suite("block_selection", seed=0, count=100)
    assert r["passed"], r


def test_composite_oracle_suite():
    r = run_suite("composite_oracle", seed=0, count=100)
    assert r["passed"], r


def test_bar_vs_doubled_suite():
    r = run_suite("bar_vs_doubled", seed=0, count=60)
    assert r["passed"], r


def test_halffloor_factor14_suite():
    r = run_suite("halffloor_factor14", seed=0, count=60)
    assert r["passed"], r


def test_floor_tail_factor3_suite():
    r = run_suite("floor_tail_factor3", seed=0, count=60)
    assert r["passed"], r


def test_scalar_factor14_suite():
    r = run_suite("scalar_factor14", seed=0, count=100)
    assert r["passed"], r


def test_slice_triangle_suite():
    r = run_suite("slice_triangle", seed=0, count=60)
    assert r["passed"], r


# -- oracle: one level with the threshold 2**j as a Fraction, as before it
# became the int 1 << j


def o_v_step(h, j):
    c = F(2) ** j
    return h.minimum(c) + cond_norm(pos_part(h, c), j)


def o_v_bar_step(h, j):
    c = F(2) ** j
    plateau = h.indicator_ge(c) * c
    return h.minimum(c) + plateau + cond_norm(pos_part(h, 2 * c), j)


def outcome(fn, *args, **kwargs):
    """The result, or the type of the exception raised instead."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, TypeError) as e:
        return type(e)


SQRT2, SQRT3 = exact_sqrt(2), exact_sqrt(3)
v_rationals = st.one_of(
    st.integers(min_value=0, max_value=20),
    st.fractions(min_value=0, max_value=20, max_denominator=64),
)
# the two regimes, which never meet in one function: field values with
# rationals, and floats with rationals
exact_v_values = st.one_of(
    v_rationals,
    st.builds(lambda a, b: a + b * SQRT2,
              st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=5)),
    st.integers(min_value=0, max_value=9).map(lambda k: k * SQRT3 / 2),
)
float_v_values = st.one_of(v_rationals, st.floats(min_value=0, max_value=20, allow_nan=False))
# breakpoints on triadic lattices, where cells hold one value, and on others
v_breakpoints = st.one_of(
    st.integers(min_value=1, max_value=80).map(lambda n: F(n, 81)),
    st.fractions(min_value=0, max_value=1, max_denominator=200).filter(lambda x: 0 < x < 1),
)


@st.composite
def v_step_functions(draw, vals):
    bps = sorted(set(draw(st.lists(v_breakpoints, max_size=6))) | {F(1)})
    return StepFunction(bps, draw(st.lists(vals, min_size=len(bps), max_size=len(bps))))


@given(st.one_of(
    v_step_functions(st.integers(min_value=0, max_value=20)),
    v_step_functions(st.fractions(min_value=0, max_value=20, max_denominator=64)),
    v_step_functions(st.floats(min_value=0, max_value=20, allow_nan=False)),
    v_step_functions(exact_v_values),
    v_step_functions(float_v_values)),
    st.integers(min_value=0, max_value=4))
@settings(max_examples=200, deadline=None)
def test_int_threshold_matches_fraction_threshold(h, j):
    assert outcome(v_step, h, j) == outcome(o_v_step, h, j)
    assert outcome(v_bar_step, h, j) == outcome(o_v_bar_step, h, j)
