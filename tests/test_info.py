"""Tail sets, information functions, floors and normal-form predicates."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from orthoconv.exactnum import exact_sqrt, parse_rational
from orthoconv.info import (
    CoefficientSeq, PointSet, cantor_info_fn, cantor_points, dyadic_floor,
    dyadic_halffloor, floor_pow2, info_fn, is_triadic_fn, is_type_level,
    tail_set, type_level_representation,
)
from orthoconv.stepfn import StepFunction, lattice_of


def test_tail_set_thirds():
    B = tail_set(CoefficientSeq.from_squares([F(1, 3)] * 3))
    assert B.points == (F(0), F(1, 3), F(2, 3), F(1))


def test_tail_set_single():
    assert tail_set(CoefficientSeq.from_squares([1])).points == (F(0), F(1))


def test_tail_set_mixed():
    B = tail_set(CoefficientSeq.from_squares([F(1, 2), F(1, 4), F(1, 4)]))
    assert B.points == (F(0), F(1, 4), F(1, 2), F(1))


def test_tail_set_zero_coefficients_collapse():
    B = tail_set(CoefficientSeq.from_squares([F(1, 2), 0, 0, F(1, 2)]))
    assert B.points == (F(0), F(1, 2), F(1))


def oracle_tail_set(seq):
    """(den, nums) of the tail set as built before it normalized through
    ``CoefficientSeq.normalized``: tails over the raw total, reduced by
    their gcd."""
    total = sum(seq.nums)
    if total == 0:
        raise ValueError("cannot normalize the zero sequence")
    nums = [0]
    tail = 0
    for s in reversed(seq.nums):
        tail += s
        if tail != nums[-1]:
            nums.append(tail)
    g = math.gcd(*nums)
    if g > 1:
        total //= g
        nums = [n // g for n in nums]
    return total, nums


coefficients = st.lists(
    st.one_of(st.just(0), st.integers(-3, 3),
              st.fractions(min_value=-5, max_value=5, max_denominator=60),
              st.floats(min_value=-2, max_value=2)),
    min_size=1, max_size=12)
sequences = st.one_of(
    coefficients.map(CoefficientSeq),
    coefficients.map(CoefficientSeq).filter(lambda s: any(s.nums)).map(
        CoefficientSeq.normalized),
    st.lists(st.one_of(st.just(0), st.fractions(min_value=0, max_value=3,
                                                max_denominator=60)),
             min_size=1, max_size=12).map(CoefficientSeq.from_squares))


@settings(max_examples=150, deadline=None)
@given(sequences)
def test_tail_set_matches_the_gcd_oracle(seq):
    # the tails of a normalized sequence need no gcd: it is always 1
    if not any(seq.nums):
        for fn in (tail_set, oracle_tail_set):
            with pytest.raises(ValueError, match="zero sequence"):
                fn(seq)
        return
    B = tail_set(seq)
    assert (B.den, list(B.nums)) == oracle_tail_set(seq)


def oracle_normalized(seq):
    """(den, nums) of the normalized sequence, reduced by the gcd taken
    over the whole lattice."""
    g = math.gcd(*seq.nums)
    return sum(seq.nums) // g, [n // g for n in seq.nums]


tiny = st.one_of(st.sampled_from([F("1e-200"), F("-1e-200"), F("3e-150"), F("-7e-101")]),
                 st.floats(min_value=1e-200, max_value=1e-100),
                 st.floats(min_value=-1e-100, max_value=-1e-200))
tiny_sequences = st.one_of(
    st.lists(st.one_of(st.just(0), st.integers(-3, 3), tiny), min_size=1, max_size=8).map(
        CoefficientSeq),
    st.lists(st.one_of(st.just(0), tiny.map(abs)), min_size=1, max_size=8).map(
        CoefficientSeq.from_squares))


def oracle_squares(coeffs):
    """(den, nums) of the squares as built before they came from the small
    reduced values: the coefficients on their lattice, then squared."""
    den, nums = lattice_of([parse_rational(c) for c in coeffs])
    return den * den, [n * n for n in nums]


@settings(max_examples=150, deadline=None)
@given(st.one_of(coefficients, st.lists(tiny, min_size=1, max_size=8)))
def test_squares_match_the_squared_lattice_oracle(coeffs):
    seq = CoefficientSeq(coeffs)
    assert (seq.den, list(seq.nums)) == oracle_squares(coeffs)


def test_harmonic_squares_match_the_oracle_and_keep_their_numerators():
    # 1/n: a lattice that grows with the length; every reduced numerator
    # is 1, so the gcd is 1 and normalizing keeps the squares' numerators
    coeffs = ["1/%d" % n for n in range(1, 301)]
    seq = CoefficientSeq(coeffs)
    assert (seq.den, list(seq.nums)) == oracle_squares(coeffs)
    norm = seq.normalized()
    assert norm.nums is seq.nums
    assert (norm.den, list(norm.nums)) == oracle_normalized(seq)


@settings(max_examples=200, deadline=None)
@given(st.one_of(sequences, tiny_sequences))
def test_normalized_matches_the_lattice_gcd_oracle(seq):
    # the gcd of the lattice numerators is taken from the reduced
    # numerators: gcd(p_i)**2 for coefficients, gcd(p_i) for squares
    if not any(seq.nums):
        with pytest.raises(ValueError, match="zero sequence"):
            seq.normalized()
        return
    norm = seq.normalized()
    assert (norm.den, list(norm.nums)) == oracle_normalized(seq)
    assert norm.total == 1 and norm.nonnegative()
    assert seq.normalized() is norm and norm.normalized() is norm


def test_tail_set_needs_nonempty():
    with pytest.raises(ValueError):
        CoefficientSeq([])


def test_normalization():
    seq = CoefficientSeq.from_squares([F(1, 2), F(1, 2), F(1, 2)])
    ns = seq.normalized()
    assert ns.total == 1
    assert ns.squares == (F(1, 3), F(1, 3), F(1, 3))


def test_info_fn_uniform_thirds():
    B = PointSet([0, F(1, 3), F(2, 3), 1])
    assert info_fn(B, 3) == StepFunction.constant(1)


def test_info_fn_trivial_partition():
    assert info_fn(PointSet([0, 1]), 3) == StepFunction.constant(0)


def test_info_fn_mixed_gaps():
    h = info_fn(PointSet([0, F(1, 9), 1]), 3)
    assert h.eval(F(1, 18)) == pytest.approx(2.0)
    assert h.eval(F(1, 2)) == pytest.approx(-math.log(8 / 9) / math.log(3))


def test_info_fn_exact_mode_inverts():
    # power-of-three partition stays exact: base**-value == gap length
    B2 = PointSet([0, F(1, 9), F(2, 9), F(1, 3), F(2, 3), 1])
    h2 = info_fn(B2, 3)
    for a, b in B2.gaps():
        v = h2.eval(b)
        assert isinstance(v, int)
        assert F(3) ** -v == b - a


def test_info_fn_base2():
    B = PointSet([0, F(1, 4), F(1, 2), 1])
    h = info_fn(B, 2)
    assert h.eval(F(1, 8)) == 2
    assert h.eval(F(3, 8)) == 2
    assert h.eval(F(3, 4)) == 1


def test_cantor_depth3_values():
    h = cantor_info_fn(3)
    # generation-m middle thirds carry the value m
    assert h.eval(F(1, 2)) == 1
    assert h.eval(F(1, 6)) == 2
    assert h.eval(F(1, 18)) == 3
    # surviving intervals carry the depth
    assert h.eval(F(1, 27)) == 3
    assert cantor_points(3).points[0] == 0


def test_dyadic_floor_examples():
    f = StepFunction.constant(5)
    assert dyadic_floor(f) == StepFunction.constant(4)
    assert dyadic_halffloor(f) == StepFunction.constant(2)
    g = StepFunction.constant(8)
    assert dyadic_floor(g) == StepFunction.constant(8)
    assert dyadic_halffloor(g) == StepFunction.constant(4)
    one = StepFunction.constant(1)
    assert dyadic_floor(one) == StepFunction.constant(1)
    assert dyadic_halffloor(one) == StepFunction.constant(F(1, 2))


def test_dyadic_floor_requires_geq_one():
    with pytest.raises(ValueError):
        dyadic_floor(StepFunction.constant(F(1, 2)))


def test_dyadic_floor_envelope():
    f = StepFunction([F(1, 3), F(2, 3), F(1)], [F(3, 2), 7, 2])
    u = dyadic_floor(f)
    assert u.pointwise_le(f)
    assert f.pointwise_le(2 * u)
    assert dyadic_halffloor(f) == u * F(1, 2)


def test_triadic_fn_constant():
    assert is_triadic_fn(StepFunction.constant(1)) == (True, None)


def test_triadic_fn_of_triadic_set():
    B = PointSet([F(n, 9) for n in range(10)])
    h = info_fn(B, 3).maximum(1)
    assert is_triadic_fn(h) == (True, None)


def test_triadic_fn_violation_witness():
    h = StepFunction.indicator(0, F(1, 6), value=2) + 1
    ok, witness = is_triadic_fn(h)
    assert not ok
    # the level-1 cell (1/9, 2/9] is cut by the boundary point 1/6
    assert witness == (1, 1)


def test_type_level_constant_power():
    h = StepFunction.constant(4)
    ok, _ = is_type_level(h, 2)
    assert ok
    assert type_level_representation(h, 2) == []


def test_type_level_value_not_power():
    h = StepFunction.constant(3)
    ok, why = is_type_level(h, 2)
    assert not ok and "power" in why


def test_type_level_representation_lists_excess():
    w = F(1, 81)
    h = StepFunction.constant(2).maximum(
        StepFunction.indicator(0, w, value=5))
    ok, _ = is_type_level(h, 1)
    assert ok
    rep = type_level_representation(h, 1)
    assert rep == [(0, [(0, F(1))])]  # 5 = 2**2 + 2**1 - ... excess a = 5 - 4 = 1


def test_representation_size_guard():
    h = StepFunction.constant(F(2) ** 6)  # every level-5 cell is excess
    with pytest.raises(ValueError):
        type_level_representation(h, 5)


def test_pointset_validation():
    with pytest.raises(ValueError):
        PointSet([F(1, 3), 1])
    with pytest.raises(ValueError):
        PointSet([0, F(1, 2)])
    B = PointSet([0, F(1, 2), 1])
    assert F(1, 2) in B and F(1, 3) not in B
    assert B.min_gap() == F(1, 2)


def test_pointset_json_roundtrip():
    B = PointSet([0, F(1, 7), F(2, 3), 1])
    assert PointSet.from_json(B.to_json()) == B


# -- value bands, decided by floor_log2 ---------------------------------------

def float_log_floor_pow2(a):
    """The float-log version that floor_pow2 replaced, for a inside the float range."""
    j = max(0, math.floor(math.log2(float(a))))
    while not 2 ** j <= a:
        j -= 1
    while 2 ** (j + 1) <= a:
        j += 1
    return j, F(2 ** j)


# values >= 1 inside the float range, many within 2**-200 of a power of two
values_ge_one = st.one_of(
    st.integers(1, 2 ** 1000),
    st.builds(lambda j, s, m, q: F(2) ** j * (1 + s * F(m, 2 ** 200 * q)),
              st.integers(1, 1000), st.sampled_from([1, -1]), st.integers(0, 1),
              st.integers(1, 2 ** 30)),
    st.fractions(min_value=1, max_value=10 ** 6),
    st.floats(min_value=1, max_value=2.0 ** 1000),
)


@given(values_ge_one)
@settings(max_examples=300, deadline=None)
def test_floor_pow2_matches_float_log_version(a):
    got = floor_pow2(a)
    assert got == float_log_floor_pow2(a) and type(got[1]) is F


def test_value_bands_refuse_field_values():
    # a band is decided for rationals and floats; information functions are rational
    with pytest.raises(ValueError):
        floor_pow2(1 + exact_sqrt(2))
    with pytest.raises(ValueError):
        is_type_level(StepFunction.constant(1 + exact_sqrt(2)), 2)


def test_floor_pow2_beyond_the_float_range():
    assert floor_pow2(F(10 ** 400)) == (1328, F(2 ** 1328))
    assert floor_pow2(2 ** 5000 - 1) == (4999, F(2 ** 4999))


@pytest.mark.parametrize("v", [1, 2, 4, 2.0, 4.0, F(4), 3, F(5, 2), 3.0, F(2) - F(1, 2 ** 60),
                               7.999999999999999, F(2 ** 60 + 1, 2 ** 60), 8, F(19, 2)])
def test_type_level_power_test_matches_exact_comparisons(v):
    # below 2**3 every value must equal some 2**j' with j' <= 2
    ok, why = is_type_level(StepFunction.constant(v), 2)
    assert ok == (v >= 8 or any(v == 2 ** jp for jp in range(3)))
    assert ok or "is not a power" in why
