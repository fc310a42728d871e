"""Convergence criteria on finite sequences."""

import math
from fractions import Fraction as F

import json

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from orthoconv.criteria import (
    alpha_condition, beta_condition, gamma_condition,
    measure_criterion, rm_weyl, sandwich_check, tandori_sum, theorem_conditions,
)
from orthoconv.exactnum import log_ratio
from orthoconv.info import CoefficientSeq, info_fn, tail_set
from orthoconv.stepfn import lattice_of
from orthoconv.suites import run_suite


def seq_from_squares(sq):
    return CoefficientSeq.from_squares(sq)


def test_rm_weyl_log_squared_weights():
    seq = seq_from_squares([F(1, 4)] * 4)
    r = [math.log2(max(n, 2)) ** 2 for n in range(1, 5)]
    rep = rm_weyl(seq, r)
    assert rep["ratios"] == pytest.approx([1.0, 1.0, 1.0])


def test_rm_weyl_partial_sums_increasing():
    n = 32
    seq = seq_from_squares([F(1, k * k) for k in range(1, n + 1)]).normalized()
    r = [math.log2(max(k, 2)) ** 2 for k in range(1, n + 1)]
    rep = rm_weyl(seq, r)
    direct = sum(rk * float(sk) for rk, sk in zip(r, seq.squares))
    assert rep["weighted_sum"] == pytest.approx(direct)


def test_rm_weyl_zero_weights():
    seq = seq_from_squares([F(1, 2), F(1, 2)])
    assert rm_weyl(seq, [0, 0])["weighted_sum"] == 0


def test_rm_weyl_length_mismatch():
    with pytest.raises(ValueError):
        rm_weyl(seq_from_squares([1]), [1, 2])


def test_alpha_single_one():
    assert alpha_condition(seq_from_squares([1])) == 0.0


def test_alpha_hand_value():
    seq = seq_from_squares([F(1, 2), F(1, 4), F(1, 4)])
    assert alpha_condition(seq) == pytest.approx(0.625)


def test_alpha_zero_tail():
    seq = seq_from_squares([F(1, 2), F(1, 2), 0, 0])
    val = alpha_condition(seq)
    assert val == pytest.approx(2 * 0.5 * 0.25)


def test_alpha_requires_decreasing():
    with pytest.raises(ValueError):
        alpha_condition(seq_from_squares([F(1, 4), F(3, 4)]))


def test_beta_single_block_term():
    seq = CoefficientSeq([F(1, 8)])
    rep = beta_condition(seq)
    assert rep["terms"] == {1: pytest.approx(0.375)}
    assert rep["sum"] == pytest.approx(3 * 2.0 ** -3)


def test_gamma_slice_term():
    seq = CoefficientSeq([F(1, 8)])
    rep = gamma_condition(seq)
    assert rep["terms"] == {1: pytest.approx(0.125)}
    assert rep["slice0"] == pytest.approx(0.25)


def test_beta_gamma_residual_for_large_values():
    seq = CoefficientSeq([1])
    assert beta_condition(seq)["sum"] == 0
    assert beta_condition(seq)["residual_indices"] == [1]
    assert gamma_condition(seq)["sum"] == 0


def test_gamma_rejects_negative():
    with pytest.raises(ValueError):
        gamma_condition(CoefficientSeq([F(-1, 2), F(1, 2)]))


def test_sandwich_rejects_negative():
    with pytest.raises(ValueError):
        sandwich_check(CoefficientSeq([F(-1, 2), F(1, 2)]))


def test_sign_is_decided_once_per_sequence():
    # the sign is decided on the signed lattice numerators, and no
    # coefficient is kept to be compared again
    seq = CoefficientSeq([F(1, 2), F(-1, 2)])
    assert not seq.nonnegative() and len(seq) == 2
    assert not hasattr(seq, "coeffs")
    # the moduli of normalized() and from_squares are nonnegative by
    # construction, so gamma and sandwich accept them
    norm = seq.normalized()
    assert norm.nonnegative()
    moduli = CoefficientSeq([F(1, 2), F(1, 2)]).normalized()
    assert gamma_condition(norm) == gamma_condition(moduli)
    assert sandwich_check(norm) == sandwich_check(moduli)
    sq = CoefficientSeq.from_squares([F(1, 4), F(3, 4)])
    assert sq.nonnegative() and len(sq) == 2
    # a normalized nonnegative sequence is its own normal form
    ones = CoefficientSeq([F(1, 2), F(1, 2), F(1, 2), F(1, 2)])
    assert ones.normalized() is ones and ones.nonnegative()


def test_sandwich_single_lowest_block():
    seq = CoefficientSeq([F(1, 8)])  # z = 3: the i = 1 block
    r = sandwich_check(seq)
    # one occupied block at the bottom: the tail sums add nothing below it
    assert r["A_plus"] == pytest.approx(r["B_minus"])
    assert r["B_minus"] == pytest.approx(2 * float(F(1, 8)))


def test_sandwich_single_higher_block_strict():
    seq = CoefficientSeq([F(1, 32)])  # z = 5: the i = 2 block
    r = sandwich_check(seq)
    # lower-index tail terms contribute to A+ as well
    assert r["B_minus"] == pytest.approx(4 / 32)
    assert r["A_plus"] == pytest.approx((2 + 4) / 32)
    assert r["B_plus"] == pytest.approx(8 / 32)


def test_sandwich_zero_sequence_region():
    r = sandwich_check(CoefficientSeq([F(1, 2)]))
    assert (r["A_minus"], r["A_plus"], r["B_minus"], r["B_plus"]) == (0, 0, 0, 0)


def test_sandwich_suite():
    r = run_suite("sandwich", seed=0, count=100)
    assert r["passed"], r


def test_tandori_block_membership():
    sq = [F(0)] * 16
    for n in (4, 7, 15):
        sq[n - 1] = F(1, 3)
    rep = tandori_sum(CoefficientSeq.from_squares(sq))
    assert list(rep["terms"]) == [1]  # indices 4..15 sit in the second block


def test_tandori_first_coefficient_below_blocks():
    rep = tandori_sum(CoefficientSeq.from_squares([1, 0, 0]))
    assert rep["sum"] == 0
    assert rep["below_blocks"] == [1]


def test_tandori_direct_loop_oracle():
    n = 64
    sq = [F(1, k * k) for k in range(1, n + 1)]
    tot = sum(sq)
    seq = CoefficientSeq.from_squares([s / tot for s in sq])
    rep = tandori_sum(seq)
    blocks = {}
    for k in range(2, n + 1):
        i = 0
        while 2 ** (2 ** (i + 1)) <= k:
            i += 1
        blocks.setdefault(i, 0.0)
        blocks[i] += float(seq.squares[k - 1]) * math.log2(k) ** 2
    want = sum(math.sqrt(v) for v in blocks.values())
    assert rep["sum"] == pytest.approx(want)


def test_information_conditions_thirds():
    seq = seq_from_squares([F(1, 3)] * 3)
    rep = theorem_conditions(seq)
    assert rep["alpha1"] == pytest.approx(math.log2(3))
    assert rep["gamma1"] == pytest.approx(math.log2(3))
    assert rep["beta1"] == 0


def test_information_conditions_single():
    rep = theorem_conditions(seq_from_squares([1]))
    assert rep["alpha1"] == 0
    assert rep["beta1"] == 0
    assert rep["gamma1"] == 0


def test_information_indicator_switch():
    seq = seq_from_squares([F(1, 64), F(63, 64)])
    a = theorem_conditions(seq, indicator="I")
    b = theorem_conditions(seq, indicator="H")
    assert a["indicator_variant"] == "I" and b["indicator_variant"] == "H"
    assert a["alpha1"] == b["alpha1"]


def test_measure_uniform_three_atoms():
    rep = measure_criterion([F(1, 3)] * 3)
    assert rep["sum"] == pytest.approx(1.0)


def test_measure_single_atom():
    assert measure_criterion([F(1)])["sum"] == 0


def test_measure_uniform_nine_atoms():
    rep = measure_criterion([F(1, 9)] * 9)
    assert rep["sum"] == pytest.approx(2.0)
    assert rep["terms"] == {0: pytest.approx(2.0)}


def test_measure_permutation_invariant():
    probs = [F(1, 2), F(1, 4), F(1, 8), F(1, 8)]
    a = measure_criterion(probs)["sum"]
    b = measure_criterion(list(reversed(probs)))["sum"]
    assert a == pytest.approx(b)


def test_measure_validates_distribution():
    with pytest.raises(ValueError):
        measure_criterion([F(1, 2), F(1, 4)])
    with pytest.raises(ValueError):
        measure_criterion([F(1, 2), F(1, 2), F(0)])


# -- oracle: the criteria on a tuple of Fraction squares, one Fraction and
# one float per use, as they were before the squares moved to the lattice


def o_log_ratio(num, den, log=math.log):
    q = num / den
    return log(q) if q else log(num) - log(den)


def o_neg_log2_float(sq):
    return -0.5 * o_log_ratio(sq.numerator, sq.denominator, math.log2)


def o_neg_log2_modulus(sq):
    if sq.numerator == 1:
        d, m = sq.denominator, 0
        while d % 2 == 0:
            d //= 2
            m += 1
        if d == 1:
            return F(m, 2)
    return o_neg_log2_float(sq)


def o_log2_sq(x):
    return 0.0 if x == 0 else math.log2(x) ** 2


def o_slice(z, i):
    if i == 0:
        return min(z, 2.0)
    return min(z, 2.0 ** (i + 1)) - min(z, 2.0 ** i)


def o_alpha(squares):
    if not all(a >= b for a, b in zip(squares, squares[1:])):
        return None
    total = 0.0
    for sq in squares:
        s = float(sq)
        if s > 0:
            total += s * o_log2_sq(math.sqrt(s))
    return total


def o_z_above(sq, e, strict=True):
    """z = -log2 |a| > e (>= e unless strict) for the square sq = a**2,
    decided on Fractions: sq < 2**(-2e)."""
    bound = F(1, 2 ** (2 * e))
    return sq < bound if strict else sq <= bound


def o_beta(squares):
    blocks, residual = {}, []
    for n, sq in enumerate(squares, start=1):
        if sq == 0:
            continue
        if not o_z_above(sq, 2):
            residual.append(n)
            continue
        i = 1
        while o_z_above(sq, 2 ** (i + 1)):
            i += 1
        s = float(sq)
        blocks.setdefault(i, 0.0)
        blocks[i] += s * o_log2_sq(math.sqrt(s))
    terms = {i: math.sqrt(v) for i, v in sorted(blocks.items())}
    return {"terms": terms, "sum": sum(terms.values()), "residual_indices": residual}


def o_gamma(squares):
    imax, zs = 0, []
    for sq in squares:
        if sq == 0:
            zs.append(None)
            continue
        z = o_neg_log2_float(sq)
        zs.append(z)
        if z > 2.0:
            imax = max(imax, int(math.ceil(math.log2(z))))
    terms = {}
    for i in range(1, imax + 1):
        tot = 0.0
        for sq, z in zip(squares, zs):
            if z is not None:
                tot += float(sq) * o_slice(z, i) ** 2
        if tot:
            terms[i] = math.sqrt(tot)
    slice0 = math.sqrt(sum(float(sq) * o_slice(z, 0) ** 2
                           for sq, z in zip(squares, zs) if z is not None) or 0.0)
    return {"terms": terms, "sum": sum(terms.values()), "slice0": slice0}


def o_sandwich(squares):
    weights, gamma_terms, beta_terms = {}, {}, {}
    for sq in squares:
        if sq == 0:
            continue
        z = o_neg_log2_modulus(sq)
        if not o_z_above(sq, 2, strict=False):
            continue
        i = 1
        while o_z_above(sq, 2 ** (i + 1), strict=False):
            i += 1
        weights.setdefault(i, 0.0)
        weights[i] += float(sq)
        beta_terms.setdefault(i, 0.0)
        beta_terms[i] += float(sq) * float(z) ** 2
    imax = max(weights) if weights else 0
    for i in range(1, imax + 1):
        tot = 0.0
        for sq in squares:
            if sq != 0:
                tot += float(sq) * o_slice(o_neg_log2_float(sq), i) ** 2
        gamma_terms[i] = math.sqrt(tot)
    norm_sq = {i: weights.get(i, 0.0) for i in range(1, imax + 1)}
    tail, running = {}, 0.0
    for i in range(imax, 0, -1):
        running += norm_sq[i]
        tail[i] = running
    rng = range(1, imax + 1)
    return {
        "A_minus": sum(2.0 ** i * math.sqrt(tail.get(i + 1, 0.0)) for i in rng),
        "A_plus": sum(2.0 ** i * math.sqrt(tail.get(i, 0.0)) for i in rng),
        "B_minus": sum(2.0 ** i * math.sqrt(norm_sq[i]) for i in rng),
        "B_plus": sum(2.0 ** (i + 1) * math.sqrt(norm_sq[i]) for i in rng),
        "gamma_sum": sum(gamma_terms.values()),
        "beta_sum_zblocks": sum(math.sqrt(v) for v in beta_terms.values()),
    }


def o_tandori(squares):
    blocks, below = {}, []
    for n, sq in enumerate(squares, start=1):
        if sq == 0:
            continue
        if n < 2:
            below.append(n)
            continue
        i = 0
        while 2 ** (2 ** (i + 1)) <= n:
            i += 1
        blocks.setdefault(i, 0.0)
        blocks[i] += float(sq) * o_log2_sq(n)
    terms = {i: math.sqrt(v) for i, v in sorted(blocks.items())}
    return {"terms": terms, "sum": sum(terms.values()), "below_blocks": below}


def o_tail_points(squares):
    den, nums = lattice_of(squares)
    total = sum(nums)
    tails, tail = [F(0)], 0
    for s in reversed(nums):
        tail += s
        if F(tail, total) != tails[-1]:
            tails.append(F(tail, total))
    return tuple(tails)


def bits(x):
    """JSON text of a report: equal text means equal keys, types and float bits."""
    return json.dumps(x, sort_keys=True)


# tiny values have squares far below the float range; 2**-k coefficients
# have 2-power squares; several are already normalized together
TINY = [F(1, 10 ** 300), F(3, 10 ** 301), F(1, 2 ** 700), F(5, 3 ** 900)]
coefficients = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=1000),
    st.sampled_from(TINY),
    st.integers(min_value=0, max_value=40).map(lambda k: F(1, 2 ** k)),
    st.integers(min_value=0, max_value=40).map(lambda k: F(-1, 2 ** k)),
)
squares = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=0, max_value=4, max_denominator=10 ** 6),
    st.sampled_from([F(1, 10 ** 600), F(7, 10 ** 650), F(1, 2 ** 2200)]),
    st.integers(min_value=0, max_value=90).map(lambda m: F(1, 2 ** m)),
)
# squares already summing to 1: weights over their sum, or halving splits
normalized_squares = st.one_of(
    st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=20)
    .filter(sum).map(lambda w: [F(x, sum(w)) for x in w]),
    st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=20)
    .map(lambda ks: [F(1, 2 ** k) for k in ks] + [1 - sum(F(1, 2 ** k) for k in ks)])
    .filter(lambda sq: sq[-1] >= 0),
)


def check_against_oracle(seq, want_squares):
    """seq holds want_squares; its criteria match the Fraction oracle bit for bit."""
    assert seq.squares == tuple(want_squares)
    assert seq.total == sum(want_squares, start=F(0))
    assert [F(n, seq.den) for n in seq.nums] == list(want_squares)
    assert math.gcd(seq.den, *seq.nums) == 1
    assert seq.square_floats() == tuple(float(s) for s in want_squares)
    if seq.total == 0:
        return
    assert tail_set(seq).points == o_tail_points(want_squares)
    norm = seq.normalized()
    total = sum(want_squares, start=F(0))
    osq = [s / total for s in want_squares]
    assert norm.squares == tuple(osq) and norm.total == 1
    assert math.gcd(norm.den, *norm.nums) == 1
    assert repr(norm.neg_log2_moduli()) == repr(tuple(
        None if s == 0 else o_neg_log2_float(s) for s in osq))
    assert norm.nonnegative()
    assert tail_set(norm) == tail_set(seq)
    assert bits(beta_condition(norm)) == bits(o_beta(osq))
    assert bits(gamma_condition(norm)) == bits(o_gamma(osq))
    assert bits(sandwich_check(norm)) == bits(o_sandwich(osq))
    assert bits(tandori_sum(norm)) == bits(o_tandori(osq))
    want_alpha = o_alpha(osq)
    got_alpha = alpha_condition(norm) if norm.moduli_decreasing() else None
    assert bits(got_alpha) == bits(want_alpha)


@given(st.lists(coefficients, min_size=1, max_size=24))
@settings(max_examples=150, deadline=None)
def test_lattice_sequence_matches_fraction_oracle(coeffs):
    seq = CoefficientSeq(coeffs)
    assert seq.nonnegative() == all(c >= 0 for c in coeffs)
    assert len(seq) == len(coeffs)
    check_against_oracle(seq, [c * c for c in coeffs])


@given(st.one_of(st.lists(squares, min_size=1, max_size=24), normalized_squares))
@settings(max_examples=150, deadline=None)
def test_lattice_squares_match_fraction_oracle(sq):
    check_against_oracle(CoefficientSeq.from_squares(sq), sq)


def o_measure(atom_probs):
    """measure_criterion's slice loop before it read the shared slice sums:
    every slice rescans every atom, until 2**(i+1) reaches the largest H."""
    probs = [F(p) for p in atom_probs]
    hs = [-log_ratio(p.numerator, p.denominator) / math.log(3) for p in probs]
    hmax = max(hs)
    terms = {}
    i = 0
    while True:
        tot = sum(float(p) * o_slice(h, i) ** 2 for p, h in zip(probs, hs))
        if tot:
            terms[i] = math.sqrt(tot)
        if (2 if i == 0 else 2 ** (i + 1)) >= hmax:
            break
        i += 1
    return {"terms": terms, "sum": sum(terms.values())}


def _completed(parts):
    """The parts with 1 - sum(parts) appended, when that is positive."""
    rest = 1 - sum(parts, start=F(0))
    return parts + [rest] if rest > 0 else parts


# atomic distributions: rational weights over their sum, 2- and 3-power
# atoms (with a remainder atom), tiny atoms, and the single atom [1]
distributions = st.one_of(
    st.just([F(1)]),
    st.lists(st.integers(min_value=1, max_value=10 ** 6), min_size=1, max_size=30)
    .map(lambda w: [F(x, sum(w)) for x in w]),
    st.lists(st.integers(min_value=1, max_value=80), min_size=1, max_size=30)
    .map(lambda ks: _completed([F(1, 2 ** k) for k in ks]))
    .filter(lambda p: sum(p) == 1),
    st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=30)
    .map(lambda ks: _completed([F(1, 3 ** k) for k in ks]))
    .filter(lambda p: sum(p) == 1),
    st.lists(st.sampled_from([F(1, 10 ** 300), F(1, 2 ** 1100), F(1, 3 ** 700)]),
             min_size=1, max_size=5).map(_completed),
)


@given(distributions)
@settings(max_examples=300, deadline=None)
def test_measure_matches_rescanning_oracle(probs):
    assert repr(measure_criterion(probs)) == repr(o_measure(probs))


def test_neg_log2_below_float_range_reads_the_reduced_square():
    # on the lattice 30*10**400 the square 1/10**401 has numerator 3; its
    # float underflows, and the logs of 3 and 30*10**400 would differ in the
    # last bit from those of the reduced 1 and 10**401
    d = 10 ** 400
    sq = [F(1, 10 * d), F(1, 15 * d), 1 - F(1, 10 * d) - F(1, 15 * d)]
    seq = CoefficientSeq.from_squares(sq)
    assert (seq.den, seq.nums[0]) == (30 * d, 3)
    check_against_oracle(seq, sq)


# -- block membership decided on the integers ------------------------------
# Each input puts a square or a gap within 1e-30 (relative) of a block
# boundary, where the float -log2 rounds onto the boundary.

def test_beta_block_of_a_square_just_below_a_two_power():
    # a_1**2 = (1 - 1e-30)**2 / 65536(1 - ...) lies just below 2**-16, so
    # z = -log2 a_1 > 8 and the term is in block 3 (8 < z <= 16), though its
    # float z is 8.0; a_5**2 lies just above 2**-16, so its z-block in the
    # sandwich is 2 (4 <= z < 8), not 3
    seq = CoefficientSeq([1 - F(1, 10 ** 30), 255, 22, 5, 1]).normalized()
    zf = seq.neg_log2_moduli()
    assert zf[0] == zf[4] == 8.0
    assert seq.squares[0] < F(1, 2 ** 16) < seq.squares[4]
    rep = beta_condition(seq)
    assert sorted(rep["terms"]) == [1, 2, 3]
    s1 = seq.square_floats()[0]
    assert rep["terms"][3] == math.sqrt(s1 * math.log2(math.sqrt(s1)) ** 2)
    assert bits(rep) == bits(o_beta(seq.squares))
    assert bits(sandwich_check(seq)) == bits(o_sandwich(seq.squares))


def test_beta1_block_of_a_gap_just_above_two_power():
    # the gap of a_1 in the tail set is c**2 / (c**2 + 15): 2**-4 for c = 1,
    # just above it for c = 1 + 1e-30 (J just below 4: block 1) and just
    # below it for c = 1 - 1e-30, where the gaps of a_4 and a_5 are just
    # above 2**-4 instead; J is the float 4.0 on all of them
    eps = F(1, 10 ** 30)
    terms = {}
    for c in (1 - eps, F(1), 1 + eps):
        seq = CoefficientSeq([c, 3, 2, 1, 1]).normalized()
        assert info_fn(tail_set(seq), base=2).values[-1] == 4.0
        terms[c] = theorem_conditions(seq)["beta1_terms"]
    assert terms[F(1)] == {1: 1.0, 2: math.sqrt(3)}
    assert terms[1 + eps] == {1: math.sqrt(2), 2: math.sqrt(2)}
    assert terms[1 - eps] == {1: math.sqrt(2), 2: 1.0}
