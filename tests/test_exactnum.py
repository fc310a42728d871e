"""Exact multiquadratic numbers (RootSum) against a sympy oracle."""

import math
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings
import hypothesis.strategies as st

from orthoconv.exactnum import (
    RootSum, exact_sqrt, parse_rational, sqrt_float, value_from_json,
    value_to_json,
)
from orthoconv.stepfn import StepFunction

KEYS = (1, 2, 3, 5, 6, 15, 30)
BIG = 2 ** 1000

small_coeffs = st.fractions(min_value=-50, max_value=50, max_denominator=60)
big_coeffs = st.builds(F, st.integers(-BIG, BIG), st.integers(1, BIG))
coeffs = st.one_of(small_coeffs, big_coeffs)


@st.composite
def elements(draw):
    """(value, sympy oracle) over Q(sqrt 2, sqrt 3, sqrt 5)."""
    terms = draw(st.dictionaries(st.sampled_from(KEYS), coeffs, max_size=len(KEYS)))
    value, oracle = F(0), sympy.Integer(0)
    for d, q in terms.items():
        value = value + q * exact_sqrt(d)
        oracle = oracle + sympy.Rational(q.numerator, q.denominator) * sympy.sqrt(d)
    return value, oracle


def sym(x):
    return sympy.sympify(x)


def is_zero(expr):
    return sympy.expand(expr) == 0


def oracle_sign(expr):
    if is_zero(expr):
        return 0
    v = expr.evalf(30, maxn=6000)
    assert v != 0
    return 1 if v > 0 else -1


def squarefree(d):
    return all(d % (p * p) for p in range(2, math.isqrt(d) + 1))


def canonical(x):
    """Rational results are Fractions; a RootSum holds an irrational key,
    nonzero coefficients and squarefree keys only."""
    if isinstance(x, RootSum):
        return (all(q != 0 for q in x.terms.values()) and any(d != 1 for d in x.terms)
                and all(squarefree(d) for d in x.terms))
    return type(x) is F


def test_products_reduce_to_squarefree_keys():
    r2, r3, r6 = exact_sqrt(2), exact_sqrt(3), exact_sqrt(6)
    assert r2 * r6 == 2 * r3 and (r2 * r6).terms == {3: 2}
    assert r6 * r6 == 6 and type(r6 * r6) is F
    assert exact_sqrt(30) * exact_sqrt(15) == 15 * r2
    x = (1 + r2 + r3) * (1 - r6)
    assert canonical(x) and x.terms == {1: 1, 2: -2, 3: -1, 6: -1}


@given(elements(), elements())
@settings(max_examples=150, deadline=None)
def test_ring_operations_match_oracle(a, b):
    (x, X), (y, Y) = a, b
    for got, want in ((x + y, X + Y), (x - y, X - Y), (x * y, X * Y)):
        assert canonical(got)
        assert is_zero(sym(got) - want)
    if not is_zero(Y):
        q = x / y
        assert canonical(q)
        assert is_zero(sym(q) * Y - X)
        assert q * y == x


@given(elements(), elements())
@settings(max_examples=150, deadline=None)
def test_zero_test_and_sign_match_oracle(a, b):
    (x, X), (y, Y) = a, b
    d = x - y
    s = oracle_sign(X - Y)
    assert (d == 0) == (s == 0) == (x == y)
    assert isinstance(d, F) or d != 0
    assert (x <= y) == (s <= 0) and (x > y) == (s > 0)
    assert (x < y) == (s < 0) and (x >= y) == (s >= 0)


@given(elements(), st.integers(min_value=60, max_value=400))
@settings(max_examples=100, deadline=None)
def test_sign_near_zero_is_exact(a, bits):
    # x minus its floor at 2**-bits: a positive irrational far below what
    # a float evaluation of the terms can separate from 0
    x, X = a
    if not isinstance(x, RootSum):
        return
    r = F(math.floor(x * 2 ** bits), 2 ** bits)
    z = x - r
    assert oracle_sign(X - sympy.Rational(r.numerator, r.denominator)) == 1
    assert z > 0 and z.sign() == 1 and (-z).sign() == -1
    assert r < x and not x <= r
    assert math.floor(z * 2 ** bits) == 0


def test_sign_of_pell_convergent():
    # 665857/470832 - sqrt(2) is about 1.6e-12; larger convergents vanish
    # below float resolution of the terms
    p, q = 1, 1
    for _ in range(60):
        p, q = p + 2 * q, p + q
        z = F(p, q) - exact_sqrt(2)
        s = sympy.Rational(p, q) - sympy.sqrt(2)
        assert z.sign() == oracle_sign(s)


@given(elements())
@settings(max_examples=150, deadline=None)
def test_float_is_evalf30_bit_for_bit(a):
    x, X = a
    assert float(x).hex() == float(X.evalf(30)).hex()


@given(st.fractions(min_value=0, max_value=10 ** 6, max_denominator=10 ** 6))
@settings(max_examples=100, deadline=None)
def test_sqrt_float_matches_sympy(q):
    root = sympy.sqrt(sympy.Rational(q.numerator, q.denominator))
    assert sqrt_float(q).hex() == float(root.evalf(30)).hex()


@given(elements())
@settings(max_examples=100, deadline=None)
def test_sympy_round_trips(a):
    x, X = a
    assert is_zero(sym(x) - X)
    assert value_from_json(value_to_json(x)) == x
    if isinstance(x, RootSum):
        assert value_to_json(x) == "sym:" + sympy.srepr(X)


def test_square_roots():
    assert exact_sqrt(F(4, 9)) == F(2, 3)
    assert exact_sqrt(8) == 2 * exact_sqrt(2)
    assert exact_sqrt(F(1, 12)) == exact_sqrt(3) / 6
    assert exact_sqrt(2 + exact_sqrt(3)) == (exact_sqrt(6) + exact_sqrt(2)) / 2
    assert exact_sqrt(3 + 2 * exact_sqrt(2)) == 1 + exact_sqrt(2)
    with pytest.raises(ValueError):
        exact_sqrt(5 + exact_sqrt(3))  # root outside every multiquadratic field
    with pytest.raises(ValueError):
        exact_sqrt(F(-1, 4))
    n = 3 * 12 ** 2 * (2 ** 31 - 1)  # a prime cofactor above the trial bound
    r = exact_sqrt(n)
    assert r.terms == {3 * (2 ** 31 - 1): 12} and r * r == n
    with pytest.raises(ValueError):
        exact_sqrt(2 ** 61 - 1)  # squarefree part not provable by trial division
    assert exact_sqrt(2.25) == 1.5
    with pytest.raises(TypeError):
        exact_sqrt(sympy.sqrt(2))  # the package makes no sympy values


def test_json_reads_only_multiquadratic_sym_text():
    assert value_from_json("sym:" + sympy.srepr(1 + sympy.sqrt(8))) == 1 + 2 * exact_sqrt(2)
    for text in (sympy.srepr(sympy.pi), sympy.srepr(sympy.sqrt(sympy.pi)),
                 sympy.srepr(sympy.cbrt(2))):
        with pytest.raises(ValueError):
            value_from_json("sym:" + text)


def test_parse_rational_refuses_non_finite_input():
    assert parse_rational(" 3/6 ") == F(1, 2) and parse_rational(0.5) == F(1, 2)
    for bad in ("1/0", "nan", "inf", float("inf"), float("nan"), "x"):
        with pytest.raises(ValueError):
            parse_rational(bad)


# -- the fused inner product -------------------------------------------------

FIELD_VALUES = [0, 1, 2, -1, F(1, 3), F(-2, 3), 0.0, 0.5, 0.1, -0.3, 1.0,
                exact_sqrt(2), -exact_sqrt(2), exact_sqrt(3) / 9, 1 + exact_sqrt(6)]
inner_values = st.one_of(st.sampled_from(FIELD_VALUES),
                         st.floats(min_value=-5, max_value=5, allow_nan=False),
                         st.fractions(min_value=-5, max_value=5, max_denominator=30))


@st.composite
def functions(draw):
    den = draw(st.sampled_from([2, 3, 6, 9, 27, 81, 2 ** 61 - 1]))
    nums = sorted(set(draw(st.lists(st.integers(1, den - 1), max_size=8))) | {den})
    return StepFunction.from_lattice(den, nums, draw(
        st.lists(inner_values, min_size=len(nums), max_size=len(nums))))


def same_value(a, b):
    if type(a) is not type(b):
        return False
    return a.hex() == b.hex() if type(a) is float else a == b


@given(functions(), functions())
@settings(max_examples=300, deadline=None)
def test_fused_inner_is_product_integral(f, g):
    assert same_value(f.inner(g), (f * g).integral())
    assert same_value(f.inner(f), (f * f).integral())
