"""Exact multiquadratic numbers (RootSum) against a sympy oracle."""

import math
import re
import sys
import time
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings
import hypothesis.strategies as st

from orthoconv.exactnum import (
    ECHO_CHARS, RootSum, _srepr_term, echo, exact_sqrt, floor_log2, parse_rational, sqrt_float,
    value_from_json, value_to_json,
)
from orthoconv.stepfn import StepFunction, _weighted_sum

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
    with pytest.raises(TypeError):
        exact_sqrt(2.25)  # a float has no exact root
    with pytest.raises(TypeError):
        exact_sqrt(sympy.sqrt(2))  # the package makes no sympy values


@pytest.mark.parametrize("f", [0.5, -2.0, 0.0, math.inf, math.nan])
def test_rootsum_refuses_float_operands(f):
    # a float never meets a field value: arithmetic and order raise
    # TypeError, and equality is False
    x = 1 + exact_sqrt(2)
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
               lambda a, b: a / b, lambda a, b: a < b, lambda a, b: a <= b,
               lambda a, b: a > b, lambda a, b: a >= b):
        with pytest.raises(TypeError):
            op(x, f)
        with pytest.raises(TypeError):
            op(f, x)
    assert x != f and f != x and not x == f


def test_json_reads_only_multiquadratic_sym_text():
    assert value_from_json("sym:" + sympy.srepr(1 + sympy.sqrt(8))) == 1 + 2 * exact_sqrt(2)
    for text in (sympy.srepr(sympy.pi), sympy.srepr(sympy.sqrt(sympy.pi)),
                 sympy.srepr(sympy.cbrt(2))):
        with pytest.raises(ValueError):
            value_from_json("sym:" + text)


# -- the "sym:" writer and reader --------------------------------------------

WIDE_KEYS = (1, 2, 3, 7, 10, 105, 2310)
unit_and_int_coeffs = st.builds(F, st.sampled_from([1, -1, 2, -2, 3, -7, 10 ** 20, -(10 ** 20)]))
wide_coeffs = st.one_of(coeffs, unit_and_int_coeffs)


def terms_value(terms):
    value, oracle = F(0), sympy.Integer(0)
    for d, q in terms.items():
        value = value + q * exact_sqrt(d)
        oracle = oracle + sympy.Rational(q.numerator, q.denominator) * sympy.sqrt(d)
    return value, oracle


@st.composite
def wide_elements(draw):
    """(value, sympy oracle) over keys outside KEYS too, with unit and
    integer coefficients; terms lie inside the float range."""
    terms = draw(st.dictionaries(st.sampled_from(WIDE_KEYS), wide_coeffs,
                                 min_size=1, max_size=len(WIDE_KEYS)))
    return terms_value(terms)


# a positive rational and one negative irrational term: sympy writes the
# rational first, out of value order
rational_minus_root = st.builds(
    lambda p, d, q: terms_value({1: p, d: -q}),
    st.one_of(unit_and_int_coeffs, coeffs).filter(lambda p: p > 0),
    st.sampled_from(WIDE_KEYS[1:]),
    st.one_of(unit_and_int_coeffs, coeffs).filter(lambda q: q > 0))


@given(st.one_of(wide_elements(), rational_minus_root))
@settings(max_examples=300, deadline=None)
def test_sym_text_is_sympy_srepr(a):
    x, X = a
    if isinstance(x, RootSum):
        assert value_to_json(x) == "sym:" + sympy.srepr(X)
        assert value_from_json(value_to_json(x)) == x


def test_sym_text_of_single_terms():
    r2 = exact_sqrt(2)
    root = "Pow(Integer(2), Rational(1, 2))"
    for value, text in ((r2, root), (-r2, "Mul(Integer(-1), %s)" % root),
                        (3 * r2, "Mul(Integer(3), %s)" % root),
                        (-3 * r2 / 5, "Mul(Integer(-1), Rational(3, 5), %s)" % root),
                        (1 - r2, "Add(Integer(1), Mul(Integer(-1), %s))" % root),
                        (-1 - r2, "Add(Mul(Integer(-1), %s), Integer(-1))" % root)):
        assert value_to_json(value) == "sym:" + text


@given(wide_elements(), st.data())
@settings(max_examples=100, deadline=None)
def test_sym_reader_takes_terms_in_any_order(a, data):
    x, _ = a
    if not isinstance(x, RootSum) or len(x.terms) < 2:
        return
    items = data.draw(st.permutations(sorted(x.terms.items())))
    text = "sym:Add(%s)" % ", ".join(_srepr_term(d, q) for d, q in items)
    assert value_from_json(text) == x


def test_sym_reader_reduces_roots():
    text = "sym:Pow(Integer(8), Rational(1, 2))"
    assert value_from_json(text) == 2 * exact_sqrt(2)
    assert value_from_json(text).terms == {2: 2}
    assert value_from_json("sym:Mul(Rational(1, 2), Pow(Integer(4), Rational(1, 2)))") == 1
    assert value_from_json("sym:Add(Integer(1), Pow(Integer(12), Rational(1, 2)))") \
        == 1 + 2 * exact_sqrt(3)


@pytest.mark.parametrize("text", [
    "pi",
    "Pow(pi, Rational(1, 2))",
    "Pow(Integer(2), Rational(1, 3))",
    "Mul(Integer(2), Pow(Integer(2), Rational(1, 3)))",
    # a nested quotient, as sympy kept some values before the field type
    "Mul(Pow(Add(Integer(1), Pow(Integer(2), Rational(1, 2))), Integer(-1)), "
    "Pow(Integer(3), Rational(1, 2)))",
    "Pow(Integer(-2), Rational(1, 2))",
    "Rational(1, 0)",
    "Add(Integer(1))",
    "Add(Integer(1), Pow(Integer(2), Rational(1, 2))",
    "Integer(1) ",
    "",
])
def test_sym_reader_refuses_other_text(text):
    with pytest.raises(ValueError):
        value_from_json("sym:" + text)


def test_parse_rational_refuses_non_finite_input():
    assert parse_rational(" 3/6 ") == F(1, 2) and parse_rational(0.5) == F(1, 2)
    for bad in ("1/0", "nan", "inf", float("inf"), float("nan"), "x"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def fraction_oracle(text):
    """What ``Fraction`` gives for the stripped text through parse_rational's
    refusals: the value, or the error type and message, with a zero
    denominator read as not finite, a long invalid literal echoed by its
    first characters, Python's digit limit named with the text, and a
    literal whose decimal exponent is above that limit refused before its
    power of ten is built."""
    limit = sys.get_int_max_str_digits()
    m = re.fullmatch(r"(.*)e[-+]?(\d+(?:_\d+)*)", text.strip(), re.DOTALL | re.IGNORECASE)
    if m and limit and int(m[2].replace("_", "")) > limit:
        try:
            F(m[1] + "e0")
        except ValueError:
            pass
        else:
            return ValueError, ("%s has a decimal exponent above %d, Python's limit for "
                                "integer strings" % (echo(text), limit))
    try:
        return F(text.strip())
    except ZeroDivisionError:
        return ValueError, "%s is not a finite rational" % echo(text)
    except ValueError as e:
        if str(e).startswith("Invalid literal"):
            return ValueError, "Invalid literal for Fraction: %s" % echo(text.strip())
        assert str(e).startswith("Exceeds the limit")
        return ValueError, ("%s has more than %d digits, Python's limit for integer strings"
                            % (echo(text), sys.get_int_max_str_digits()))


def _parsed(text):
    try:
        return parse_rational(text)
    except ValueError as e:
        return ValueError, str(e)


ascii_digits = st.text("0123456789", min_size=1, max_size=8)
rational_texts = st.one_of(
    ascii_digits, st.builds("%s/%s".__mod__, st.tuples(ascii_digits, ascii_digits)),
    st.builds("".join, st.lists(st.sampled_from(
        ["0", "1", "7", "00", "/", "_", "+", "-", " ", "\t", "\n", ".", "e",
         "\u0660", "\u0663", "\u0669", "\u00b2"]), min_size=1, max_size=10)),
    st.sampled_from(["1/0", "0/0", "000/000", "12/0", " 1/0 ", "1_000/3", "+1/3", "-0",
                     "\u0661/\u0663", "1/\u0663", "1.5", "1/-3", "1/+3", "/3", "3/", ""]),
    st.builds(lambda n, d: n + d, st.sampled_from(["9" * 5000, "1" + "0" * 4999]),
              st.sampled_from(["", "/3", "/" + "7" * 5000, "/0", "x"])))


@settings(max_examples=300, deadline=None)
@given(rational_texts)
def test_parse_rational_matches_fraction(text):
    # ASCII digits and "p/q" of ASCII digits are read by two int()s; the
    # value, or the error and its message, is Fraction's
    assert _parsed(text) == fraction_oracle(text)


def test_echo_cuts_long_values_to_their_first_characters():
    assert echo("1/3") == "'1/3'" and echo(2.5) == "2.5"
    long = "x" * 10000
    assert echo(long) == "%s... (10000 characters)" % repr(long)[:ECHO_CHARS]
    nested = [[[1]]] * 40
    assert echo(nested) == "%s... (%d characters)" % (repr(nested)[:ECHO_CHARS], len(str(nested)))
    for value in (long, "1" * 300 + "/0", long + "e99999", True):
        with pytest.raises(ValueError) as err:
            parse_rational(value)
        assert len(str(err.value)) < 180


def test_parse_rational_refuses_an_exponent_above_the_digit_limit():
    # the limit Python puts on integer strings, in either sign of exponent;
    # 10**10000000 would take minutes to build
    limit = sys.get_int_max_str_digits()
    for text in ("1e-%d" % limit, "1E+%d" % limit, "2.5e%d" % limit, "1e-000%d" % limit):
        assert parse_rational(text) > 0
    for text in ("1e-%d" % (limit + 1), "1E%d" % (limit + 1), "-3.5e+10000000",
                 "1e-10_000_000", "1e-" + "9" * 20000):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="above %d" % limit):
            parse_rational(text)
        assert time.perf_counter() - t0 < 0.5
    sys.set_int_max_str_digits(640)
    try:
        assert parse_rational("1e640") == 10 ** 640
        with pytest.raises(ValueError, match="above 640"):
            parse_rational("1e-641")
        sys.set_int_max_str_digits(0)  # no limit, no exponent check
        assert parse_rational("1e-5000") == F(1, 10 ** 5000)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("text", ["e10000", "e\u0669000", "1e_10000", "1/3e10000",
                                  "1e+-10000", "1e10000x"])
def test_a_non_literal_with_a_long_exponent_is_an_invalid_literal(text):
    # the exponent refusal is for literals Fraction reads; the rest are
    # refused as Fraction refuses them
    with pytest.raises(ValueError, match="^Invalid literal for Fraction"):
        parse_rational(text)


# -- the fused inner product -------------------------------------------------

# the two regimes, which never meet in one function: exact values (ints,
# Fractions and field elements) and float values (ints, Fractions and floats)
rationals = st.fractions(min_value=-5, max_value=5, max_denominator=30)
exact_values = st.one_of(
    st.sampled_from([0, 1, 2, -1, F(1, 3), F(-2, 3), exact_sqrt(2), -exact_sqrt(2),
                     exact_sqrt(3) / 9, 1 + exact_sqrt(6)]),
    rationals)
float_values = st.one_of(
    st.sampled_from([0, 1, 2, -1, F(1, 3), F(-2, 3), 0.0, 0.5, 0.1, -0.3, 1.0]),
    st.floats(min_value=-5, max_value=5, allow_nan=False),
    rationals)


@st.composite
def functions(draw, values):
    den = draw(st.sampled_from([2, 3, 6, 9, 27, 81, 2 ** 61 - 1]))
    nums = sorted(set(draw(st.lists(st.integers(1, den - 1), max_size=8))) | {den})
    return StepFunction.from_lattice(den, nums, draw(
        st.lists(values, min_size=len(nums), max_size=len(nums))))


def same_value(a, b):
    if type(a) is not type(b):
        return False
    return a.hex() == b.hex() if type(a) is float else a == b


def ref_inner(f, g):
    """Integral of f * g by a walk of its own over both lattices: runs of
    equal products are summed as one piece, the first product of a run
    standing for it."""
    den, a, b = f._common_lattice(g)
    va, vb = f.values, g.values
    terms = []
    run_v = None
    run_lo = prev = 0
    ia = ib = 0
    while True:
        x, y = a[ia], b[ib]
        v = va[ia] * vb[ib]
        if run_v is None:
            run_v = v
        elif run_v != v:
            terms.append((run_v, prev - run_lo))
            run_v, run_lo = v, prev
        if x < y:
            prev = x
            ia += 1
        elif y < x:
            prev = y
            ib += 1
        else:
            prev = x
            if x == den:
                break
            ia += 1
            ib += 1
    terms.append((run_v, den - run_lo))
    return _weighted_sum(terms, den)


@given(st.sampled_from([exact_values, float_values]).flatmap(
    lambda values: st.tuples(functions(values), functions(values))))
@settings(max_examples=300, deadline=None)
def test_fused_inner_is_product_integral(fg):
    f, g = fg
    for a, b in ((f, g), (f, f)):
        want = ref_inner(a, b)
        assert same_value(a.inner(b), want)
        assert same_value((a * b).integral(), want)


# -- floor_log2 ---------------------------------------------------------------

def oracle_floor_log2(x):
    """The j with 2**j <= x < 2**(j+1), walked by exact comparisons."""
    x = F(x) if type(x) is float else x
    j = 0
    while F(2) ** (j + 1) <= x:
        j += 1
    while F(2) ** j > x:
        j -= 1
    return j


# x = 2**j * (1 + s * delta) with 0 <= delta <= 2**-200, on either side
near_powers = st.builds(
    lambda j, s, m, q: F(2) ** j * (1 + s * F(m, 2 ** 200 * q)),
    st.integers(-1100, 1100), st.sampled_from([1, -1]), st.integers(0, 1),
    st.integers(1, 2 ** 30))
positive_floats = st.one_of(
    st.floats(min_value=0, exclude_min=True, allow_infinity=False, allow_nan=False),
    st.integers(1, 2 ** 52 - 1).map(lambda m: m * 2.0 ** -1074),  # subnormals
    st.integers(-1074, 1023).map(lambda e: 2.0 ** e))
@given(st.one_of(st.integers(1, 2 ** 1200), near_powers,
                 st.fractions(min_value=0, max_value=10 ** 6).filter(lambda x: x > 0),
                 positive_floats))
@settings(max_examples=300, deadline=None)
def test_floor_log2_matches_fraction_comparisons(x):
    assert floor_log2(x) == oracle_floor_log2(x)


@pytest.mark.parametrize("x", [0, -1, F(0), F(-1, 2), 0.0, -0.5, math.inf, math.nan,
                               exact_sqrt(2) - 1, True,
                               # levels are decided for rationals and floats only
                               1 + exact_sqrt(2), 2 ** 1100 + exact_sqrt(3)])
def test_floor_log2_refuses_values_without_a_level(x):
    with pytest.raises(ValueError):
        floor_log2(x)
