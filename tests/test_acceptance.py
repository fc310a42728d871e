"""Acceptance gate: one check per shipped criterion, at its stated
tolerance, each printing a PASS/FAIL line.

Every check here either asserts exact identities (rational arithmetic)
or a fixed tolerance pinned in this file; nothing is calibrated at run
time.  The Cantor tail bound is checked in two forms.  7a: the
integrated tail (layer-cake form) equals 3*(2/3)**k exactly, so the
bound 3*(2/3)**k holds with equality.  7b: the quadratic mean is exact
too -- its square is 15*(2/3)**k -- and lies strictly above 3*(2/3)**k
for every k, since on (0,1] the L2 norm of a non-constant function
exceeds its L1 norm; 7b asserts the exact value and that strict gap.
"""

import time
from fractions import Fraction as F

import pytest

from orthoconv.info import cantor_info_fn
from orthoconv.stepfn import pos_part
from orthoconv.suites import run_suite
from orthoconv.sets import cantor_tail_integral_oracle, cantor_tail_norm_sq_oracle
from orthoconv.cli import main as cli_main

TOL = 1e-9


def _line(num, ok, text):
    print("ACCEPTANCE %-3s %s  %s" % (num, "PASS" if ok else "FAIL", text))
    return ok


def test_criterion_1_family_exactness():
    t0 = time.perf_counter()
    r = run_suite("family_exactness", seed=0)
    elapsed = time.perf_counter() - t0
    ok = r["passed"] and elapsed < 10.0
    assert _line("1", ok, "generator family identities exact for k=1..3 "
                 "(%.2fs)" % elapsed)


def test_criterion_2_digit_tail_bound():
    t0 = time.perf_counter()
    r = run_suite("digit_tail_bound", seed=0, count=200)
    elapsed = time.perf_counter() - t0
    ok = r["passed"] and elapsed < 5.0
    assert _line("2", ok, "exact binomial tail <= e^(-k/144) for k=1..200 "
                 "(%.2fs)" % elapsed)


def test_criterion_3_composite_oracle():
    r = run_suite("composite_oracle", seed=0, count=100)
    ok = r["passed"] and r["worst_abs_error"] <= TOL
    assert _line("3", ok, "sparse composition matches the dense oracle "
                 "(worst %.2e)" % r["worst_abs_error"])


@pytest.mark.parametrize("suite,count", [
    ("bar_vs_doubled", 100),
    ("halffloor_factor14", 100),
    ("slice_triangle", 100),
    ("scalar_factor14", 100),
    ("envelope_slice_defects", 100),
    ("block_selection", 100),
    ("type_descent", 100),
])
def test_criterion_4_inequality_suites(suite, count):
    r = run_suite(suite, seed=0, count=count)
    assert _line("4", r["passed"],
                 "%s: %d instances, %d violations"
                 % (suite, r["instances"], r["violations"]))


def test_criterion_5_geometry_suite():
    r = run_suite("envelope_geometry", seed=0, count=100)
    assert _line("5", r["passed"],
                 "distance sums and envelope containment on %d random sets"
                 % r["instances"])


def test_criterion_6_process_suite():
    r1 = run_suite("process_gram", seed=0)
    r2 = run_suite("cell_oscillation_bound", seed=0, count=2)
    ok = r1["passed"] and r2["passed"]
    assert _line("6", ok, "exact increment norms, maximal partial-sum bound, "
                 "per-cell oscillation bound")


def test_criterion_7a_cantor_integrated_tail():
    ok = True
    for k in range(0, 13):
        integ = cantor_tail_integral_oracle(k)
        bound = F(3) * F(2, 3) ** k
        if not integ <= bound:
            ok = False
        if abs(float(integ) - float(bound)) > 1e-12:
            ok = False  # layer-cake equality
    r = run_suite("cantor_tail", seed=0)
    ok = ok and r["passed"]
    assert _line("7a", ok, "integrated Cantor tail equals 3*(2/3)**k; "
                 "window trace stabilizes")


def _tail_sq_remainder(k, depth):
    """Exact remainder of the squared-tail series after ``depth`` terms.

    The series is sum over l >= 1 of l**2 * 2**(k+l-1) / 3**(k+l)
    = (1/2) (2/3)**k * sum l**2 x**l at x = 2/3, and
    sum over l > D of l**2 x**l
    = x**(D+1) ((D+1)**2 - (2D**2+2D-1) x + D**2 x**2) / (1-x)**3.
    """
    x, D = F(2, 3), depth
    tail = x ** (D + 1) * ((D + 1) ** 2 - (2 * D * D + 2 * D - 1) * x
                           + D * D * x * x) / (1 - x) ** 3
    return F(1, 2) * F(2, 3) ** k * tail


def test_criterion_7b_cantor_l2_bound_as_stated():
    # The quadratic mean of the Cantor tail, in exact arithmetic.  Its
    # square is 15*(2/3)**k, so the literal reading
    # ||(H_C - k)^+||_2 <= 3*(2/3)**k fails strictly for every k: on (0,1]
    # the L2 norm is at least the L1 norm 3*(2/3)**k (7a), with equality
    # only for constant functions.
    depth = 400
    ok = True
    for k in range(0, 13):
        closed = F(15) * F(2, 3) ** k
        # (a) the independent oracle sits below the closed form by exactly
        # its explicit truncation remainder, so in [closed - rem, closed]
        rem = _tail_sq_remainder(k, depth)
        oracle = cantor_tail_norm_sq_oracle(k, depth)
        ok = ok and 0 < rem and oracle + rem == closed
        # (c) the literal bound, compared as exact squares, fails strictly
        ok = ok and closed > (F(3) * F(2, 3) ** k) ** 2
    # (b) the library's own squared tail at depth d: gaps of generation
    # m <= d carry m, the 2**d survivors carry the clip value d
    d = 8
    h = cantor_info_fn(d)
    for k in (0, 3, 7):
        trunc = sum((F((m - k) ** 2 * 2 ** (m - 1), 3 ** m)
                     for m in range(k + 1, d + 1)), start=F(0))
        trunc += (d - k) ** 2 * F(2, 3) ** d
        ok = ok and pos_part(h, k).integral_sq() == trunc
    assert _line("7b", ok, "quadratic-mean Cantor tail squared is exactly "
                 "15*(2/3)**k; the literal L2 bound 3*(2/3)**k fails "
                 "strictly")


def test_criterion_8_criteria_cross_checks():
    r = run_suite("sandwich", seed=0, count=100)
    assert _line("8", r["passed"],
                 "two-sided block/slice comparisons, permutation invariance, "
                 "positional witness")


def test_criterion_9_cli_determinism(tmp_path):
    src = tmp_path / "coef.json"
    src.write_text('["1/2", "1/3", "1/7", "1/9"]')
    pairs = []
    for args, name in [
        (["analyze", str(src), "--seed", "5"], "analyze"),
        (["construct", "--grid", "1", "--seed", "5"], "construct"),
    ]:
        outs = []
        for i in (0, 1):
            out = tmp_path / ("%s%d.json" % (name, i))
            assert cli_main(args + ["--out", str(out)]) == 0
            outs.append(out.read_bytes())
        pairs.append(outs[0] == outs[1])
    assert _line("9", all(pairs), "analyze and construct byte-identical "
                 "across reruns")
