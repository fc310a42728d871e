"""Vectors with external coordinates, processes, maximal functions."""

from fractions import Fraction as F

import pytest

from orthoconv.exactnum import exact_sqrt
from orthoconv.info import PointSet
from orthoconv.ortho import (
    IdAllocator, OrthoProcess, OrthoVector, ProductProcess, exceedance_measure,
    gram_check, m_grid, maximal_function, menshov_bound_check,
)
from orthoconv.stepfn import StepFunction
from orthoconv.construct import phi_family, build_divergent
from orthoconv.suites import run_suite


def test_vector_inner_and_norm():
    u = OrthoVector(StepFunction.indicator(0, F(1, 2)), {3: F(2)})
    v = OrthoVector(StepFunction.constant(1), {3: F(1, 2), 4: 1})
    assert u.inner(v) == F(1, 2) + 1
    assert u.norm_sq() == F(1, 2) + 4
    assert (u - u).is_zero()


def test_vector_ext_cleanup():
    u = OrthoVector(ext={1: F(1)})
    v = OrthoVector(ext={1: F(-1)})
    assert not (u + v).ext


def test_basis_allocator():
    u = OrthoVector(ext={5: 1})
    alloc = IdAllocator.after(u)
    assert alloc.fresh() == 6
    assert alloc.fresh() == 7


def test_unit_process_gram():
    e1, e2 = OrthoVector.basis(0), OrthoVector.basis(1)
    half = exact_sqrt(F(1, 2))
    X = OrthoProcess(
        [0, F(1, 2), 1],
        {F(0): OrthoVector(), F(1, 2): half * e1, F(1): half * e1 + half * e2},
        mode="unit")
    assert gram_check(X) == 0


def test_gram_detects_corruption():
    e1 = OrthoVector.basis(0)
    X = OrthoProcess([0, 1], {F(0): OrthoVector(), F(1): 2 * e1}, mode="unit")
    assert float(gram_check(X)) == pytest.approx(3.0)


def test_single_point_process():
    X = OrthoProcess([0], {F(0): OrthoVector()}, mode="unit")
    assert gram_check(X) == 0
    assert maximal_function(X) == StepFunction.constant(0)


def test_simple_process_phi_k1_exact():
    chi = OrthoVector.basis(0)
    fam = phi_family(1, chi, scale=24)
    acc = OrthoVector()
    vecs = {F(0): OrthoVector()}
    for m, u in enumerate(fam):
        acc = acc + u
        vecs[F(m + 1, 3)] = acc
    X = OrthoProcess(list(vecs), vecs, mode="simple", carrier=[(F(0), F(1))])
    assert gram_check(X) == 0
    m = maximal_function(X)
    assert m == StepFunction.indicator(F(1, 3), F(2, 3), value=24, base=0)
    assert m.measure_ge(24) == F(1, 3)
    assert exceedance_measure(m, 24) == F(1, 3)


def test_maximal_function_k2_binomial():
    chi = OrthoVector.basis(0)
    fam = phi_family(2, chi)
    acc = OrthoVector()
    vecs = {F(0): OrthoVector()}
    for m, u in enumerate(fam):
        acc = acc + u
        vecs[F(m + 1, 9)] = acc
    X = OrthoProcess(list(vecs), vecs, mode="unit")
    m = maximal_function(X)
    # digit-sum levels: measure(max >= 1) = P(Bin(2,1/3) >= 1) = 5/9
    assert m.measure_ge(1) == F(5, 9)
    assert m.measure_ge(2) == F(1, 9)


def test_maximal_function_disjoint_supports_max_of_maxima():
    a = OrthoVector(StepFunction.indicator(0, F(1, 2), value=3, base=0))
    b = OrthoVector(StepFunction.indicator(F(1, 2), 1, value=5, base=0))
    X = OrthoProcess([0, F(1, 2), 1],
                     {F(0): OrthoVector(), F(1, 2): a, F(1): a + b},
                     mode="unit")
    m = maximal_function(X)
    assert m == maximal_function(
        OrthoProcess([0, F(1, 2)], {F(0): OrthoVector(), F(1, 2): a}, mode="unit")
    ).maximum(maximal_function(
        OrthoProcess([0, 1], {F(0): OrthoVector(), F(1): b}, mode="unit")))


def test_menshov_single_vector():
    y = OrthoVector(StepFunction.constant(2))
    lhs, rhs = menshov_bound_check([y])
    assert lhs == pytest.approx(4.0)
    assert rhs == pytest.approx(4.0)  # k = 1


def test_menshov_haar_pair():
    y1 = OrthoVector(StepFunction([F(1, 2), F(1)], [1, -1]))
    y2 = OrthoVector(StepFunction([F(1, 2), F(1)], [1, 1]))
    lhs, rhs = menshov_bound_check([y1, y2])
    assert lhs < rhs


def test_menshov_rejects_non_orthogonal():
    y1 = OrthoVector(StepFunction.constant(1))
    y2 = OrthoVector(StepFunction.constant(2))
    with pytest.raises(ValueError):
        menshov_bound_check([y1, y2])


def test_menshov_families():
    for k in (1, 2, 3):
        fam = phi_family(k, OrthoVector.basis(0))
        lhs, rhs = menshov_bound_check(fam)
        assert lhs <= rhs * (1 + 1e-12)


def test_m_grid_constant_cell_is_zero():
    B = PointSet([0, F(1, 3), F(2, 3), 1])
    vec = OrthoVector.basis(0)
    third = exact_sqrt(F(1, 3))
    X = OrthoProcess(
        [0, F(1, 3), F(2, 3), 1],
        {F(0): OrthoVector(),
         F(1, 3): vec * third,
         F(2, 3): vec * third + OrthoVector.basis(1) * third,
         F(1): vec * third + OrthoVector.basis(1) * third + OrthoVector.basis(2) * third},
        mode="unit")
    # no interior points: every cell is skipped
    assert m_grid(X, B, 0) == []


def test_m_grid_requires_interior_points():
    B = PointSet([0, F(1, 9), F(1, 3), F(2, 3), 1])
    out = build_divergent(B)
    X = out["report"]["process"].to_unit()
    cells = m_grid(X, B, 0)
    assert [n for n, _, _ in cells] == [0]  # only the first cell has 1/9 inside


def test_cell_oscillation_suite():
    r = run_suite("cell_oscillation_bound", seed=0, count=2)
    assert r["passed"], r


def test_process_gram_suite():
    r = run_suite("process_gram", seed=0)
    assert r["passed"], r


def test_glue_blocks_single_block_degenerate():
    chi = OrthoVector.basis(0)
    fam = phi_family(1, chi)
    acc = OrthoVector()
    vecs = {F(0): OrthoVector()}
    for m, u in enumerate(fam):
        acc = acc + u
        vecs[F(m + 1, 3)] = acc
    X = OrthoProcess(list(vecs), vecs, mode="unit")
    pp = ProductProcess([X], [1, 0])
    u, per = pp.oscillation_exceedance(1)
    assert per == [F(1, 3)]
    assert u == F(1, 3)
    assert pp.max_exceedance(1) >= F(1, 3)


def test_glue_blocks_two_independent_copies():
    def mk():
        fam = phi_family(1, OrthoVector.basis(0))
        acc = OrthoVector()
        vecs = {F(0): OrthoVector()}
        for m, u in enumerate(fam):
            acc = acc + u
            vecs[F(m + 1, 3)] = acc
        return OrthoProcess(list(vecs), vecs, mode="unit")

    pp = ProductProcess([mk(), mk()], [1, F(1, 2), 0])
    union, per = pp.oscillation_exceedance(1)
    assert per == [F(1, 3), F(1, 3)]
    assert union == 1 - F(2, 3) ** 2  # = 5/9


def test_glue_blocks_budget_and_empty():
    with pytest.raises(ValueError):
        ProductProcess([], [1, 0])
    chi = OrthoVector.basis(0)
    X = OrthoProcess([0], {F(0): OrthoVector()}, mode="unit")
    with pytest.raises(ValueError):
        ProductProcess([X] * 5, [1, F(4, 5), F(3, 5), F(2, 5), F(1, 5), 0])
