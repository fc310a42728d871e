"""Vectors with external coordinates, the Gram kernel, processes, maximal functions."""

import functools
import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from orthoconv.cli import main
from orthoconv.exactnum import RootSum, exact_sqrt
from orthoconv.info import PointSet
from orthoconv.ortho import (
    SIMPLE_FACTOR, IdAllocator, OrthoProcess, OrthoVector, ProductProcess,
    gram_check, gram_matrix, m_grid, maximal_function, menshov_bound_check,
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


# a unit vector times SCALE has squared norm SIMPLE_FACTOR
SCALE = 24 * exact_sqrt(3)
UNIT = [(0, 1)]  # the carrier [0, 1]


def test_unit_process_gram():
    e1, e2 = OrthoVector.basis(0), OrthoVector.basis(1)
    half = SCALE * exact_sqrt(F(1, 2))
    X = OrthoProcess(
        [0, F(1, 2), 1],
        {F(0): OrthoVector(), F(1, 2): half * e1, F(1): half * e1 + half * e2}, UNIT)
    assert gram_check(X) == 0


def test_gram_detects_corruption():
    e1 = OrthoVector.basis(0)
    X = OrthoProcess([0, 1], {F(0): OrthoVector(), F(1): 2 * SCALE * e1}, UNIT)
    assert gram_check(X) == 3 * SIMPLE_FACTOR


def test_single_point_process():
    X = OrthoProcess([0], {F(0): OrthoVector()}, [(0, 0)])
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
    X = OrthoProcess(list(vecs), vecs, UNIT)
    assert gram_check(X) == 0
    m = maximal_function(X)
    assert m == StepFunction.indicator(F(1, 3), F(2, 3), value=24)
    assert m.measure_ge(24) == F(1, 3)


def test_maximal_function_k2_binomial():
    chi = OrthoVector.basis(0)
    fam = phi_family(2, chi)
    acc = OrthoVector()
    vecs = {F(0): OrthoVector()}
    for m, u in enumerate(fam):
        acc = acc + u
        vecs[F(m + 1, 9)] = acc
    X = OrthoProcess(list(vecs), vecs, UNIT)
    m = maximal_function(X)
    # digit-sum levels: measure(max >= 1) = P(Bin(2,1/3) >= 1) = 5/9
    assert m.measure_ge(1) == F(5, 9)
    assert m.measure_ge(2) == F(1, 9)


def test_maximal_function_disjoint_supports_max_of_maxima():
    a = OrthoVector(StepFunction.indicator(0, F(1, 2), value=3))
    b = OrthoVector(StepFunction.indicator(F(1, 2), 1, value=5))
    X = OrthoProcess([0, F(1, 2), 1],
                     {F(0): OrthoVector(), F(1, 2): a, F(1): a + b}, UNIT)
    m = maximal_function(X)
    assert m == maximal_function(
        OrthoProcess([0, F(1, 2)], {F(0): OrthoVector(), F(1, 2): a}, [(0, F(1, 2))])
    ).maximum(maximal_function(
        OrthoProcess([0, 1], {F(0): OrthoVector(), F(1): b}, UNIT)))


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


def test_menshov_rejects_a_tiny_inner_product():
    # the inner product is exactly 10**-12, and it is decided exactly
    y1 = OrthoVector.basis(0)
    y2 = OrthoVector.basis(1) + F(1, 10 ** 12) * OrthoVector.basis(0)
    with pytest.raises(ValueError, match="vectors 0 and 1 are not orthogonal"):
        menshov_bound_check([y1, y2])


def test_menshov_families():
    for k in (1, 2, 3):
        fam = phi_family(k, OrthoVector.basis(0))
        lhs, rhs = menshov_bound_check(fam)
        assert lhs <= rhs * (1 + 1e-12)


def test_m_grid_constant_cell_is_zero():
    B = PointSet([0, F(1, 3), F(2, 3), 1])
    vec = OrthoVector.basis(0)
    third = SCALE * exact_sqrt(F(1, 3))
    X = OrthoProcess(
        [0, F(1, 3), F(2, 3), 1],
        {F(0): OrthoVector(),
         F(1, 3): vec * third,
         F(2, 3): vec * third + OrthoVector.basis(1) * third,
         F(1): vec * third + OrthoVector.basis(1) * third + OrthoVector.basis(2) * third},
        UNIT)
    # no interior points: every cell is skipped
    assert m_grid(X, B, 0) == []


def test_m_grid_requires_interior_points():
    B = PointSet([0, F(1, 9), F(1, 3), F(2, 3), 1])
    out = build_divergent(B)
    X = out["report"]["process"]
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
    X = OrthoProcess(list(vecs), vecs, UNIT)
    pp = ProductProcess([maximal_function(X)], [1, 0])
    u, per = pp.oscillation_exceedance(1)
    assert per == [F(1, 3)]
    assert u == F(1, 3)


def test_glue_blocks_two_independent_copies():
    def mk():
        fam = phi_family(1, OrthoVector.basis(0))
        acc = OrthoVector()
        vecs = {F(0): OrthoVector()}
        for m, u in enumerate(fam):
            acc = acc + u
            vecs[F(m + 1, 3)] = acc
        return OrthoProcess(list(vecs), vecs, UNIT)

    pp = ProductProcess([maximal_function(mk()), maximal_function(mk())], [1, F(1, 2), 0])
    union, per = pp.oscillation_exceedance(1)
    assert per == [F(1, 3), F(1, 3)]
    assert union == 1 - F(2, 3) ** 2  # = 5/9


def test_glue_blocks_budget_and_empty():
    with pytest.raises(ValueError):
        ProductProcess([], [1, 0])
    m = StepFunction.constant(0)
    with pytest.raises(ValueError):
        ProductProcess([m] * 5, [1, F(4, 5), F(3, 5), F(2, 5), F(1, 5), 0])


# -- the Gram kernel -----------------------------------------------------------

R2, R3, R6 = exact_sqrt(2), exact_sqrt(3), exact_sqrt(6)
EXACT_VALUES = [0, 1, -2, F(1, 3), F(-5, 7), R2, -R3 / 9, R6 / 4,
                1 + R2, F(1, 2) - R3 + R6, R2 + R3 / 5, 2 * R6 - F(3, 11)]
# the float pool: rationals and floats, the values of the V calculus
FLOAT_VALUES = [0, 1, F(1, 3), 0.0, 0.5, -0.3, 1e-3]


def values(exact):
    pool = EXACT_VALUES if exact else FLOAT_VALUES
    return st.one_of(st.sampled_from(pool),
                     st.fractions(min_value=-9, max_value=9, max_denominator=40))


@st.composite
def vectors(draw, exact):
    den = draw(st.sampled_from([1, 2, 3, 6, 9, 27, 81, 2 ** 61 - 1]))
    nums = sorted(set(draw(st.lists(st.integers(1, den - 1), max_size=6)))
                  if den > 1 else set()) + [den]
    body = StepFunction.from_lattice(den, nums, draw(
        st.lists(values(exact), min_size=len(nums), max_size=len(nums))))
    ext = draw(st.dictionaries(st.integers(0, 5), values(exact), max_size=3))
    return OrthoVector(body, ext)


def same_value(a, b):
    if type(a) is not type(b):
        return False
    return a.hex() == b.hex() if type(a) is float else a == b


@given(st.lists(vectors(exact=True), max_size=6))
@settings(max_examples=200, deadline=None)
def test_gram_matrix_matches_pairwise_inner(vecs):
    rows = list(gram_matrix(vecs))
    assert len(rows) == len(vecs)
    for i, row in enumerate(rows):
        assert len(row) == len(vecs) - i
        for j, g in enumerate(row, i):
            assert same_value(g, vecs[i].inner(vecs[j])), (i, j)


@given(st.lists(vectors(exact=False), max_size=6))
@settings(max_examples=100, deadline=None)
def test_gram_matrix_refuses_floats_that_inner_takes(vecs):
    # the float regime keeps its pairwise oracle, OrthoVector.inner; the
    # Gram kernel takes a list without floats and refuses one with any
    pairwise = [[u.inner(w) for w in vecs[i:]] for i, u in enumerate(vecs)]
    if any(type(a) is float for v in vecs
           for a in list(v.body.values) + list(v.ext.values())):
        with pytest.raises(TypeError):
            next(gram_matrix(vecs))
    else:
        rows = list(gram_matrix(vecs))
        assert all(same_value(g, p) for row, prow in zip(rows, pairwise)
                   for g, p in zip(row, prow))


def test_gram_matrix_refuses_a_float_among_field_values():
    u = OrthoVector(StepFunction.constant(R2), {1: 0.5})
    with pytest.raises(TypeError):
        list(gram_matrix([u]))
    with pytest.raises(TypeError):
        u.norm_sq()


def test_gram_matrix_key_products_and_external_scale():
    # bodies on the lattice 1/9 and 1/2 (D = 18), sharing external id 4
    u = OrthoVector(StepFunction.from_lattice(9, [2, 9], [R2, R6]), {4: R3, 1: 1})
    v = OrthoVector(StepFunction.from_lattice(2, [1, 2], [R6, R3]), {4: R6, 2: 5})
    (uu, uv), (vv,) = gram_matrix([u, v])
    # sqrt2*sqrt6 = 2 sqrt3 on (0, 2/9], sqrt6*sqrt6 = 6 on (2/9, 1/2],
    # sqrt6*sqrt3 = 3 sqrt2 on (1/2, 1], and sqrt3*sqrt6 = 3 sqrt2 outside
    assert uv == 2 * R3 * F(2, 9) + 6 * F(5, 18) + 3 * R2 * F(1, 2) + 3 * R2
    assert uu == 2 * F(2, 9) + 6 * F(7, 9) + 3 + 1
    assert vv == 6 * F(1, 2) + 3 * F(1, 2) + 6 + 25
    assert type(uu) is F and type(uv) is RootSum


def test_gram_matrix_empty_and_zero():
    assert list(gram_matrix([])) == []
    zero = OrthoVector()
    rows = list(gram_matrix([zero, zero]))
    assert rows == [[0, 0], [0]]
    assert all(type(g) is F for row in rows for g in row)


def pairwise_gram_check(X):
    """gram_check as it was before the Gram kernel: one difference per pair."""
    worst = F(0)
    ts = X.times
    for i in range(len(ts)):
        for k in range(i + 1, len(ts)):
            d = X.vectors[ts[k]] - X.vectors[ts[i]]
            dev = d.inner(d) - X.expected_increment_sq(ts[i], ts[k])
            if dev != 0:
                dev = dev if 0 <= dev else -dev
                if worst <= dev:
                    worst = dev
    return worst


def _family_process(k):
    # increments of squared norm SIMPLE_FACTOR * 3**-k: rational bodies, a
    # chi part in Q(sqrt 3)
    acc = OrthoVector()
    vecs = {F(0): OrthoVector()}
    for m, u in enumerate(phi_family(k, OrthoVector.basis(0), scale=24)):
        acc = acc + u
        vecs[F(m + 1, 3 ** k)] = acc
    return OrthoProcess(list(vecs), vecs, UNIT)


PROCESSES = ("k1", "k2", "mixed")


@functools.lru_cache(maxsize=None)
def _process(name):
    if name == "mixed":
        B = PointSet([0, F(1, 81), F(2, 81), F(3, 81), F(1, 9), F(1, 3), F(2, 3), 1])
        return build_divergent(B)["report"]["process"]
    if name == "carrier":
        # a two-piece carrier that starts after the first time: the Gram
        # check is far from 0 on every pair
        X = _family_process(2)
        return OrthoProcess(X.times, X.vectors, [(F(1, 9), F(1, 3)), (F(1, 2), F(8, 9))])
    return _family_process(int(name[1:]))


@pytest.mark.parametrize("name", PROCESSES)
def test_gram_check_of_built_processes_is_zero(name):
    assert gram_check(_process(name)) == 0
    assert pairwise_gram_check(_process(name)) == 0


@given(st.sampled_from(PROCESSES + ("carrier",)), st.data())
@settings(max_examples=60, deadline=None)
def test_gram_check_matches_pairwise_on_perturbed_process(name, data):
    X = _process(name)
    t = data.draw(st.sampled_from(X.times))
    bump = data.draw(vectors(exact=True))
    vecs = dict(X.vectors)
    vecs[t] = vecs[t] + bump
    Y = OrthoProcess(X.times, vecs, X.carrier)
    got, want = gram_check(Y), pairwise_gram_check(Y)
    assert type(got) is type(want) and got == want


@pytest.mark.parametrize("name", PROCESSES)
def test_gram_check_perturbed_by_fresh_coordinate(name):
    # c * e_fresh at one time adds c**2 to every squared increment there
    X = _process(name)
    c = R2 / 3 + 1
    vecs = dict(X.vectors)
    t = X.times[len(X.times) // 2]
    vecs[t] = vecs[t] + c * OrthoVector.basis(IdAllocator.after(*vecs.values()).fresh())
    Y = OrthoProcess(X.times, vecs, X.carrier)
    assert gram_check(Y) == pairwise_gram_check(Y) == c * c
    assert type(gram_check(Y)) is RootSum


def test_construct_k4_makes_no_pairwise_inner_products(tmp_path, monkeypatch):
    def refuse(self, other):
        raise AssertionError("StepFunction.inner called")

    monkeypatch.setattr(StepFunction, "inner", refuse)
    out = tmp_path / "k4.json"
    assert main(["construct", "--k", "4", "--out", str(out)]) == 0
    gram = json.loads(out.read_text())["gram"]
    assert len(gram) == 81
    assert all(g == (3 / 81 if i == j else 0.0)
               for i, row in enumerate(gram) for j, g in enumerate(row))
