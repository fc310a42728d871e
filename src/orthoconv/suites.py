"""Seeded verification suites shared by the test suite and the CLI.

Each suite draws its instances from a deterministic RNG, evaluates one
family of identities or inequalities, and returns a summary dict with
the number of instances, the number of violations, and a worst-case
margin where meaningful.  The names describe what is checked, and the
suites are pure so the CLI can re-run them with any seed.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .exactnum import exact_sqrt
from .info import (
    PointSet,
    dyadic_floor,
    dyadic_halffloor,
    info_fn,
    is_type_level,
)
from .sets import BASE_POINTS, CellPermutation, generate, is_triadic_set, rho_sums
from .stepfn import StepFunction, clip_min, cond_norm, grid_size, grid_width, pos_part
from .vcalc import (
    select_blocks,
    stabilization_level,
    type_reduction,
    v_composite,
    v_functional,
    v_step,
)

__all__ = ["SUITES", "run_suite", "run_suites", "random_triadic_fn",
           "random_triadic_set", "random_step_cells", "random_point_set"]

ZERO = Fraction(0)
ONE = Fraction(1)
TOL = 1e-9


# ---------------------------------------------------------------------------
# random generators


def random_step_cells(rng, n=81, lo=0.0, hi=10.0):
    return [lo + (hi - lo) * rng.random() for _ in range(n)]


def random_step_fn(rng, n=81, lo=0.0, hi=10.0) -> StepFunction:
    return StepFunction.from_cells(random_step_cells(rng, n, lo, hi))


def random_triadic_fn(rng, max_power=2) -> StepFunction:
    """Random function whose 2**j level sets align with level-j cells.

    Values live in [1, 2**(max_power+1)); deeper selections get sparse
    so the piece count stays moderate.
    """
    prev = [(ZERO, ONE)]
    cur = StepFunction.constant(1 + Fraction(rng.randrange(0, 63), 64))
    cur = cur.minimum(Fraction(2) - Fraction(1, 64))
    for j in range(1, max_power + 1):
        w = grid_width(j)
        cells = []
        for lo, hi in prev:
            for n in range(int(lo / w), int(hi / w)):
                cells.append(n)
        if not cells:
            break
        keep = max(0, int(len(cells) * rng.uniform(0.2, 0.7)))
        if j >= 3:
            keep = min(keep, 6)
        chosen = sorted(rng.sample(cells, keep)) if keep else []
        if not chosen:
            break
        for n in chosen:
            v = Fraction(2) ** j * (1 + Fraction(rng.randrange(0, 63), 64))
            v = min(v, Fraction(2) ** (j + 1) - Fraction(1, 64))
            cur = cur.maximum(StepFunction.indicator(n * w, (n + 1) * w,
                                                     value=v, base=0))
        prev = [(n * w, (n + 1) * w) for n in chosen]
    return cur


def random_type_fn(rng, j) -> StepFunction:
    """Random level-j normal form: a nested tower of power plateaus
    (2**l on level-l cells, each inside the previous level), constant on
    level-(j+1) cells, plus a few excess subcells above 2**(j+1)."""
    cur = StepFunction.constant(1)
    prev = [(ZERO, ONE)]
    for l in range(1, j + 1):
        w = grid_width(l)
        cells = []
        for lo, hi in prev:
            cells.extend(range(int(lo / w), int(hi / w)))
        keep = max(1, int(len(cells) * rng.uniform(0.3, 0.8)))
        if l >= 2:
            keep = min(keep, 8)
        chosen = sorted(rng.sample(cells, keep))
        for n in chosen:
            cur = cur.maximum(StepFunction.indicator(
                n * w, (n + 1) * w, value=Fraction(2) ** l, base=0))
        prev = [(n * w, (n + 1) * w) for n in chosen]
    wsub = grid_width(j + 1)
    for lo, hi in prev:
        if rng.random() < 0.8:
            per = int((hi - lo) / wsub)
            subs = rng.sample(range(per), rng.randrange(1, min(5, per) + 1))
            for r in subs:
                slo = lo + r * wsub
                a = Fraction(rng.randrange(0, 2 ** (2 * j) + 1))
                cur = cur.maximum(StepFunction.indicator(
                    slo, slo + wsub, value=Fraction(2) ** (j + 1) + a, base=0))
    return cur


def random_point_set(rng, extra=10, with_base=True) -> PointSet:
    pts = {ZERO, ONE}
    if with_base:
        pts.update(BASE_POINTS)
    for _ in range(rng.randrange(2, extra)):
        den = rng.choice([9, 27, 81, 162, 54])
        pts.add(Fraction(rng.randrange(1, den), den))
    return PointSet(pts)


def random_triadic_set(rng, max_level=2, pairs=4) -> PointSet:
    """Random triadic set: random grid pairs plus closure completion."""
    pts = set(BASE_POINTS)
    for _ in range(rng.randrange(1, pairs + 1)):
        i = rng.randrange(1, max_level + 1)
        n = rng.randrange(grid_size(i) - 1)
        w = grid_width(i)
        pts.add(n * w)
        pts.add((n + 1) * w)
    # closure completion: interior points force cell endpoints, to a fixpoint
    changed = True
    while changed:
        changed = False
        for i in range(0, max_level + 1):
            size = grid_size(i)
            w = grid_width(i)
            for t in list(pts):
                if t in (ZERO, ONE):
                    continue
                num = t.numerator * size
                if num % t.denominator:
                    n = num // t.denominator
                    for e in (n * w, (n + 1) * w):
                        if e not in pts:
                            pts.add(e)
                            changed = True
    B = PointSet(pts)
    ok, witness = is_triadic_set(B)
    if not ok:
        raise AssertionError("triadic generator failed: %r" % (witness,))
    return B


# ---------------------------------------------------------------------------
# suites


def suite_step_algebra(seed=0, count=60):
    """Conditional-norm invariants: monotonicity, norm preservation,
    grid measurability, subadditivity, and JSON round-trips."""
    rng = random.Random(seed)
    viol = 0
    worst = 0.0
    for _ in range(count):
        level = rng.choice([0, 1, 2])
        f = random_step_fn(rng, n=81, lo=0.0, hi=8.0)
        g = f + random_step_fn(rng, n=81, lo=0.0, hi=4.0)
        cf, cg = cond_norm(f, level), cond_norm(g, level)
        if not cf.pointwise_le(cg, tol=TOL):
            viol += 1
        d = abs(cf.l2_norm() - f.l2_norm())
        worst = max(worst, d)
        if d > 1e-12 * 10:
            viol += 1
        size = grid_size(level)
        for b in cf.breakpoints[:-1]:
            if (b.numerator * size) % b.denominator:
                viol += 1
                break
        csum = cond_norm(f + g, level)
        if not csum.pointwise_le(cf + cg, tol=TOL):
            viol += 1
        fr = StepFunction.from_cells(
            [Fraction(rng.randrange(0, 50), 7) for _ in range(27)])
        if StepFunction.from_json(fr.to_json()) != fr:
            viol += 1
    return {"instances": count, "violations": viol, "worst_norm_drift": worst}


def _dense_v_composite(cells, j_lo, j_hi):
    v = [float(x) for x in cells]
    for j in range(j_hi, j_lo - 1, -1):
        per = len(v) // grid_size(j)
        c = 2.0 ** j
        excess = [max(x - c, 0.0) for x in v]
        rms = [math.sqrt(math.fsum(e * e for e in excess[k:k + per]) / per)
               for k in range(0, len(v), per)]
        v = [min(x, c) + rms[k // per] for k, x in enumerate(v)]
    return v


def suite_composite_oracle(seed=0, count=100):
    """Sparse downward composition against a dense 81-cell oracle."""
    rng = random.Random(seed)
    viol = 0
    worst = 0.0
    for _ in range(count):
        cells = random_step_cells(rng, 81, 0.0, 9.0)
        got = v_composite(StepFunction.from_cells(cells), 0, 2).final
        want = _dense_v_composite(cells, 0, 2)
        w = grid_width(2)
        for n in range(81):
            gv = float(got.eval((n + 1) * w))
            d = abs(gv - want[n])
            worst = max(worst, d)
            if d > TOL:
                viol += 1
                break
    return {"instances": count, "violations": viol, "worst_abs_error": worst}


def suite_type_descent(seed=0, count=40):
    """One contraction level maps a level-j normal form to level j-1,
    with or without a reduction step in front."""
    rng = random.Random(seed)
    viol = 0
    for _ in range(count):
        j = rng.choice([1, 2])
        h = random_type_fn(rng, j)
        ok, why = is_type_level(h, j)
        if not ok:
            raise AssertionError("generator broke the normal form: %s" % why)
        ok, why = is_type_level(v_step(h, j), j - 1)
        if not ok:
            viol += 1
    # sparse reduction path at the smallest admissible level
    h5 = _sparse_type5_fn(random.Random(seed + 1))
    red = type_reduction(h5, 5)
    ok1, _ = is_type_level(v_step(h5, 5), 4)
    ok2, _ = is_type_level(v_step(red.reduced, 5), 4)
    if not (ok1 and ok2):
        viol += 1
    return {"instances": count + 1, "violations": viol}


def _sparse_type5_fn(rng) -> StepFunction:
    j = 5
    w1 = grid_width(j + 1)
    wj = grid_width(j)
    base = Fraction(2) ** j
    pieces = []
    for cell in rng.sample(range(6), 2):
        lo = cell * wj
        for r in range(rng.randrange(2, 6)):
            slo = lo + r * w1
            pieces.append((slo, slo + w1,
                           Fraction(2) ** (j + 1) + rng.randrange(0, 2 ** (2 * j))))
    pieces.sort()
    bps, vals = [], []
    pos = ZERO
    for slo, shi, v in pieces:
        if slo > pos:
            bps.append(slo)
            vals.append(base)
        bps.append(shi)
        vals.append(v)
        pos = shi
    if pos < ONE:
        bps.append(ONE)
        vals.append(base)
    return StepFunction(bps, vals)


def suite_block_selection(seed=0, count=100):
    """Postconditions of the block-selection algorithm: defect split,
    c-budget, d-bound, and the block certificate."""
    rng = random.Random(seed)
    viol = 0
    for _ in range(count):
        i = rng.choice([1, 1, 2])
        K = rng.randrange(0, 30)
        a = [Fraction(rng.randrange(0, 2 ** (2 * i) * 3), rng.choice([1, 2, 4]))
             for _ in range(K)]
        sel = select_blocks(a, i)
        try:
            sel.check()
        except AssertionError:
            viol += 1
    return {"instances": count, "violations": viol}


def suite_reduction_defect(seed=0, count=25):
    """Defect certificates of the level-5 reduction: the lowered form
    differs from the contraction by p + q with the certified bounds."""
    rng = random.Random(seed)
    viol = 0
    j = 5
    lim = Fraction(2) ** -j
    for _ in range(count):
        h = _sparse_type5_fn(rng)
        red = type_reduction(h, j)
        vh, vu, p, q, fbound = red.defect_certificate()
        checks = [
            p.pointwise_le(lim, tol=1e-12),
            q.pointwise_le(pos_part(vh, Fraction(2) ** j) * lim, tol=1e-12),
            (p + q).pointwise_le(pos_part(vh, Fraction(2) ** j), tol=1e-12),
            (vu - (vh - p - q)).approx_equal(StepFunction.constant(0), tol=1e-12),
            fbound.pointwise_le(lim, tol=1e-12),
            red.g_corr.pointwise_le(pos_part(h, Fraction(2) ** j) * lim, tol=1e-12),
        ]
        if not all(checks):
            viol += 1
    return {"instances": count, "violations": viol}


def suite_bar_vs_doubled(seed=0, count=100):
    """Pointwise: barred tail above 2**j is dominated by the doubled
    plain composition above 2**j, for triadic inputs."""
    rng = random.Random(seed)
    viol = 0
    for _ in range(count):
        i = rng.choice([1, 2, 3])
        h = random_triadic_fn(rng, max_power=i).minimum(Fraction(2) ** (i + 1))
        j = rng.randrange(0, i)
        bar = v_composite(h, j, i, bar=True).final
        plain = v_composite(h, j, i).final
        if not pos_part(bar, Fraction(2) ** j).pointwise_le(
                pos_part(2 * plain, Fraction(2) ** j), tol=TOL):
            viol += 1
    return {"instances": count, "violations": viol}


def suite_halffloor_factor14(seed=0, count=100):
    """||V_0..V_i h|| <= 14 ||V_0..V_i half-floor(h)|| for triadic h."""
    rng = random.Random(seed)
    viol = 0
    worst = 0.0
    for _ in range(count):
        i = rng.choice([1, 2, 3])
        h = random_triadic_fn(rng, max_power=i).minimum(Fraction(2) ** (i + 1))
        lhs = v_composite(h, 0, i).norm
        rhs = 14 * v_composite(dyadic_halffloor(h), 0, i).norm
        worst = max(worst, lhs / rhs if rhs else 0.0)
        if lhs > rhs + TOL:
            viol += 1
    return {"instances": count, "violations": viol, "worst_ratio_of_14": worst}


def suite_floor_tail_factor3(seed=0, count=100):
    """Level-shifted tail comparison: the composition from level 1 keeps
    ||(... - 1)^+|| within a factor 3 of the dyadic-floored input; the
    literal deep-level form is also asserted (vacuously true at this
    scale, both sides zero)."""
    rng = random.Random(seed)
    viol = 0
    for _ in range(count):
        i = rng.choice([2, 3])
        h = random_triadic_fn(rng, max_power=i).minimum(Fraction(2) ** (i + 1))
        lhs = pos_part(v_composite(h, 1, i).final, 1).l2_norm()
        rhs = 3 * pos_part(v_composite(dyadic_floor(h), 1, i).final, 1).l2_norm()
        if lhs > rhs + TOL:
            viol += 1
        # literal deep-level form: identity composition, threshold 2**7
        lit_l = pos_part(h, 2 ** 7).l2_norm()
        lit_r = 3 * pos_part(dyadic_floor(h), 2 ** 7).l2_norm()
        if lit_l > lit_r + TOL:
            viol += 1
        # tail-plus-constant bound on the full functional
        v, _ = v_functional(h)
        if v > lit_l + 2 ** 8 + TOL:
            viol += 1
    return {"instances": count, "violations": viol}


def suite_scalar_factor14(seed=0, count=100):
    """Discrete two-level comparison: with g >= g1 >= 2, g1 >= 4 where
    g >= 8, and the tail hypothesis, ||Vg - 1|| <= 14 ||Vg1 - 1|| for
    Vg = g^4 + ||(g-4)^+|| over a probability vector."""
    rng = random.Random(seed)
    viol = 0
    skipped = 0
    for _ in range(count):
        n = rng.randrange(2, 11)
        w = [rng.random() + 1e-3 for _ in range(n)]
        total = math.fsum(w)
        w = [p / total for p in w]
        g1 = [2 + 18 * rng.random() for _ in range(n)]
        g = [x + 8 * rng.random() for x in g1]
        A = [x >= 8 for x in g]
        g1 = [max(x, 4.0) if a else x for x, a in zip(g1, A)]

        def norm(x):
            """The w-weighted L2 norm of the vector x."""
            return math.sqrt(math.fsum(p * (y * y) for p, y in zip(w, x)))

        lhs28 = norm([x - 2 if a else 0.0 for x, a in zip(g, A)])
        rhs28 = 14 * norm([x - 2 if a else 0.0 for x, a in zip(g1, A)])
        if lhs28 > rhs28:
            skipped += 1
            continue

        def V(x):
            tail = norm([max(y - 4, 0.0) for y in x])
            return [min(y, 4.0) + tail for y in x]

        lhs = norm([y - 1 for y in V(g)])
        rhs = 14 * norm([y - 1 for y in V(g1)])
        if lhs > rhs + TOL:
            viol += 1
    return {"instances": count, "violations": viol, "skipped": skipped}


def _upper_slice(f, j):
    return f - clip_min(f, Fraction(2) ** j)


def _mid_slice(f, j):
    return clip_min(f, Fraction(2) ** (j + 1)) - clip_min(f, Fraction(2) ** j)


def _cells_indicator_meeting(h: StepFunction, c, j) -> StepFunction:
    """Indicator of the level-j cells whose interior meets (h >= c)."""
    w = grid_width(j)
    out = StepFunction.constant(0)
    for lo, hi in h.level_set_ge(c):
        n0 = int(lo / w)
        up = hi / w
        n1 = int(up) if up == int(up) else int(up) + 1
        if n1 * w > lo:
            out = out.maximum(StepFunction.indicator(n0 * w, min(ONE, n1 * w)))
    return out


def suite_slice_triangle(seed=0, count=100):
    """Slice-difference triangle bound for one contraction level applied
    to ordered pairs 1 <= g <= h."""
    rng = random.Random(seed)
    viol = 0
    for _ in range(count):
        j = rng.choice([1, 2])
        gv = [1 + 14 * rng.random() for _ in range(81)]
        hv = [x + 9 * rng.random() for x in gv]
        g = StepFunction.from_cells(gv)
        h = StepFunction.from_cells(hv)
        A = _cells_indicator_meeting(h, 2 ** j, j)
        vh, vg = v_step(h, j), v_step(g, j)
        c = Fraction(2) ** (j - 1)
        lhs = ((vh - clip_min(vh, c)) - (vg - clip_min(vg, c))).l2_norm()
        rhs = (_upper_slice(h, j) - _upper_slice(g, j)).l2_norm() \
            + ((clip_min(h, Fraction(2) ** j) - clip_min(g, Fraction(2) ** j)) * A).l2_norm() \
            + (_mid_slice(h, j - 1) - _mid_slice(g, j - 1)).l2_norm()
        if lhs > rhs + TOL:
            viol += 1
    return {"instances": count, "violations": viol}


def suite_envelope_slice_defects(seed=0, count=100):
    """Envelope defect bounds: composing above level j, the mid and
    clipped slices of the join with the half-floored envelope function
    differ from the plain composition by at most 2**j 3**-2**(j-1) and
    2**(j+1) 3**-2**(j-2)."""
    rng = random.Random(seed)
    viol = 0
    for _ in range(count):
        B = random_point_set(rng)
        tB = generate(B).generated
        hB = info_fn(B, base=3).maximum(1)
        dd = dyadic_halffloor(info_fn(tB, base=3).maximum(1))
        i = 3
        j = rng.choice([1, 2])
        g = v_composite(hB, j + 1, i).final
        h = v_composite(hB.maximum(dd), j + 1, i).final
        A = _cells_indicator_meeting(h, 2 ** j, j)
        lhs32 = (_mid_slice(h, j - 1) - _mid_slice(g, j - 1)).l2_norm()
        rhs32 = 2 ** j * 3.0 ** -(2 ** (j - 1))
        lhs33 = ((clip_min(h, Fraction(2) ** j) - clip_min(g, Fraction(2) ** j)) * A).l2_norm()
        rhs33 = 2 ** (j + 1) * 3.0 ** -(2 ** (j - 2))
        if lhs32 > rhs32 + TOL or lhs33 > rhs33 + TOL:
            viol += 1
    return {"instances": count, "violations": viol}


def suite_envelope_geometry(seed=0, count=100):
    """Envelope distance sums (<= 3 and <= 1, exact arithmetic), envelope
    triadicity, nesting under inclusion, and information-function
    domination."""
    rng = random.Random(seed)
    viol = 0
    for _ in range(count):
        A = random_point_set(rng, with_base=rng.random() < 0.5)
        res = generate(A)
        s1, s2 = rho_sums(A, res.generated)
        if s1 > 3 or s2 > 1:
            viol += 1
        ok, _ = is_triadic_set(res.generated)
        if not ok:
            viol += 1
        extra = set(A.points) | {Fraction(rng.randrange(1, 81), 81)}
        A1 = PointSet(extra)
        if not set(res.generated.points) <= set(generate(A1).generated.points):
            viol += 1
        hB = info_fn(A, base=3)
        hg = info_fn(res.generated, base=3)
        if not hB.pointwise_le(hg, tol=TOL):
            viol += 1
    return {"instances": count, "violations": viol}


def suite_cell_permutation(seed=0, count=20):
    """Cell-permutation invariance: the composition norm is invariant
    under pushforward for any function (unconditionally), and under
    relabelling of a point set when the permuted cell's subcell
    boundaries belong to the set; a straddling gap breaks the set-level
    identity, which is also pinned down."""
    rng = random.Random(seed)
    viol = 0
    for _ in range(count):
        j = rng.choice([0, 1])
        m = rng.randrange(grid_size(j))
        perm = list(range(grid_size(j)))
        rng.shuffle(perm)
        cp = CellPermutation(j, m, perm)
        f = random_step_fn(rng, 81, 0.0, 8.0)
        if abs(v_composite(f, 0, 2).norm - v_composite(cp.pushforward(f), 0, 2).norm) > TOL:
            viol += 1
        pts = set(BASE_POINTS)
        w1 = grid_width(j + 1)
        for r in range(grid_size(j) + 1):
            pts.add(cp.cell_lo + r * w1)
        for _ in range(5):
            pts.add(Fraction(rng.randrange(0, 82), 81))
        B = PointSet(pts)
        SB = cp.apply_point_set(B)
        h1 = info_fn(B, base=3).maximum(1)
        h2 = info_fn(SB, base=3).maximum(1)
        if abs(v_functional(h1)[0] - v_functional(h2)[0]) > TOL:
            viol += 1
        if not cp.pushforward(h1).approx_equal(h2, tol=1e-12):
            viol += 1
    # straddling gap: relabelling is NOT norm-invariant in general
    B = PointSet([0, Fraction(1, 18), Fraction(1, 3), Fraction(2, 3), 1])
    cp = CellPermutation(0, 0, [2, 1, 0])
    v1 = v_functional(info_fn(B, base=3).maximum(1))[0]
    v2 = v_functional(info_fn(cp.apply_point_set(B), base=3).maximum(1))[0]
    if abs(v1 - v2) < 1e-6:
        viol += 1
    return {"instances": count + 1, "violations": viol}


def suite_floor_of_info_normal_form(seed=0, count=50):
    """The dyadic floor of the information function of a triadic set
    with values at most i+1 is a level-i normal form."""
    rng = random.Random(seed)
    viol = 0
    for _ in range(count):
        B = random_triadic_set(rng)
        h = info_fn(B, base=3).maximum(1)
        hmax = float(h.max_value())
        i = max(1, int(math.ceil(hmax)) - 1)
        if hmax > i + 1:
            i = int(math.ceil(hmax)) - 1
        ok, why = is_type_level(dyadic_floor(h), i)
        if not ok:
            viol += 1
    return {"instances": count, "violations": viol}


def suite_sandwich(seed=0, count=100):
    """Two-sided block/slice comparisons on random sequences, plus value
    permutation invariance of both block forms and a positional witness
    for the index-block sum."""
    from .criteria import (CoefficientSeq, beta_condition, gamma_condition,
                           sandwich_check, tandori_sum)
    rng = random.Random(seed)
    viol = 0
    for _ in range(count):
        n = rng.randrange(3, 25)
        sq = [rng.random() ** rng.choice([1, 4, 8, 16]) for _ in range(n)]
        tot = sum(sq)
        seq = CoefficientSeq.from_squares([Fraction(x / tot) for x in sq])
        r = sandwich_check(seq)
        ok = (r["B_minus"] <= r["A_plus"] + TOL
              and r["A_plus"] <= r["B_plus"] + TOL
              and r["A_minus"] <= r["gamma_sum"] + TOL
              and r["gamma_sum"] <= r["A_plus"] + TOL
              and r["B_minus"] <= r["beta_sum_zblocks"] + TOL
              and r["beta_sum_zblocks"] <= r["B_plus"] + TOL)
        if not ok:
            viol += 1
        perm = list(seq.squares)
        rng.shuffle(perm)
        pseq = CoefficientSeq.from_squares(perm)
        if abs(beta_condition(seq)["sum"] - beta_condition(pseq)["sum"]) > TOL:
            viol += 1
        if abs(gamma_condition(seq)["sum"] - gamma_condition(pseq)["sum"]) > TOL:
            viol += 1
    # positional witness: moving one value deep into the index scale
    base = [Fraction(0)] * 40
    base[1] = Fraction(1)
    moved = [Fraction(0)] * 40
    moved[30] = Fraction(1)
    t1 = tandori_sum(CoefficientSeq.from_squares(base))["sum"]
    t2 = tandori_sum(CoefficientSeq.from_squares(moved))["sum"]
    if abs(t1 - t2) < 1e-6:
        viol += 1
    return {"instances": count + 1, "violations": viol}


def suite_family_exactness(seed=0, count=3):
    """All exact identities of the generator family for depths 1..3."""
    from .construct import phi_family, digit_sum_fn
    from .ortho import OrthoVector
    viol = 0
    for k in (1, 2, 3):
        chi = OrthoVector.basis(0)
        fam = phi_family(k, chi)
        want = Fraction(3, 3 ** k)
        for i, u in enumerate(fam):
            if u.norm_sq() != want:
                viol += 1
            for v in fam[i + 1:]:
                if u.inner(v) != 0:
                    viol += 1
            if u.body.integral() != 0:
                viol += 1
        total = fam[0]
        for u in fam[1:]:
            total = total + u
        if not all(v == 0 for v in total.body.values):
            viol += 1
        if total.ext.get(0, 0) != exact_sqrt(3):
            viol += 1
        # running maxima match the digit-sum function exactly
        acc = None
        mx = None
        for u in fam:
            acc = u if acc is None else acc + u
            mx = acc.body if mx is None else mx.maximum(acc.body)
        if mx != digit_sum_fn(k):
            viol += 1
        # prefix identity and vanishing on the own cell
        ds = digit_sum_fn(k)
        cell = Fraction(1, 3 ** k)
        acc = OrthoVector()
        for n, u in enumerate(fam):
            mid_lo, mid_hi = n * cell, (n + 1) * cell
            if not all(v == 0 for v in u.body.restrict(mid_lo, mid_hi).values):
                viol += 1
            if not (acc.body.restrict(mid_lo, mid_hi)
                    == ds.restrict(mid_lo, mid_hi)):
                viol += 1
            acc = acc + u
    return {"instances": 3, "violations": viol}


def suite_digit_tail_bound(seed=0, count=200):
    """Exact lower-tail mass of the ones-digit count stays below
    e**(-k/144) for k = 1..count."""
    from .construct import bernstein_check
    viol = 0
    for k in range(1, count + 1):
        tail, bound, ok = bernstein_check(k)
        if not ok:
            viol += 1
    return {"instances": count, "violations": viol}


def suite_process_gram(seed=0, count=3):
    """Constructed processes pass the exact increment-norm check, and the
    maximal bound for partial sums holds on the generator families."""
    from .construct import build_divergent, phi_family
    from .ortho import OrthoVector, menshov_bound_check
    viol = 0
    base = PointSet(BASE_POINTS)
    full1 = PointSet([Fraction(n, 9) for n in range(10)])
    mixed = PointSet([0, Fraction(1, 81), Fraction(2, 81), Fraction(3, 81),
                      Fraction(1, 9), Fraction(1, 3), Fraction(2, 3), 1])
    details = {}
    for name, B in [("base", base), ("full1", full1), ("mixed", mixed)]:
        out = build_divergent(B)
        rep = out["report"]
        if not (rep["starts_at_zero"] and rep["final_value_ok"]
                and rep["membership_ok"] and rep["gram_deviation"] == 0):
            viol += 1
        details[name] = {"y": out["achieved_y"], "eps": rep["achieved_eps"]}
    for k in (1, 2, 3):
        fam = phi_family(k, OrthoVector.basis(0))
        try:
            menshov_bound_check(fam)
        except (AssertionError, ValueError):
            viol += 1
    return {"instances": 6, "violations": viol, "details": details}


def suite_cell_oscillation_bound(seed=0, count=2):
    """Per-cell oscillation of built processes against the barred
    composition tails, factor 3, at the implementable levels."""
    from .construct import build_divergent
    from .ortho import m_grid
    viol = 0
    cases = [PointSet([Fraction(n, 9) for n in range(10)]),
             PointSet([0, Fraction(1, 81), Fraction(2, 81), Fraction(3, 81),
                       Fraction(1, 9), Fraction(1, 3), Fraction(2, 3), 1])]
    for B in cases[:count]:
        out = build_divergent(B)
        X = out["report"]["process"].to_unit()
        h = info_fn(B, base=3).maximum(1)
        i = stabilization_level(h)
        for j in range(0, i + 1):
            tail = pos_part(v_composite(h, j, i, bar=True).final, Fraction(2) ** j)
            w = grid_width(j)
            for n, _body, nsq in m_grid(X, B, j):
                lhs = math.sqrt(float(nsq))
                rhs = 3 * math.sqrt(float(
                    tail.restrict(n * w, (n + 1) * w).integral_sq()))
                if lhs > rhs + TOL:
                    viol += 1
    return {"instances": count, "violations": viol}


def suite_cantor_tail(seed=0, count=13):
    """Cantor information function: the integrated tail equals
    3 (2/3)**k exactly (layer-cake identity), the squared tail norm
    equals 15 (2/3)**k, and the window traces stabilize."""
    from .sets import (cantor_tail_integral_oracle, cantor_tail_norm_sq_oracle,
                       continuity_verdict)
    from .info import cantor_info_fn
    viol = 0
    for k in range(0, count):
        exact_sq = cantor_tail_norm_sq_oracle(k)
        closed_sq = Fraction(15) * Fraction(2, 3) ** k
        if abs(float(exact_sq - closed_sq)) > 1e-15 * 20:
            viol += 1
        integ = cantor_tail_integral_oracle(k)
        closed_i = Fraction(3) * Fraction(2, 3) ** k
        if abs(float(integ - closed_i)) > 1e-15 * 20:
            viol += 1
        # direct finite-depth check: gaps of generation <= depth plus the
        # clip value on the 2**depth surviving intervals
        depth = min(k + 6, 12)
        hk = pos_part(cantor_info_fn(depth, clip=depth), k)
        direct = float(hk.integral())
        trunc = sum(
            (Fraction((m - k) * 2 ** (m - 1), 3 ** m)
             for m in range(k + 1, depth + 1)), start=ZERO)
        if depth > k:
            trunc += (depth - k) * Fraction(2, 3) ** depth
        if abs(direct - float(trunc)) > 1e-12:
            viol += 1
    verdict = continuity_verdict("cantor", 0, [Fraction(1, 3)], depths=[6, 8, 10, 12])
    tr = verdict["windows"][0]["trace"]
    if not all(tr[i] <= tr[i + 1] + 1e-12 for i in range(len(tr) - 1)):
        viol += 1
    if not verdict["windows"][0]["stabilized"]:
        viol += 1
    return {"instances": count + 1, "violations": viol,
            "trace": verdict["windows"][0]["trace"]}


SUITES = {
    "step_algebra": suite_step_algebra,
    "composite_oracle": suite_composite_oracle,
    "type_descent": suite_type_descent,
    "block_selection": suite_block_selection,
    "reduction_defect": suite_reduction_defect,
    "bar_vs_doubled": suite_bar_vs_doubled,
    "halffloor_factor14": suite_halffloor_factor14,
    "floor_tail_factor3": suite_floor_tail_factor3,
    "scalar_factor14": suite_scalar_factor14,
    "slice_triangle": suite_slice_triangle,
    "envelope_slice_defects": suite_envelope_slice_defects,
    "envelope_geometry": suite_envelope_geometry,
    "cell_permutation": suite_cell_permutation,
    "floor_of_info_normal_form": suite_floor_of_info_normal_form,
    "sandwich": suite_sandwich,
    "family_exactness": suite_family_exactness,
    "digit_tail_bound": suite_digit_tail_bound,
    "process_gram": suite_process_gram,
    "cell_oscillation_bound": suite_cell_oscillation_bound,
    "cantor_tail": suite_cantor_tail,
}


def run_suite(name, seed=0, count=None):
    fn = SUITES[name]
    kwargs = {"seed": seed}
    if count is not None:
        kwargs["count"] = count
    out = fn(**kwargs)
    out["name"] = name
    out["seed"] = seed
    out["passed"] = out["violations"] == 0
    return out


def run_suites(names=None, seed=0, count=None):
    names = list(SUITES) if names is None else list(names)
    results = [run_suite(n, seed=seed, count=count) for n in names]
    return {
        "seed": seed,
        "results": results,
        "passed": all(r["passed"] for r in results),
    }
