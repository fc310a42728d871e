"""Inputs, jobs and correctness checks of the three benchmark workloads.

A run is a list of ``RUN_PASSES`` *passes*, job lists drawn from the run
seed.  Inputs are taken from fixed pools (each pool entry is generated
from its own index, never from the run seed), so every input a run can
meet has a reference result recorded in ``reference.json``.  The seed
orders each stratum's pool entries, and pass i takes entry i, so the
analyze and sets passes of a run never repeat an input; construct
repeats its fixed builds, and the seed picks their thresholds.  The seed
also picks the job order of every pass.

Jobs go through ``orthoconv.cli.main`` in-process, except the envelope
jobs of ``sets``, which call the library (the command line has no
envelope command).  ``Job.run`` is the timed part; ``Job.check`` runs
afterwards and returns the job's exact work counts.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

# jobs call through module attributes, so a tracer that rebinds them sees the calls
from orthoconv import cli, info, sets, vcalc
from orthoconv.info import PointSet, cantor_points

WORKLOADS = ("analyze", "construct", "sets")
REL_TOL = 1e-9

# Passes a run holds; a run that makes more passes starts over with the
# first.  Sizes are evenly spaced on a log scale with fixed values, so
# every pass sees the same size mix.  Pool entry RUN_PASSES of a stratum
# is kept for the warm-up jobs, so no timed analyze or sets job repeats a
# warm-up input.
RUN_PASSES = 8

# analyze: lengths log-uniform over 50..1000
ANALYZE_STRATA = 4

# sets: Cantor traces at depths 10..14 with their window half-widths, and
# envelopes of 20..200 points on the 3**-8 grid
CANTOR_JOBS = (((10, 12), "1/9"), ((12, 14), "1/81"))
ENVELOPE_STRATA = 6
# warm-up trace of the cantor command: (depths, window, centre)
WARM_CANTOR = ((6,), "1/9", "0")
ENVELOPE_GRID = 3 ** 8

# construct: a fixed mix of builds and family dumps; the seed picks the
# --y thresholds whose exceedance measures each build reports.  Seeded
# random_triadic_set draws are left out: one draw costs from 0.4 s to over
# a minute, so a pass holding a few of them is not steady across seeds.
MIXED_SET = "0,1/81,2/81,3/81,1/9,1/3,2/3,1"
# A level-2 set of the slow class, where the sympy simplify in gram_check
# takes most of the job (about 60% of 11 s on a 2-core x86 VM).  The class
# also holds random_triadic_set(Random(13), 2, 3), which takes about a
# minute: too long to run on every pass.
SLOW_SET = "0,1/9,14/81,5/27,2/9,1/3,2/3,1"
BUILDS = {"grid0": ["--grid", "0"], "grid1": ["--grid", "1"],
          "mixed": ["--b", MIXED_SET], "slow": ["--b", SLOW_SET]}
DUMPS = {"k2": ["--k", "2", "--full"], "k3": ["--k", "3", "--full"],
         "k4": ["--k", "4", "--full"]}
# A coverage mix, not measured traffic: one job of each kind per pass.
CONSTRUCT_MIX = ("grid0", "grid1", "mixed", "slow", "k2", "k3", "k4")
THRESHOLDS = [Fraction(k, 2) for k in range(1, 25)]
THRESHOLDS_PER_BUILD = 3

# passes every run makes at least
MIN_PASSES = {"analyze": 3, "construct": 2, "sets": 3}


def _close(a, b) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-300)


def _le(a, b) -> bool:
    """a <= b for float criteria sums, up to rounding of the sums."""
    return a <= b + 1e-12 * max(abs(a), abs(b), 1.0)


class CheckFailure(Exception):
    """A job output that does not match its invariant or reference."""


def _expect(cond, what):
    if not cond:
        raise CheckFailure(what)


class Job:
    """One closed-loop request: ``run`` is timed, ``check`` is not."""

    def __init__(self, key):
        self.key = key
        self.ref_key = key  # key of the reference result

    def run(self):
        raise NotImplementedError

    def check(self, result, ref) -> dict:
        raise NotImplementedError


class CliJob(Job):
    """``orthoconv <argv> --out <report>``; the result is the exit code."""

    def __init__(self, key, argv, report_path):
        super().__init__(key)
        self.argv = list(argv) + ["--out", report_path]
        self.report_path = report_path

    def run(self):
        return cli.main(self.argv)

    def report(self):
        with open(self.report_path, "rb") as fh:
            raw = fh.read()
        return json.loads(raw), len(raw)


# ---------------------------------------------------------------------------
# analyze


def analyze_length(stratum: int) -> int:
    return round(50 * 20 ** (stratum / (ANALYZE_STRATA - 1)))


def analyze_coefficients(kind: str, stratum: int, variant: int):
    """Pool entry: coefficient strings for one (kind, stratum, variant)."""
    n = analyze_length(stratum)
    rng = random.Random(1_000_000 * (kind == "power") + 1000 * stratum + variant)
    if kind == "rational":
        return ["%d/%d" % (rng.randint(1, 999), rng.randint(1, 999))
                for _ in range(n)]
    # squared moduli base**-2m summing to exactly 1: repeatedly split one
    # term into base**2 copies one level down; deepening splits (always the
    # deepest term) reach grid levels up to about 10.  The shape depends on
    # the stratum only, so the variants of a stratum cost about the same.
    base = 2 if stratum % 2 == 0 else 3
    fan = base * base
    deepen = (0.2, 0.5, 0.8)[stratum % 3]
    exps = [0]
    while len(exps) + fan - 1 <= n:
        i = max(range(len(exps)), key=exps.__getitem__) \
            if rng.random() < deepen else rng.randrange(len(exps))
        exps.extend([exps.pop(i) + 1] * fan)
    if stratum % 4 >= 2:
        rng.shuffle(exps)
    else:
        exps.sort()  # decreasing moduli, so the distribution criterion runs
    return ["1/%d" % base ** m for m in exps]


class AnalyzeJob(CliJob):
    def check(self, rc, ref):
        _expect(rc == 0, "exit code %r" % rc)
        rep, nbytes = self.report()
        crit = rep["criteria"]
        sw = crit["sandwich"]
        _expect(_le(sw["B_minus"], sw["A_plus"]) and _le(sw["A_plus"], sw["B_plus"]),
                "sandwich chain B- <= A+ <= B+")
        _expect(_le(sw["A_minus"], sw["gamma_sum"]) and _le(sw["gamma_sum"], sw["A_plus"]),
                "sandwich chain A- <= gamma_sum <= A+")
        got = analyze_values(rep)
        for name, want in ref["values"].items():
            have = got[name]
            _expect(have is None if want is None else
                    (have is not None and _close(have, want)),
                    "%s = %r, reference %r" % (name, have, want))
        tail_bits = 0
        for p in rep["tail_set"]:
            fr = Fraction(p)
            tail_bits += fr.numerator.bit_length() + fr.denominator.bit_length()
        trace = rep["v_trace"]
        return {
            "cli.bytes_out": nbytes,
            "info.tail_bits": tail_bits,
            "stepfn.pieces": rep["information_function"]["pieces"]
            + sum(lv["pieces"] for lv in trace["levels"]),
            "stepfn.max_level": trace["stabilized_at"],
        }

    def reference(self, rc):
        return {"values": analyze_values(self.report()[0])}


def analyze_values(rep) -> dict:
    """The report numbers compared against the reference."""
    crit = rep["criteria"]
    out = {"v_of_clipped_h": rep["v_of_clipped_h"],
           "alpha": crit["alpha"],
           "beta.sum": crit["beta"]["sum"],
           "gamma.sum": crit["gamma"]["sum"],
           "tandori.sum": crit["tandori"]["sum"]}
    for k in ("alpha1", "beta1", "gamma1"):
        out["information." + k] = crit["information"][k]
    for k, v in crit["sandwich"].items():
        out["sandwich." + k] = v
    return out


def analyze_job(workdir, kind, stratum, variant):
    key = "analyze/%s/s%02d/v%d" % (kind, stratum, variant)
    name = key.replace("/", "-")
    path = os.path.join(workdir, "inputs", name + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(analyze_coefficients(kind, stratum, variant), fh)
    return AnalyzeJob(key, ["analyze", path],
                      os.path.join(workdir, "reports", name + ".json"))


def _orders(rng, strata):
    """Per stratum, a seeded order of its RUN_PASSES pool entries."""
    return [rng.sample(range(RUN_PASSES), RUN_PASSES) for _ in range(strata)]


def analyze_run(rng, workdir):
    orders = {kind: _orders(rng, ANALYZE_STRATA) for kind in ("rational", "power")}
    passes = []
    for i in range(RUN_PASSES):
        jobs = [analyze_job(workdir, kind, s, orders[kind][s][i])
                for kind in ("rational", "power") for s in range(ANALYZE_STRATA)]
        rng.shuffle(jobs)
        passes.append(jobs)
    return passes


# ---------------------------------------------------------------------------
# construct


class ConstructJob(CliJob):
    def check(self, rc, ref):
        _expect(rc == 0, "exit code %r" % rc)
        rep, nbytes = self.report()
        counts = {"cli.bytes_out": nbytes}
        if rep["flags"].get("k") is not None:
            k = rep["flags"]["k"]
            _expect(rep["family_size"] == 3 ** k, "family size")
            norm_sq = 3.0 / 3 ** k
            for i, row in enumerate(rep["gram"]):
                for j, g in enumerate(row):
                    want = norm_sq if i == j else 0.0
                    _expect(abs(g - want) <= 1e-12, "gram[%d][%d] = %r" % (i, j, g))
            return counts
        _expect(rep["gram_deviation"] == "0", "gram deviation %r" % rep["gram_deviation"])
        _expect(rep["final_value_ok"] is True, "final value")
        _expect(rep["membership_ok"] is True, "membership")
        _expect(_close(rep["achieved_y"], ref["achieved_y"]),
                "achieved_y %r, reference %r" % (rep["achieved_y"], ref["achieved_y"]))
        for row in rep["exceedance_table"]:
            _expect([row["measure_ge"], row["measure_gt"]] == ref["exceedance"][row["y"]],
                    "exceedance at y = %s" % row["y"])
        n = len(rep["times"])
        counts["construct.steps"] = len(rep["steps"])
        counts["ortho.gram_pairs"] = n * (n - 1) // 2
        return counts

    def reference(self, rc):
        rep = self.report()[0]
        if rep["flags"].get("k") is not None:
            return {}
        return {"achieved_y": rep["achieved_y"],
                "exceedance": {row["y"]: [row["measure_ge"], row["measure_gt"]]
                               for row in rep["exceedance_table"]}}


def construct_job(workdir, name, ys=()):
    """Build or dump ``name``; builds report the exceedance at each y."""
    argv = ["construct"] + BUILDS.get(name, DUMPS.get(name))
    key = "construct/" + name
    for y in ys:
        argv += ["--y", str(y)]
    if ys:
        key += "?y=" + ",".join(str(y) for y in ys)
    job = ConstructJob(key, argv, os.path.join(
        workdir, "reports", key.replace("/", "-").replace(",", "_") + ".json"))
    job.ref_key = "construct/" + name
    return job


def construct_run(rng, workdir):
    passes = []
    for _ in range(RUN_PASSES):
        jobs = [construct_job(workdir, name, sorted(rng.sample(
            THRESHOLDS, THRESHOLDS_PER_BUILD)) if name in BUILDS else ())
            for name in CONSTRUCT_MIX]
        rng.shuffle(jobs)
        passes.append(jobs)
    return passes


# ---------------------------------------------------------------------------
# sets


def cantor_centres(window: str):
    """Pool of Cantor endpoints (depth <= 3) traced in this window size."""
    pts = [str(p) for p in cantor_points(3).points]
    return random.Random("centres" + window).sample(pts, RUN_PASSES)


class CantorJob(CliJob):
    def check(self, rc, ref):
        _expect(rc == 0, "exit code %r" % rc)
        rep, nbytes = self.report()
        (window,) = rep["windows"]
        trace = window["trace"]
        _expect(all(a <= b for a, b in zip(trace, trace[1:])),
                "trace decreases in depth: %r" % trace)
        want = ref["trace"]
        _expect(len(trace) == len(want) and all(map(_close, trace, want)),
                "trace %r, reference %r" % (trace, want))
        return {"cli.bytes_out": nbytes}

    def reference(self, rc):
        (window,) = self.report()[0]["windows"]
        return {"trace": window["trace"]}


def cantor_job(workdir, depths, window, t):
    key = "sets/cantor/d%s/%s/%s" % (",".join(map(str, depths)), window, t)
    argv = ["cantor", "--t", t, "--window", window]
    for d in depths:
        argv += ["--depth", str(d)]
    return CantorJob(key, argv, os.path.join(
        workdir, "reports", key.replace("/", "-").replace(",", "_") + ".json"))


def envelope_size(stratum: int) -> int:
    return round(20 * 10 ** (stratum / (ENVELOPE_STRATA - 1)))


def envelope_points(stratum: int, variant: int) -> PointSet:
    rng = random.Random(2_000_000 + 1000 * stratum + variant)
    inner = rng.sample(range(1, ENVELOPE_GRID), envelope_size(stratum) - 2)
    return PointSet([0, 1] + [Fraction(n, ENVELOPE_GRID) for n in inner])


class EnvelopeJob(Job):
    """generate, then rho_sums, then V of the envelope's information function."""

    def __init__(self, stratum, variant):
        super().__init__("sets/envelope/s%02d/v%d" % (stratum, variant))
        self.A = envelope_points(stratum, variant)

    def run(self):
        G = sets.generate(self.A).generated
        s1, s2 = sets.rho_sums(self.A, G)
        h = info.info_fn(G, base=3)
        value, trace = vcalc.v_functional(h)
        return G, s1, s2, h, value, trace

    def check(self, result, ref):
        G, s1, s2, h, value, trace = result
        _expect(s1 <= 3 and s2 <= 1, "rho sums %s, %s out of bounds" % (s1, s2))
        _expect(str(s1) == ref["rho_sum_envelope"] and str(s2) == ref["rho_sum_base"],
                "rho sums differ from the reference")
        _expect(len(G) == ref["envelope_points"], "envelope size")
        _expect(_close(value, ref["v"]), "V %r, reference %r" % (value, ref["v"]))
        return {"stepfn.pieces": len(h.values)
                + sum(len(f.values) for _, f, _ in trace.levels),
                "stepfn.max_level": trace.stabilized_at}

    def reference(self, result):
        G, s1, s2, h, value, trace = result
        return {"rho_sum_envelope": str(s1), "rho_sum_base": str(s2),
                "envelope_points": len(G), "v": value}


def sets_run(rng, workdir):
    centres = _orders(rng, len(CANTOR_JOBS))
    envelopes = _orders(rng, ENVELOPE_STRATA)
    passes = []
    for i in range(RUN_PASSES):
        jobs = [cantor_job(workdir, depths, window, cantor_centres(window)[centres[c][i]])
                for c, (depths, window) in enumerate(CANTOR_JOBS)]
        jobs += [EnvelopeJob(s, envelopes[s][i]) for s in range(ENVELOPE_STRATA)]
        rng.shuffle(jobs)
        passes.append(jobs)
    return passes


# ---------------------------------------------------------------------------


RUNS = {"analyze": analyze_run, "construct": construct_run, "sets": sets_run}


def _make_dirs(workdir):
    for sub in ("inputs", "reports"):
        os.makedirs(os.path.join(workdir, sub), exist_ok=True)


def make_run(workload: str, seed: int, workdir: str):
    """The seeded passes of one run; writes the inputs they need."""
    _make_dirs(workdir)
    return RUNS[workload](random.Random("%s:%d" % (workload, seed)), workdir)


def warmup(workload: str, workdir: str):
    """Small jobs run during set-up, before any timed job: one for each
    command path of the workload, so that the one-time costs of first use
    (lazy imports, tables built on first call) count in set-up time, not in
    whichever timed job the seed happens to put first."""
    _make_dirs(workdir)
    if workload == "analyze":
        return [analyze_job(workdir, kind, 0, RUN_PASSES) for kind in ("rational", "power")]
    if workload == "construct":
        return [construct_job(workdir, "k2"),
                construct_job(workdir, "grid0", THRESHOLDS[:THRESHOLDS_PER_BUILD])]
    return [EnvelopeJob(0, RUN_PASSES), cantor_job(workdir, *WARM_CANTOR)]


def pool(workload: str, workdir: str):
    """Every job a pass of the workload can contain (to record references)."""
    _make_dirs(workdir)
    if workload == "analyze":
        for kind in ("rational", "power"):
            for s in range(ANALYZE_STRATA):
                for v in range(RUN_PASSES + (s == 0)):
                    yield analyze_job(workdir, kind, s, v)
    elif workload == "construct":
        for name in BUILDS:
            yield construct_job(workdir, name, THRESHOLDS)
        for name in DUMPS:
            yield construct_job(workdir, name)
    else:
        yield cantor_job(workdir, *WARM_CANTOR)
        for depths, window in CANTOR_JOBS:
            for t in cantor_centres(window):
                yield cantor_job(workdir, depths, window, t)
        for s in range(ENVELOPE_STRATA):
            for v in range(RUN_PASSES + (s == 0)):
                yield EnvelopeJob(s, v)
