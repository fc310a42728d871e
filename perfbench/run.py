"""Closed-loop benchmark of orthoconv: one process, one thread, one caller.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 10 --trace 0

    # every end-to-end metric of every workload
    for w in analyze construct sets; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 10 --trace 0
    done

Runs from any working directory; it reads and writes only inside the
checkout that holds it (scratch files go to ``perfbench/.work``).

A run first times ``SETUP_PROBES`` fresh interpreters that each make the
set-up: import the package, generate the run's inputs and run the
workload's small warm-up jobs, which pay the one-time costs of first use
(lazy imports, tables built on first call); ``setup_s`` is their median.
The run then makes the same set-up itself, warm-up jobs included, and
runs the run's seeded passes in turn (see ``workloads.py``),
submitting each job when the previous one has returned and been checked:
at least the workload's ``MIN_PASSES``, and more while the measured job
time stays under ``--seconds`` with half a pass to spare.  Every job
starts with an empty sympy cache and a collected heap, as a fresh
command-line process would.  The analyze and sets passes never repeat an
input, so a memo kept across jobs cannot turn later passes into cache
hits; construct repeats its builds on every pass.  ``ORTHO_EXACT`` is
unset, so reports have the same form whatever the caller's environment.
Correctness checks run outside the timed interval, on warm-up jobs too;
a failed check counts as a failed job and the job's time still counts.

Times are reported at a reference host pace.  The host the benchmark was
defined on is shared: its speed drifts by up to 60% over tens of seconds
and jitters by 10-20% within a second.  So a fixed rational-arithmetic
loop of about a millisecond is timed three times before and after every
job, and every ``SAMPLE_EVERY_S`` throughout, from a timer signal handler
on the benchmark's one thread.  A job's time is its wall time less the
loops run inside it, scaled by ``REFERENCE_PACE_S`` over the mean time of
the loops run around and inside it.  A set-up probe samples its own pace
the same way and reports it, and its time is its process's wall time
less its loops.  Sampling during the job halved the quartile spread of
repeated builds compared with sampling before and after it only; for
set-up, the probe's own samples cut it from 0.20 to 0.07.  The
wall-clock figures are printed beside the scaled ones.  ``--trace 1``
does not sample, so its times are plain wall clock.

Every job run counts, at its scaled time.  ``jobs_per_s`` is the number
of job runs over the sum of their times; ``job_p50_s`` is their median.
``job_tail_s`` is the highest percentile that has ten job runs beyond it
in a run of ``MIN_PASSES`` passes; runs that make more passes use the same
percentile (with more runs beyond it), so it does not move when a faster
commit fits more passes.

``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json.
``--trace 1`` runs one untraced pass, then traced passes, and reports the
per-layer metrics (wall clock, per pass); ``metric_map.json`` says which
end-to-end metric and workload each of them should move.  Everything runs
on one thread with no queue, so no layer ever waits on another and no
wait times are reported.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join("perfbench", ".work")
SETUP_PROBES = 7
# calibration loop time on the 2-core x86 VM the benchmark was defined on,
# at its fastest
REFERENCE_PACE_S = 0.0013
SAMPLE_EVERY_S = 0.05


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("analyze", "construct", "sets"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)  # child process of the set-up timing
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_package():
    """Import orthoconv from this checkout's sources, with the job module."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import orthoconv
    import workloads
    if os.path.dirname(os.path.abspath(orthoconv.__file__)) != \
            os.path.join(ROOT, "src", "orthoconv"):
        raise ImportError("orthoconv was not imported from this checkout")
    return workloads


PACE = []  # (end, duration) of every calibration loop this process ran


def calibration_loop():
    """Time a fixed rational-arithmetic loop, which tracks the host's pace."""
    # a sampling signal waits, so that no loop runs inside another
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    t0 = time.perf_counter()
    total = Fraction(0)
    for n in range(1, 400):
        total += Fraction(1, n * n)
    t1 = time.perf_counter()
    PACE.append((t1, t1 - t0))
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})


def sample_pace(on=True):
    """Run the calibration loop every SAMPLE_EVERY_S from a timer signal."""
    if on:
        signal.signal(signal.SIGALRM, lambda signum, frame: calibration_loop())
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S if on else 0, SAMPLE_EVERY_S)


def timed(fn):
    """(time of fn() less the calibration loops run during it, that time at
    the reference host pace, fn's result)."""
    first = len(PACE)
    for _ in range(3):
        calibration_loop()
    t0 = time.perf_counter()
    try:
        result = fn()
    finally:
        t1 = time.perf_counter()
        for _ in range(3):
            calibration_loop()
    loops = PACE[first:]
    dt = t1 - t0 - sum(d for end, d in loops if t0 < end <= t1)
    return dt, dt * REFERENCE_PACE_S / statistics.mean(d for _, d in loops), result


def time_setup(args):
    """Raw and pace-scaled times of fresh set-up processes, each scaled by
    the pace its own process sampled."""
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "1", "--setup-probe"]
    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        probe = subprocess.run(argv, check=True, stdout=subprocess.PIPE, text=True)
        wall = time.perf_counter() - t0
        pace = json.loads(probe.stdout.splitlines()[-1])
        dt = wall - pace["loops_s"]
        out.append((dt, dt * REFERENCE_PACE_S / pace["loop_s"]))
    return out


def rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail_index(n, base):
    """Index in n sorted job runs of the highest percentile that has ten
    runs beyond it when n == base, and the percentile."""
    q = (base - 10) / base
    return -(-(base - 10) * n // base) - 1, 100.0 * q


class Runner:
    """Runs passes in turn, checks every job, keeps job times and work counts."""

    def __init__(self, workloads, passes, refs, tracer=None):
        self.workloads = workloads
        self.passes = passes
        self.refs = refs
        self.tracer = tracer
        self.times = []  # wall time of every job run
        self.scaled = []  # the same at the reference pace
        self.attempted = 0
        self.failed = 0
        self.pass_times = []
        self.pass_counts = None  # work counts of one pass
        self.job_counts = {}  # job key -> counts seen on the first pass
        self.gram_share = {}  # job key -> share of its time in gram_check
        self._trace_id = 0

    def _run_job(self, job):
        """(result, error, wall time, time at the reference pace) of one job."""
        tracer = self.tracer
        if tracer is not None:
            self._trace_id += 1
            gram0 = tracer.total_s["ortho.gram_check"]

        def call():
            try:
                with tracer.job(self._trace_id) if tracer else nullcontext():
                    return job.run(), None
            except Exception as e:  # a failed job is counted, never dropped
                return None, e

        dt, scaled, (result, error) = timed(call)
        if tracer is not None:
            self.gram_share[job.key] = (tracer.total_s["ortho.gram_check"] - gram0) / dt
        return result, error, dt, scaled

    def _check(self, job, result, error):
        """Counts of the job, or None when it failed."""
        if error is not None:
            print("FAIL %s: %s" % (job.key, "".join(
                traceback.format_exception_only(type(error), error)).strip()))
            return None
        ref = self.refs.get(job.ref_key)
        if ref is None:
            print("FAIL %s: no reference result" % job.key)
            return None
        try:
            counts = job.check(result, ref)
        except Exception as e:  # a malformed report fails the job, not the run
            print("FAIL %s: %s: %s" % (job.key, type(e).__name__, e))
            return None
        exact = {k: v for k, v in counts.items() if k != "cli.bytes_out"}
        if exact != ref["counts"]:
            print("FAIL %s: work counts %r, reference %r" % (job.key, exact, ref["counts"]))
            return None
        seen = self.job_counts.setdefault(job.key, counts)
        if seen != counts:
            print("FAIL %s: determinism bug, work counts %r then %r"
                  % (job.key, seen, counts))
            return None
        return counts

    def run_pass(self):
        from sympy.core.cache import clear_cache
        pass_time = 0.0
        totals = {}
        for job in self.passes[len(self.pass_times) % len(self.passes)]:
            clear_cache()
            gc.collect()  # no job pays for collecting its predecessors' garbage
            result, error, dt, scaled = self._run_job(job)
            pass_time += dt
            self.times.append(dt)
            self.scaled.append(scaled)
            self.attempted += 1
            counts = self._check(job, result, error)
            if counts is None:
                self.failed += 1
                continue
            for k, v in counts.items():
                totals[k] = max(totals.get(k, 0), v) if k == "stepfn.max_level" \
                    else totals.get(k, 0) + v
        self.pass_times.append(pass_time)
        if self.pass_counts is None:
            self.pass_counts = totals
        return pass_time

    def run_for(self, seconds, min_passes=1):
        """Whole passes: at least ``min_passes``, then while time remains."""
        measured = 0.0
        while True:
            pass_time = self.run_pass()
            measured += pass_time
            if len(self.pass_times) >= min_passes and measured + pass_time / 2 >= seconds:
                return measured


def end_to_end(args, workloads, passes, refs, setup_times):
    runner = Runner(workloads, passes, refs)
    min_passes = workloads.MIN_PASSES[args.workload]
    measured = runner.run_for(args.seconds, min_passes)
    runs, raw_runs = sorted(runner.scaled), sorted(runner.times)
    n = len(runs)
    tail, pct = tail_index(n, min_passes * len(passes[0]))
    setup = [scaled for _, scaled in setup_times]
    metrics = {
        "setup_s": statistics.median(setup),
        "jobs_per_s": n / sum(runs),
        "job_p50_s": statistics.median(runs),
        "job_tail_s": runs[tail],
        "peak_rss_mb": rss_mb(),
    }
    print("workload %s seed %d: %d passes of %d jobs, %.2f s measured (%s)"
          % (args.workload, args.seed, len(runner.pass_times), len(passes[0]), measured,
             ", ".join("%.2f" % t for t in runner.pass_times)))
    print("  metric      at reference pace   (wall clock)")
    print("  setup_s     %.4f s  (%.4f s)  median of %d set-ups"
          % (metrics["setup_s"], statistics.median(t for t, _ in setup_times), len(setup)))
    print("  jobs_per_s  %.4f 1/s (%.4f 1/s)" % (metrics["jobs_per_s"], n / sum(raw_runs)))
    print("  job_p50_s   %.4f s  (%.4f s)  median of %d job runs"
          % (metrics["job_p50_s"], statistics.median(raw_runs), n))
    print("  job_tail_s  %.4f s  (%.4f s)  p%.1f of %d job runs, %d beyond it"
          % (metrics["job_tail_s"], raw_runs[tail], pct, n, n - 1 - tail))
    print("  error_rate  %.4f    (%d failed / %d attempted)"
          % (runner.failed / runner.attempted, runner.failed, runner.attempted))
    print("  peak_rss_mb %.1f MB" % metrics["peak_rss_mb"])
    print("  work per pass: %s" % json.dumps(runner.pass_counts, sort_keys=True))
    return [runner], metrics


# per-layer metrics taken from job outputs rather than spans
OUTPUT_COUNTS = ("cli.bytes_out", "info.tail_bits", "stepfn.pieces",
                 "stepfn.max_level", "construct.steps", "ortho.gram_pairs")


def per_layer(args, workloads, passes, refs, import_s):
    from tracer import COUNTED, MODULES, ROOT_SPAN, SPANNED, Tracer
    untraced = Runner(workloads, passes[:1], refs)
    rss0 = rss_mb()
    untraced_s = untraced.run_pass()
    growth = rss_mb() - rss0
    tracer = Tracer()
    traced = Runner(workloads, passes[1:], refs, tracer)
    traced.job_counts = untraced.job_counts  # repeated jobs must match the first run
    tracer.install()
    try:
        traced_s = traced.run_for(args.seconds)
    finally:
        tracer.uninstall()
    spans_path = os.path.join(WORKDIR, "spans-%s-%d.jsonl" % (args.workload, args.seed))
    tracer.write(spans_path)

    n = len(traced.pass_times)
    metrics = dict.fromkeys(OUTPUT_COUNTS, 0)
    metrics["stepfn.cond_norm.pieces_in"] = 0
    for name in {*SPANNED.values(), *COUNTED.values(), "construct.witness"}:
        metrics.update({name + ".calls": 0, name + ".self_s": 0.0, name + ".total_s": 0.0})
    for name in tracer.calls:
        metrics[name + ".calls"] = tracer.calls[name] / n
    for name, s in tracer.self_s.items():
        metrics[name + ".self_s"] = s / n
        metrics[name + ".total_s"] = tracer.total_s[name] / n
    for name, c in tracer.counts.items():
        metrics[name] = c / n
    for module in MODULES:
        metrics[module + ".errors"] = tracer.errors[module] / n
    for name, c in untraced.pass_counts.items():
        metrics[name] = c
    wall = traced_s / n
    attributed = sum(s for name, s in tracer.self_s.items() if name != ROOT_SPAN) / n
    metrics.update({
        "trace.job_wall_s": wall,
        "trace.unattributed_s": wall - attributed,
        "trace.jobs_per_s": traced.attempted / traced_s,
        "trace.untraced_jobs_per_s": untraced.attempted / untraced_s,
        "import.orthoconv_s": import_s,
        "memo.rss_growth_mb": growth,
    })
    print("workload %s seed %d: 1 untraced pass, %d traced pass(es) of %d jobs"
          % (args.workload, args.seed, n, len(passes[0])))
    print("  per pass: job wall %.4f s = layer self times %.4f s + unattributed %.4f s"
          % (wall, attributed, wall - attributed))
    for name in sorted(tracer.self_s, key=tracer.self_s.get, reverse=True):
        if name != ROOT_SPAN:
            print("  %-32s self %9.4f s  calls %9d"
                  % (name, tracer.self_s[name] / n, tracer.calls[name] / n))
    print("  counters per pass: %s" % ", ".join(
        "%s %d" % (name, metrics[name]) for name in
        ("exactnum.compare.calls", "exactnum.sqrt.calls", "stepfn.cond_norm.pieces_in")))
    print("  tracing overhead: %.4f jobs/s traced vs %.4f untraced (x%.3f)"
          % (metrics["trace.jobs_per_s"], metrics["trace.untraced_jobs_per_s"],
             metrics["trace.untraced_jobs_per_s"] / metrics["trace.jobs_per_s"]))
    for key, share in sorted(traced.gram_share.items()):
        if share:
            print("  gram_check share of %-40s %5.1f%%" % (key, 100 * share))
    print("  single thread, no queue: no layer waits on another, so no waits are reported")
    print("  spans: %s" % spans_path)
    return [untraced, traced], metrics


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    os.chdir(ROOT)
    os.environ.pop("ORTHO_EXACT", None)  # also for the set-up probes
    for need in ("BENCHMARK.json", os.path.join("src", "orthoconv", "__init__.py"),
                 os.path.join(HERE, "reference.json")):
        if not os.path.isfile(need):
            print("benchmark error: %s is missing; run from a full checkout" % need,
                  file=sys.stderr)
            return 2
    if not args.setup_probe:
        with open("BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
        wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        with open(os.path.join(HERE, "metric_map.json"), encoding="utf-8") as fh:
            if set(json.load(fh)) != {m["name"] for m in wanted}:
                print("benchmark error: metric_map.json and BENCHMARK.json list "
                      "different per-layer metrics", file=sys.stderr)
                return 2
    setup_times = [] if args.trace or args.setup_probe else time_setup(args)
    if not args.trace:
        sample_pace()
    # set-up, as each probe makes it: import, inputs, warm-up jobs
    for _ in range(3):
        calibration_loop()
    t0 = time.perf_counter()
    workloads = import_package()
    import_s = time.perf_counter() - t0
    passes = workloads.make_run(args.workload, args.seed, WORKDIR)
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        refs = json.load(fh)[args.workload]
    warm = Runner(workloads, [workloads.warmup(args.workload, WORKDIR)], refs)
    warm.run_pass()
    if args.setup_probe:  # warm-up failures count in the run itself
        sample_pace(False)
        print(json.dumps({"loop_s": statistics.mean(d for _, d in PACE),
                          "loops_s": sum(d for _, d in PACE)}))
        return 0

    if args.trace:
        runners, metrics = per_layer(args, workloads, passes, refs, import_s)
    else:
        runners, metrics = end_to_end(args, workloads, passes, refs, setup_times)
    sample_pace(False)
    runners.append(warm)
    attempted = sum(r.attempted for r in runners)
    failed = sum(r.failed for r in runners)
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
