"""Batch front door: analyze coefficient files, run constructions,
emit certificates and verification reports.

Commands:
    analyze    tail set, information function, contraction trace and all
               criteria for a coefficient file (JSON list or CSV)
    construct  generator-family dump (--k) or divergent-process build
               (--b points / --grid level)
    verify     run the named verification suites with a seed
    cantor     window traces of the contraction functional around a point
    measure    information criterion for an atomic distribution

All outputs are JSON with sorted keys, so identical inputs and flags
produce byte-identical files.  Exit codes: 0 ok, 1 usage error, 2 data
error, 3 a failed check: a verification suite, a build's exact checks,
or a ``--k`` family whose exact ``gram_deviation`` is not 0.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
from fractions import Fraction

from .construct import BUILD_MAX_LEVEL, FAMILY_MAX_DEPTH
from .exactnum import parse_rational, value_to_json
from .info import CoefficientSeq, PointSet, info_fn, tail_set
from .stepfn import grid_size
from .vcalc import v_functional
from . import criteria as crit
from .sets import continuity_verdict
from .suites import FIXED_SUITES, SUITES, run_suites

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_ASSERT = 3

# cantor --depth budget: the Cantor truncation has 2**(depth+1) points;
# depth 18 takes about 4 s and 66 MB on a 2-core x86 VM, and the cost
# grows two- to threefold per level
CANTOR_MAX_DEPTH = 20

# the levels of ``construct --grid`` as text, "0, 1 or 2"
GRID_LEVELS = "%s or %d" % (", ".join(map(str, range(BUILD_MAX_LEVEL))), BUILD_MAX_LEVEL)


def _read_coefficients(path: str) -> CoefficientSeq:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    text = text.strip()
    if not text:
        raise ValueError("empty coefficient file")
    if text.startswith("[") or text.startswith("{"):
        data = json.loads(text)
        if isinstance(data, dict):
            data = data["coefficients"]
        if not isinstance(data, list):
            raise ValueError("coefficients must be a JSON list")
        return CoefficientSeq(data)
    # CSV, one value per line
    vals = [line.strip() for line in text.splitlines() if line.strip()]
    return CoefficientSeq(vals)


def _out_error(out_path):
    """The OSError that writing a report to out_path would meet, or None.

    Decided before any work, without creating or truncating the file: an
    existing file must be writable, and a new one needs a writable
    directory.  stdout ("-") and /dev/null are writable.
    """
    if out_path in (None, "-"):
        return None
    if os.path.isdir(out_path):
        code = errno.EISDIR
    elif os.path.exists(out_path):
        code = None if os.access(out_path, os.W_OK) else errno.EACCES
    else:
        parent = os.path.dirname(out_path) or "."
        if not os.path.isdir(parent):
            code = errno.ENOENT
        else:
            code = None if os.access(parent, os.W_OK | os.X_OK) else errno.EACCES
    return None if code is None else OSError(code, os.strerror(code), out_path)


def _dump(obj, out_path) -> int:
    """Write the report; EXIT_DATA with one line when out_path cannot be written."""
    text = json.dumps(obj, sort_keys=True, indent=2)
    if out_path in (None, "-"):
        sys.stdout.write(text + "\n")
        return EXIT_OK
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as e:
        print("data error: %s" % e, file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


def cmd_analyze(args) -> int:
    try:
        seq = _read_coefficients(args.input)
        notice = None
        if seq.total != 1:
            try:
                total = float(seq.total)
            except OverflowError:  # beyond the float range
                total = math.inf
            notice = "input squares summed to %s; normalized" % total
            seq = seq.normalized()
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
        print("data error: %s" % e, file=sys.stderr)
        return EXIT_DATA
    # the sequence keeps its tail set, so the criteria reuse this one
    B = tail_set(seq)
    try:
        tail = B.to_json()
    except ValueError:  # Python refuses to print ints above its digit limit
        print("budget error: a tail-set point has more than %d digits, Python's limit "
              "for printing an integer" % sys.get_int_max_str_digits(), file=sys.stderr)
        return EXIT_DATA
    h = info_fn(B, base=3)
    value, trace = v_functional(h.maximum(1))
    report = {
        "command": "analyze",
        "flags": {"input": args.input, "indicator": args.indicator,
                  "base": 3, "seed": args.seed},
        "notice": notice,
        "tail_set": tail,
        "information_function": {
            "pieces": len(h.values),
            "max": float(h.max_value()),
            "min": float(h.min_value()),
        },
        "v_trace": trace.to_json(),
        "v_of_clipped_h": value,
        "clip_at_one": True,
        "criteria": _jsonable(crit.full_report(seq, indicator=args.indicator)),
    }
    return _dump(report, args.out)


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if x is None or isinstance(x, (bool, int, float, str)):
        return x
    return value_to_json(x)  # exact strings for Fraction and RootSum


def cmd_construct(args) -> int:
    from .construct import phi_family, build_divergent
    from .ortho import OrthoVector, gram_matrix
    if args.k is not None:
        if not 0 <= args.k <= FAMILY_MAX_DEPTH:
            print("budget error: depth must be in 0..%d" % FAMILY_MAX_DEPTH, file=sys.stderr)
            return EXIT_DATA
        chi = OrthoVector.basis(0)
        fam = phi_family(args.k, chi)
        norm_sq = Fraction(3, 3 ** args.k)
        gram = [[None] * len(fam) for _ in fam]
        deviation = Fraction(0)
        # each exact entry becomes a float cell as it comes, and only its
        # deviation from norm_sq * delta_ij is kept, so no n x n matrix of
        # exact values is held
        for i, row in enumerate(gram_matrix(fam)):
            for j, g in enumerate(row, i):
                gram[i][j] = gram[j][i] = float(g)
                d = g - norm_sq if i == j else g
                if d:
                    d = d if 0 < d else -d
                    if deviation < d:
                        deviation = d
        report = {
            "command": "construct",
            "flags": {"k": args.k, "seed": args.seed},
            "family_size": len(fam),
            "gram": gram,
            "gram_deviation": _jsonable(deviation),
            "vectors": [v.to_json() for v in fam] if args.full else None,
        }
        return _dump(report, args.out) or (EXIT_OK if deviation == 0 else EXIT_ASSERT)
    if args.b is not None or args.grid is not None:
        try:
            thresholds = [parse_rational(y) for y in (args.y or [])]
            if args.grid is not None:
                if not 0 <= args.grid <= BUILD_MAX_LEVEL:
                    raise ValueError("grid level must be %s" % GRID_LEVELS)
                size = grid_size(args.grid)
                B = PointSet.from_lattice(size, range(size + 1))
            else:
                B = PointSet([parse_rational(p) for p in args.b.split(",")])
            out = build_divergent(B)
        except ValueError as e:
            print("data error: %s" % e, file=sys.stderr)
            return EXIT_DATA
        rep = out["report"]
        m = rep["maximal_function"]
        report = {
            "command": "construct",
            "flags": {"b": args.b, "grid": args.grid, "y": args.y,
                      "seed": args.seed},
            "achieved_y": out["achieved_y"],
            "steps": out["steps"],
            "gram_deviation": _jsonable(rep["gram_deviation"]),
            "final_value_ok": rep["final_value_ok"],
            "membership_ok": rep["membership_ok"],
            "achieved_eps": rep["achieved_eps"],
            "exceedance_at_achieved_y": _jsonable(rep["good_measure"]),
            "times": [str(t) for t in rep["process"].times],
            "process": rep["process"].to_json() if args.full else None,
        }
        if thresholds:
            report["exceedance_table"] = [
                {"y": _jsonable(y),
                 "measure_ge": _jsonable(m.measure_ge(y)),
                 "measure_gt": _jsonable(m.measure_gt(y))}
                for y in thresholds]
        ok = (rep["final_value_ok"] and rep["membership_ok"]
              and rep["gram_deviation"] == 0)
        return _dump(report, args.out) or (EXIT_OK if ok else EXIT_ASSERT)
    print("usage error: construct needs --k or --b/--grid", file=sys.stderr)
    return EXIT_USAGE


def cmd_verify(args) -> int:
    names = args.suite if args.suite else None
    if args.count is not None and args.count <= 0:
        print("usage error: --count must be positive", file=sys.stderr)
        return EXIT_USAGE
    try:
        out = run_suites(names, seed=args.seed, count=args.count)
    except KeyError as e:
        print("usage error: unknown suite %s (known: %s)"
              % (e, ", ".join(sorted(SUITES))), file=sys.stderr)
        return EXIT_USAGE
    out["command"] = "verify"
    out["flags"] = {"seed": args.seed, "count": args.count,
                    "suite": args.suite or sorted(SUITES)}
    for r in out["results"]:
        r.pop("trace", None)
        r.pop("details", None)
    return _dump(out, args.out) or (EXIT_OK if out["passed"] else EXIT_ASSERT)


def cmd_cantor(args) -> int:
    if any(not 0 <= d <= CANTOR_MAX_DEPTH for d in args.depth or ()):
        print("budget error: depth must be in 0..%d" % CANTOR_MAX_DEPTH, file=sys.stderr)
        return EXIT_DATA
    try:
        report = continuity_verdict("cantor", parse_rational(args.t),
                                    [parse_rational(w) for w in args.window],
                                    depths=args.depth)
    except ValueError as e:
        print("data error: %s" % e, file=sys.stderr)
        return EXIT_DATA
    report["command"] = "cantor"
    report["flags"] = {"t": args.t, "window": args.window, "depth": args.depth,
                       "seed": args.seed}
    return _dump(report, args.out)


def cmd_measure(args) -> int:
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if isinstance(data, dict):
            data = data["probabilities"]
        if not isinstance(data, list):
            raise ValueError("probabilities must be a JSON list")
        out = crit.measure_criterion([parse_rational(p) for p in data])
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
        print("data error: %s" % e, file=sys.stderr)
        return EXIT_DATA
    report = {
        "command": "measure",
        "flags": {"input": args.input, "seed": args.seed},
        "slice_norms": {str(k): v for k, v in out["terms"].items()},
        "criterion_sum": out["sum"],
    }
    return _dump(report, args.out)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="orthoconv",
        description="information-function calculus for orthogonal series")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="seed echoed into reports and used by "
                             "randomized suites")
    common.add_argument("--out", default="-", help="output path (default stdout)")
    sub = p.add_subparsers(dest="command")

    pa = sub.add_parser("analyze", parents=[common],
                        help="criteria report for a coefficient file")
    pa.add_argument("input")
    pa.add_argument("--indicator", choices=["I", "H"], default="I",
                    help="block-indicator variant for the information criteria")
    pa.set_defaults(fn=cmd_analyze)

    pc = sub.add_parser("construct", parents=[common], help="family dump or divergent process")
    pc.add_argument("--k", type=int, default=None, help="generator-family depth")
    pc.add_argument("--b", default=None, help="comma-separated triadic point set")
    pc.add_argument("--grid", type=int, default=None,
                    help="full grid at level %s" % GRID_LEVELS)
    pc.add_argument("--y", action="append", default=None,
                    help="report threshold (repeatable)")
    pc.add_argument("--full", action="store_true",
                    help="include full vector/process dumps")
    pc.set_defaults(fn=cmd_construct)

    pv = sub.add_parser("verify", parents=[common], help="run verification suites")
    pv.add_argument("--suite", action="append", default=None,
                    help="suite name (repeatable; default all)")
    pv.add_argument("--count", type=int, default=None,
                    help="instance count of each suite, except %s, which run "
                         "a fixed set" % ", ".join(FIXED_SUITES))
    pv.set_defaults(fn=cmd_verify)

    pk = sub.add_parser("cantor", parents=[common], help="window traces for the Cantor set")
    pk.add_argument("--t", default="0", help="time point")
    pk.add_argument("--window", action="append", default=None,
                    help="half-width (repeatable)")
    pk.add_argument("--depth", type=int, action="append", default=None,
                    help="truncation depth (repeatable)")
    pk.set_defaults(fn=cmd_cantor)

    pm = sub.add_parser("measure", parents=[common], help="atomic-distribution criterion")
    pm.add_argument("input")
    pm.set_defaults(fn=cmd_measure)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_OK if e.code == 0 else EXIT_USAGE
    if not getattr(args, "fn", None):
        parser.print_help()
        return EXIT_USAGE
    err = _out_error(args.out)
    if err is not None:
        print("data error: %s" % err, file=sys.stderr)
        return EXIT_DATA
    if getattr(args, "window", None) is None and args.command == "cantor":
        args.window = ["1/3"]
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
