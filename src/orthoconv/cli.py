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
or budget error, 3 a failed check: a verification suite, a build's exact
checks, or a ``--k`` family whose exact ``gram_deviation`` is not 0.
Each command returns its report and exit code, or raises; ``main`` alone
writes the report or the one refusal line.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import math
import os
import sys
from fractions import Fraction

from .construct import BUILD_MAX_LEVEL, FAMILY_MAX_DEPTH, build_divergent, phi_family
from .exactnum import echo, format_rational, parse_rational, value_to_json
from .info import CoefficientSeq, PointSet, info_fn, tail_set
from .ortho import OrthoVector, gram_matrix
from .stepfn import grid_size
from .vcalc import v_functional
from . import criteria as crit
from .sets import continuity_verdict
from .suites import FIXED_SUITES, SUITES, run_suites

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_ASSERT = 3

# cantor --depth budget: the depth-d truncation has 2**(d+1) points, and a
# trace builds those in its widest window.  At depth 20 the whole interval
# takes about 3.1 s and 284 MB on a 2-core x86 VM, a 1/81 window 0.25 s
# and 33 MB; the cost doubles per level
CANTOR_MAX_DEPTH = 20

# verify --count budget: at 500 the slowest suite, cantor_tail, takes about
# 8 s on a 2-core x86 VM and every other suite at most 2.2 s
VERIFY_MAX_COUNT = 500

# the levels of ``construct --grid`` as text, "0, 1 or 2"
GRID_LEVELS = "%s or %d" % (", ".join(map(str, range(BUILD_MAX_LEVEL))), BUILD_MAX_LEVEL)


class BudgetError(ValueError):
    """An input refused under a stated budget: exit 2, ``budget error:``."""


class UsageError(Exception):
    """A flag value that argparse does not check: exit 1, ``usage error:``."""


def _read_values(path: str, key: str, noun: str) -> list:
    """The values in a file: a JSON list, a ``{key: [...]}`` object, or CSV
    with one value per line.  A file of any other form raises ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read().strip()
    if not text:
        raise ValueError("empty %s file" % noun)
    if not text.startswith(("[", "{")):
        return [v for v in map(str.strip, text.splitlines()) if v]
    try:
        # an integer literal is read as a string value is, digit limit included
        data = json.loads(text, parse_int=_json_int)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    if isinstance(data, dict):
        if key not in data:
            raise ValueError(repr(key))
        data = data[key]
    if not isinstance(data, list):
        raise ValueError("%s must be a JSON list" % key)
    return data


def _json_int(text: str) -> int:
    return parse_rational(text).numerator


def _int_flag(text: str) -> int:
    """An integer flag value; argparse's refusal echoes it through ``echo``."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %s" % echo(text)) from None


def _printable(text: str):
    """The rational of a flag value that the report prints back.  A value
    with more digits than Python prints in its numerator or denominator
    is refused, named, before any work."""
    value = parse_rational(text)
    try:
        format_rational(value)
    except ValueError:  # Python refuses to print ints above its digit limit
        raise ValueError("%s has more than %d digits, Python's limit for printing "
                         "an integer" % (echo(text), sys.get_int_max_str_digits())) from None
    return value


def _check_out(out_path):
    """Raise the OSError that writing a report to out_path would meet.

    Decided before any work, without creating or truncating the file: an
    existing file must be writable, and a new one needs a writable
    directory.  stdout ("-") and /dev/null are writable.
    """
    if out_path == "-":
        return
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
    if code is not None:
        raise OSError(code, os.strerror(code), out_path)


def cmd_analyze(args):
    seq = CoefficientSeq(_read_values(args.input, "coefficients", "coefficient"))
    notice = None
    if seq.total != 1:
        try:
            total = float(seq.total)
        except OverflowError:  # beyond the float range
            total = math.inf
        notice = "input squares summed to %s; normalized" % total
        seq = seq.normalized()
    # the sequence keeps its tail set, so the criteria reuse this one
    B = tail_set(seq)
    try:
        tail = B.to_json()
    except ValueError:  # Python refuses to print ints above its digit limit
        raise BudgetError("a tail-set point has more than %d digits, Python's limit "
                          "for printing an integer" % sys.get_int_max_str_digits()) from None
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
    return report, EXIT_OK


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if x is None or isinstance(x, (bool, int, float, str)):
        return x
    return value_to_json(x)  # exact strings for Fraction and RootSum


def cmd_construct(args):
    if args.k is not None:
        if not 0 <= args.k <= FAMILY_MAX_DEPTH:
            raise BudgetError("depth must be in 0..%d" % FAMILY_MAX_DEPTH)
        fam = phi_family(args.k, OrthoVector.basis(0))
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
        return report, EXIT_OK if deviation == 0 else EXIT_ASSERT
    thresholds = [_printable(y) for y in args.y or ()]
    if args.grid is not None:
        if not 0 <= args.grid <= BUILD_MAX_LEVEL:
            raise ValueError("grid level must be %s" % GRID_LEVELS)
        size = grid_size(args.grid)
        B = PointSet.from_lattice(size, range(size + 1))
    else:
        B = PointSet([parse_rational(p) for p in args.b.split(",")])
    out = build_divergent(B)
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
    return report, EXIT_OK if ok else EXIT_ASSERT


def cmd_verify(args):
    if args.count is not None and args.count <= 0:
        raise UsageError("--count must be positive")
    if args.count is not None and args.count > VERIFY_MAX_COUNT:
        raise BudgetError("--count must be at most %d" % VERIFY_MAX_COUNT)
    out = run_suites(args.suite, seed=args.seed, count=args.count)
    out["command"] = "verify"
    out["flags"] = {"seed": args.seed, "count": args.count,
                    "suite": args.suite or sorted(SUITES)}
    return out, EXIT_OK if out["passed"] else EXIT_ASSERT


def cmd_cantor(args):
    if any(not 0 <= d <= CANTOR_MAX_DEPTH for d in args.depth or ()):
        raise BudgetError("depth must be in 0..%d" % CANTOR_MAX_DEPTH)
    window = args.window or ["1/3"]
    report = continuity_verdict("cantor", _printable(args.t),
                                [_printable(w) for w in window],
                                depths=args.depth)
    report["command"] = "cantor"
    report["flags"] = {"t": args.t, "window": window, "depth": args.depth,
                       "seed": args.seed}
    return report, EXIT_OK


def cmd_measure(args):
    probs = _read_values(args.input, "probabilities", "probability")
    out = crit.measure_criterion([parse_rational(p) for p in probs])
    report = {
        "command": "measure",
        "flags": {"input": args.input, "seed": args.seed},
        "slice_norms": {str(k): v for k, v in out["terms"].items()},
        "criterion_sum": out["sum"],
    }
    return report, EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after.

    Parsing leaves no state in it: every call fills a new namespace, and
    the repeatable flags default to None, so each call makes its own list.
    """
    p = argparse.ArgumentParser(
        prog="orthoconv",
        description="information-function calculus for orthogonal series")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_int_flag, default=0,
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
    mode = pc.add_mutually_exclusive_group(required=True)
    mode.add_argument("--k", type=_int_flag, help="generator-family depth")
    mode.add_argument("--b", help="comma-separated triadic point set")
    mode.add_argument("--grid", type=_int_flag, help="full grid at level %s" % GRID_LEVELS)
    pc.add_argument("--y", action="append", default=None,
                    help="report threshold (repeatable)")
    pc.add_argument("--full", action="store_true",
                    help="include full vector/process dumps")
    pc.set_defaults(fn=cmd_construct)

    pv = sub.add_parser("verify", parents=[common], help="run verification suites")
    pv.add_argument("--suite", action="append", choices=sorted(SUITES), metavar="SUITE",
                    help="suite name, one of %(choices)s (repeatable; default all)")
    pv.add_argument("--count", type=_int_flag, default=None,
                    help="instance count of each suite, 1 to %d, except %s, which "
                         "run a fixed set" % (VERIFY_MAX_COUNT, ", ".join(FIXED_SUITES)))
    pv.set_defaults(fn=cmd_verify)

    pk = sub.add_parser("cantor", parents=[common], help="window traces for the Cantor set")
    pk.add_argument("--t", default="0", help="time point")
    pk.add_argument("--window", action="append", default=None,
                    help="half-width (repeatable)")
    pk.add_argument("--depth", type=_int_flag, action="append", default=None,
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
    try:
        _check_out(args.out)
        report, code = args.fn(args)
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
        if args.out == "-":
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
    except UsageError as e:
        print("usage error: %s" % e, file=sys.stderr)
        return EXIT_USAGE
    except BudgetError as e:
        print("budget error: %s" % e, file=sys.stderr)
        return EXIT_DATA
    except (OSError, ValueError) as e:
        print("data error: %s" % e, file=sys.stderr)
        return EXIT_DATA
    return code


if __name__ == "__main__":
    sys.exit(main())
