"""Span tracing of orthoconv layers, applied from outside the package.

``Tracer.install`` replaces the traced functions at every module binding
(including names other orthoconv modules imported with ``from .x import
y``) and the public ``StepFunction`` arithmetic methods; ``uninstall``
restores the originals.  A span records name, start, end, parent span and
the trace id of the job it belongs to; spans stay in memory and are
written once, by ``write``.  Self time is a span's duration minus the
time covered by its children, so the self times of all spans of a job,
including the job's own root span, add up to the job's wall time.  The
``exactnum`` helpers get call counters only.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

ROOT_SPAN = "bench.job"
ARITH = "stepfn.arith"
COMBINE = "construct.combine"

# (module, function) -> span name
SPANNED = {
    ("cli", "main"): "cli.main",
    ("info", "tail_set"): "info.tail_set",
    ("info", "info_fn"): "info.info_fn",
    ("info", "cantor_info_fn"): "info.cantor_info_fn",
    ("stepfn", "cond_norm"): "stepfn.cond_norm",
    ("stepfn", "pointwise"): ARITH,
    ("stepfn", "clip_min"): ARITH,
    ("stepfn", "pos_part"): ARITH,
    ("vcalc", "v_functional"): "vcalc.v_functional",
    ("vcalc", "v_step"): "vcalc.v_step",
    ("vcalc", "select_blocks"): "vcalc.select_blocks",
    ("criteria", "full_report"): "criteria.full_report",
    ("criteria", "theorem_conditions"): "criteria.theorem_conditions",
    ("criteria", "sandwich_check"): "criteria.sandwich_check",
    ("criteria", "gamma_condition"): "criteria.gamma_condition",
    ("sets", "continuity_verdict"): "sets.continuity_verdict",
    ("sets", "generate"): "sets.generate",
    ("sets", "rho_sums"): "sets.rho_sums",
    ("sets", "is_triadic_set"): "sets.is_triadic_set",
    ("ortho", "gram_check"): "ortho.gram_check",
    ("ortho", "maximal_function"): "ortho.maximal_function",
    ("construct", "build_divergent"): "construct.build_divergent",
    ("construct", "phi_family"): "construct.phi_family",
    ("construct", "merge"): COMBINE,
    ("construct", "nest"): COMBINE,
    ("construct", "split_increment"): "construct.split_increment",
}

# public StepFunction arithmetic, all under one span name
ARITH_METHODS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__neg__", "map_values", "minimum", "maximum",
                 "abs", "restrict", "indicator_ge")

# (module, function) -> counter name; counted, not spanned
COUNTED = {
    ("exactnum", "_compare"): "exactnum.compare",
    ("exactnum", "exact_sqrt"): "exactnum.sqrt",
}

MODULES = ("cli", "info", "exactnum", "stepfn", "vcalc", "criteria", "sets",
           "ortho", "construct")


def _witness_name(cert):
    """Merge and nest witnesses count as combination work."""
    return COMBINE if cert.kind.startswith(("merge", "nest")) else "construct.witness"


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        # one entry per finished span
        self.trace_ids = array("q")
        self.span_ids = array("q")
        self.parent_ids = array("q")
        self.name_ids = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)  # inclusive of child spans
        self.counts = Counter()
        self.errors = Counter()
        self._stack = []  # [span id, start, time covered by children]
        self._next_span = 0
        self._trace_id = -1
        self._patches = []

    # -- spans ---------------------------------------------------------

    def _name_id(self, name):
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _open(self):
        self._next_span += 1
        frame = [self._next_span, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame, name):
        end = time.perf_counter()
        self._stack.pop()
        span_id, start, covered = frame
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - covered
        self.total_s[name] += duration
        parent = 0
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][0]
        self.trace_ids.append(self._trace_id)
        self.span_ids.append(span_id)
        self.parent_ids.append(parent)
        self.name_ids.append(self._name_id(name))
        self.starts.append(start)
        self.ends.append(end)

    @contextmanager
    def job(self, trace_id):
        """Root span of one job; every span inside it shares trace_id."""
        self._trace_id = trace_id
        frame = self._open()
        try:
            yield
        finally:
            self._close(frame, ROOT_SPAN)

    def _spanned(self, module, fn, name):
        tracer = self
        cond_norm = name == "stepfn.cond_norm"

        def wrapper(*args, **kwargs):
            span = name(args[0]) if callable(name) else name
            if cond_norm:
                tracer.counts["stepfn.cond_norm.pieces_in"] += len(args[0].values)
            frame = tracer._open()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.errors[module] += 1
                raise
            finally:
                tracer._close(frame, span)

        return wrapper

    def _counted(self, module, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.errors[module] += 1
                raise

        return wrapper

    # -- patching ------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        import orthoconv
        mods = {m: sys.modules["orthoconv." + m] for m in MODULES}
        wrappers = {}  # id(original) -> (original, wrapper)
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for (mod, attr), name in table.items():
                fn = getattr(mods[mod], attr)
                wrappers[id(fn)] = (fn, make(mod, fn, name))
        for m in (orthoconv, *mods.values()):
            for attr, val in list(vars(m).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patch(m, attr, hit[1])
        step_cls = mods["stepfn"].StepFunction
        for attr in ARITH_METHODS:
            self._patch(step_cls, attr,
                        self._spanned("stepfn", step_cls.__dict__[attr], ARITH))
        cert_cls = mods["construct"].ComplexityCert
        self._patch(cert_cls, "witness",
                    self._spanned("construct", cert_cls.witness, _witness_name))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.span_ids)):
                fh.write(json.dumps({
                    "trace": self.trace_ids[i], "span": self.span_ids[i],
                    "parent": self.parent_ids[i],
                    "name": self.names[self.name_ids[i]],
                    "start": self.starts[i], "end": self.ends[i]}) + "\n")
