"""Spans around livsic's public functions, installed from outside the package.

``Tracer.install`` replaces every public function of every livsic module,
under each name a livsic module holds it by (``livsic.circuit.rat_add`` is
``livsic.ratfun.rat_add``), with a wrapper that records a span: name,
start, end, parent span and operation id.  ``LSystem.__init__`` is wrapped
in place, and ``colligation``'s view of ``numpy.linalg.svd`` and ``solve``
is wrapped through a proxy module so that only the calls made from the
evaluators are timed.  Spans stay in memory until ``write``.

``layer_metrics`` turns the spans into the per-layer metrics.  Counts come
from the first pass over the window of operations and repeat exactly for a
seed; times are averaged over all passes.  Computed counts
(``flops_computed``, ``mb_computed``) are model numbers from matrix sizes,
not measurements.
"""

from __future__ import annotations

import inspect
import sys
import time
import types
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import livsic
from livsic import colligation

from workloads import SUBCOMMANDS, entropy_ref, impedance_ref, off, transfer_ref, upper_triangular_diag

MODULES = ("ratfun", "colligation", "elementary", "coupling", "analysis", "circuit", "verify", "cli")
EVALUATORS = ("colligation.transfer_eval", "colligation.impedance_eval")
BINS = tuple(1 << j for j in range(9))  # octave bins n1 .. n256

#: metric group -> span names it sums
GROUPS = {
    "elementary.make": ("elementary.make_elementary", "elementary.make_skew_adjoint"),
    "elementary.closed": ("elementary.transfer_closed", "elementary.impedance_closed",
                          "elementary.skew_transfer_closed", "elementary.skew_impedance_closed"),
    "ratfun.partial_fractions": ("ratfun.partial_fractions_real_poles",),
    "ratfun.cayley": ("ratfun.cayley_w_to_v", "ratfun.cayley_v_to_w"),
    "circuit.netlist": ("circuit.synthesize", "circuit.emit_netlist", "circuit.netlist_to_foster"),
}

#: (metric name, unit), in the order they are printed
PER_LAYER = [
    ("colligation.LSystem.us_per_call", "us"),
    ("colligation.validate.self_ms", "ms"),
    ("colligation.transfer_eval.calls", "count"),
    ("colligation.transfer_eval.self_ms", "ms"),
    ("colligation.transfer_eval.errors", "count"),
    ("colligation.impedance_eval.calls", "count"),
    ("colligation.impedance_eval.self_ms", "ms"),
    ("colligation.impedance_eval.errors", "count"),
    ("colligation.svd.self_ms", "ms"),
    ("colligation.solve.self_ms", "ms"),
    ("colligation.guard_share", "frac"),
    ("colligation.useful_frac", "frac"),
    *[(f"colligation.eval_us.n{n}", "us") for n in BINS],
    ("colligation.flops_computed", "flop"),
    ("coupling.couple.calls", "count"),
    ("coupling.couple.self_ms", "ms"),
    ("coupling.couple.mb_computed", "MB"),
    ("elementary.make.us_per_call", "us"),
    ("elementary.closed.us_per_call", "us"),
    ("analysis.c_entropy.self_ms", "ms"),
    ("analysis.c_entropy.wrong", "count"),
    ("analysis.classify_at_i.us_per_call", "us"),
    ("analysis.classify_at_i.errors", "count"),
    ("ratfun.rat_eval.us_per_call", "us"),
    ("ratfun.rat_eval.errors", "count"),
    ("ratfun.rat_add.calls", "count"),
    ("ratfun.rat_add.self_ms", "ms"),
    ("ratfun.partial_fractions.self_ms", "ms"),
    ("ratfun.partial_fractions.errors", "count"),
    ("ratfun.cayley.self_ms", "ms"),
    ("circuit.foster_to_herglotz.self_ms", "ms"),
    ("circuit.positive_real_z.self_ms", "ms"),
    ("circuit.netlist.self_ms", "ms"),
    ("circuit.roundtrip_err_max", "rel"),
    ("verify.run_verification.self_ms", "ms"),
    ("verify.checks_failed", "count"),
    ("cli.interp_ms", "ms"),
    ("cli.import_ms", "ms"),
    *[(f"cli.{sub}.wall_ms", "ms") for sub in SUBCOMMANDS],
    *[(f"cli.{sub}.work_ms", "ms") for sub in SUBCOMMANDS],
    ("trace.overhead_frac", "frac"),
]


def _evaluator_info(args, result):
    sys_, z = args[0], complex(args[1])
    return sys_.dim, upper_triangular_diag(sys_.T), z, result


#: span name -> what to keep of (args, result) beyond the timing
INFO = {
    "colligation.transfer_eval": _evaluator_info,
    "colligation.impedance_eval": _evaluator_info,
    "colligation.svd": lambda args, result: args[0].shape[0],
    "colligation.solve": lambda args, result: args[0].shape[0],
    "coupling.couple": lambda args, result: args[0].dim + args[1].dim,
    "analysis.c_entropy": lambda args, result: (upper_triangular_diag(args[0].T), result),
    "verify.run_verification": lambda args, result: sum(not r.passed for r in result or ()),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "error", "info")

    def __init__(self, name, start, parent, op):
        self.name, self.start, self.parent, self.op = name, start, parent, op
        self.end, self.error, self.info = start, False, None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, info = self.spans, self._stack, INFO.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, 0.0, stack[-1] if stack else -1, self._op)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.end = clock()
                span.error = True
                if info is not None:
                    span.info = info(args, None)
                raise
            else:
                span.end = clock()
                if info is not None:
                    span.info = info(args, result)
                return result
            finally:
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def op(self, op_id: int):
        """Root span of one operation; spans it causes carry ``op_id``."""
        self._op = op_id
        span = Span("op", time.perf_counter(), -1, op_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [livsic] + [sys.modules[f"livsic.{m}"] for m in MODULES]
        wrapped = {}
        for short in MODULES:
            mod = sys.modules[f"livsic.{short}"]
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    wrapped[fn] = self.wrap(f"{short}.{attr}", fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._set(mod, attr, wrapped[value])
        self._set(colligation.LSystem, "__init__",
                  self.wrap("colligation.LSystem", colligation.LSystem.__init__))
        linalg = types.SimpleNamespace(**{k: getattr(np.linalg, k) for k in dir(np.linalg)
                                          if not k.startswith("__")})
        linalg.svd = self.wrap("colligation.svd", np.linalg.svd)
        linalg.solve = self.wrap("colligation.solve", np.linalg.solve)
        proxy = types.ModuleType("numpy")
        proxy.__dict__.update({k: v for k, v in vars(np).items() if k != "linalg"}, linalg=linalg)
        self._set(colligation, "np", proxy)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path) -> None:
        """Spans as tab-separated lines: index, name, start, end, parent, op, error."""
        with open(path, "w") as fh:
            fh.write("index\tname\tstart\tend\tparent\top\terror\n")
            for k, s in enumerate(self.spans):
                fh.write(f"{k}\t{s.name}\t{s.start!r}\t{s.end!r}\t{s.parent}\t{s.op}\t{int(s.error)}\n")


def layer_metrics(tracer: Tracer, window: int, passes: int) -> dict[str, float]:
    """Per-layer metrics from the traced passes over ``window`` operations.

    ``calls``, ``errors``, ``wrong``, ``checks_failed`` and the computed
    counts use the first pass only; ``self_ms`` is per pass, averaged;
    ``us_per_call`` and the n-bins are inclusive time per call.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    first = [s.op < window for s in spans]
    groups = defaultdict(list)
    for k, s in enumerate(spans):
        groups[s.name].append(k)
    for group, names in GROUPS.items():
        groups[group] = [k for n in names for k in groups.get(n, [])]

    def calls(g):
        return sum(first[k] for k in groups[g])

    def errors(g):
        return sum(first[k] and spans[k].error for k in groups[g])

    def self_ms(g):
        return 1e3 * sum(spans[k].end - spans[k].start - child[k] for k in groups[g]) / passes

    def us_per_call(g):
        ks = groups[g]
        return 1e6 * sum(spans[k].end - spans[k].start for k in ks) / len(ks) if ks else 0.0

    m = {}
    for g in ("colligation.validate", "colligation.transfer_eval", "colligation.impedance_eval",
              "colligation.svd", "colligation.solve", "coupling.couple", "analysis.c_entropy",
              "ratfun.rat_add", "ratfun.partial_fractions", "ratfun.cayley",
              "circuit.foster_to_herglotz", "circuit.positive_real_z", "circuit.netlist",
              "verify.run_verification"):
        m[f"{g}.self_ms"] = self_ms(g)
    for g in ("colligation.LSystem", "elementary.make", "elementary.closed",
              "analysis.classify_at_i", "ratfun.rat_eval"):
        m[f"{g}.us_per_call"] = us_per_call(g)
    for g in ("colligation.transfer_eval", "colligation.impedance_eval", "coupling.couple",
              "ratfun.rat_add"):
        m[f"{g}.calls"] = calls(g)
    for g in ("colligation.transfer_eval", "colligation.impedance_eval", "analysis.classify_at_i",
              "ratfun.rat_eval", "ratfun.partial_fractions"):
        m[f"{g}.errors"] = errors(g)

    evals = [k for g in EVALUATORS for k in groups[g]]
    eval_s = sum(spans[k].end - spans[k].start for k in evals)
    svd_s = sum(spans[k].end - spans[k].start - child[k] for k in groups["colligation.svd"])
    m["colligation.guard_share"] = svd_s / eval_s if eval_s else 0.0
    checked = useful = 0
    by_bin = defaultdict(list)
    for k in evals:
        s = spans[k]
        by_bin[1 << min(s.info[0].bit_length() - 1, len(BINS) - 1)].append(s.end - s.start)
        if not first[k] or s.info[1] is None:
            continue
        checked += 1
        if not s.error:
            _, diag, z, value = s.info
            ref = transfer_ref if s.name == EVALUATORS[0] else impedance_ref
            useful += not off(value, ref(diag, z))
    m["colligation.useful_frac"] = useful / checked if checked else 0.0
    for n in BINS:
        times = by_bin.get(n, [])
        m[f"colligation.eval_us.n{n}"] = 1e6 * sum(times) / len(times) if times else 0.0
    flops = 0
    for k in groups["colligation.svd"] + groups["colligation.solve"]:
        if first[k]:
            n = spans[k].info
            flops += (32 * n ** 3) // 3 if spans[k].name == "colligation.svd" else (8 * n ** 3) // 3 + 8 * n * n
    m["colligation.flops_computed"] = flops
    m["coupling.couple.mb_computed"] = sum(
        16 * spans[k].info ** 2 for k in groups["coupling.couple"] if first[k]) / 1e6
    wrong = 0
    for k in groups["analysis.c_entropy"]:
        s = spans[k]
        if first[k] and not s.error and s.info[0] is not None:
            wrong += off(s.info[1], entropy_ref(s.info[0]))
    m["analysis.c_entropy.wrong"] = wrong
    m["verify.checks_failed"] = sum(spans[k].info for k in groups["verify.run_verification"] if first[k])
    return m
