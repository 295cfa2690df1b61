"""Span tracing of ``tautfol``'s public functions, installed from outside.

The package binds names with ``from .x import y``, so a function is looked up
in the namespace of the module that calls it, not only where it is defined.
``Tracer.install`` therefore replaces every reference to a traced function in
every ``tautfol`` module namespace with one shared wrapper.

Spans are kept in memory as ``[name, start, end, parent]`` lists (``parent``
is an index into ``Tracer.spans``, or -1) and summarised when a pass ends.
Observers read counts from arguments and return values into
``Tracer.counters``.
"""

from __future__ import annotations

import functools
import sys
import time

# Layer-qualified span name -> (defining module, attribute).
TRACED = {
    "cli.main": ("tautfol.cli", "main"),
    "graph.load_manifold": ("tautfol.graph", "load_manifold"),
    "graph.validate": ("tautfol.graph", "validate"),
    "graph.presentation": ("tautfol.graph", "presentation"),
    "graph.homology": ("tautfol.graph", "homology"),
    "graph.rational_longitude": ("tautfol.graph", "rational_longitude"),
    "graph.split_at_edge": ("tautfol.graph", "split_at_edge"),
    "snf.smith_normal_form": ("tautfol.snf", "smith_normal_form"),
    "seifert.detect_relative": ("tautfol.seifert", "detect_relative"),
    "seifert.jn_refine_low": ("tautfol.seifert", "jn_refine_low"),
    "seifert.jn_refine_high": ("tautfol.seifert", "jn_refine_high"),
    "seifert.default_n_bound": ("tautfol.seifert", "default_n_bound"),
    "decide.detect_tree": ("tautfol.decide", "detect_tree"),
    "decide.extract_witness": ("tautfol.decide", "extract_witness"),
    "decide.classify_piece": ("tautfol.decide", "classify_piece"),
    "decide.check_degenerate": ("tautfol.decide", "check_degenerate"),
    "decide.iter_piece_evaluations": ("tautfol.decide", "iter_piece_evaluations"),
    "decide.decide_ctf": ("tautfol.decide", "decide_ctf"),
    "slopes.simplest_slope": ("tautfol.slopes", "simplest_slope"),
    "slopes.act_arc": ("tautfol.slopes", "act_arc"),
    "slopes.arc_intersect": ("tautfol.slopes", "arc_intersect"),
    "oracle.grid_union": ("tautfol.oracle", "grid_union"),
    "oracle.jn_exhaustive_extremal": ("tautfol.oracle", "jn_exhaustive_extremal"),
}


def _raise_max(counters, key, value):
    counters[key] = max(counters.get(key, 0), value)


def _observe_snf(counters, args, result):
    _raise_max(counters, "snf.max_rows", len(args[0]))
    _d, u, _v = result
    _raise_max(counters, "snf.u_max_bits",
               max((abs(x).bit_length() for row in u for x in row), default=0))


def _observe_n_bound(counters, args, result):
    _raise_max(counters, "seifert.n_bound_max", result)


def _observe_certificate(counters, cert):
    if cert is not None:
        _raise_max(counters, "seifert.cert_n_max", cert.n_value)


def _observe_refine(counters, args, result):
    if result is not None:
        _observe_certificate(counters, result[1])


def _observe_kernel(counters, args, result):
    key = "seifert.horizontal_results"
    counters[key] = counters.get(key, 0) + (result.branch == "horizontal-interval")
    _observe_certificate(counters, result.low_certificate)
    _observe_certificate(counters, result.high_certificate)


OBSERVERS = {
    "snf.smith_normal_form": _observe_snf,
    "seifert.default_n_bound": _observe_n_bound,
    "seifert.jn_refine_low": _observe_refine,
    "seifert.jn_refine_high": _observe_refine,
    "seifert.detect_relative": _observe_kernel,
}


class Tracer:
    """Records spans while ``active``; wrappers pass straight through
    otherwise, so checks run between traced calls stay out of the trace."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.active = False
        self._stack = []
        self._patches = []

    def reset(self):
        self.spans = []
        self.counters = {}

    def _open(self, name):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if observe is not None:
                observe(tracer.counters, args, result)
            return result

        return traced

    def install(self):
        """Wrap every function in ``TRACED`` wherever ``tautfol`` binds it."""
        wrappers = {}
        for name, (module, attr) in TRACED.items():
            fn = getattr(sys.modules[module], attr)
            wrappers[id(fn)] = (fn, self.wrap(fn, name, OBSERVERS.get(name)))
        for modname, module in list(sys.modules.items()):
            if modname != "tautfol" and not modname.startswith("tautfol."):
                continue
            for key, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, key, value))
                    setattr(module, key, hit[1])

    def uninstall(self):
        for module, key, value in reversed(self._patches):
            setattr(module, key, value)
        self._patches = []


def self_times(spans):
    """{name: (calls, self seconds)}: each span's duration minus the
    durations of its direct children."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for i, (name, start, end, _parent) in enumerate(spans):
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + (end - start) - child_time[i])
    return out
