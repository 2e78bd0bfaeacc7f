"""Spans around calls into the indephorn modules, installed from outside.

The tracer replaces each traced function at every module or class attribute
bound to it (``cycletools.solve_nahm`` is the same object as
``nahm.solve_nahm``; ``TruncatedSeries.__rmul__`` is ``__mul__``), records a
span per call while a job is open, and puts every original back on
``restore``.  Spans stay in memory as ``[name, start, end, parent, job]``.
"""

from __future__ import annotations

import functools
import inspect
import time

# Per-coefficient helpers: a span per call would cost more than the call, so
# their time stays in the caller's self time.
HOT_HELPERS = frozenset(
    {
        "series.binomial",
        "nahm.column_form",
        "poly.rat_to_str",
        "poly.grlex_key",
        "graph.Graph.has_edge",
        "graph.Graph.neighbors",
    }
)
OPERATORS = frozenset(
    {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
     "__pow__", "__neg__", "__eq__"}
)
# outputs of these ops feed the series.* size counters
SERIES_OPS = frozenset(
    {
        "series.TruncatedSeries.__mul__",
        "series.TruncatedSeries.__pow__",
        "series.TruncatedSeries.invert",
        "series.TruncatedSeries.pow_rational",
    }
)

NAME, START, END, PARENT, JOB = range(5)


def traced_functions(modules):
    """{function: span name} for the public functions and operators that
    `modules` (short name -> module) define, hot helpers excluded."""
    out = {}
    for short, mod in modules.items():
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                name = f"{short}.{attr}"
                if not attr.startswith("_") and name not in HOT_HELPERS:
                    out.setdefault(obj, name)
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for meth, fn in vars(obj).items():
                    public = not meth.startswith("_") or meth in OPERATORS
                    name = f"{short}.{obj.__name__}.{meth}"
                    if inspect.isfunction(fn) and public and name not in HOT_HELPERS:
                        # an alias such as __rmul__ keeps the first name
                        out.setdefault(fn, name)
    return out


def bindings(modules, functions):
    """Every (owner, attribute) whose value is one of `functions`: module
    globals and class attributes across all `modules`."""
    out = []
    for mod in modules.values():
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj in functions:
                out.append((mod, attr))
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for meth, fn in vars(obj).items():
                    if inspect.isfunction(fn) and fn in functions:
                        out.append((obj, meth))
    return out


class Tracer:
    """Records spans for the open job; passes calls through otherwise."""

    def __init__(self):
        self.spans = []
        self.series = {"cells": 0, "nonzeros": 0, "ints": 0, "max_bits": 0}
        self._stack = []
        self._job = None
        self._saved = []

    # -- installation -----------------------------------------------------

    def install(self, modules):
        names = traced_functions(modules)
        wrappers = {fn: self._wrap(fn, name) for fn, name in names.items()}
        for owner, attr in bindings(modules, names):
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrappers[original])

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._job is None:
                return fn(*args, **kwargs)
            idx = tracer._begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._end(idx)
            if name in SERIES_OPS:
                tracer._series_stats(out)
            return out

        return wrapper

    # -- spans --------------------------------------------------------------

    def _begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._job])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _end(self, idx):
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def begin_job(self, job_id):
        """Open the root span of a job; library calls are recorded under it."""
        self._job = job_id
        return self._begin("bench.job")

    def end_job(self, idx):
        self._end(idx)
        self._job = None

    def _series_stats(self, ts):
        idx = self._begin("bench.stats")
        s = self.series
        s["cells"] += (ts.order + 1) ** ts.nvars
        s["nonzeros"] += len(ts.coeffs)
        for c in ts.coeffs.values():
            if c.denominator == 1:
                s["ints"] += 1
            bits = max(c.numerator.bit_length(), c.denominator.bit_length())
            if bits > s["max_bits"]:
                s["max_bits"] = bits
        self._end(idx)


def self_times(spans):
    """Per-span duration minus the time its direct children cover."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def job_sums(spans, selfs):
    """{job: (root duration, sum of self times of all its spans)}."""
    out = {}
    for s, own in zip(spans, selfs):
        root, total = out.get(s[JOB], (0.0, 0.0))
        if s[PARENT] < 0:
            root += s[END] - s[START]
        out[s[JOB]] = (root, total + own)
    return out


def under(spans, ancestor):
    """For each span, whether some ancestor is named `ancestor`."""
    out = []
    for s in spans:
        p = s[PARENT]
        out.append(p >= 0 and (spans[p][NAME] == ancestor or out[p]))
    return out
