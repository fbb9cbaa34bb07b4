"""Span tracer for the benchmark's traced run.

While ``Tracer.active()`` is entered, the public functions and methods
listed in ``TARGETS`` are replaced by wrappers that record a span per call.
Replacement is by module and class attribute, so a call made from inside
the library (``assemble_system`` inside ``fit_patch``) is recorded as a
child of its caller.  On exit every attribute is restored and the library
runs unmodified.  Spans stay in memory until the run writes them out.

Calls made on a worker thread of a thread pool get, as parent, the span
that is innermost on the main thread, which is the one that started the
pool and waits for it.
"""

import functools
import itertools
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np


class Span:
    """One timed call: ``counts`` holds work counters recorded at the call."""

    __slots__ = ("id", "parent", "name", "op", "start", "end", "counts")

    def __init__(self, span_id, parent, name, op, start):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.op = op
        self.start = start
        self.end = None
        self.counts = {}

    @property
    def duration(self):
        return self.end - self.start

    def as_dict(self):
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "op": self.op, "start": self.start, "end": self.end,
                "counts": self.counts}


def _radii(args, result):
    return {"radii": int(np.size(args[1]))}


def _dropped(args, result):
    return {"points": int(len(result)), "dropped": int((~result).sum())}


def _point_pairs(args, result):
    fit, points = args[0], np.atleast_2d(args[1])
    return {"points": len(points), "pair_evals": len(points) * len(fit.nodes)}


def _edges(args, result):
    return {"edges": len(result.edges)}


def _batch(args, result):
    approx, points = args[0], np.atleast_2d(args[1])
    return {"points": len(points), "patches": len(approx.cover)}


# (module, attribute, span name, counter).  The attribute is a module-level
# function, or ``Class.method`` for a method.
TARGETS = (
    ("vecpum.cover", "assign_radii_and_inflate",
     "cover.assign_radii_and_inflate", None),
    ("vecpum.cover", "Cover.covers", "cover.covers", _dropped),
    ("vecpum.geometry", "Surface.tangent_frames", "geometry.tangent_frames",
     None),
    ("vecpum.kernels", "RadialKernel.hessian_coeffs",
     "kernels.hessian_coeffs", _radii),
    ("vecpum.kernels", "RadialKernel.phi_d1_over_r", "kernels.phi_d1_over_r",
     _radii),
    ("vecpum.localfit", "fit_patch", "localfit.fit_patch", None),
    ("vecpum.localfit", "assemble_system", "localfit.assemble_system", None),
    ("vecpum.localfit", "LocalFit.field_at", "localfit.field_at", None),
    ("vecpum.localfit", "LocalFit.potential_at", "localfit.potential_at",
     None),
    ("vecpum.localfit", "LocalFit.field_potential_at",
     "localfit.field_potential_at", _point_pairs),
    ("vecpum.glue", "build_glue_graph", "glue.build_glue_graph", _edges),
    ("vecpum.glue", "build_shift_system", "glue.build_shift_system", None),
    ("vecpum.glue", "solve_shifts", "glue.solve_shifts", None),
    ("vecpum.pum", "build_approximant", "pum.build_approximant", None),
    ("vecpum.pum", "PumApproximant.batch_eval_all", "pum.batch_eval_all",
     _batch),
    ("vecpum.pum", "PumApproximant._accumulate", "pum.accumulate", None),
)


class Tracer:
    """Collects spans; ``op`` labels the operation new spans belong to."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._ids = itertools.count(1)
        self._main = threading.get_ident()
        self._main_stack = []
        self._local = threading.local()
        self._saved = []

    def _stack(self):
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        elif self._main_stack:
            parent = self._main_stack[-1].id
        else:
            parent = None
        span = Span(next(self._ids), parent, name, self.op,
                    time.perf_counter())
        stack.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def _wrap(self, fn, name, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if count is not None:
                span.counts.update(count(args, result))
            return result

        return traced

    def _install(self):
        for module_name, attr, name, count in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = vars(cls)[meth]
                self._saved.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, name, count))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, name, count)
            # Patch every vecpum module that imported the function by name,
            # so calls through ``from .x import f`` are traced too.
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name.split(".")[0] == "vecpum"
                        and getattr(mod, attr, None) is original):
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def _uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def active(self, op):
        """Trace library calls made inside the block, labelled with ``op``."""
        self.op = op
        self._install()
        try:
            yield self
        finally:
            self._uninstall()
            self.op = None


# ---------------------------------------------------------------------------
# reading a trace

def union_length(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


class Trace:
    """Index over recorded spans: children, descendants and self time."""

    def __init__(self, spans):
        self.spans = list(spans)
        self.children = {}
        for span in self.spans:
            self.children.setdefault(span.parent, []).append(span)
        self.by_id = {span.id: span for span in self.spans}

    def named(self, name):
        return [s for s in self.spans if s.name == name]

    def descendants(self, root):
        out = []
        todo = list(self.children.get(root.id, ()))
        while todo:
            span = todo.pop()
            out.append(span)
            todo.extend(self.children.get(span.id, ()))
        return out

    def self_time(self, span):
        kids = self.children.get(span.id, ())
        return span.duration - union_length(
            [(k.start, k.end) for k in kids], span.start, span.end)

    def parent_name(self, span):
        parent = self.by_id.get(span.parent)
        return parent.name if parent is not None else None
