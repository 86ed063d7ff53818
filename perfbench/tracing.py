"""Spans and counters recorded from outside the library.

The tracer replaces a function in every loaded ``dcroadmap`` module that
holds it, so a call is seen however the caller looked the function up
(``dcroadmap.curves.curve_segments`` and ``dcroadmap.roadmap.curve_segments``
are the same object).  Spans stay in memory until the run ends; self time is
computed from them afterwards.  ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

# (module, function) pairs timed with a span, one span per call.
SPANS = (
    ("realroots", "tarski_query"),
    ("realroots", "thom_encodings"),
    ("realroots", "compare_roots"),
    ("points", "sample_components"),
    ("points", "limit_point"),
    ("points", "dedupe_points"),
    ("curves", "curve_segments"),
    ("curves", "limit_curve"),
    ("solve", "solve_system"),
    ("solve", "split_branches"),
    ("mpoly", "resultant"),
    ("fastres", "sylvester_resultant_interp"),
    ("fastres", "subresultant1_interp"),
    ("roadmap", "assemble_graph"),
    ("roadmap", "connectivity"),
)

# (module, function, counter) call counts without a span: these run too
# often for a span each, or only their number matters.
COUNTED_FUNCTIONS = (
    ("points", "coordinate_encoding_cached", "points.coordinate_encoding.calls"),
    ("points", "rur_coordinate_encoding", "points.coordinate_encoding.misses"),
)

# (module, class, methods, counter).  The level solver is where a sign query
# that missed the context's sign cache ends up.
COUNTED_METHODS = (
    ("realroots", "TriangularContext", ("sign_mpoly",), "realroots.sign_mpoly.calls"),
    ("realroots", "_LevelSolver", ("query",), "realroots.level_solver.calls"),
    ("infring", "InfElem", ("__mul__", "__rmul__"), "infring.mul.calls"),
)

PACKAGE = "dcroadmap"


class Tracer:
    """In-memory spans ``[name, start, end, parent, request]`` plus
    counters.  ``parent`` is the index of the enclosing span or -1."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.request = None
        self._stack = []
        self._undo = []

    # -- recording

    def _open(self, name):
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1, self.request])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def timed(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()
        return wrapper

    def segments_counted(self, fn):
        """curve_segments, adding the segments of each curve piece it
        returns to the "curves.segments" counter."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            piece = fn(*args, **kwargs)
            self.counts["curves.segments"] += len(piece.segments)
            return piece
        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def run_request(self, request_id, fn, *args):
        """Call fn(*args) inside a top-level "request" span."""
        self.request = request_id
        self._open("request")
        try:
            return fn(*args)
        finally:
            self._close()
            self.request = None

    # -- patching

    def _replace_everywhere(self, original, wrapper):
        for name, module in list(sys.modules.items()):
            if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def install(self):
        for mod, fn_name in SPANS:
            module = importlib.import_module(f"{PACKAGE}.{mod}")
            original = getattr(module, fn_name)
            inner = self.segments_counted(original) if fn_name == "curve_segments" else original
            self._replace_everywhere(original, self.timed(f"{mod}.{fn_name}", inner))
        for mod, fn_name, counter in COUNTED_FUNCTIONS:
            module = importlib.import_module(f"{PACKAGE}.{mod}")
            original = getattr(module, fn_name)
            self._replace_everywhere(original, self.counted(counter, original))
        for mod, cls_name, methods, counter in COUNTED_METHODS:
            cls = getattr(importlib.import_module(f"{PACKAGE}.{mod}"), cls_name)
            for meth in methods:
                original = cls.__dict__[meth]
                setattr(cls, meth, self.counted(counter, original))
                self._undo.append((cls, meth, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- analysis

    def summary(self):
        """{span name: (calls, self seconds)}.  Self time is a span's
        duration minus the time its child spans cover; on one thread the
        children of a span never overlap, so that is their summed length."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _req in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, _parent, _req) in enumerate(self.spans):
            calls, self_s = out.get(name, (0, 0.0))
            out[name] = (calls + 1, self_s + (end - start) - child_time[i])
        return out

    def write(self, path, header):
        """One JSON line for the header, then one per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
