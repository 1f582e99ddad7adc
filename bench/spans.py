"""In-memory span recorder for the traced run.

The recorder wraps the library's public functions from the outside: each
function is replaced at every module that binds it by name (``driver``
binds ``factor_seven_by_n``, ``polygon`` and ``estimator`` bind
``nn_factor``, and so on), and ``Matrix.__matmul__``, ``Matrix.__eq__`` and
``ExactNMF.fit_transform`` are replaced on their classes.  ``restore()``
puts every original back, so the same process can also time the library
unpatched.

A span is ``(name, start, end, parent, instance)``; ``parent`` is the
index of the enclosing span or -1.  A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (span name, module, attribute); "Class.method" attributes are patched on
# the class, plain names at every exactnmf module that binds the function.
TARGETS = (
    ("linalg.matmul", "linalg", "Matrix.__matmul__"),
    ("linalg.eq", "linalg", "Matrix.__eq__"),
    ("linalg.rank", "linalg", "rank"),
    ("linalg.solve", "linalg", "solve"),
    ("driver.nn_factor", "driver", "nn_factor"),
    ("driver.verify_factorization", "driver", "verify_factorization"),
    ("section.section_polygon", "section", "section_polygon"),
    ("section.convex_coefficients", "section", "convex_coefficients"),
    ("section.factor_seven_by_n", "section", "factor_seven_by_n"),
    ("section.factor_low_rank", "section", "factor_low_rank"),
    ("cyclic.factor_cyclic", "cyclic", "factor_cyclic"),
    ("cyclic.scale_to_canonical", "cyclic", "scale_to_canonical"),
    ("cyclic.detect_cyclic_labeling", "cyclic", "detect_cyclic_labeling"),
    ("canonical.factor_canonical", "canonical", "factor_canonical"),
    ("canonical.direct_factor", "canonical", "direct_factor"),
    ("canonical.step", "canonical", "step"),
    ("canonical.is_admissible", "canonical", "is_admissible"),
    ("polygon.polygon_from_points", "polygon", "polygon_from_points"),
    ("polygon.slack_matrix", "polygon", "slack_matrix"),
    ("polygon.build_extension", "polygon", "build_extension"),
    ("polygon.verify_extension", "polygon", "verify_extension"),
    ("estimator.fit_transform", "estimator", "ExactNMF.fit_transform"),
    ("validation.as_matrix", "validation", "as_matrix"),
)

# Spans whose return values are kept for inspection after the run.
KEEP_OUTPUT = {
    "driver.nn_factor",
    "section.factor_seven_by_n",
    "section.factor_low_rank",
    "cyclic.factor_cyclic",
    "canonical.factor_canonical",
}


class Tracer:
    """Records spans while installed; holds them until ``write``."""

    def __init__(self, lib):
        self.lib = lib
        self.spans = []
        self.outputs = defaultdict(list)
        self.instance = -1
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack, outputs = self.spans, self._stack, self.outputs
        keep = name in KEEP_OUTPUT
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.instance)
            if keep:
                outputs[name].append(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @contextmanager
    def span(self, name):
        """A span around the benchmark's own call into the library."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.instance)

    def install(self):
        """Wrap every target at every binding site."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "exactnmf" or n.startswith("exactnmf."))]
        for name, module_name, attr in TARGETS:
            module = getattr(self.lib, module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, original))
                self._undo.append((cls, meth, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))

    def restore(self):
        """Put every original function back."""
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def write(self, path):
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def summarize(spans):
    """Per span name: {calls, s (inclusive), self_s}."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for i, (name, start, end, _, _) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += end - start - child[i]
    return out


def count_within(spans, name, ancestor):
    """Number of ``name`` spans that have an ``ancestor`` span above them."""
    total = 0
    for span in spans:
        if span[0] != name:
            continue
        parent = span[3]
        while parent >= 0:
            if spans[parent][0] == ancestor:
                total += 1
                break
            parent = spans[parent][3]
    return total
