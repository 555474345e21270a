"""Span tracer that wraps module attributes from outside the program.

ssmono's modules call each other through attribute lookups made at call time
(`sampler.perturb_within`, `_kernels.pair_term`, globals inside `_kernels`), so
replacing those attributes with timing wrappers records a span at every layer
boundary without touching the package. Spans (name, start, end, parent) go into
flat arrays in memory and are written out once, at the end of the run.
"""
from __future__ import annotations

import contextlib
import time
from array import array
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counts: dict[str, float] = defaultdict(float)
        self._targets = []  # (module, attribute, name or namer, on_exit)
        self._saved = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. one per round."""
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def target(self, module, attribute: str, name, on_exit=None) -> None:
        """Register module.attribute for wrapping.

        `name` is the span name, or a callable (args, kwargs) -> span name.
        `on_exit(counts, args, kwargs, result)` records counts at the boundary;
        it runs after the span closes, so its cost lands on the caller.
        """
        self._targets.append((module, attribute, name, on_exit))

    def install(self) -> None:
        for module, attribute, name, on_exit in self._targets:
            original = getattr(module, attribute)
            self._saved.append((module, attribute, original))
            setattr(module, attribute, self._wrap(original, name, on_exit))

    def uninstall(self) -> None:
        while self._saved:
            module, attribute, original = self._saved.pop()
            setattr(module, attribute, original)

    def _wrap(self, fn, name, on_exit):
        fixed = None if callable(name) else self._id(name)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(fixed if fixed is not None else tracer._id(name(args, kwargs)))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if on_exit is not None:
                on_exit(tracer.counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
        }

    def totals(self) -> dict:
        """name -> (calls, total ns, self ns); self time excludes traced children."""
        a = self.arrays()
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(a["name_id"], minlength=k)
        total = np.bincount(a["name_id"], weights=dur, minlength=k)
        self_ns = np.bincount(a["name_id"], weights=own, minlength=k)
        return {n: (int(calls[i]), float(total[i]), float(self_ns[i])) for i, n in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())
