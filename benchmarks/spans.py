"""Span tracing from outside the program.

`SpanLog.install` wraps named functions of the `layoutopt` package in timing
wrappers.  A function imported by name into another module (for example
`aggregate_global` in `layoutopt.optimizer`, or `polygon_intersection_area`
in `layoutopt.harness`) is looked up there, so every module attribute that
holds the original object is replaced, and `restore` puts each one back.

Spans are (name, start, end, parent) rows kept in flat arrays while the run
lasts and written out once at the end.  A span's self time is its duration
minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np


class SpanLog:
    """In-memory span store plus the wrappers that feed it (one thread)."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        # Per name: sum of the wrapped function's `tally(result)`, e.g. hits.
        self.tallies: dict = {}
        self._stack: list = []
        self._patched: list = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, span_name: str, fn, tally=None):
        nid = self.name_id(span_name)
        names, starts, ends, parents, stack = self.name, self.start, self.end, self.parent, self._stack
        tallies = self.tallies
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if tally is not None:
                tallies[span_name] = tallies.get(span_name, 0) + tally(result)
            return result

        return wrapper

    def install(self, targets):
        """Wrap each (module, function, span name, tally) of `targets`
        wherever a module of the layoutopt package holds that function."""
        modules = [
            m for k, m in list(sys.modules.items())
            if m is not None and (k == "layoutopt" or k.startswith("layoutopt."))
        ]
        for module_name, attr, span_name, tally in targets:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(span_name, original, tally)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def restore(self):
        while self._patched:
            mod, key, original = self._patched.pop()
            setattr(mod, key, original)

    def arrays(self):
        return (
            np.array(self.name, dtype=np.int64),
            np.array(self.start, dtype=np.float64),
            np.array(self.end, dtype=np.float64),
            np.array(self.parent, dtype=np.int64),
        )

    def summary(self) -> dict:
        """Per span name: calls, total self seconds, and tally."""
        name, start, end, parent = self.arrays()
        own = self_times(parent, start, end)
        calls = np.bincount(name, minlength=len(self.names))
        busy = np.bincount(name, weights=own, minlength=len(self.names))
        return {
            n: {"calls": int(calls[i]), "self_s": float(busy[i]), "tally": self.tallies.get(n, 0)}
            for i, n in enumerate(self.names)
        }

    def save(self, path: str):
        name, start, end, parent = self.arrays()
        base = start.min() if start.size else 0.0
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=name,
            start=start - base,
            end=end - base,
            parent=parent,
        )


def self_times(parent, start, end) -> np.ndarray:
    """Duration of each span minus the union of its children's intervals.

    Children are clipped to their parent's interval first, and overlapping
    children count once.  Times are compared as integer nanoseconds so that
    the grouped running maximum below stays exact.
    """
    parent = np.asarray(parent, dtype=np.int64)
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    if start.size == 0:
        return np.zeros(0)
    base = start.min()
    s_ns = np.rint((start - base) * 1e9).astype(np.int64)
    e_ns = np.rint((end - base) * 1e9).astype(np.int64)
    covered = np.zeros(start.size, dtype=np.int64)
    child = np.nonzero(parent >= 0)[0]
    if child.size:
        p = parent[child]
        s = np.maximum(s_ns[child], s_ns[p])
        e = np.maximum(np.minimum(e_ns[child], e_ns[p]), s)
        order = np.lexsort((s, p))
        p, s, e = p[order], s[order], e[order]
        first = np.r_[True, p[1:] != p[:-1]]
        # Running max of `e` within each parent group: offset every group
        # above all earlier ones, accumulate, then take the offset off.
        rank = np.cumsum(first) - 1
        offset = rank * (int(e.max()) + 1)
        reach = np.maximum.accumulate(e + offset) - offset
        before = np.r_[0, reach[:-1]]
        before[first] = np.iinfo(np.int64).min
        cov = np.clip(e - np.maximum(s, before), 0, None)
        np.add.at(covered, p, cov)
    return ((e_ns - s_ns) - covered) / 1e9
