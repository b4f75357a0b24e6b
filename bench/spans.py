"""In-memory span recording for the traced benchmark run.

A Tracer wraps functions so that every call records one span: a name, a
start, an end and the span that was open when the call began (its parent).
Spans stay in memory and are written out once, when the run ends.

Self time of a span is its duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict


class Tracer:
    """Records spans of wrapped calls, plus named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.counters: dict[str, int] = defaultdict(int)
        self._open: list[int] = []

    def add(self, counter: str, value: int = 1) -> None:
        self.counters[counter] += value

    def wrap(self, name: str, fn, on_call=None, on_return=None):
        """fn wrapped to record a span named `name` per call.

        on_call(tracer, args) and on_return(tracer, args, result) run
        outside the span, so their cost lands in the parent's self time.
        """
        name_id = len(self.names)
        self.names.append(name)
        clock = self.clock
        name_ids, starts, ends, parents, open_ = (
            self.name_ids, self.starts, self.ends, self.parents, self._open)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(self, args)
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(open_[-1] if open_ else -1)
            ends.append(0.0)
            open_.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                open_.pop()
            if on_return is not None:
                on_return(self, args, result)
            return result

        return traced


def install(tracer: Tracer, package: str, targets) -> dict[str, int]:
    """Wrap each (module, function, on_call, on_return) target of `package`.

    The wrapper replaces the function in every loaded module of the package
    that binds it, because `from .x import y` copies the binding and a
    wrapper on the defining module alone would miss those calls. Returns
    the number of bindings replaced per span name.
    """
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == package or name.startswith(package + "."))]
    replaced = {}
    for module, func, on_call, on_return in targets:
        original = getattr(sys.modules[f"{package}.{module}"], func)
        name = f"{module}.{func}"
        wrapper = tracer.wrap(name, original, on_call, on_return)
        replaced[name] = 0
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    replaced[name] += 1
    return replaced


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of (start, end) intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    children = defaultdict(list)
    for start, end, parent in zip(starts, ends, parents):
        if parent >= 0:
            children[parent].append((start, end))
    out = [end - start for start, end in zip(starts, ends)]
    for parent, intervals in children.items():
        out[parent] -= covered(intervals, starts[parent], ends[parent])
    return out
