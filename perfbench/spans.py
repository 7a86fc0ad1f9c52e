"""In-memory spans recorded around library functions, and their self time.

A ``Tracer`` replaces module attributes with timing wrappers for the length
of a ``with tracer.patched(...)`` block and puts the originals back when the
block exits. Each span is ``[name, start_ns, end_ns, parent]`` where
``parent`` is the index of the enclosing span, or -1 at top level.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """Timing wrapper around ``fn``; ``count(counters, args, out)`` runs
        after a call that returned."""
        spans, open_, clock, counters = self.spans, self._open, self.clock, self.counters

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0, open_[-1] if open_ else -1])
            open_.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                open_.pop()
            if count is not None:
                count(counters, args, out)
            return out

        return traced

    @contextmanager
    def patched(self, targets):
        """Wrap ``(module, attribute, span_name, count)`` targets for the block."""
        originals = []
        try:
            for module, attr, name, count in targets:
                original = getattr(module, attr)
                originals.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, count))
            yield self
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)


def _covered(intervals, lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[int]:
    """Per span: its duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - _covered(children[i], start, end)
        for i, (name, start, end, parent) in enumerate(spans)
    ]


def summarize(*span_lists) -> tuple[dict[str, dict[str, float]], dict[str, float]]:
    """Aggregate span lists (each from its own tracer) into
    ``{name: {calls, ms}}`` and ``{layer: self_ms}``; the layer is the part of
    the span name before the first dot."""
    by_name: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "ms": 0.0})
    by_layer: dict[str, float] = defaultdict(float)
    for spans in span_lists:
        for (name, start, end, _), own in zip(spans, self_times(spans)):
            by_name[name]["calls"] += 1
            by_name[name]["ms"] += (end - start) / 1e6
            by_layer[name.split(".", 1)[0]] += own / 1e6
    return by_name, by_layer
