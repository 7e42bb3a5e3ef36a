"""In-memory span tracing from outside the program under test.

A ``Tracer`` records spans (name, start, end, parent) around calls into the
engine's layers by temporarily replacing the called attributes with timing
wrappers (``Tracer.patched``). Spans are kept in memory and summarised when
the run ends. The engine's driver loop is single-threaded, so a stack gives
each span its parent. A span's self time is its duration minus the time its
direct children cover.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []  # parent = index
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            n, t0, _, p = self.spans[idx]
            self.spans[idx] = (n, t0, time.perf_counter(), p)

    def wrap(self, fn, name: str, on_result=None):
        """``fn`` timed as span ``name``; ``on_result(counts, args, result)``
        may add counts taken from the arguments and the return value."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if on_result is not None:
                on_result(self.counts, args, out)
            return out
        return traced

    @contextmanager
    def patched(self, targets):
        """``targets``: (owner, attribute, span name, on_result or None).
        Each attribute is replaced by a traced wrapper for the duration of
        the block and restored afterwards."""
        saved = []
        try:
            for owner, attr, name, on_result in targets:
                orig = owner.__dict__[attr]
                saved.append((owner, attr, orig))
                setattr(owner, attr, self.wrap(orig, name, on_result))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: total duration, total self time and call count."""
        child_s = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"total_s": 0.0, "self_s": 0.0, "calls": 0})
        for i, (name, t0, t1, _) in enumerate(self.spans):
            s = out[name]
            s["total_s"] += t1 - t0
            s["self_s"] += t1 - t0 - child_s[i]
            s["calls"] += 1
        return dict(out)
