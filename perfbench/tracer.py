"""In-process span tracer that instruments functions by rebinding them.

A span records a name, a start and an end time, the index of the span that
was open when it began (its parent) and the identifier of the timed
operation it belongs to.  Spans are kept in memory and aggregated when the
run ends.  A span's self time is its duration minus the time covered by its
direct children.

Instrumentation replaces a function on its module (or a method on its
class) with a wrapper that opens a span around each call.  Modules that
imported the function by name hold their own reference to it, so every
attribute of every loaded module under the given package prefix that is the
same object is rebound as well.  ``Instrumentation.restore`` puts the
originals back.  The tracer assumes one thread: the program under test must
not call instrumented functions from worker threads.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "nested")

    def __init__(self, name: str, start: float, parent: int, op: int,
                 nested: bool):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent  # index into Tracer.spans, -1 at top level
        self.op = op  # operation identifier, -1 outside timed operations
        self.nested = nested  # an enclosing span has the same name

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[tuple[str, int], float] = {}
        self.op = -1
        self._open: list[int] = []
        self._depth: dict[str, int] = {}

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        depth = self._depth.get(name, 0)
        self._depth[name] = depth + 1
        self._open.append(idx)
        self.spans.append(Span(name, self.clock(), parent, self.op, depth > 0))
        return idx

    def end(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = self.clock()
        if self._open.pop() != idx:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        self._depth[span.name] -= 1

    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)

    def parent_name(self) -> str | None:
        """Name of the innermost open span."""
        return self.spans[self._open[-1]].name if self._open else None

    def count(self, name: str, value: float) -> None:
        """Add to a counter kept per operation identifier."""
        key = (name, self.op)
        self.counts[key] = self.counts.get(key, 0.0) + value

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(tracer, bound_args, result)`` runs
        once the span has closed, so its own cost is not charged to it."""
        sig = inspect.signature(fn) if after is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(self, sig.bind(*args, **kwargs).arguments, result)
            return result

        return traced


class _SpanContext:
    __slots__ = ("tracer", "name", "idx")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.idx = self.tracer.begin(self.name)
        return self.tracer.spans[self.idx]

    def __exit__(self, exc_type, exc, tb):
        self.tracer.end(self.idx)
        return False


@dataclass
class Stat:
    calls: int = 0
    total: float = 0.0  # inclusive seconds, recursion counted once
    self_time: float = 0.0  # seconds not covered by child spans


def aggregate(spans: list[Span], keep=None) -> dict[str, Stat]:
    """Per-name call count, inclusive time and self time over the spans
    that ``keep`` accepts (all spans by default)."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.duration
    stats: dict[str, Stat] = {}
    for i, s in enumerate(spans):
        if keep is not None and not keep(s):
            continue
        st = stats.setdefault(s.name, Stat())
        st.calls += 1
        if not s.nested:
            st.total += s.duration
        st.self_time += s.duration - covered[i]
    return stats


class Instrumentation:
    """Rebinds targets to traced wrappers until ``restore`` is called."""

    def __init__(self, tracer: Tracer, targets, package: str):
        """``targets`` holds ``(span_name, module_name, attribute, after)``
        tuples; ``attribute`` may be ``Class.method``."""
        self._undo: list[tuple[object, str, object]] = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        try:
            for span_name, module_name, attribute, after in targets:
                owner = sys.modules[module_name]
                *path, leaf = attribute.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf]
                wrapper = tracer.wrap(span_name, original, after)
                self._set(owner, leaf, wrapper)
                if inspect.ismodule(owner):
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._set(mod, key, wrapper)
        except BaseException:
            self.restore()
            raise

    def _set(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def restore(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.restore()
        return False
