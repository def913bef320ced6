"""Span tracer for the benchmark's traced pass.

The tracer wraps the public functions of the boltznet modules from the
outside: no file of the package changes. A function is wrapped once, under
the name `<defining module>.<function>`, and the wrapper is rebound in every
module namespace that holds the original, so `rbm.sigmoid`, `dbm.sigmoid`
and `boltznet.sigmoid` all record `core.sigmoid` spans with the caller's
span as parent.

Spans are kept in memory as a flat list in start order, so every parent
precedes its children. The arithmetic on that list (self time, per-name
totals, time outside every span) is plain functions that the tests drive
with synthetic span trees.
"""

from __future__ import annotations

import functools
import inspect
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter_ns


@dataclass
class Span:
    name: str
    parent: int          # index of the parent span, -1 for a root span
    start: int           # ns
    end: int = 0         # ns
    info: dict = field(default_factory=dict)  # counters such as elements


class Tracer:
    """Collects spans from wrapped functions; one open-span stack."""

    def __init__(self, clock=perf_counter_ns):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, measure=None):
        """A wrapper that records one span per call of `fn`.

        `measure(args, kwargs, result)` may return a dict of counters that
        is stored on the span; it runs after the span has closed.
        """
        spans, open_stack, clock = self.spans, self._open, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, open_stack[-1] if open_stack else -1, clock())
            open_stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                open_stack.pop()
            if measure is not None:
                span.info = measure(args, kwargs, result)
            return result

        return traced


def public_functions(module):
    """(name, function) for every public function defined in `module`."""
    return [(attr, obj) for attr, obj in vars(module).items()
            if inspect.isfunction(obj) and not attr.startswith("_")
            and obj.__module__ == module.__name__]


@contextmanager
def instrumented(tracer: Tracer, layers, namespaces, measures=None):
    """Wrap the public functions of every module in `layers` for the
    duration of the block.

    Each wrapper replaces its original in every module of `namespaces`
    (the layers themselves plus any module that re-exports them) and the
    originals come back on exit. `measures` maps a span name to the
    counter function passed to `Tracer.wrap`.
    """
    measures = measures or {}
    wrappers = {}
    for module in layers:
        short = module.__name__.rsplit(".", 1)[-1]
        for attr, fn in public_functions(module):
            name = f"{short}.{attr}"
            wrappers[fn] = tracer.wrap(name, fn, measures.get(name))
    rebound = []
    for module in namespaces:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, attr, wrappers[obj])
                rebound.append((module, attr, obj))
    try:
        yield tracer
    finally:
        for module, attr, original in rebound:
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def self_times(spans) -> list:
    """Per span: its duration minus the durations of its direct children.

    Children never outlive their parent (calls nest), so the children's
    durations are exactly the part of the parent's interval they cover.
    """
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def totals(spans) -> dict:
    """name -> {"calls", "total_ns", "self_ns"} over every span."""
    out = {}
    for s, own in zip(spans, self_times(spans)):
        t = out.setdefault(s.name, {"calls": 0, "total_ns": 0, "self_ns": 0})
        t["calls"] += 1
        t["total_ns"] += s.end - s.start
        t["self_ns"] += own
    return out


def info_sum(spans, name: str, key: str) -> int:
    """Sum of one counter over the spans of one name."""
    return sum(s.info.get(key, 0) for s in spans if s.name == name)


def child_calls(spans, parent: str, child: str) -> int:
    """Calls of `child` made directly from a `parent` span."""
    return sum(1 for s in spans
               if s.name == child and s.parent >= 0
               and spans[s.parent].name == parent)


def unattributed_ns(spans, wall_ns: int) -> int:
    """Wall time not covered by any span: `wall_ns` minus the root spans.

    This equals `wall_ns` minus the sum of every span's self time, because
    self times partition each root span.
    """
    return wall_ns - sum(s.end - s.start for s in spans if s.parent < 0)


def nested_ns(spans, inner, outer) -> int:
    """Time in spans selected by `inner(name)` that run below a span
    selected by `outer(name)`, counting only the outermost such inner span
    so nested probes are not counted twice."""
    total = 0
    for s in spans:
        if not inner(s.name):
            continue
        p, under_outer, under_inner = s.parent, False, False
        while p >= 0:
            name = spans[p].name
            under_inner = under_inner or inner(name)
            under_outer = under_outer or outer(name)
            p = spans[p].parent
        if under_outer and not under_inner:
            total += s.end - s.start
    return total
