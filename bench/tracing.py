"""Spans and call counts for the traced run, recorded from the benchmark's side.

The program has no tracing of its own, so the benchmark wraps the public
functions where they are called: the functions it calls itself, and the
module attributes through which ``selinf.io.analyze`` and
``selinf.feasibility.solve_feasibility`` reach the layers below them.
A wrapper records a span only while an item is open, so the correctness
checks, which call some of the same functions, are never counted.
"""

from __future__ import annotations

import contextlib
import fractions
import functools
import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Optional

# (module, attribute, span name): the call sites inside the program that
# lead into another layer. A site a later version no longer has is skipped.
CALL_SITES = (
    ("selinf.io", "solve_feasibility", "feasibility.solve_feasibility"),
    ("selinf.io", "compute_gamma", "chsh.compute_gamma"),
    ("selinf.io", "check_marginal_selectivity", "selectivity.check_marginal_selectivity"),
    ("selinf.io", "test_marginal_selectivity", "selectivity.test_marginal_selectivity"),
    ("selinf.feasibility", "feasible_point", "simplex.feasible_point"),
    ("selinf.feasibility", "fine_violations", "feasibility.fine_violations"),
    ("selinf.feasibility", "check_marginal_selectivity", "selectivity.check_marginal_selectivity"),
    ("selinf.feasibility", "compute_gamma", "chsh.compute_gamma"),
    ("selinf.feasibility", "chsh_facet_value", "chsh.chsh_facet_value"),
)

_FRACTIONS_FILE = fractions.Fraction.__add__.__code__.co_filename


class Span:
    """One timed call: name, start and end (ns), parent span index (-1 at a root), item id."""

    __slots__ = ("name", "start", "end", "parent", "item", "returned_none")

    def __init__(self, name: str, start: int, parent: int, item: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.item = item
        self.returned_none = False


class Tracer:
    """Keeps every span in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.item: Optional[int] = None

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter_ns(), parent, self.item))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int, returned_none: bool = False) -> None:
        span = self.spans[index]
        span.end = time.perf_counter_ns()
        span.returned_none = returned_none
        self._open.pop()

    def add(self, name: str, start: int, end: int, parent: int) -> None:
        """Record a span timed elsewhere, such as inside a child process."""
        span = Span(name, start, parent, self.item)
        span.end = end
        self.spans.append(span)

    def innermost(self) -> Optional[str]:
        return self.spans[self._open[-1]].name if self._open else None

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.item is None:
                return fn(*args, **kwargs)
            index = self.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.end(index, returned_none=result is None)

        return traced


@contextlib.contextmanager
def patched_call_sites(tracer: Tracer) -> Iterator[None]:
    """Route the program's internal calls through the tracer, then restore them."""
    saved = []
    for module_name, attr, span_name in CALL_SITES:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is not None:
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span_name, original))
    try:
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


@contextlib.contextmanager
def fraction_call_counter(tracer: Tracer) -> Iterator[Counter]:
    """Count calls into the ``fractions`` module per innermost open span."""
    counts: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == _FRACTIONS_FILE:
            name = tracer.innermost()
            if name is not None:
                counts[name] += 1

    sys.setprofile(profile)
    try:
        yield counts
    finally:
        sys.setprofile(None)


@dataclass
class LayerStats:
    calls: int = 0
    busy_ns: float = 0.0
    self_ns: float = 0.0
    returned_none: int = 0
    durations_ns: list[float] = field(default_factory=list)


def layer_stats(spans: list[Span], scale: Mapping[int, float]) -> dict[str, LayerStats]:
    """Per span name: calls, busy time, self time (busy minus child spans), None results.

    Times are multiplied by ``scale[item]``, the host-normalisation factor of
    the round the span's item ran in.
    """
    child_ns = [0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_ns[span.parent] += span.end - span.start
    stats: dict[str, LayerStats] = {}
    for index, span in enumerate(spans):
        entry = stats.setdefault(span.name, LayerStats())
        factor = scale[span.item]
        duration = span.end - span.start
        entry.calls += 1
        entry.busy_ns += duration * factor
        entry.self_ns += (duration - child_ns[index]) * factor
        entry.returned_none += span.returned_none
        entry.durations_ns.append(duration * factor)
    return stats
