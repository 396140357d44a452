"""Measurement plumbing: spans, counters, per-instance budgets, summaries.

Nothing here imports bchrom.  The benchmark records a span around each call
it makes into the library (and, in a traced run, around a few calls the
library makes internally), so every number is taken from outside the code
under test.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass


class Overrun(BaseException):
    """Raised by the budget timer.  A BaseException, so that no
    ``except Exception`` in the code under test can swallow it."""

    def __init__(self, layer: str):
        super().__init__(layer)
        self.layer = layer


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None      # index of the enclosing span, None at top level
    instance: int


class Tracer:
    """Spans, counters and the stack of calls in flight.

    With ``enabled`` false only the stack is kept (so an overrun can name
    the call it interrupted) and no span is recorded.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.stack: list[tuple[str, int | None]] = []   # (name, span index)
        self.instance = -1
        self.counts: dict[str, float] = {}
        self.inner: dict[str, float] = {}   # untraced seconds inside spans, by name

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def layer(self) -> str:
        """The innermost call in flight."""
        return self.stack[-1][0] if self.stack else "bench"

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            self.stack.append((name, None))
            try:
                return fn(*args, **kwargs)
            finally:
                self.stack.pop()
        parent = self.stack[-1][1] if self.stack else None
        span = Span(name, time.perf_counter(), 0.0, parent, self.instance)
        self.stack.append((name, len(self.spans)))
        self.spans.append(span)
        try:
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.inner[name] = self.inner.get(name, 0.0) + time.perf_counter() - t0
        finally:
            self.stack.pop()
            span.end = time.perf_counter()

    def unwind(self, depth: int) -> None:
        """Drop calls above ``depth`` and close their spans, after an
        overrun cut them short (possibly inside the bookkeeping above)."""
        now = time.perf_counter()
        while len(self.stack) > depth:
            _name, index = self.stack.pop()
            if index is not None and self.spans[index].end == 0.0:
                self.spans[index].end = now


@contextmanager
def budget_timer(tracer: Tracer):
    """Install the SIGALRM handler that turns an expired budget into an
    Overrun naming the call in flight; restore the old handler on exit."""

    def expire(_signum, _frame):
        raise Overrun(tracer.layer())

    previous = signal.signal(signal.SIGALRM, expire)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_budgeted(tracer: Tracer, budget_s: float, fn):
    """Run fn() with a wall-clock budget (needs budget_timer active).

    Returns (value, elapsed seconds, layer), where layer is None on
    completion and names the interrupted call on an overrun.
    """
    depth = len(tracer.stack)
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, budget_s)
    try:
        value = fn()
        signal.setitimer(signal.ITIMER_REAL, 0)
        return value, time.perf_counter() - t0, None
    except Overrun as exc:
        tracer.unwind(depth)
        return None, time.perf_counter() - t0, exc.layer
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


# probe_s() on the machine the figures come from, at its fast speed.
PROBE_REF_S = 0.0007


def _queens(n: int, row: int = 0, cols: int = 0, left: int = 0, right: int = 0) -> int:
    if row == n:
        return 1
    count = 0
    free = ~(cols | left | right) & ((1 << n) - 1)
    while free:
        bit = free & -free
        free ^= bit
        count += _queens(n, row + 1, cols | bit, (left | bit) << 1, (right | bit) >> 1)
    return count


def probe_s() -> float:
    """The middle of three timed 8-queens searches in pure Python: how fast
    this machine runs Python right now, measured without bchrom, so that
    no change to bchrom can move it."""
    seconds = []
    for _ in range(3):
        t0 = time.perf_counter()
        _queens(8)
        seconds.append(time.perf_counter() - t0)
    return sorted(seconds)[1]


def at_reference_speed(fn):
    """Run fn(); return (its value, its wall time scaled to PROBE_REF_S by
    probes taken just before and just after it)."""
    before = probe_s()
    t0 = time.perf_counter()
    value = fn()
    elapsed = time.perf_counter() - t0
    after = probe_s()
    return value, elapsed * 2 * PROBE_REF_S / (before + after)


def tail_rank(n: int, beyond: int = 10) -> int | None:
    """0-based rank of the highest order statistic with at least ``beyond``
    samples above it, or None when there are too few samples."""
    return n - beyond - 1 if n > beyond else None


def tail(values, beyond: int = 10) -> tuple[float, float] | None:
    """(value, percentile level) of the tail statistic, or None."""
    ordered = sorted(values)
    rank = tail_rank(len(ordered), beyond)
    if rank is None:
        return None
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children of one parent never overlap.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def totals_by_name(spans: list[Span]) -> dict[str, float]:
    out: dict[str, float] = {}
    for span in spans:
        out[span.name] = out.get(span.name, 0.0) + span.end - span.start
    return out


def self_by_layer(spans: list[Span]) -> dict[str, float]:
    """Self time summed per layer, the layer being the span-name prefix."""
    out: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        layer = span.name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + own
    return out
