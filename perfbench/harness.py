"""Pure parts of the pipeline benchmark: statistics, failure accounting
and an in-memory span recorder.

Nothing here imports the program under test, so the self-tests in
``test_harness.py`` exercise these rules without building a model.
"""

from __future__ import annotations

import functools
import math
import statistics
import threading
import time
from contextlib import ExitStack, nullcontext
from typing import Callable, Dict, List, Optional, Sequence
from unittest import mock

# A tail percentile is reported only when at least this many samples
# lie beyond it; with fewer, one slow sample would set the value.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q``-th
    percentile."""
    return n - max(1, math.ceil(q / 100.0 * n))


def tail_percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-th percentile, or None when fewer than
    :data:`MIN_BEYOND` samples lie beyond it."""
    if beyond(len(samples), q) < MIN_BEYOND:
        return None
    return percentile(samples, q)


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles as ``statistics.quantiles(n=4)`` gives them,
    plus the quartile distance as a share of the median."""
    values = list(values)
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else 0.0
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": spread}


class Tally:
    """Operations attempted and failed across a run.

    A divergent test case and a case that never got a verdict because
    the pipeline raised both count as failed; the gate failing marks
    the whole run failed.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int) -> None:
        """Operations that got a verdict, ``failed`` of them divergent."""
        self.attempted += attempted
        self.failed += failed

    def raised(self, unfinished: int) -> None:
        """An exception ended an iteration with ``unfinished`` cases
        (at least one) left without a verdict."""
        unfinished = max(1, unfinished)
        self.attempted += unfinished
        self.failed += unfinished

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


class _Frame:
    __slots__ = ("name", "start", "child", "span_id", "parent")

    def __init__(self, name, start, span_id, parent):
        self.name = name
        self.start = start
        self.child = 0.0
        self.span_id = span_id
        self.parent = parent


class SpanRecorder:
    """Spans kept in memory, with per-name call counts, busy time and
    self time (a span's duration minus the part its child spans on the
    same thread cover).

    ``keep=True`` spans are also stored as ``(id, name, start, end,
    parent_id, thread)`` rows for the trace file; high-frequency spans
    (one per simulated message) only feed the per-name totals.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[tuple] = []
        self.calls: Dict[str, int] = {}
        self.busy: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str, keep: bool = True) -> _Frame:
        stack = self._stack()
        parent = stack[-1].span_id if stack else None
        span_id = None
        if keep:
            with self._lock:
                span_id = self._next_id
                self._next_id += 1
        frame = _Frame(name, self.clock(), span_id, parent)
        stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> float:
        end = self.clock()
        stack = self._stack()
        stack.pop()
        duration = end - frame.start
        if stack:
            stack[-1].child += duration
        with self._lock:
            name = frame.name
            self.calls[name] = self.calls.get(name, 0) + 1
            self.busy[name] = self.busy.get(name, 0.0) + duration
            self.self_time[name] = (self.self_time.get(name, 0.0)
                                    + duration - frame.child)
            if frame.span_id is not None:
                self.spans.append((frame.span_id, name, frame.start, end,
                                   frame.parent,
                                   threading.current_thread().name))
        return duration

    def span(self, name: str, keep: bool = True) -> "_SpanContext":
        return _SpanContext(self, name, keep)

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def timed(self, fn: Callable, name: str, keep: bool = False,
              on_result: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a span; ``on_result(result)`` sees each
        return value."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = recorder.enter(name, keep)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.exit(frame)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counted(self, fn: Callable, name: str) -> Callable:
        """``fn`` with a call counter and no timing (for calls made on
        many threads, where a span would have no blocking meaning)."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            recorder.count(name)
            return fn(*args, **kwargs)

        return wrapper


class _SpanContext:
    __slots__ = ("recorder", "name", "keep", "frame")

    def __init__(self, recorder, name, keep):
        self.recorder = recorder
        self.name = name
        self.keep = keep

    def __enter__(self):
        self.frame = self.recorder.enter(self.name, self.keep)
        return self

    def __exit__(self, *exc):
        self.recorder.exit(self.frame)
        return False


class NullRecorder:
    """The untraced stand-in: spans time nothing and record nothing."""

    def span(self, name: str, keep: bool = True):
        return nullcontext()


def patched(replacements) -> ExitStack:
    """Apply ``(owner, attribute, new)`` replacements; closing the
    returned stack restores every original."""
    stack = ExitStack()
    for owner, attribute, new in replacements:
        stack.enter_context(mock.patch.object(owner, attribute, new))
    return stack
