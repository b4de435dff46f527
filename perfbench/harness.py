"""Measurement arithmetic shared by every workload.

Nothing here imports the ``repro`` package, so the unit tests in
``test_harness.py`` exercise it without a market in sight:

* :func:`nearest_rank` and :func:`tail_quantile` — percentile selection
  with the sample-count rule (a tail percentile is only reported where
  at least :data:`TAIL_BEYOND` samples lie beyond it);
* :func:`best_of_rounds` — each operation's best time over rounds that
  repeat the same operations;
* :func:`self_times` — per-span-name self time: a span's duration
  minus the part of its interval covered by its own child spans
  (children are matched by ``(pid, parent_id)``, so a span on another
  lane or process that merely overlaps in time is never subtracted);
* :class:`BlockTracker` — per-block latency from an external start
  stamp (the due time of an open-loop schedule, or the send time of a
  closed loop) to the moment the last shard update owed for that block
  reaches the book;
* :class:`CallTimer` — wraps a callable and accumulates call count and
  wall time, for layers timed from outside;
* :class:`Result` — the run's verdict and metrics, rendered as the one
  JSON line the benchmark prints last.
"""

from __future__ import annotations

import json
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

#: A tail percentile needs this many samples strictly beyond it.
TAIL_BEYOND = 10


def nearest_rank(samples: Iterable[float], q: float) -> float:
    """The ``q``-quantile (``0 < q <= 1``) by the nearest-rank rule:
    the smallest sample with at least ``q`` of all samples at or below
    it."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def best_of_rounds(rounds: list[list[float]]) -> list[float]:
    """Per operation, its lowest time over rounds that repeat the same
    operations in the same order (``rounds[r][i]`` is operation ``i``
    in round ``r``)."""
    if not rounds:
        return []
    count = len(rounds[0])
    if any(len(times) != count for times in rounds):
        raise ValueError("every round must time the same operations")
    return [min(times[i] for times in rounds) for i in range(count)]


def tail_quantile(n: int, want: float = 0.99, beyond: int = TAIL_BEYOND) -> float:
    """The highest quantile up to ``want`` that keeps ``beyond`` of
    ``n`` samples strictly above its nearest-rank sample.

    With ``n`` samples the nearest-rank index of quantile ``q`` is
    ``ceil(q * n)``, leaving ``n - ceil(q * n)`` samples beyond it; so
    ``q = (n - beyond) / n`` is the largest admissible value.  Runs too
    short to place a tail above the median (``n < 2 * beyond``) report
    the median.
    """
    if n < 2 * beyond:
        return 0.5
    return min(want, (n - beyond) / n)


def self_times(spans: Iterable) -> dict[str, int]:
    """Total self time in nanoseconds per span name.

    ``spans`` are objects with ``name``, ``start_ns``, ``dur_ns``,
    ``span_id``, ``parent_id`` and ``pid`` attributes (the tracer's
    :class:`~repro.telemetry.trace.Span`).  A span's children are the
    spans of the same process whose ``parent_id`` is its ``span_id``;
    their intervals are clipped to the parent's and merged, so
    children that overlap each other (concurrent tasks) are not
    subtracted twice.
    """
    spans = list(spans)
    children: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault((span.pid, span.parent_id), []).append(
                (span.start_ns, span.start_ns + span.dur_ns)
            )
    totals: dict[str, int] = {}
    for span in spans:
        start, end = span.start_ns, span.start_ns + span.dur_ns
        covered = 0
        cursor = start
        for lo, hi in sorted(children.get((span.pid, span.span_id), ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[span.name] = totals.get(span.name, 0) + span.dur_ns - covered
    return totals


def attr_totals(spans: Iterable, prefix: str, attr: str) -> int:
    """Sum of integer attribute ``attr`` over spans named ``prefix*``."""
    return sum(
        int(span.attrs.get(attr, 0))
        for span in spans
        if span.name.startswith(prefix)
    )


class BlockTracker:
    """Per-block latency measured from outside the service.

    ``start(block, t)`` stamps when the block was due (open loop) or
    sent (closed loop); ``owe(block, n)`` records how many shard
    updates the block must produce; every ``applied(block)`` call — one
    per update reaching the book — counts one down, and the last one
    stamps the block complete.  A block that owes nothing is not an
    operation and is left out.  ``clock`` is injectable for tests.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.started: dict[int, float] = {}
        self.lateness: dict[int, float] = {}
        self.owed: dict[int, int] = {}
        self.completed: dict[int, float] = {}

    def owe(self, block: int, updates: int) -> None:
        if updates > 0:
            self.owed[block] = updates

    def start(self, block: int, t: float, emitted: float | None = None) -> None:
        """Stamp ``block`` as due (or sent) at ``t``; ``emitted`` is when
        the source actually released it, for generator lateness."""
        self.started[block] = t
        self.lateness[block] = max(0.0, (emitted if emitted is not None else t) - t)

    def applied(self, block: int) -> None:
        left = self.owed.get(block)
        if left is None:
            return  # the priming apply (block -1) or an unowed block
        if left == 1:
            del self.owed[block]
            self.completed[block] = self.clock()
        else:
            self.owed[block] = left - 1

    def operations(self) -> list[int]:
        """Blocks that were released and owe at least one update."""
        return [
            block for block in self.started
            if block in self.owed or block in self.completed
        ]

    def latencies(self) -> dict[int, float]:
        """Seconds from start stamp to completion, per completed block."""
        return {
            block: self.completed[block] - self.started[block]
            for block in self.completed
            if block in self.started
        }

    def lost(self) -> list[int]:
        """Released blocks that never completed (dropped or stuck)."""
        return [block for block in self.started if block in self.owed]

    def max_lateness(self) -> float:
        return max(self.lateness.values(), default=0.0)


class CallTimer:
    """Accumulate calls and wall seconds of one wrapped callable.

    Thread-safe: the process backend calls IPC methods from executor
    threads.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.calls = 0
        self.seconds = 0.0
        self._lock = threading.Lock()

    def wrap(self, fn: Callable) -> Callable:
        def timed(*args, **kwargs):
            t0 = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - t0
                with self._lock:
                    self.calls += 1
                    self.seconds += elapsed

        return timed

    @property
    def mean_s(self) -> float:
        return self.seconds / self.calls if self.calls else 0.0


@dataclass
class Result:
    """One run's verdict: operation counts plus named metrics."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    @property
    def correct(self) -> bool:
        return not self.problems

    def to_json(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in self.metrics.items()
                },
            }
        )
