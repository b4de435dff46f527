"""Unit tests for the benchmark's own arithmetic (no market needed).

Run with::

    python -m pytest -q perfbench/test_harness.py
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import pytest

from harness import (
    TAIL_BEYOND,
    BlockTracker,
    CallTimer,
    Result,
    attr_totals,
    best_of_rounds,
    nearest_rank,
    self_times,
    tail_quantile,
)


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now


@dataclass
class FakeSpan:
    name: str
    start_ns: int
    dur_ns: int
    span_id: int
    parent_id: int | None = None
    pid: int = 1
    attrs: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------


def test_nearest_rank_picks_a_sample():
    samples = list(range(100, 0, -1))  # 1..100, unsorted
    assert nearest_rank(samples, 0.5) == 50
    assert nearest_rank(samples, 0.99) == 99
    assert nearest_rank(samples, 1.0) == 100
    assert nearest_rank([7.0], 0.5) == 7.0


def test_nearest_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        nearest_rank([], 0.5)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 0.0)


def test_tail_quantile_keeps_ten_samples_beyond():
    for n in range(2 * TAIL_BEYOND, 3000):
        q = tail_quantile(n)
        assert q <= 0.99
        samples = list(range(n))
        value = nearest_rank(samples, q)
        beyond = sum(1 for s in samples if s > value)
        assert beyond >= TAIL_BEYOND, n
        if q < 0.99:
            # the highest admissible quantile: one rank up leaves too few
            assert beyond == TAIL_BEYOND, n


def test_tail_quantile_is_p99_with_enough_samples():
    assert tail_quantile(1000) == 0.99
    assert tail_quantile(5000) == 0.99
    assert tail_quantile(100) == pytest.approx(0.9)
    assert tail_quantile(150) == pytest.approx(140 / 150)


def test_best_of_rounds_keeps_each_operations_fastest_round():
    rounds = [[3.0, 1.0, 2.0], [1.5, 4.0, 2.5], [2.0, 2.0, 0.5]]
    assert best_of_rounds(rounds) == [1.5, 1.0, 0.5]
    assert best_of_rounds([[4.0, 5.0]]) == [4.0, 5.0]
    assert best_of_rounds([]) == []
    with pytest.raises(ValueError):
        best_of_rounds([[1.0], [1.0, 2.0]])


def test_tail_quantile_falls_back_to_median_on_short_runs():
    assert tail_quantile(0) == 0.5
    assert tail_quantile(2 * TAIL_BEYOND - 1) == 0.5
    assert tail_quantile(2 * TAIL_BEYOND) == 0.5


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    spans = [
        FakeSpan("parent", 0, 100, span_id=1),
        FakeSpan("child", 10, 20, span_id=2, parent_id=1),
        FakeSpan("grandchild", 15, 10, span_id=3, parent_id=2),
        FakeSpan("child", 60, 30, span_id=4, parent_id=1),
    ]
    assert self_times(spans) == {"parent": 50, "child": 40, "grandchild": 10}


def test_self_time_merges_overlapping_children():
    # two concurrent children covering [10, 50) together
    spans = [
        FakeSpan("parent", 0, 100, span_id=1),
        FakeSpan("a", 10, 20, span_id=2, parent_id=1),
        FakeSpan("b", 20, 30, span_id=3, parent_id=1),
    ]
    assert self_times(spans)["parent"] == 60


def test_self_time_clips_children_to_the_parent_interval():
    spans = [
        FakeSpan("parent", 0, 100, span_id=1),
        FakeSpan("child", 90, 40, span_id=2, parent_id=1),
    ]
    assert self_times(spans)["parent"] == 90


def test_self_time_ignores_cross_lane_spans():
    spans = [
        FakeSpan("parent", 0, 100, span_id=1, pid=1),
        # a shard process reuses span id 1 as a parent id: not our child
        FakeSpan("shard", 10, 50, span_id=7, parent_id=1, pid=2),
        # same process, overlapping, but no parent link
        FakeSpan("other", 20, 30, span_id=8, pid=1),
    ]
    totals = self_times(spans)
    assert totals == {"parent": 100, "shard": 50, "other": 30}


def test_self_time_sums_repeated_names():
    spans = [FakeSpan("x", 0, 5, span_id=1), FakeSpan("x", 10, 7, span_id=2)]
    assert self_times(spans) == {"x": 12}


def test_attr_totals_sums_prefixed_spans():
    spans = [
        FakeSpan("solver.bisection", 0, 1, 1, attrs={"iterations": 40}),
        FakeSpan("solver.golden", 0, 1, 2, attrs={"iterations": 2}),
        FakeSpan("kernel.bounds", 0, 1, 3, attrs={"iterations": 99}),
        FakeSpan("solver.golden", 0, 1, 4),
    ]
    assert attr_totals(spans, "solver.", "iterations") == 42


# ----------------------------------------------------------------------
# open-loop latency
# ----------------------------------------------------------------------


def test_open_loop_latency_counts_from_the_due_time():
    clock = FakeClock()
    tracker = BlockTracker(clock=clock)
    rate = 10.0  # blocks per second: block i is due at i / rate
    tracker.owe(0, 2)
    tracker.owe(1, 1)
    tracker.owe(2, 0)  # touches no shard: not an operation
    tracker.owe(3, 1)

    tracker.start(0, 0 / rate, emitted=0.0)
    tracker.start(1, 1 / rate, emitted=0.15)  # the source ran 50 ms late
    tracker.start(2, 2 / rate, emitted=0.2)
    tracker.start(3, 3 / rate, emitted=0.3)
    tracker.applied(-1)  # the priming apply is not a block
    clock.now = 0.05
    tracker.applied(0)  # first of two updates: not complete yet
    clock.now = 0.16
    tracker.applied(1)
    clock.now = 0.30
    tracker.applied(0)

    latencies = tracker.latencies()
    assert latencies[0] == pytest.approx(0.30)
    assert latencies[1] == pytest.approx(0.06)  # includes the lateness
    assert sorted(tracker.operations()) == [0, 1, 3]
    assert tracker.lost() == [3]
    assert tracker.max_lateness() == pytest.approx(0.05)


def test_closed_loop_latency_counts_from_the_send_time():
    clock = FakeClock(5.0)
    tracker = BlockTracker(clock=clock)
    tracker.owe(7, 1)
    tracker.start(7, clock())
    clock.now = 5.25
    tracker.applied(7)
    assert tracker.latencies() == {7: pytest.approx(0.25)}
    assert tracker.max_lateness() == 0.0


# ----------------------------------------------------------------------
# call timing and the result line
# ----------------------------------------------------------------------


def test_call_timer_accumulates_calls_and_seconds():
    clock = FakeClock()
    timer = CallTimer(clock=clock)

    def work(step):
        clock.now += step
        return step * 2

    timed = timer.wrap(work)
    assert timed(0.5) == 1.0
    assert timed(1.5) == 3.0
    assert timer.calls == 2
    assert timer.seconds == pytest.approx(2.0)
    assert timer.mean_s == pytest.approx(1.0)
    assert CallTimer().mean_s == 0.0


def test_result_line_has_exactly_four_keys():
    result = Result(attempted=3)
    result.put("latency_p50_ms", 1.25, "ms")
    line = json.loads(result.to_json())
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["metrics"] == {"latency_p50_ms": {"value": 1.25, "unit": "ms"}}
    result.failed, result.problems = 2, ["mismatch"]
    line = json.loads(result.to_json())
    assert line["correct"] is False and line["failed"] == 2
