"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload detect --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off, in
rounds over the same inputs (each operation keeps its best time).
``--trace 1`` is the per-layer run: it measures the workload untraced
for half the time and traced for the other half (the difference is the
tracing overhead), reports per-layer self times and counters from the
traced half, and writes its spans to ``.bench_out/`` as a Chrome trace.
Outputs are checked against the repo's own oracles outside the timed
region; the command exits non-zero if any check fails.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"

#: End-to-end metrics (every workload, tracing off): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "events_per_s": "1/s",
    "loops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Spans whose self time is reported per operation as ``<span>.self_ms``.
SELF_TIME_SPANS = (
    "kernel.bounds",
    "kernel.batch_quotes",
    "kernel.scalar_quotes",
    "solver.bisection",
    "solver.golden",
    "ingest.block",
    "shard.queue_wait",
    "shard.apply",
    "shard.bounds",
    "shard.quote",
    "publish.book",
    "ingest.shm_write",
    "shard.sync",
    "replay.apply",
    "replay.quote",
    "engine.evaluate_loops",
)

#: Per-layer metrics (traced run): name -> unit.  A layer a workload
#: does not exercise reports 0.  The tail latency is here, taken from
#: the untraced half, rather than gated end to end: it is set by a few
#: stalls per run and swings more between runs than any gate allows.
PER_LAYER = {
    "latency_p99_ms": "ms",
    "graph.profitable_loops_s": "s",
    "market.compile_s": "s",
    "market.kernel_loops": "count/op",
    "market.scalar_loops": "count/op",
    "market.prune_ratio": "ratio",
    "solver.iterations": "count/op",
    "service.evaluations": "count/op",
    "service.loops_pruned": "count/op",
    "service.shard_queue_depth_max": "count",
    "service.event_loop_lag_ms_max": "ms",
    "service.internal_e2e_p50_ms": "ms",
    "shm.epoch_waits": "count/op",
    "shm.torn_retries": "count/op",
    "ipc.submit_s": "s",
    "ipc.next_message_s": "s",
    "engine.cache_hit_rate": "ratio",
    "optimize.convex_s": "s",
    "optimize.convex_calls": "count/op",
    "optimize.slsqp_fallbacks": "count/op",
    "bench.generator_lag_ms_max": "ms",
    "trace.overhead_frac": "ratio",
    **{f"{name}.self_ms": "ms/op" for name in SELF_TIME_SPANS},
}


def tail_latency_ms(latencies, harness) -> float:
    """p99 latency, or the highest percentile with enough samples
    beyond it on shorter runs (the choice is printed)."""
    tail = harness.tail_quantile(len(latencies))
    print(f"{len(latencies)} latency samples; latency_p99_ms reports "
          f"p{tail * 100:.4g} (at least {harness.TAIL_BEYOND} samples beyond it)")
    return harness.nearest_rank(latencies, tail) * 1e3


def end_to_end(m, result, harness) -> None:
    print(f"{len(m.latencies)} latency samples, each its best of the rounds")
    values = {
        "setup_s": statistics.median(m.setups),
        "latency_p50_ms": harness.nearest_rank(m.latencies, 0.5) * 1e3,
        "events_per_s": m.events_per_s,
        "loops_per_s": m.loops_per_s,
        "peak_rss_mb": m.rss_bytes / 2**20,
    }
    for name, unit in END_TO_END.items():
        result.put(name, values[name], unit)


def per_layer(m, baseline, result, harness) -> None:
    ops = max(1, m.attempted)
    values = dict.fromkeys(PER_LAYER, 0.0)
    values.update(m.layers)
    for name, ns in harness.self_times(m.spans).items():
        if name in SELF_TIME_SPANS:
            values[f"{name}.self_ms"] = ns / 1e6 / ops
    values["solver.iterations"] = (
        harness.attr_totals(m.spans, "solver.", "iterations") / ops
    )
    values["latency_p99_ms"] = tail_latency_ms(baseline.latencies, harness)
    values["trace.overhead_frac"] = (
        statistics.fmean(m.latencies) / statistics.fmean(baseline.latencies) - 1.0
    )
    for name, unit in PER_LAYER.items():
        result.put(name, values[name], unit)


def stop_children() -> None:
    """End and reap every process the run started.

    Shard processes are joined by ``service.close()``; this catches any
    a failed run left behind.  Creating a shared-memory segment also
    starts the stdlib's resource-tracker process, which otherwise
    outlives the benchmark and is never waited for.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=5.0)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


def main(argv: list[str] | None = None) -> int:
    try:
        return measure(argv)
    finally:
        stop_children()


def measure(argv: list[str] | None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("detect", "backtest", "serve-sparse", "serve-dense"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))

    import harness
    import workloads
    from repro.telemetry.export import write_trace

    workloads.install_log_counter()
    run = workloads.WORKLOADS[args.workload]
    result = harness.Result()
    if args.trace:
        baseline = run(args.seed, args.seconds / 2, False, False, rounds=1)
        m = run(args.seed, args.seconds / 2, True, True, rounds=1)
        per_layer(m, baseline, result, harness)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        path = write_trace(
            m.spans, out_dir / f"trace-{args.workload}-{args.seed}.json"
        )
        print(f"wrote {path.relative_to(ROOT)} ({len(m.spans)} spans)")
    else:
        m = run(args.seed, args.seconds, False, True)
        end_to_end(m, result, harness)
    # a failed check may count an operation once per round
    result.attempted, result.failed = m.attempted, min(m.failed, m.attempted)
    result.problems = list(m.problems)
    for problem in result.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(f"{args.workload}: {m.attempted} operations, {m.failed} failed")
    print(result.to_json())
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
