"""Throughput / latency benchmark for the streaming opportunity service.

Three sections, one JSON report:

* **ladder** — sustained events/sec and end-to-end p50/p99 latency of
  a 1-shard inline service over sparse-touch streams at 10² → 10⁴
  pools (the regime real blocks live in; smoke stops at 300 pools).
  Every ladder run asserts the book equals batch detection on the
  final state before its numbers count.
* **scaling** — 1 shard vs ≥2 shards, both process-backed, on a
  dense-touch stream (heavy per-block evaluation, where sharding is
  supposed to pay).  On a multi-core machine the multi-shard
  configuration must **beat** 1 shard; on a single core the ratio is
  reported but not asserted (there is nothing to parallelize onto).
  Shard counts never change the numbers — parity is asserted either
  way.
* **memory** — process-backed market state at 10³ → 10⁵ pools (smoke
  stops at 10³).  Each rung asserts that every shard maps zero private
  column bytes and holds nothing but its reserve-less pool handles (the
  market lives once, in the shared segment), and — up to 10⁴ pools,
  where the batch oracle stays affordable — that the book equals batch
  detection.  Segment bytes, per-shard handle bytes, per-shard RSS
  high-water, and seqlock epoch-wait / torn-read-retry counts land in
  the JSON artifact.

Run standalone (CI runs the smoke variant and uploads the JSON)::

    PYTHONPATH=src python benchmarks/bench_service_throughput.py --smoke --json out.json

or the full ladder (10⁴ pools takes tens of seconds of setup)::

    PYTHONPATH=src python benchmarks/bench_service_throughput.py
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time

from repro.service import (
    OpportunityService,
    batch_detect_ranking,
    log_source,
    make_workload,
)

#: ladder cases: (n_tokens, n_pools, n_blocks), sparse touch
FULL_LADDER = [(40, 100, 20), (300, 1_000, 8), (2_500, 10_000, 3)]
SMOKE_LADDER = [(40, 100, 8), (120, 300, 5)]

#: scaling case: dense touch so per-block evaluation dominates IPC
FULL_SCALING = (40, 300, 12)
SMOKE_SCALING = (30, 120, 6)

LADDER_EVENTS_PER_BLOCK = 8
LADDER_POOLS_PER_BLOCK = 4
LADDER_TICKS_PER_BLOCK = 1  # ticks exercise the cache-hit re-monetize path
SCALING_EVENTS_PER_BLOCK = 24
SCALING_POOLS_PER_BLOCK = 12

#: memory cases: (n_tokens, n_pools, n_blocks), sparse touch
FULL_MEMORY = [(300, 1_000, 6), (2_500, 10_000, 3), (20_000, 100_000, 2)]
SMOKE_MEMORY = [(120, 1_000, 3)]
MEMORY_EVENTS_PER_BLOCK = 8
MEMORY_POOLS_PER_BLOCK = 4
#: the batch-detect oracle is O(loops) per block; above this many pools
#: the memory rungs report without it
MEMORY_ORACLE_MAX_POOLS = 10_000


def run_service(market, log, *, n_shards, backend):
    service = OpportunityService(
        market, n_shards=n_shards, backend=backend, queue_size=64
    )
    t0 = time.perf_counter()
    try:
        report = asyncio.run(service.run(log_source(log)))
    finally:
        service.close()
    wall_s = time.perf_counter() - t0
    e2e = report.metrics["latencies"].get("end_to_end", {})
    counters = report.metrics["counters"]
    return {
        "n_shards": n_shards,
        "backend": backend,
        "wall_s": wall_s,
        "events": report.events_ingested,
        "events_per_s": report.events_per_s,
        "evaluations": report.evaluations,
        "e2e_p50_ms": e2e.get("p50_ms", 0.0),
        "e2e_p99_ms": e2e.get("p99_ms", 0.0),
        "shm_epoch_waits": counters.get("shm_epoch_waits", 0),
        "shm_torn_retries": counters.get("shm_torn_retries", 0),
        "memory": report.memory,
        "book": [(o.profit_usd, o.loop_id) for o in report.book.entries],
    }


def best_of(n, fn):
    best = None
    for _ in range(max(1, n)):
        result = fn()
        if best is None or result["events_per_s"] > best["events_per_s"]:
            best = result
    return best


def run_ladder(cases, seed, repeats):
    results = []
    for n_tokens, n_pools, n_blocks in cases:
        market, log = make_workload(
            n_tokens, n_pools, n_blocks, LADDER_EVENTS_PER_BLOCK, seed,
            pools_per_block=LADDER_POOLS_PER_BLOCK,
            price_ticks_per_block=LADDER_TICKS_PER_BLOCK,
        )
        expected = batch_detect_ranking(market, log)
        best = best_of(
            repeats, lambda: run_service(market, log, n_shards=1, backend="inline")
        )
        assert best["book"] == expected, (
            f"ladder parity violation at {n_pools} pools"
        )
        row = {k: v for k, v in best.items() if k not in ("book", "memory")}
        row.update(n_tokens=n_tokens, n_pools=n_pools, n_blocks=n_blocks)
        results.append(row)
        print(
            f"{n_pools:>6} pools / {n_blocks:>2} blocks: "
            f"{row['events_per_s']:>10,.0f} ev/s, "
            f"e2e p50 {row['e2e_p50_ms']:>7.2f}ms / "
            f"p99 {row['e2e_p99_ms']:>7.2f}ms, "
            f"{row['evaluations']} evals"
        )
    return results


def run_scaling(case, seed, repeats, n_shards_multi):
    n_tokens, n_pools, n_blocks = case
    market, log = make_workload(
        n_tokens, n_pools, n_blocks, SCALING_EVENTS_PER_BLOCK, seed,
        pools_per_block=SCALING_POOLS_PER_BLOCK, price_ticks_per_block=0,
    )
    expected = batch_detect_ranking(market, log)
    single = best_of(
        repeats,
        lambda: run_service(market, log, n_shards=1, backend="process"),
    )
    multi = best_of(
        repeats,
        lambda: run_service(market, log, n_shards=n_shards_multi, backend="process"),
    )
    assert single["book"] == expected, "scaling parity violation (1 shard)"
    assert multi["book"] == expected, (
        f"scaling parity violation ({n_shards_multi} shards)"
    )
    speedup = (
        multi["events_per_s"] / single["events_per_s"]
        if single["events_per_s"] > 0
        else float("inf")
    )
    print(
        f"scaling at {n_pools} pools ({n_blocks} blocks, dense touch): "
        f"1 shard {single['events_per_s']:,.0f} ev/s vs "
        f"{n_shards_multi} shards {multi['events_per_s']:,.0f} ev/s "
        f"->  {speedup:.2f}x"
    )
    return {
        "n_tokens": n_tokens,
        "n_pools": n_pools,
        "n_blocks": n_blocks,
        "n_shards_multi": n_shards_multi,
        "single": {k: v for k, v in single.items() if k not in ("book", "memory")},
        "multi": {k: v for k, v in multi.items() if k not in ("book", "memory")},
        "speedup": speedup,
    }


def run_memory(cases, seed, repeats, n_shards):
    """Process-backed market state: one segment, handle-only shards."""
    results = []
    for n_tokens, n_pools, n_blocks in cases:
        market, log = make_workload(
            n_tokens, n_pools, n_blocks, MEMORY_EVENTS_PER_BLOCK, seed,
            pools_per_block=MEMORY_POOLS_PER_BLOCK, price_ticks_per_block=1,
        )
        run = best_of(
            repeats,
            lambda: run_service(market, log, n_shards=n_shards, backend="process"),
        )
        if n_pools <= MEMORY_ORACLE_MAX_POOLS:
            assert run["book"] == batch_detect_ranking(market, log), (
                f"memory-section parity violation at {n_pools} pools: "
                "book != batch detection"
            )
        memory = run["memory"]
        private = memory["shard_private_column_bytes"]
        handles = memory["shard_handle_bytes"]
        rss = memory["shard_rss_bytes_max"]
        row = {
            "n_tokens": n_tokens,
            "n_pools": n_pools,
            "n_blocks": n_blocks,
            "n_shards": n_shards,
            "segment_nbytes": memory["store_nbytes"],
            "shard_private_column_bytes": private,
            "shard_handle_bytes": handles,
            "shard_rss_bytes_max": rss,
            "parent_rss_bytes_max": memory["parent_rss_bytes_max"],
            "events_per_s": run["events_per_s"],
            "shm_epoch_waits": run["shm_epoch_waits"],
            "shm_torn_retries": run["shm_torn_retries"],
        }
        results.append(row)
        print(
            f"memory at {n_pools:>6} pools x {n_shards} shards: "
            f"segment {memory['store_nbytes']:>12,}B (once), per-shard "
            f"handles {max(handles):>10,}B max, shard RSS "
            f"{max(rss.values(), default=0) / 2**20:,.0f}MiB max, "
            f"{run['events_per_s']:,.0f} ev/s, "
            f"epoch waits {run['shm_epoch_waits']}, "
            f"torn retries {run['shm_torn_retries']}"
        )
        assert private == [0] * n_shards, (
            f"memory gate: shards hold private column bytes {private} at "
            f"{n_pools} pools (the market must live only in the segment)"
        )
        assert all(nbytes > 0 for nbytes in handles), (
            f"memory gate: a shard reports no pool handles at {n_pools} pools"
        )
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes for CI (seconds, not minutes)")
    parser.add_argument("--json", help="write results to a JSON file")
    parser.add_argument("--seed", type=int, default=20240601)
    parser.add_argument("--repeats", type=int, default=3,
                        help="timings keep the best of N runs")
    parser.add_argument("--shards", type=int, default=None,
                        help="multi-shard count for the scaling section "
                        "(default: min(4, cpu count), at least 2)")
    args = parser.parse_args(argv)

    cpus = os.cpu_count() or 1
    n_shards_multi = (
        args.shards if args.shards is not None else max(2, min(4, cpus))
    )

    ladder = run_ladder(
        SMOKE_LADDER if args.smoke else FULL_LADDER, args.seed, args.repeats
    )
    scaling = run_scaling(
        SMOKE_SCALING if args.smoke else FULL_SCALING,
        args.seed,
        args.repeats,
        n_shards_multi,
    )
    memory = run_memory(
        SMOKE_MEMORY if args.smoke else FULL_MEMORY,
        args.seed,
        args.repeats,
        n_shards_multi,
    )

    multi_core = cpus >= 2
    if args.json:
        payload = {
            "benchmark": "service_throughput",
            "smoke": args.smoke,
            "cpu_count": cpus,
            "ladder": ladder,
            "scaling": scaling,
            "memory": memory,
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {args.json}")

    if multi_core and scaling["speedup"] <= 1.0:
        print(
            f"FAIL: {n_shards_multi} shards did not beat 1 shard on a "
            f"{cpus}-core machine ({scaling['speedup']:.2f}x)",
            file=sys.stderr,
        )
        return 1
    if multi_core:
        print(
            f"OK: {n_shards_multi} shards beat 1 shard "
            f"({scaling['speedup']:.2f}x on {cpus} cores); parity held everywhere"
        )
    else:
        print(
            f"OK (single core: shard speedup {scaling['speedup']:.2f}x "
            "reported, not asserted); parity held everywhere"
        )
    return 0


# pytest entry point: the benchmark doubles as a slow regression test
def test_service_throughput_smoke():
    assert main(["--smoke", "--repeats", "2"]) == 0


if __name__ == "__main__":
    sys.exit(main())
