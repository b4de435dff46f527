"""Speed and parity gates for the kernels, replay, pruning, service and telemetry.

One table, :data:`SECTIONS`, names each section (after the script it
replaced), its runner, and the cases, stream shapes and floors of its
``--smoke`` and full runs.  Parity checks come before timings count.
Every check prints ``PASS`` or ``FAIL``; a failed check or a raising
section fails only that section, the rest still run, and the process
exits 1.  Run every section as CI does (one JSON object per section)::

    PYTHONPATH=src python benchmarks/gates.py --smoke --json gates.json

or one section's full ladder::

    PYTHONPATH=src python benchmarks/gates.py service_throughput
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import json
import operator
import os
import statistics
import sys
import time
import traceback
from collections import namedtuple
from functools import partial

import numpy as np
import pytest

from repro.amm import Pool, StableSwapPool, WeightedPool, loop_quote_out
from repro.amm.registry import PoolRegistry
from repro.core.types import PriceMap, Token
from repro.data.snapshot import MarketSnapshot
from repro.engine import LoopUniverse
from repro.market import (
    STABLESWAP_PARITY_RTOL,
    WEIGHTED_PARITY_RTOL,
    BatchEvaluator,
    MarketArrays,
    base_units,
    compile_loops,
    integer_batch_quotes,
    integer_hops,
)
from repro.replay import ReplayDriver, generate_event_stream, make_workload
from repro.service import OpportunityService, batch_detect_ranking, log_source
from repro.strategies import MaxMaxStrategy
from repro.telemetry import trace
from repro.telemetry.trace import Tracer

_OPS = {">=": operator.ge, ">": operator.gt, "<=": operator.le}


class Gates:
    """The checks one section makes, printed as they are made."""

    def __init__(self) -> None:
        self.failed: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        print(f"  {'PASS' if ok else 'FAIL'}  {what}")
        if not ok:
            self.failed.append(what)

    def floor(self, what: str, value: float, op: str, bound: float) -> None:
        """Hold a measurement to its floor (``>=``, ``>``) or ceiling (``<=``)."""
        self.check(_OPS[op](value, bound), f"{what}: {value:.4g} {op} {bound:g}")

    def parity(self, what, got, ref, *, rtol=0.0, same=operator.eq) -> None:
        """``got`` and ``ref`` agree in length and item by item: ``same``
        (``==``) holds, or within ``rtol * max(1, |ref|)`` if one is named."""
        bad = abs(len(got) - len(ref)) + sum(
            not (same(g, r) or rtol and abs(g - r) <= rtol * max(1.0, abs(r)))
            for g, r in zip(got, ref)
        )
        rule = f"rtol {rtol:g}" if rtol else "exact"
        self.check(bad == 0, f"{what}: {bad} of {len(ref)} differ ({rule})")


def show(row: dict) -> None:
    print("  " + ", ".join(
        f"{k} {v:.4g}" if isinstance(v, float) else f"{k} {v}" for k, v in row.items()
    ))


def timed(fn, *args, **kwargs):
    """``(seconds, result)`` of one call."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - t0, result


def best_of(repeats: int, run, key=operator.itemgetter(0)):
    """The result with the smallest ``key`` (the first on ties) of
    ``repeats`` calls, at least one; by default the fastest ``timed``."""
    return min((run() for _ in range(max(1, repeats))), key=key)


def ratio(num: float, den: float) -> float:
    return num / den if den > 0 else float("inf")


def _case_fields(case) -> dict:
    return dict(zip(("n_tokens", "n_pools", "n_blocks"), case))


# A pool family of the kernel sections: its pool draw (rng, token0,
# token1, pool_id) -> pool, token and pool id prefixes, USD price band,
# and the parity its kernel keeps (rtol 0: bit-identical, hop amounts too).
Family = namedtuple("Family", "pool token_prefix pool_prefix prices rtol")


def _cpmm_pool(rng, token0, token1, pool_id):
    return Pool(
        token0, token1,
        float(rng.uniform(1e3, 5e4)), float(rng.uniform(1e3, 5e4)),
        pool_id=pool_id,
    )


def _weighted_pool(rng, token0, token1, pool_id):
    w0 = float(rng.uniform(0.2, 0.8))
    return WeightedPool(
        token0, token1,
        float(rng.uniform(1e3, 5e4)), float(rng.uniform(1e3, 5e4)),
        w0, 1.0 - w0,
        fee=float(rng.uniform(0.001, 0.01)),
        pool_id=pool_id,
    )


def _stableswap_pool(rng, token0, token1, pool_id):
    # near-balanced reserves (the pegged-pair regime the family models)
    # with enough imbalance spread to make loops profitable, random
    # amplifications across Curve's mainnet range, stable-pool fees
    base = float(rng.uniform(1e4, 5e5))
    return StableSwapPool(
        token0, token1, base, base * float(rng.uniform(0.9, 1.1)),
        amplification=float(rng.uniform(10.0, 400.0)),
        fee=float(rng.uniform(0.0001, 0.002)),
        pool_id=pool_id,
    )


CPMM = Family(_cpmm_pool, "T", "p", (0.1, 100.0), 0.0)
# pow is not IEEE-pinned across platforms; the unit and property suites
# assert per-platform bit equality on top of this tolerance
WEIGHTED = Family(_weighted_pool, "T", "w", (0.1, 100.0), WEIGHTED_PARITY_RTOL)
# + - * / only, so bit-identical on IEEE-754 float64; the tolerance keeps
# FMA-contracting platforms runnable
STABLESWAP = Family(_stableswap_pool, "S", "s", (0.98, 1.02), STABLESWAP_PARITY_RTOL)


def complete_market(family: Family, n_tokens: int, pools_per_pair: int, seed: int):
    """Complete graph of ``family`` pools over ``n_tokens`` tokens and a
    USD price per token; draws run pool by pool, then token by token."""
    rng = np.random.default_rng(seed)
    tokens = [Token(f"{family.token_prefix}{i:02d}") for i in range(n_tokens)]
    registry = PoolRegistry()
    for token0, token1 in itertools.combinations(tokens, 2):
        for _ in range(pools_per_pair):
            pool_id = f"{family.pool_prefix}{len(registry)}"
            registry.add(family.pool(rng, token0, token1, pool_id))
    prices = PriceMap({t: float(rng.uniform(*family.prices)) for t in tokens})
    return registry, prices


# per-block shape of a synthetic event stream: events, distinct pools
# touched (None: unrestricted) and CEX price ticks
Stream = namedtuple("Stream", "events pools ticks")


def stream_workload(case, stream: Stream, seed: int):
    """Seeded synthetic CPMM market and stream for a (tokens, pools, blocks) case."""
    n_tokens, n_pools, n_blocks = case
    return make_workload(
        n_tokens, n_pools, n_blocks, stream.events, seed,
        pools_per_block=stream.pools, price_ticks_per_block=stream.ticks,
    )


def with_weighted_pools(market, fraction: float, seed: int):
    """Swap a seeded fraction of CPMM pools for 60/40 weighted pools (same
    tokens, reserves, fee, id) so exact quotes take the iterative solver."""
    rng = np.random.default_rng(seed)
    pools = sorted(market.registry, key=lambda p: p.pool_id)
    convert = set(rng.choice(len(pools), size=int(len(pools) * fraction), replace=False))
    registry = PoolRegistry()
    for index, pool in enumerate(pools):
        if index in convert:
            registry.add(WeightedPool(
                pool.token0, pool.token1, pool.reserve0, pool.reserve1,
                weight0=0.6, weight1=0.4, fee=pool.fee, pool_id=pool.pool_id,
            ))
        else:
            registry.add(pool.copy())
    return MarketSnapshot(registry=registry, prices=market.prices, label=market.label)


def service_run(market, log, **options) -> dict:
    """One :class:`OpportunityService` run over ``log``, reduced to the
    numbers the sections report; ``book`` is every (profit, loop id)."""
    service = OpportunityService(market, **options)
    try:
        wall_s, report = timed(asyncio.run, service.run(log_source(log)))
    finally:
        service.close()
    e2e = report.metrics["latencies"].get("end_to_end", {})
    counters = report.metrics["counters"]
    return {
        "n_shards": service.n_shards,
        "backend": service.backend,
        "wall_s": wall_s,
        "events": report.events_ingested,
        "events_per_s": report.events_per_s,
        "evaluations": report.evaluations,
        "loops_pruned": report.loops_pruned,
        "loops_restored": report.loops_restored,
        "total_loops": service.total_loops,
        "e2e_p50_ms": e2e.get("p50_ms", 0.0),
        "e2e_p99_ms": e2e.get("p99_ms", 0.0),
        "shm_epoch_waits": counters.get("shm_epoch_waits", 0),
        "shm_torn_retries": counters.get("shm_torn_retries", 0),
        "memory": report.memory,
        "book": [(o.profit_usd, o.loop_id) for o in report.book.entries],
    }


def replay_pair(gates: Gates, label, market, log, repeats, fast: dict, ref: dict):
    """``(fast_s, ref_s, fast, ref, loops)`` of two ReplayDriver setups
    (best by ``fast`` time); gates that their block reports agree."""

    def run():
        # drivers are rebuilt per run (they mutate their market copy),
        # but their setup (universe enumeration + cache priming) is
        # excluded from the timings: it is paid once per topology, not
        # per block
        driver = ReplayDriver(market, **fast)
        fast_s, fast_out = timed(driver.replay, log)
        ref_s, ref_out = timed(ReplayDriver(market, **ref).replay, log)
        return fast_s, ref_s, fast_out, ref_out, driver.total_loops

    result = best_of(repeats, run)
    gates.parity(
        f"{label} block reports", result[2].reports, result[3].reports,
        same=lambda a, b: a.same_numbers(b),
    )
    return result


def _race(opts, case, registry, loops, ref_name, reference, kernel, **fields):
    """Best-of timings of a per-loop ``reference`` path and a batch
    ``kernel`` on one case: its row and both paths' results."""
    ref_s, ref_out = best_of(opts.repeats, lambda: timed(reference))
    batch_s, batch_out = best_of(opts.repeats, lambda: timed(kernel))
    row = {
        "n_tokens": case[0],
        "pools_per_pair": case[1],
        "n_pools": len(registry),
        "n_loops": len(loops),
        **fields,
        f"{ref_name}_s": ref_s,
        "batch_s": batch_s,
        f"{ref_name}_loops_per_s": ratio(len(loops), ref_s),
        "batch_loops_per_s": ratio(len(loops), batch_s),
        "speedup": ratio(ref_s, batch_s),
    }
    show(row)
    return row, ref_out, batch_out


def run_quote(family: Family, gates: Gates, opts, *, cases, min_speedup):
    """MaxMax over every length-3 loop: per loop on the scalar object
    path vs one BatchEvaluator pass."""
    strategy = MaxMaxStrategy()
    fields = ("monetized_profit", "amount_in") + (() if family.rtol else ("hop_amounts",))
    rows = []
    for case in cases:
        registry, prices = complete_market(family, *case, opts.seed)
        loops = list(LoopUniverse(registry, 3).candidates)
        compile_s, evaluator = timed(
            lambda: BatchEvaluator(loops, arrays=MarketArrays.from_registry(registry))
        )
        row, scalar, batch = _race(
            opts, case, registry, loops, "scalar",
            lambda: [strategy.evaluate(loop, prices) for loop in loops],
            partial(evaluator.evaluate_many, strategy, prices),
            compile_s=compile_s,
        )
        rows.append(row)
        gates.parity(
            f"{len(loops)} loops, batch vs scalar {'/'.join(fields)}",
            [getattr(r, f) for r in batch for f in fields],
            [getattr(r, f) for r in scalar for f in fields],
            rtol=family.rtol,
        )
        if family.rtol:  # iterative families: every quote stays on the kernel
            gates.check(
                evaluator.fallback_positions == []
                and all(g.mixed for g in evaluator.groups)
                and evaluator.stats.scalar_loops == 0,
                "no fallback or scalar-routed loops, every kernel group mixed",
            )
    largest = rows[-1]
    gates.floor(
        f"batch/scalar at {largest['n_loops']} loops", largest["speedup"], ">=", min_speedup
    )
    return {"min_speedup": min_speedup, "cases": rows}


def run_integer(gates: Gates, opts, *, cases, min_speedup):
    """Contract-int quotes of each loop's first rotation at 0.1% of its
    entry reserve (a realistic trade size): one integer_batch_quotes
    pass vs loop_quote_out loop by loop, the sequential reference the
    parity suite pins the kernel to."""
    rows = []
    for case in cases:
        registry, _ = complete_market(CPMM, *case, opts.seed)
        arrays = MarketArrays.from_registry(registry)
        loops = list(LoopUniverse(registry, 3).candidates)
        groups, fallback = compile_loops(loops, arrays)
        gates.check(not fallback and len(groups) == 1, "one kernel group, no fallback")
        rotations = [loop.rotations()[0] for loop in loops]
        amounts = [
            base_units(pool.reserve_of(token_in) * 1e-3)
            for token_in, _token_out, pool in (next(iter(r.hops())) for r in rotations)
        ]

        def sequential():
            return [
                loop_quote_out(integer_hops(rotation), amount)
                for rotation, amount in zip(rotations, amounts)
            ]

        row, seq, batch = _race(
            opts, case, registry, loops, "sequential", sequential,
            partial(integer_batch_quotes, arrays, groups[0], 0, amounts),
        )
        rows.append(row)
        gates.parity(
            f"{len(loops)} loops, batch rows vs sequential",
            [batch.row(k) for k in range(len(seq))], seq,
        )
    largest = rows[-1]
    gates.floor(
        f"batch/sequential at {largest['n_loops']} loops", largest["speedup"], ">=", min_speedup
    )
    return {"min_speedup": min_speedup, "cases": rows}


def run_replay(gates: Gates, opts, *, cases, stream: Stream, min_speedup):
    """Incremental vs full replay of one stream per case."""
    rows = []
    for case in cases:
        market, log = stream_workload(case, stream, opts.seed)
        inc_s, full_s, inc, ref, total_loops = replay_pair(
            gates, f"{case[1]} pools, incremental vs full", market, log, opts.repeats,
            fast=dict(mode="incremental"), ref=dict(mode="full"),
        )
        events = inc.events_applied
        row = {
            **_case_fields(case),
            "candidate_loops": total_loops,
            "events": events,
            "incremental_s": inc_s,
            "full_s": full_s,
            "incremental_events_per_s": ratio(events, inc_s),
            "full_events_per_s": ratio(events, full_s),
            "incremental_evaluations": inc.evaluations(),
            "full_evaluations": ref.evaluations(),
            "speedup": ratio(full_s, inc_s),
        }
        rows.append(row)
        show(row)
        gates.floor(f"incremental/full at {case[1]} pools", row["speedup"], ">=", min_speedup)
    return {
        "events_per_block": stream.events,
        "pools_per_block": stream.pools,
        "min_speedup": min_speedup,
        "results": rows,
    }


def _compare_pruning(gates: Gates, label, market, log, repeats, top_k, case):
    """Pruned vs unpruned 1-shard inline service on one workload."""
    wall = operator.itemgetter("wall_s")
    pruned, exact = (
        best_of(repeats, partial(service_run, market, log, prune_top_k=k), key=wall)
        for k in (top_k, None)
    )
    row = {
        **_case_fields(case),
        "total_loops": pruned["total_loops"],
        "loops_dirtied": exact["evaluations"],
        "exact_quotes": pruned["evaluations"],
        "loops_pruned": pruned["loops_pruned"],
        "loops_restored": pruned["loops_restored"],
        "quote_reduction": exact["evaluations"] / max(1, pruned["evaluations"]),
        "wall_s_pruned": pruned["wall_s"],
        "wall_s_unpruned": exact["wall_s"],
        "wall_speedup": ratio(exact["wall_s"], pruned["wall_s"]),
    }
    show(row)
    gates.parity(
        f"{label}, pruned vs unpruned top-{top_k}", pruned["book"][:top_k], exact["book"][:top_k]
    )
    gates.check(
        pruned["evaluations"] + pruned["loops_pruned"] == exact["evaluations"],
        f"{label}, exact + pruned ({pruned['evaluations']} + "
        f"{pruned['loops_pruned']}) == loops dirtied ({exact['evaluations']})",
    )
    return row


def run_prune(
    gates: Gates, opts, *, ladder, weighted, replay, stream: Stream, replay_stream: Stream,
    top_k, weighted_fraction, min_quote_reduction, min_weighted_speedup, min_replay_reduction,
):
    """Bound-pruned vs unpruned re-quoting: service ladder, mixed service, replay."""
    ladder_rows = []
    for case in ladder:
        market, log = stream_workload(case, stream, opts.seed)
        label = f"ladder at {case[1]} pools"
        row = _compare_pruning(gates, label, market, log, opts.repeats, top_k, case)
        ladder_rows.append(row)
        gates.floor(
            f"{label}, fewer exact quotes", row["quote_reduction"], ">=", min_quote_reduction
        )

    market, _ = stream_workload(weighted, stream, opts.seed)
    market = with_weighted_pools(market, weighted_fraction, opts.seed)
    log = generate_event_stream(
        market, n_blocks=weighted[2], events_per_block=stream.events, seed=opts.seed,
        pools_per_block=stream.pools, price_ticks_per_block=stream.ticks,
    )
    weighted_row = _compare_pruning(gates, "weighted", market, log, opts.repeats, top_k, weighted)
    if min_weighted_speedup is not None:
        gates.floor("weighted, unpruned/pruned wall", weighted_row["wall_speedup"], ">",
                    min_weighted_speedup)

    market, log = stream_workload(replay, replay_stream, opts.seed)
    pruned_s, exact_s, pruned, exact, _ = replay_pair(
        gates, "replay, pruned vs unpruned", market, log, opts.repeats,
        fast=dict(prune=True), ref=dict(prune=False),
    )
    replay_row = {
        **_case_fields(replay),
        "evaluations_unpruned": exact.evaluations(),
        "evaluations_pruned": pruned.evaluations(),
        "reduction": exact.evaluations() / max(1, pruned.evaluations()),
        "wall_s_pruned": pruned_s,
        "wall_s_unpruned": exact_s,
    }
    show(replay_row)
    gates.floor("replay, fewer evaluations", replay_row["reduction"], ">=", min_replay_reduction)
    return {
        "prune_top_k": top_k,
        "min_quote_reduction": min_quote_reduction,
        "ladder": ladder_rows,
        "weighted": weighted_row,
        "replay": replay_row,
    }


def _service_rung(gates: Gates, opts, label, case, stream, n_shards, backend, oracle=True):
    """The run (and its JSON row) with the most events/s over one case;
    gates its book against batch detection when ``oracle``."""
    market, log = stream_workload(case, stream, opts.seed)
    run = best_of(
        opts.repeats, partial(service_run, market, log, n_shards=n_shards, backend=backend),
        key=lambda r: -r["events_per_s"],
    )
    if oracle:
        gates.parity(
            f"{label}, {n_shards}-shard book vs batch detection",
            run["book"], batch_detect_ranking(market, log),
        )
    row = {k: v for k, v in run.items() if k not in ("book", "memory")}
    return run, {**row, **_case_fields(case)}


def run_service(
    gates: Gates, opts, *, ladder, scaling, memory, ladder_stream: Stream,
    scaling_stream: Stream, oracle_max_pools, min_shard_speedup,
):
    """Inline ladder, 1 vs N process shards, handle-only process shards."""
    cpus = os.cpu_count() or 1
    shards = opts.shards if opts.shards is not None else max(2, min(4, cpus))

    ladder_rows = []
    for case in ladder:
        label = f"ladder at {case[1]} pools"
        _, row = _service_rung(gates, opts, label, case, ladder_stream, 1, "inline")
        ladder_rows.append(row)
        show(row)

    single, multi = (
        _service_rung(gates, opts, "scaling", scaling, scaling_stream, n, "process")[1]
        for n in (1, shards)
    )
    speedup = ratio(multi["events_per_s"], single["events_per_s"])
    if cpus >= 2:
        gates.floor(f"{shards} vs 1 shard events/s on {cpus} cores", speedup, ">",
                    min_shard_speedup)
    else:
        print(f"  single core: shard speedup {speedup:.2f}x reported, not gated")

    memory_rows = []
    for case in memory:
        label = f"memory at {case[1]} pools"
        run, _ = _service_rung(
            gates, opts, label, case, ladder_stream, shards, "process",
            oracle=case[1] <= oracle_max_pools,
        )
        mem = run["memory"]
        row = {
            **_case_fields(case),
            "n_shards": shards,
            "segment_nbytes": mem["store_nbytes"],
            **{k: mem[k] for k in (
                "shard_private_column_bytes", "shard_handle_bytes",
                "shard_rss_bytes_max", "parent_rss_bytes_max",
            )},
            **{k: run[k] for k in ("events_per_s", "shm_epoch_waits", "shm_torn_retries")},
        }
        memory_rows.append(row)
        show(row)
        # the market must live only in the segment
        private = row["shard_private_column_bytes"]
        gates.check(private == [0] * shards, f"{label}, shard private column bytes {private}")
        gates.check(
            all(nbytes > 0 for nbytes in row["shard_handle_bytes"]),
            f"{label}, every shard holds pool handles",
        )
    return {
        "cpu_count": cpus,
        "ladder": ladder_rows,
        "scaling": {
            **_case_fields(scaling),
            "n_shards_multi": shards,
            "single": single,
            "multi": multi,
            "speedup": speedup,
        },
        "memory": memory_rows,
    }


def span_cost_us(enabled: bool, iters: int = 20_000) -> float:
    """Tight-loop per-span cost (µs), best of 3 batches, on a private
    tracer; attrs and a ``set`` call mirror a realistic call site."""
    tracer = Tracer()
    if enabled:
        tracer.enable()

    def batch():
        t0 = time.perf_counter()
        for _ in range(iters):
            with tracer.span("bench.span", loops=8) as sp:
                sp.set(quoted=4)
        elapsed = time.perf_counter() - t0
        tracer.clear()
        return elapsed

    return min(batch() for _ in range(3)) / iters * 1e6


def _traced_runs(repeats, market, log, *, traced: bool) -> dict:
    """Median wall time of 2-shard inline service runs, with the last
    run's spans and book; leaves the process tracer disabled and empty."""
    walls = []
    for _ in range(max(1, repeats)):
        trace.disable()
        if traced:
            trace.clear()
            trace.enable()
        try:
            run = service_run(market, log, n_shards=2)
            spans = trace.spans()
        finally:
            trace.disable()
            trace.clear()
        walls.append(run["wall_s"])
    return {
        "wall_s": statistics.median(walls),
        "n_spans": len(spans),
        "span_names": sorted({s.name for s in spans}),
        "book": run["book"],
    }


def run_telemetry(gates: Gates, opts, *, case, stream: Stream, max_overhead, expected_spans):
    """Span instrumentation cost, disabled and enabled.

    Wall-clocking a ~0.1 s asyncio pipeline A/B cannot resolve a 5 %
    gate on shared hardware (run-to-run noise is 10-50 %), so the gate
    holds the *implied* overhead: spans a traced run recorded × the
    per-span cost of a tight loop (stable to ~1 %), over the run's wall
    time.  That is the quantity the design controls — spans are block-
    and pass-granular, never per-loop.  The direct A/B ratio is gated
    only with ``--strict`` (quiet dedicated hardware).
    """
    market, log = stream_workload(case, stream, opts.seed)
    gates.check(trace.span("x", a=1) is trace.NOOP, "disabled trace.span returns the shared NOOP")
    cost_off_us, cost_on_us = span_cost_us(enabled=False), span_cost_us(enabled=True)
    _traced_runs(1, market, log, traced=False)  # warm-up
    untraced = _traced_runs(opts.repeats, market, log, traced=False)
    traced = _traced_runs(opts.repeats, market, log, traced=True)
    payload = {
        "case": {**_case_fields(case), "events_per_block": stream.events},
        "span_cost_disabled_us": cost_off_us,
        "span_cost_enabled_us": cost_on_us,
        "untraced_wall_s": untraced["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "n_spans": traced["n_spans"],
        "implied_overhead": traced["n_spans"] * cost_on_us * 1e-6 / traced["wall_s"],
        "ab_ratio": traced["wall_s"] / untraced["wall_s"],
        "gate": max_overhead,
        "span_names": traced["span_names"],
    }
    show({k: v for k, v in payload.items() if k not in ("case", "span_names")})
    gates.floor("implied tracing overhead", payload["implied_overhead"], "<=", max_overhead)
    if opts.strict:
        gates.floor("A/B wall ratio", payload["ab_ratio"], "<=", 1.0 + max_overhead)
    missing = sorted(set(expected_spans) - set(traced["span_names"]))
    gates.check(not missing, f"traced run recorded every expected span (missing: {missing})")
    gates.parity("traced vs untraced book", traced["book"], untraced["book"])
    return payload


# One row of the gate table: run(gates, opts, **smoke or **full) makes
# the section's checks and returns its JSON payload; seed pins the market
# seed (None: --seed) and repeats is the section's --repeats default.
Section = namedtuple("Section", "name run smoke full seed repeats", defaults=(None, 3))


SECTIONS = (
    # (tokens, pools per pair): complete graphs with C(n,3) * ppp^3 * 2
    # loops, ~112 / ~910 / ~10880
    Section(
        "batch_quote", partial(run_quote, CPMM), seed=7,
        smoke=dict(cases=[(8, 1), (15, 1)], min_speedup=3.0),
        full=dict(cases=[(8, 1), (15, 1), (17, 2)], min_speedup=5.0),
    ),
    # ~112 / ~440 / ~910 loops, every one crossing weighted hops
    Section(
        "weighted_quote", partial(run_quote, WEIGHTED), seed=7,
        smoke=dict(cases=[(8, 1), (12, 1)], min_speedup=3.0),
        full=dict(cases=[(8, 1), (12, 1), (15, 1)], min_speedup=3.0),
    ),
    # ~440 / ~2280 / ~4048 loops.  The inner Newton solves give the batch
    # path a higher fixed dispatch cost per probe than the weighted
    # kernel's pow, so the kernel-vs-scalar crossover sits around ~10^3
    # loops and the gate rung is sized past it.
    Section(
        "stableswap_quote", partial(run_quote, STABLESWAP), seed=11,
        smoke=dict(cases=[(12, 1), (20, 1)], min_speedup=3.0),
        full=dict(cases=[(12, 1), (20, 1), (24, 1)], min_speedup=3.0),
    ),
    # ~112 / ~440 / ~910 loops
    Section(
        "integer_vs_float", run_integer, seed=7,
        smoke=dict(cases=[(8, 1), (12, 1)], min_speedup=3.0),
        full=dict(cases=[(8, 1), (12, 1), (15, 1)], min_speedup=3.0),
    ),
    # (tokens, pools, blocks) from here on; sparse touch and no CEX
    # ticks, the regime real blocks live in.  10^4 pools takes a few
    # seconds of setup.
    Section(
        "replay_throughput", partial(run_replay, stream=Stream(events=8, pools=2, ticks=0)),
        smoke=dict(cases=[(40, 100, 8), (120, 300, 5)], min_speedup=5.0),
        full=dict(cases=[(40, 100, 20), (300, 1_000, 8), (2_500, 10_000, 3)], min_speedup=5.0),
    ),
    # sparse touch; ladder token counts stay low relative to pools so
    # the loop universe is dense (10^3-10^4 loops).  The weighted case converts
    # 40 % of the pools so exact quotes run the iterative solver, where
    # the bound pass wins wall-clock; CI smoke machines are too noisy
    # to gate that.  Replay prunes at threshold 0 (only provably
    # unprofitable loops), so its gate is modest.
    Section(
        "prune_requote",
        partial(
            run_prune, stream=Stream(events=6, pools=2, ticks=0),
            replay_stream=Stream(events=6, pools=2, ticks=1), top_k=10, weighted_fraction=0.4,
        ),
        smoke=dict(
            ladder=[(20, 150, 12), (30, 300, 8)], weighted=(20, 150, 10), replay=(15, 40, 15),
            min_quote_reduction=5.0, min_weighted_speedup=None, min_replay_reduction=1.3,
        ),
        full=dict(
            ladder=[(20, 150, 30), (30, 300, 15), (25, 400, 10)], weighted=(25, 250, 25),
            replay=(15, 40, 40),
            min_quote_reduction=5.0, min_weighted_speedup=1.0, min_replay_reduction=1.3,
        ),
    ),
    # ladder: sparse touch with a tick per block (the cache-hit
    # re-monetize path), 10^2-10^4 pools (10^4 takes tens of seconds of
    # setup).  scaling: dense touch so per-block evaluation dominates
    # IPC; more shards must beat 1 on a multi-core machine.  memory:
    # 10^3-10^5 pools on --shards process shards; the batch-detect
    # oracle is O(loops) per block, so rungs above 10^4 pools report
    # without it.
    Section(
        "service_throughput",
        partial(
            run_service, ladder_stream=Stream(events=8, pools=4, ticks=1),
            scaling_stream=Stream(events=24, pools=12, ticks=0), oracle_max_pools=10_000,
        ),
        smoke=dict(
            ladder=[(40, 100, 8), (120, 300, 5)], scaling=(30, 120, 6),
            memory=[(120, 1_000, 3)], min_shard_speedup=1.0,
        ),
        full=dict(
            ladder=[(40, 100, 20), (300, 1_000, 8), (2_500, 10_000, 3)],
            scaling=(40, 300, 12),
            memory=[(300, 1_000, 6), (2_500, 10_000, 3), (20_000, 100_000, 2)],
            min_shard_speedup=1.0,
        ),
    ),
    Section(
        "telemetry_overhead",
        partial(run_telemetry, expected_spans=(
            "ingest.block", "shard.queue_wait", "shard.block", "shard.apply", "shard.quote",
            "publish.book")),
        smoke=dict(case=(30, 120, 10), stream=Stream(8, None, 1), max_overhead=0.05),
        full=dict(case=(40, 300, 24), stream=Stream(10, None, 1), max_overhead=0.05),
        repeats=5,  # wall times are medians
    ),
)


def run_section(section: Section, args) -> dict:
    """Run one section; its failed checks, or an exception, fail it alone."""
    opts = argparse.Namespace(**vars(args))
    opts.seed = args.seed if section.seed is None else section.seed
    opts.repeats = section.repeats if args.repeats is None else args.repeats
    mode = "smoke" if args.smoke else "full"
    print(f"== {section.name} ({mode}, seed {opts.seed}, repeats {opts.repeats})")
    gates = Gates()
    payload = {}
    try:
        payload = section.run(gates, opts, **(section.smoke if args.smoke else section.full))
    except Exception:
        traceback.print_exc(file=sys.stdout)
        gates.check(False, f"{section.name} raised")
    return {
        "benchmark": section.name,
        "smoke": args.smoke,
        **payload,
        "pass": not gates.failed,
        "failed": gates.failed,
    }


def main(argv: list[str] | None = None, sections=SECTIONS) -> int:
    names = [s.name for s in sections]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sections", nargs="*", metavar="SECTION",
                        help=f"sections to run, default all: {', '.join(names)}")
    parser.add_argument("--smoke", action="store_true", help="smoke cases and floors (CI)")
    parser.add_argument("--json", help="write one object per section to this file")
    parser.add_argument("--repeats", type=int,
                        help="timing repeats (default 3, best-of; telemetry: median of 5)")
    parser.add_argument("--seed", type=int, default=20240601,
                        help="stream sections' workload seed (kernel sections pin theirs)")
    parser.add_argument("--shards", type=int,
                        help="service scaling/memory process shards (default min(4, CPUs), >= 2)")
    parser.add_argument("--strict", action="store_true",
                        help="also gate telemetry's direct A/B wall ratio (quiet hardware)")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.sections) - set(names))
    if unknown:
        parser.error(f"unknown section(s) {', '.join(unknown)}; choose from {', '.join(names)}")

    results = {
        section.name: run_section(section, args)
        for section in sections
        if not args.sections or section.name in args.sections
    }
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(results, fh, indent=2)
        print(f"wrote {args.json}")
    print("== summary")
    for name, payload in results.items():
        print(f"  {'PASS' if payload['pass'] else 'FAIL'}  {name}")
        for what in payload["failed"]:
            print(f"          {what}")
    return 0 if all(p["pass"] for p in results.values()) else 1


# pytest entry points: each section's smoke run doubles as a slow
# regression test; the gate check itself gets a fast one


@pytest.mark.parametrize("section", [s.name for s in SECTIONS])
def test_section_smoke(section):
    assert main([section, "--smoke"]) == 0


def test_failed_gate_fails_the_run(tmp_path, capsys):
    """A measurement under its floor prints FAIL and exits 1; a section
    that raises fails only itself, and the next section still runs."""
    quote = next(s for s in SECTIONS if s.name == "batch_quote")

    def crash(gates, opts):
        raise RuntimeError("section crashed")

    sections = (
        quote._replace(smoke=dict(cases=[(5, 1)], min_speedup=1e9)),
        Section("crash", crash, smoke={}, full={}),
        quote._replace(name="passing", smoke=dict(cases=[(5, 1)], min_speedup=0.0)),
    )
    path = tmp_path / "gates.json"
    assert main(["--smoke", "--repeats", "1", "--json", str(path)], sections) == 1
    out = capsys.readouterr().out
    assert "FAIL  batch/scalar at 20 loops" in out
    assert "RuntimeError: section crashed" in out
    report = json.loads(path.read_text())
    assert [(name, r["pass"]) for name, r in report.items()] == [
        ("batch_quote", False), ("crash", False), ("passing", True)]


if __name__ == "__main__":
    sys.exit(main())
