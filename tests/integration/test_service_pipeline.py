"""Integration tests for the streaming opportunity service.

The load-bearing assertion: on a quiesced stream the book is
**bit-identical** to batch detection on the final market state — for
any shard count and for both shard backends.  Everything else (drop
accounting, live simulation ingest, subscriptions, metrics shape)
rides on the same small workloads.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.amm.events import BurnEvent, MintEvent, SwapEvent
from repro.core.errors import InvalidReserveError, UnknownPoolError
from repro.replay import generate_event_stream
from repro.service import (
    OpportunityService,
    batch_detect_ranking as batch_book,
    log_source,
    make_workload,
    opportunity_sort_key,
    run_load,
    simulation_source,
)
from repro.simulation import SimulationEngine
from repro.simulation.agents import RetailTrader
from repro.strategies import MaxPriceStrategy


def book_pairs(report):
    return [(o.profit_usd, o.loop_id) for o in report.book.entries]


@pytest.fixture(scope="module")
def workload():
    return make_workload(10, 24, 10, 6, seed=11)


class TestQuiescedParity:
    @pytest.mark.parametrize("n_shards", [1, 2, 5])
    async def test_bit_identical_to_batch_detect(self, workload, n_shards):
        market, log = workload
        service = OpportunityService(market, n_shards=n_shards)
        report = await service.run(log_source(log))
        assert book_pairs(report) == batch_book(market, log)

    async def test_parity_holds_for_other_strategies(self, workload):
        market, log = workload
        strategy = MaxPriceStrategy()
        service = OpportunityService(market, n_shards=3, strategy=strategy)
        report = await service.run(log_source(log))
        assert book_pairs(report) == batch_book(market, log, strategy=strategy)

    async def test_shard_count_never_changes_numbers(self, workload):
        market, log = workload
        reports = []
        for n_shards in (1, 4):
            service = OpportunityService(market, n_shards=n_shards)
            reports.append(await service.run(log_source(log)))
        assert book_pairs(reports[0]) == book_pairs(reports[1])
        # the work split differs, the evaluation total does not
        assert reports[0].evaluations == reports[1].evaluations

    async def test_follow_up_empty_stream_is_a_noop_quiesce(self, workload):
        market, _ = workload
        first = generate_event_stream(market, n_blocks=4, events_per_block=5, seed=1)
        service = OpportunityService(market, n_shards=2)
        await service.run(log_source(first))
        seq_between = service.book.seq
        empty = generate_event_stream(market, n_blocks=0, events_per_block=0, seed=3)
        report = await service.run(log_source(empty))
        assert service.book.seq == seq_between
        assert book_pairs(report) == batch_book(market, first)


class TestScalarRoute:
    """The scalar route every shard has: pool objects materialised from
    the column store on demand, for scalar-only strategies and for
    dirty slices below the evaluator's ``min_batch``."""

    @pytest.mark.parametrize("backend", ["inline", "process"])
    async def test_convex_book_matches_batch_detect(self, backend):
        from repro.strategies import ConvexOptimizationStrategy

        market, log = make_workload(8, 15, 3, 4, seed=5)
        strategy = ConvexOptimizationStrategy()
        service = OpportunityService(
            market, n_shards=2, backend=backend, strategy=strategy
        )
        try:
            report = await service.run(log_source(log))
        finally:
            service.close()
        assert report.book.entries
        assert book_pairs(report) == batch_book(market, log, strategy=strategy)

    @pytest.mark.parametrize("backend", ["inline", "process"])
    async def test_small_dirty_slice_takes_scalar_route(self, workload, backend):
        from repro.market.batch import DEFAULT_MIN_BATCH

        market, _ = workload
        service = OpportunityService(market, backend=backend)
        worker = service.workers[0]
        # priming quoted every loop in kernel passes
        assert worker.evaluator_stats.scalar_loops == 0
        # one swap on the pool the fewest loops cross
        row, loops = min(worker._row_loops.items(), key=lambda item: len(item[1]))
        assert 0 < len(loops) < DEFAULT_MIN_BATCH
        pool = market.registry[service._store.pool_ids[row]]
        swap = SwapEvent(
            pool_id=pool.pool_id, token_in=pool.token0, token_out=pool.token1,
            amount_in=pool.reserve_of(pool.token0) * 0.01, amount_out=0.0,
            block=0,
        )

        async def source():
            yield swap

        try:
            report = await service.run(source())
        finally:
            service.close()
        assert report.evaluations == len(loops)
        if backend == "inline":
            scalar = worker.evaluator_stats.scalar_loops
        else:
            scalar = report.metrics["gauges"]["shard0_scalar_loops"]
        assert scalar == len(loops)
        assert book_pairs(report) == batch_book(market, [swap])


class TestProcessBackend:
    @pytest.mark.parametrize("start_method", [None, "fork", "spawn"])
    async def test_process_shards_match_inline(self, workload, start_method):
        market, log = workload
        inline = OpportunityService(market, n_shards=2)
        expected = book_pairs(await inline.run(log_source(log)))
        service = OpportunityService(
            market, n_shards=2, backend="process", start_method=start_method
        )
        report = await service.run(log_source(log))
        assert book_pairs(report) == expected
        assert report.backend == "process"

    async def test_process_book_matches_batch_detect_for_maxprice(self, workload):
        market, log = workload
        strategy = MaxPriceStrategy()
        service = OpportunityService(
            market, n_shards=3, backend="process", strategy=strategy
        )
        report = await service.run(log_source(log))
        assert book_pairs(report) == batch_book(market, log, strategy=strategy)

    async def test_process_service_is_single_shot(self, workload):
        market, log = workload
        service = OpportunityService(market, n_shards=2, backend="process")
        await service.run(log_source(log))
        with pytest.raises(RuntimeError, match="single-shot"):
            await service.run(log_source(log))


def _market_segments():
    import os

    from repro.market.shm import SEGMENT_PREFIX

    try:
        return {n for n in os.listdir("/dev/shm") if SEGMENT_PREFIX in n}
    except FileNotFoundError:  # non-Linux: nothing to leak-check
        return set()


class TestSharedMemory:
    """One column store shared by every shard — in-process columns on
    the inline backend, one shared-memory segment with per-shard views
    and no pickled market state on the process backend — and
    bit-identical books regardless."""

    @pytest.mark.parametrize("n_shards", [1, 3])
    async def test_shared_inline_matches_batch_detect(self, workload, n_shards):
        market, log = workload
        service = OpportunityService(market, n_shards=n_shards)
        # every inline shard reads the one store ingest writes
        assert len({id(worker.store) for worker in service.workers}) == 1
        report = await service.run(log_source(log))
        assert book_pairs(report) == batch_book(market, log)
        assert report.memory["segment_name"] is None

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    async def test_shared_process_matches_batch_detect(
        self, workload, start_method
    ):
        market, log = workload
        before = _market_segments()
        service = OpportunityService(
            market, n_shards=2, backend="process", shared=True,
            start_method=start_method,
        )
        try:
            report = await service.run(log_source(log))
        finally:
            service.close()
        assert book_pairs(report) == batch_book(market, log)
        # seqlock accounting reaches the report in the shared model
        counters = report.metrics["counters"]
        assert "shm_epoch_waits" in counters
        assert "shm_torn_retries" in counters
        # memory block: shards hold handles, the segment is counted once
        memory = report.memory
        assert memory["segment_name"].startswith("repro_mkt_")
        assert memory["store_nbytes"] > 0
        assert memory["shard_private_column_bytes"] == [0, 0]
        assert all(nbytes > 0 for nbytes in memory["shard_handle_bytes"])
        # and close() unlinked the segment — no /dev/shm leak
        assert _market_segments() <= before

    async def test_shared_pruning_matches_private(self, workload):
        # pruned on the shared segment vs unpruned on the inline
        # backend's private in-process columns
        market, log = workload
        k = 5
        exact = await OpportunityService(market, n_shards=2).run(
            log_source(log)
        )
        service = OpportunityService(
            market, n_shards=2, backend="process", shared=True, prune_top_k=k
        )
        try:
            pruned = await service.run(log_source(log))
        finally:
            service.close()
        assert [(o.profit_usd, o.loop_id) for o in pruned.book.top(k)] == [
            (o.profit_usd, o.loop_id) for o in exact.book.top(k)
        ]
        assert pruned.loops_pruned > 0

    def test_shared_must_agree_with_backend(self, workload):
        market, _ = workload
        for backend, shared in (("inline", True), ("process", False)):
            with pytest.raises(ValueError, match="contradicts"):
                OpportunityService(market, backend=backend, shared=shared)
        # the consistent spellings construct (the process one maps a
        # segment, released by close)
        OpportunityService(market, backend="inline", shared=False)
        OpportunityService(market, backend="process", shared=True).close()

    async def test_abnormal_worker_exit_still_unlinks_segment(self, workload):
        market, _ = workload
        pool = next(iter(market.registry))
        bogus = SwapEvent(
            pool_id="no-such-pool", token_in=pool.token0,
            token_out=pool.token1, amount_in=1.0, amount_out=0.9, block=0,
        )

        async def corrupt_source():
            yield bogus

        before = _market_segments()
        service = OpportunityService(
            market, n_shards=2, backend="process", shared=True
        )
        try:
            with pytest.raises(UnknownPoolError):
                await service.run(corrupt_source())
        finally:
            service.close()
        assert _market_segments() <= before


class TestBackpressureAndDrops:
    async def test_block_policy_is_lossless(self, workload):
        market, log = workload
        service = OpportunityService(market, n_shards=2, queue_size=1)
        report = await service.run(log_source(log))
        assert report.events_dropped == 0
        assert book_pairs(report) == batch_book(market, log)

    async def test_drop_policy_counts_and_stays_coherent(self, workload):
        market, log = workload

        async def stalling_source():
            # burst everything without yielding so tiny queues overflow
            for event in log:
                yield event

        service = OpportunityService(
            market, n_shards=1, queue_size=1, ingest_policy="drop"
        )
        report = await service.run(stalling_source())
        # conservation: every event was either applied or counted dropped
        assert report.events_ingested == len(log)
        assert 0 <= report.events_dropped <= report.events_ingested
        assert 0 <= report.blocks_dropped <= report.blocks_ingested
        if report.events_dropped:
            assert report.blocks_dropped > 0
            # the book still ranks deterministically over applied events
            pairs = book_pairs(report)
            assert pairs == sorted(
                pairs, key=lambda pair: opportunity_sort_key(*pair)
            )
        else:
            # nothing shed -> lossless, so full batch parity must hold
            assert book_pairs(report) == batch_book(market, log)

    async def test_report_counters_are_per_run(self, workload):
        market, log = workload
        service = OpportunityService(market, n_shards=1)
        first = await service.run(log_source(log))
        empty = generate_event_stream(market, n_blocks=0, events_per_block=0, seed=5)
        second = await service.run(log_source(empty))
        assert first.events_ingested == len(log)
        assert second.events_ingested == 0
        assert second.evaluations == 0
        # latency quantiles are per-run windows too, not lifetime mixes
        first_e2e = first.metrics["latencies"]["end_to_end"]["count"]
        assert first_e2e > 0
        assert second.metrics["latencies"].get(
            "end_to_end", {"count": 0}
        )["count"] == 0
        # while the service's own registry accumulates across runs
        assert service.metrics.counters["events_ingested"] == len(log)
        assert service.metrics.latency("end_to_end").count == first_e2e


#: Malformed pool events at ingest: (event for a routed pool, the typed
#: error the run must raise, its message).  The unknown pool fails at
#: routing; the rest fail in the pool objects ingest applies them to,
#: before the column store is written.
MALFORMED_EVENTS = [
    pytest.param(
        lambda pool: SwapEvent(
            pool_id="no-such-pool", token_in=pool.token0,
            token_out=pool.token1, amount_in=1.0, amount_out=0.9, block=0,
        ),
        UnknownPoolError, "no-such-pool", id="unknown-pool",
    ),
    pytest.param(
        lambda pool: SwapEvent(
            pool_id=pool.pool_id, token_in=pool.token0,
            token_out=pool.token1, amount_in=float("nan"), amount_out=0.0,
            block=0,
        ),
        ValueError, "finite", id="nan-swap",
    ),
    pytest.param(
        lambda pool: BurnEvent(pool_id=pool.pool_id, fraction=1.5, block=0),
        InvalidReserveError, "fraction", id="burn-fraction",
    ),
    pytest.param(
        lambda pool: MintEvent(
            pool_id=pool.pool_id, amount0=pool.reserve0 * 0.01,
            amount1=pool.reserve1 * 0.02, block=0,
        ),
        InvalidReserveError, "ratio", id="off-ratio-mint",
    ),
]


class TestFailurePaths:
    @pytest.mark.parametrize("backend", ["inline", "process"])
    @pytest.mark.parametrize("make_event, error, match", MALFORMED_EVENTS)
    async def test_unknown_pool_event_raises_not_sheds(
        self, workload, make_event, error, match, backend
    ):
        market, _ = workload
        before = _market_segments()
        service = OpportunityService(market, n_shards=2, backend=backend)
        pool = next(
            p for p in market.registry if service.plan.shards_for_pool(p.pool_id)
        )
        bogus = make_event(pool)

        async def corrupt_source():
            yield bogus

        try:
            t0 = time.perf_counter()
            with pytest.raises(error, match=match):
                await service.run(corrupt_source())
            # shard processes that were never sent their end-of-stream
            # sentinel are stopped at once, not joined until a timeout
            assert time.perf_counter() - t0 < 5.0
            # the run's own teardown unlinked the segment
            assert _market_segments() <= before
        finally:
            service.close()

    def test_child_process_error_is_reported_not_hung(self, workload):
        from repro.engine import EvaluationEngine
        from repro.market import SharedMarketArrays
        from repro.service import ShardPlan, ShardWorker
        from repro.service.worker import BlockWork, ProcessShardPool
        from repro.strategies import MaxMaxStrategy

        market, _ = workload
        universe = EvaluationEngine().loop_universe(market.registry, 3)
        plan = ShardPlan(
            [p.pool_id for p in market.registry], universe.candidates, 1
        )
        segment = SharedMarketArrays(market.registry)
        worker = ShardWorker(
            0, segment.view(),
            [universe.candidates[i] for i in plan.shard_loops[0]],
            MaxMaxStrategy(),
            market.prices,
        )
        pool = ProcessShardPool([worker], maxsize=4, cleanup=segment.unlink)
        pool.start()
        try:
            # a NaN price tick makes process_block raise in the child
            token = worker.loops[0].tokens[0]
            pool.submit(0, BlockWork(
                block=0, epoch=0, rows=(), ticks=((token, float("nan")),),
                t_ingest=0.0, t_dispatch=0.0,
            ))
            kind, payload = pool.next_message(poll_s=0.2)
            assert kind == "error"
            shard, tb = payload
            assert shard == 0
            assert "must be finite" in tb
        finally:
            pool.close(timeout=2.0)


class TestLiveSimulationSource:
    async def test_service_tracks_a_running_simulation(self):
        market, _ = make_workload(8, 16, 1, 1, seed=3)
        n_blocks = 5
        sim = SimulationEngine(market, [RetailTrader(seed=9)], price_seed=9)
        service = OpportunityService(market, n_shards=2)
        report = await service.run(simulation_source(sim, n_blocks))
        assert report.blocks_ingested == n_blocks
        # oracle: batch-evaluate against the simulation's recorded log
        assert book_pairs(report) == batch_book(market, sim.event_log)

    async def test_simulation_source_requires_recording(self):
        market, _ = make_workload(8, 16, 1, 1, seed=3)
        sim = SimulationEngine(
            market, [RetailTrader(seed=9)], record_events=False
        )
        with pytest.raises(ValueError, match="record_events"):
            async for _ in simulation_source(sim, 1):
                pass


class TestSubscriptions:
    async def test_live_subscriber_sees_every_delta_when_keeping_up(self, workload):
        market, log = workload
        service = OpportunityService(market, n_shards=2, queue_size=8)
        sub = service.book.subscribe(maxsize=4096)
        seen = []

        async def consume():
            while True:
                delta = await sub.next_delta()
                if delta is None:
                    return
                seen.append(delta.seq)

        report, _ = await asyncio.gather(
            service.run(log_source(log)), consume()
        )
        assert not sub.gapped
        assert seen == sorted(seen)
        assert seen and seen[-1] == report.book.seq
        del report


    async def test_subscription_between_runs_sees_the_next_run(self, workload):
        market, _ = workload
        first = generate_event_stream(market, n_blocks=2, events_per_block=4, seed=6)
        second = generate_event_stream(market, n_blocks=2, events_per_block=4, seed=7)
        service = OpportunityService(market, n_shards=1)
        await service.run(log_source(first))
        sub = service.book.subscribe(maxsize=4096)  # after run 1 quiesced
        seen = []

        async def consume():
            while True:
                delta = await sub.next_delta()
                if delta is None:
                    return
                seen.append(delta.seq)

        await asyncio.gather(service.run(log_source(second)), consume())
        assert seen, "a between-runs subscriber must not be born dead"
        assert seen[-1] == service.book.seq


class TestReportShape:
    async def test_metrics_and_report_fields(self, workload):
        market, log = workload
        service = OpportunityService(market, n_shards=2)
        report = await service.run(log_source(log))
        data = report.to_dict()
        assert data["events_ingested"] == len(log)
        assert data["n_shards"] == 2
        assert data["events_per_s"] > 0
        latencies = data["metrics"]["latencies"]
        for stage in ("end_to_end", "shard_eval", "dispatch_wait"):
            assert latencies[stage]["count"] > 0
            assert latencies[stage]["p99_ms"] >= latencies[stage]["p50_ms"] >= 0
        assert sum(data["loops_per_shard"]) == service.total_loops

    def test_run_load_flattens_to_csv_row(self, tmp_path, workload):
        from repro.service.loadgen import save_rows_csv

        market, log = workload
        report = run_load(market, log, n_shards=2, rate=0.0)
        row = report.to_row()
        assert row["events_per_s"] > 0
        assert row["n_shards"] == 2
        target = tmp_path / "load.csv"
        save_rows_csv([report], target)
        header, line = target.read_text().splitlines()
        assert header.startswith("n_pools,")
        assert line.split(",")[0] == str(row["n_pools"])


class TestBoundPruning:
    @pytest.mark.parametrize("n_shards", [1, 3])
    async def test_pruned_top_k_matches_unpruned(self, workload, n_shards):
        market, log = workload
        k = 5
        exact = await OpportunityService(market, n_shards=n_shards).run(
            log_source(log)
        )
        service = OpportunityService(market, n_shards=n_shards, prune_top_k=k)
        pruned = await service.run(log_source(log))
        assert [(o.profit_usd, o.loop_id) for o in pruned.book.top(k)] == [
            (o.profit_usd, o.loop_id) for o in exact.book.top(k)
        ]
        # accounting closes: every dirtied loop was re-quoted or pruned
        assert pruned.evaluations + pruned.loops_pruned == exact.evaluations
        assert pruned.loops_pruned > 0  # the bound pass actually bit
        assert exact.loops_pruned == 0

    async def test_process_backend_prunes_to_same_top_k(self, workload):
        market, log = workload
        k = 5
        inline = await OpportunityService(
            market, n_shards=2, prune_top_k=k
        ).run(log_source(log))
        service = OpportunityService(
            market, n_shards=2, backend="process", prune_top_k=k
        )
        report = await service.run(log_source(log))
        assert [(o.profit_usd, o.loop_id) for o in report.book.top(k)] == [
            (o.profit_usd, o.loop_id) for o in inline.book.top(k)
        ]
        # a process shard may read the segment after ingest has written
        # later blocks, so the split between quoted and pruned loops can
        # differ from inline; the dirty loops it answered cannot
        assert report.loops_pruned > 0
        assert (
            report.evaluations + report.loops_pruned
            == inline.evaluations + inline.loops_pruned
        )

    async def test_per_shard_evaluator_gauges_are_published(self, workload):
        market, log = workload
        service = OpportunityService(market, n_shards=2, prune_top_k=3)
        report = await service.run(log_source(log))
        gauges = report.to_dict()["metrics"]["gauges"]
        for shard in range(2):
            for stat in ("kernel_loops", "kernel_passes", "scalar_loops",
                         "pruned_loops", "bound_passes"):
                assert f"shard{shard}_{stat}" in gauges
        assert sum(
            gauges[f"shard{s}_pruned_loops"] for s in range(2)
        ) == report.loops_pruned
        assert report.to_dict()["loops_pruned"] == report.loops_pruned

    def test_prune_top_k_must_be_positive(self, workload):
        market, _ = workload
        with pytest.raises(ValueError, match="prune_top_k"):
            OpportunityService(market, prune_top_k=0)
