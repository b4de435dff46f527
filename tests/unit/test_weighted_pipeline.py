"""Weighted pools through the full batched pipeline — the seams that
used to force scalar fallback (or could silently drift) now have
regression coverage:

* **Replay mirror drift** — Swap/Mint/Burn events at weighted pools
  streamed through :class:`~repro.replay.ReplayDriver` incremental
  (column store + shard workers) must report bit-identically to the
  full-recompute scalar oracle: the mirror must never apply CPMM
  arithmetic to a weighted row, and the weighted kernel must agree
  with the scalar chain optimizer exactly.
* **Service shards** — the same contract for
  :class:`~repro.service.ShardWorker`'s incremental evaluation over
  the column store.
* **No forced scalar path** — mixed CPMM+weighted loop sets route
  entirely through the batch kernels in the engine, replay-incremental
  mode, and shard workers (asserted via ``BatchEvaluator`` stats).
"""

from __future__ import annotations

import pytest

from repro.amm import PoolRegistry
from repro.amm.weighted import WeightedPool
from repro.core import PriceMap, Token
from repro.data import MarketSnapshot
from repro.engine import EvaluationEngine
from repro.market import BatchEvaluator, MarketArrays
from repro.replay import (
    ReplayDriver,
    apply_block_events,
    apply_event,
    generate_event_stream,
    rebind_loops,
)
from repro.service.worker import BlockWork, ShardWorker
from repro.strategies import MaxMaxStrategy, MaxPriceStrategy

V, X, Y, Z, W = (Token(s) for s in "VXYZW")


@pytest.fixture
def mixed_market():
    """Complete graph over five tokens; the Y-W and Z-W edges are
    weighted (one skewed, one 50/50), giving 20 candidate 3-loops of
    which 10 cross a weighted hop — both compiled groups are large
    enough for the kernels even at the default ``min_batch``."""
    registry = PoolRegistry()
    registry.create(X, Y, 1_000.0, 2_000.0, pool_id="m-xy")
    registry.create(Y, Z, 3_000.0, 1_500.0, pool_id="m-yz")
    registry.create(Z, X, 900.0, 1_800.0, pool_id="m-zx")
    registry.create(X, W, 5_000.0, 5_000.0, pool_id="m-xw")
    registry.create(V, X, 2_500.0, 1_250.0, pool_id="m-vx")
    registry.create(V, Y, 1_400.0, 2_800.0, pool_id="m-vy")
    registry.create(V, Z, 2_200.0, 1_100.0, pool_id="m-vz")
    registry.create(V, W, 3_300.0, 1_650.0, pool_id="m-vw")
    registry.add(WeightedPool(Y, W, 800.0, 2_400.0, 0.8, 0.2, pool_id="m-yw"))
    registry.add(WeightedPool(Z, W, 1_200.0, 700.0, 0.5, 0.5, pool_id="m-zw"))
    prices = PriceMap({V: 4.0, X: 10.0, Y: 5.0, Z: 20.0, W: 1.0})
    return MarketSnapshot(registry=registry, prices=prices, label="mixed")


@pytest.fixture
def mixed_stream(mixed_market):
    """12 blocks of swaps, mints, burns and ticks; the generator draws
    pools uniformly, so weighted pools receive all three event kinds."""
    log = generate_event_stream(
        mixed_market,
        n_blocks=12,
        events_per_block=6,
        seed=42,
        mint_fraction=0.2,
        burn_fraction=0.2,
    )
    touched = log.touched_pool_ids()
    assert {"m-yw", "m-zw"} & touched, "stream must hit weighted pools"
    return log


class TestWeightedReplayParity:
    def test_incremental_bit_identical_to_full_oracle(
        self, mixed_market, mixed_stream
    ):
        strategies = {
            "maxmax": MaxMaxStrategy(),
            "maxprice": MaxPriceStrategy(),
            "maxmax_bisect": MaxMaxStrategy(method="bisection"),
        }
        inc = ReplayDriver(mixed_market, strategies=strategies, mode="incremental")
        full = ReplayDriver(mixed_market, strategies=strategies, mode="full")
        ri = inc.replay(mixed_stream)
        rf = full.replay(mixed_stream)
        assert len(ri.reports) == len(rf.reports) == 12
        for a, b in zip(ri.reports, rf.reports):
            assert a.same_numbers(b), f"mirror drift at block {a.block}"
        # incremental did strictly less work
        assert ri.evaluations() < rf.evaluations()

    def test_weighted_loops_not_forced_scalar_in_replay(
        self, mixed_market, mixed_stream
    ):
        driver = ReplayDriver(mixed_market, mode="incremental")
        (worker,) = driver._workers.values()
        evaluator = worker._evaluator
        assert evaluator.fallback_positions == []
        assert any(g.mixed for g in evaluator.groups)
        # priming covered all 20 loops in kernel passes
        primed = driver.evaluator_stats
        assert primed.scalar_loops == 0
        # small per-block dirty sets would hit the min_batch fallback by
        # design; drop the threshold to show nothing *forces* scalar
        evaluator.min_batch = 1
        driver.replay(mixed_stream)
        assert driver.evaluator_stats.scalar_loops == 0
        assert driver.evaluator_stats.kernel_loops > primed.kernel_loops

    def test_columnar_mirror_stays_fresh_for_weighted_rows(
        self, mixed_market, mixed_stream
    ):
        driver = ReplayDriver(mixed_market, mode="incremental")
        driver.replay(mixed_stream)
        arrays = driver._store
        for pool in driver.market.registry:
            assert arrays.reserves(pool.pool_id) == (
                pool.reserve0, pool.reserve1
            ), f"mirror drifted at {pool.pool_id}"
        # and every worker quotes from that one store
        assert all(worker.store is arrays for worker in driver._workers.values())


class TestWeightedShardWorker:
    def _worker(self, market):
        loops = EvaluationEngine().loop_universe(market.registry, 3).candidates
        store = MarketArrays.from_registry(market.registry)
        return ShardWorker(0, store, loops, MaxMaxStrategy(), market.prices)

    @staticmethod
    def _feed(worker, market, stream) -> dict:
        """Play ingest for every block (events to a private copy of
        ``market``, dirty rows pulled into the store); return the last
        published entry per loop id."""
        private = market.copy()
        published = {entry.loop_id: entry for entry in worker.initial_entries()}
        for block, events in stream.iter_blocks():
            _, dirty, _, _ = apply_block_events(
                private.registry, private.prices, events
            )
            worker.store.pull(private.registry, dirty)
            update = worker.process_block(
                BlockWork.from_events(block, events, worker.store)
            )
            published.update((entry.loop_id, entry) for entry in update.entries)
        return published

    def test_shard_results_match_scalar_after_weighted_events(
        self, mixed_market, mixed_stream
    ):
        worker = self._worker(mixed_market)
        published = self._feed(worker, mixed_market, mixed_stream)
        copy = mixed_market.copy()
        prices = copy.prices
        for event in mixed_stream:
            prices = apply_event(copy.registry, prices, event, set(), set())
        strategy = MaxMaxStrategy()
        for loop in rebind_loops(worker.loops, copy.registry):
            ref = strategy.evaluate_cached(loop, prices, None)
            entry = published[loop.canonical_id]
            assert entry.profit_usd == ref.monetized_profit
            assert entry.amount_in == ref.amount_in

    def test_shard_weighted_loops_not_forced_scalar(
        self, mixed_market, mixed_stream
    ):
        worker = self._worker(mixed_market)
        assert worker.evaluator_stats.scalar_loops == 0  # priming pass
        worker._evaluator.min_batch = 1
        self._feed(worker, mixed_market, mixed_stream)
        assert worker.evaluator_stats.scalar_loops == 0
        assert worker.evaluator_stats.kernel_loops > 0


class TestEngineMixedBatches:
    def test_engine_routes_weighted_loops_through_kernels(self, mixed_market):
        engine = EvaluationEngine()
        universe = engine.loop_universe(mixed_market.registry, 3)
        loops = list(universe.candidates)
        assert len(loops) == 20  # 10 CPMM-only + 10 weighted-containing
        results = engine.evaluate_strategy(
            MaxMaxStrategy(), loops, mixed_market.prices
        )
        # the evaluator evaluate_loops scores through
        evaluator = BatchEvaluator(loops)
        assert evaluator.fallback_positions == []
        assert sum(len(g) for g in evaluator.groups if g.mixed) == 10
        assert evaluator.evaluate_many(
            MaxMaxStrategy(), mixed_market.prices
        ) == results
        assert evaluator.stats.scalar_loops == 0
        for loop, got in zip(loops, results):
            ref = MaxMaxStrategy().evaluate_cached(loop, mixed_market.prices, None)
            assert got.monetized_profit == ref.monetized_profit
            assert got.amount_in == ref.amount_in
