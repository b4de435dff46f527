"""Unit tests for async event sources and the shard worker."""

from __future__ import annotations

import time

import pytest

from repro.amm.events import PriceTickEvent, SwapEvent
from repro.market import MarketArrays, PoolHandle
from repro.replay import apply_block_events, generate_event_stream, rebind_loops
from repro.service import (
    ShardPlan,
    ShardWorker,
    jsonl_source,
    log_source,
    make_workload,
    paced,
)
from repro.service.worker import BlockWork
from repro.strategies import MaxMaxStrategy, MaxPriceStrategy


@pytest.fixture(scope="module")
def workload():
    return make_workload(8, 16, 5, 4, seed=21)


async def drain(source):
    return [event async for event in source]


class TestSources:
    async def test_log_source_preserves_order(self, workload):
        _, log = workload
        events = await drain(log_source(log))
        assert events == list(log)

    async def test_jsonl_source_round_trips(self, workload, tmp_path):
        _, log = workload
        path = tmp_path / "stream.jsonl"
        log.save(path)
        events = await drain(jsonl_source(path))
        assert events == list(log)

    async def test_paced_is_slower_and_lossless(self, workload):
        _, log = workload
        events = list(log)[:20]

        async def burst():
            for event in events:
                yield event

        t0 = time.perf_counter()
        got = await drain(paced(burst(), rate=2000.0))
        elapsed = time.perf_counter() - t0
        assert got == events
        # 20 events at 2000 ev/s needs ~9.5ms of schedule
        assert elapsed >= 0.008

    async def test_paced_rejects_bad_rate(self, workload):
        _, log = workload
        with pytest.raises(ValueError, match="rate"):
            await drain(paced(log_source(log), rate=0.0))


class TestShardWorker:
    def test_worker_owns_private_state(self, workload):
        market, log = workload
        worker = _worker(market, _loops_for(market))

        def reserves(pools):
            return {pool.pool_id: (pool.reserve0, pool.reserve1) for pool in pools}

        before = reserves(market.registry)
        block, events = next(iter(log.iter_blocks()))
        worker.process_block(_write(market.copy(), worker.store, block, events))
        # the store is a private column copy: writing it moved some
        # pools without touching the source market ...
        assert reserves(worker.store.to_registry()) != before
        assert reserves(market.registry) == before
        # ... and the worker itself holds only reserve-less handles
        assert all(
            isinstance(pool, PoolHandle) for loop in worker.loops for pool in loop.pools
        )
        assert worker.private_column_nbytes == 0
        assert worker.handle_nbytes > 0

    def test_initial_entries_cover_every_loop(self, workload):
        market, _ = workload
        loops = _loops_for(market)
        worker = _worker(market, loops, shard_id=3)
        entries = worker.initial_entries()
        assert len(entries) == len(loops)
        assert {e.shard for e in entries} == {3}
        assert len({e.loop_id for e in entries}) == len(loops)

    def test_process_block_reevaluates_only_dirty_loops(self, workload):
        market, log = workload
        loops = _loops_for(market)
        worker = _worker(market, loops)
        block, events = next(iter(log.iter_blocks()))
        update = worker.process_block(
            _write(market.copy(), worker.store, block, events)
        )
        assert update.shard == 0 and update.block == block
        assert update.evaluated == len(update.entries)
        assert 0 < update.evaluated <= len(loops)
        assert update.eval_s >= 0.0

    def test_untouched_block_costs_zero(self, workload):
        market, _ = workload
        loops = _loops_for(market)
        worker = _worker(market, loops)
        update = worker.process_block(_write(market.copy(), worker.store, 0, ()))
        assert update.evaluated == 0
        assert update.entries == ()

    def test_published_profit_at_threshold_forces_requote(self, workload):
        """A dirty loop whose fresh bound is prunable is still
        re-quoted while its published profit reaches the threshold:
        that stale entry may sit in the displayed top K."""
        market, _ = workload
        loops = _loops_for(market)
        worker = _worker(market, loops)
        entries = worker.initial_entries()
        profits = [entry.profit_usd for entry in entries]
        best = max(range(len(loops)), key=profits.__getitem__)
        threshold = profits[best]
        assert threshold > 0.0 and profits.count(threshold) == 1
        # a small swap on one of the best loop's pools sends it (and
        # every loop sharing that pool) down the bound path; every loop
        # token's price down 1e9x makes each fresh monetized bound fall
        # far below the threshold, while the published profits stay as
        # they were
        pool = loops[best].pools[0]
        swap = SwapEvent(
            pool_id=pool.pool_id, token_in=pool.token0, token_out=pool.token1,
            amount_in=pool.reserve0 * 1e-6, amount_out=0.0, block=1,
        )
        crossing = sum(
            pool.pool_id in {p.pool_id for p in loop.pools} for loop in loops
        )
        update = worker.process_block(
            _write(
                market.copy(), worker.store, 1, [swap, *_crash_ticks(market, loops)],
                threshold=threshold,
            )
        )
        assert [entry.loop_id for entry in update.entries] == [entries[best].loop_id]
        assert update.evaluated - update.remonetized == 1
        assert update.pruned == crossing - 1
        # the rest were dirtied by ticks alone and held valid quotes
        assert update.remonetized == len(loops) - crossing

    def test_published_profit_at_threshold_is_republished_on_ticks(self, workload):
        """The tick-only twin: every loop is re-monetized from its
        stored quotes, and the at-threshold loop is the only entry
        published — the predicate a re-quote is held to."""
        market, _ = workload
        loops = _loops_for(market)
        worker = _worker(market, loops)
        entries = worker.initial_entries()
        profits = [entry.profit_usd for entry in entries]
        best = max(range(len(loops)), key=profits.__getitem__)
        threshold = profits[best]
        update = worker.process_block(
            BlockWork.from_events(
                1, _crash_ticks(market, loops), worker.store, threshold=threshold
            )
        )
        assert [entry.loop_id for entry in update.entries] == [entries[best].loop_id]
        assert update.evaluated == update.remonetized == len(loops)
        assert update.pruned == 0

    def test_pruned_pool_move_drops_stored_quotes(self, workload):
        """A loop bound-pruned after a swap holds no valid quotes: a
        later tick values it with a fresh quote, never from its
        pre-swap rotation quotes."""
        market, _ = workload
        loops = _loops_for(market)
        worker = _worker(market, loops)
        profits = [entry.profit_usd for entry in worker.initial_entries()]
        target = loops[max(range(len(loops)), key=profits.__getitem__)]
        pool = target.pools[0]
        private = market.copy()
        swap = SwapEvent(
            pool_id=pool.pool_id, token_in=pool.token0, token_out=pool.token1,
            amount_in=pool.reserve0 * 0.01, amount_out=0.0, block=1,
        )
        # a threshold no bound reaches: every dirty loop is pruned
        update = worker.process_block(
            _write(private, worker.store, 1, [swap], threshold=1e18)
        )
        assert update.entries == () and update.evaluated == 0
        token = target.tokens[1]
        prices = market.prices.with_price(token, market.prices[token] * 1.1)
        tick = PriceTickEvent(token, prices[token], block=2)
        update = worker.process_block(_write(private, worker.store, 2, [tick]))
        entry = next(e for e in update.entries if e.loop_id == target.canonical_id)
        fresh = MaxMaxStrategy().evaluate(_current(private, target), prices)
        assert entry.profit_usd == fresh.monetized_profit
        assert entry.amount_in == fresh.amount_in
        assert entry.start_symbol == fresh.start_token.symbol

    def test_maxprice_start_move_requotes(self, workload):
        """A tick that makes another token the loop's max-price start
        re-quotes the loop from that start; its stored quote from the
        old start is never re-monetized."""
        market, _ = workload
        loops = _loops_for(market)
        strategy = MaxPriceStrategy()
        worker = _worker(market, loops, strategy=strategy)
        target = loops[0]
        start = market.prices.max_price_token(target.tokens)
        other = next(t for t in target.tokens if t != start)
        prices = market.prices.with_price(other, market.prices[start] * 2.0)
        tick = PriceTickEvent(other, prices[other], block=1)
        private = market.copy()
        update = worker.process_block(_write(private, worker.store, 1, [tick]))
        by_id = {entry.loop_id: entry for entry in update.entries}
        assert by_id[target.canonical_id].start_symbol == other.symbol
        ticked = [loop for loop in loops if other in loop.tokens]
        assert sorted(by_id) == sorted(loop.canonical_id for loop in ticked)
        for loop in ticked:
            entry = by_id[loop.canonical_id]
            fresh = strategy.evaluate(_current(private, loop), prices)
            assert entry.profit_usd == fresh.monetized_profit
            assert entry.amount_in == fresh.amount_in
            assert entry.start_symbol == fresh.start_token.symbol
        # the loops whose start moved were quoted, the rest re-monetized
        assert update.remonetized == sum(
            market.prices.max_price_token(loop.tokens)
            == prices.max_price_token(loop.tokens)
            for loop in ticked
        )


def _crash_ticks(market, loops):
    """Every loop token's price down 1e9x, at block 1."""
    tokens = sorted({t for loop in loops for t in loop.tokens}, key=str)
    return [PriceTickEvent(t, market.prices[t] * 1e-9, block=1) for t in tokens]


def _current(private, loop):
    """``loop`` over the current pool objects of ``private``."""
    return rebind_loops([loop], private.registry)[0]


def _loops_for(market, length=3):
    from repro.engine import EvaluationEngine

    universe = EvaluationEngine().loop_universe(market.registry, length)
    plan = ShardPlan([p.pool_id for p in market.registry], universe.candidates, 1)
    return [universe.candidates[i] for i in plan.shard_loops[0]]


def _worker(market, loops, shard_id=0, strategy=None):
    """A worker over a fresh in-process store of ``market``."""
    return ShardWorker(
        shard_id,
        MarketArrays.from_registry(market.registry),
        loops,
        strategy if strategy is not None else MaxMaxStrategy(),
        market.prices,
    )


def _write(private, store, block, events, threshold=None):
    """Play the ingest stage: apply ``events`` to its private market
    copy, pull the dirty rows into the store, then build the block's
    work item."""
    _, dirty, _, _ = apply_block_events(private.registry, private.prices, events)
    store.pull(private.registry, dirty)
    return BlockWork.from_events(block, events, store, threshold=threshold)


def test_generate_stream_feeds_worker_consistently(workload):
    """A worker fed its routed slice of a stream quotes every loop as a
    global replay's final market state does (same invariant the
    driver has)."""
    from repro.replay import apply_event

    market, _ = workload
    log = generate_event_stream(
        market, n_blocks=3, events_per_block=4, seed=2, price_ticks_per_block=1
    )
    loops = _loops_for(market)
    plan = ShardPlan([p.pool_id for p in market.registry], loops, 1)
    worker = _worker(market, loops)
    private = market.copy()
    published = {entry.loop_id: entry for entry in worker.initial_entries()}
    for block, events in log.iter_blocks():
        routed = plan.route_block(events).get(0, [])
        update = worker.process_block(_write(private, worker.store, block, routed))
        published.update((entry.loop_id, entry) for entry in update.entries)
    # replaying the whole log onto a fresh copy gives the same quotes
    copy = market.copy()
    prices = copy.prices
    for event in log:
        prices = apply_event(copy.registry, prices, event, set(), set())
    strategy = MaxMaxStrategy()
    for loop in rebind_loops(loops, copy.registry):
        expected = strategy.evaluate(loop, prices)
        entry = published[loop.canonical_id]
        assert entry.profit_usd == expected.monetized_profit
        assert entry.amount_in == expected.amount_in
