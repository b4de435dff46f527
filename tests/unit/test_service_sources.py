"""Unit tests for async event sources and the shard worker."""

from __future__ import annotations

import time

import pytest

from repro.amm.events import PriceTickEvent, SwapEvent
from repro.core import Token
from repro.market import MarketArrays, PoolHandle
from repro.replay import (
    apply_block_events,
    generate_event_stream,
    make_workload,
    rebind_loops,
)
from repro.service import (
    ShardPlan,
    ShardWorker,
    jsonl_source,
    log_source,
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

    def test_top_k_must_be_positive(self, workload):
        market, _ = workload
        with pytest.raises(ValueError, match="top_k"):
            _worker(market, _loops_for(market), top_k=0)

    def test_published_profit_at_threshold_forces_requote(self, disjoint_triangles):
        """A dirty loop whose fresh bound is prunable is still
        re-quoted while its published profit reaches the threshold:
        that entry may sit in the top K.  X ties A, the untouched loop
        that sets the top-1 threshold; a small swap on X with X's
        prices down 1e9x sends X's loops down the bound path with bounds
        far below it."""
        market = disjoint_triangles({"A": 1300.0, "X": 1300.0, "Y": 1200.0})
        loops = _loops_for(market)
        worker = _worker(market, loops, top_k=1)
        profits = dict(
            zip((loop.canonical_id for loop in loops), worker.profits.tolist())
        )
        assert profits[_forward("X")] == profits[_forward("A")] > 0.0
        swap = SwapEvent(
            pool_id="X-ab", token_in=Token("Xa"), token_out=Token("Xb"),
            amount_in=1e-3, amount_out=0.0, block=1,
        )
        update = worker.process_block(
            _write(market.copy(), worker.store, 1, [swap, *_crash_ticks(market, "X")])
        )
        assert [entry.loop_id for entry in update.entries] == [_forward("X")]
        assert update.evaluated == 1 and update.remonetized == 0
        # X's unprofitable direction: bound and published profit both 0
        assert update.pruned == 1
        assert update.restored == 0

    def test_published_profit_at_threshold_is_republished_on_ticks(
        self, disjoint_triangles
    ):
        """The tick-only twin: X's loops are re-monetized from their
        stored quotes, and the at-threshold loop is the only entry
        published — the predicate a re-quote is held to."""
        market = disjoint_triangles({"A": 1300.0, "X": 1300.0, "Y": 1200.0})
        loops = _loops_for(market)
        worker = _worker(market, loops, top_k=1)
        update = worker.process_block(
            BlockWork.from_events(1, _crash_ticks(market, "X"), worker.store)
        )
        assert [entry.loop_id for entry in update.entries] == [_forward("X")]
        assert update.evaluated == update.remonetized == 2
        assert update.pruned == 0 and update.restored == 0

    def test_kept_entry_is_restored_once_the_loops_above_it_fall(
        self, disjoint_triangles
    ):
        """Block 1 collapses X's arbitrage while A holds the top-1
        threshold, so X keeps its stale entry.  Block 2 does the same
        to A: the threshold falls to Y, below X's stale entry, and the
        same update restores X at its exact value."""
        market = disjoint_triangles({"A": 1300.0, "X": 1250.0, "Y": 1200.0})
        loops = _loops_for(market)
        worker = _worker(market, loops, top_k=1)
        private = market.copy()
        first = worker.process_block(
            _write(private, worker.store, 1, [_collapse("X", 1)])
        )
        assert first.entries == () and first.pruned == 2
        second = worker.process_block(
            _write(private, worker.store, 2, [_collapse("A", 2)])
        )
        # A's two loops are the dirty set; the restore sits outside it
        assert second.evaluated + second.pruned == 2
        assert second.restored == 1
        by_id = {entry.loop_id: entry for entry in second.entries}
        x_forward = next(loop for loop in loops if loop.canonical_id == _forward("X"))
        fresh = MaxMaxStrategy().evaluate(_current(private, x_forward), market.prices)
        assert by_id[_forward("X")].profit_usd == fresh.monetized_profit
        assert by_id[_forward("X")].block == 2
        # the shard's top 1 is Y at its exact value
        profits = worker.profits
        best = loops[int(profits.argmax())]
        assert best.canonical_id == _forward("Y")
        assert profits.max() == MaxMaxStrategy().evaluate(
            _current(private, best), market.prices
        ).monetized_profit

    def test_dirty_loops_do_not_set_their_own_threshold(self, disjoint_triangles):
        """One block collapses A, the top loop, and nudges Y.  A's old
        profit must not set the threshold Y is pruned against: Y is
        quoted, and nothing is restored, so every restore lies outside
        its block's dirty set."""
        market = disjoint_triangles({"A": 1400.0, "Y": 1200.0})
        worker = _worker(market, _loops_for(market), top_k=1)
        nudge = SwapEvent(
            pool_id="Y-ab", token_in=Token("Ya"), token_out=Token("Yb"),
            amount_in=1e-3, amount_out=0.0, block=1,
        )
        update = worker.process_block(
            _write(market.copy(), worker.store, 1, [_collapse("A", 1), nudge])
        )
        assert _forward("Y") in {entry.loop_id for entry in update.entries}
        assert update.evaluated == update.pruned == 2
        assert update.restored == 0

    def test_top_k_of_every_loop_prunes_only_non_positive_loops(self, workload):
        """Replay's setting: with K the number of loops the threshold
        is 0 on every block that dirties a loop, so a loop keeps its
        entry only while its bound and published profit are both
        non-positive, and nothing is ever restored."""
        market, log = workload
        loops = _loops_for(market)
        runs = [
            (_worker(market, loops, top_k=top_k), market.copy())
            for top_k in (len(loops), None)
        ]
        pruned = 0
        for block, events in log.iter_blocks():
            fast, full = (
                worker.process_block(_write(private, worker.store, block, events))
                for worker, private in runs
            )
            assert fast.restored == 0
            assert fast.evaluated + fast.pruned == full.evaluated
            pruned += fast.pruned
            kept, exact = (worker.profits for worker, _ in runs)
            differ = kept != exact
            assert (kept[differ] <= 0.0).all() and (exact[differ] <= 0.0).all()
        assert pruned > 0

    def test_pruned_pool_move_drops_stored_quotes(self, disjoint_triangles):
        """A loop bound-pruned after a swap holds no valid quotes: a
        later tick values it with a fresh quote, never from its
        pre-swap rotation quotes."""
        market = disjoint_triangles({"A": 1300.0, "X": 1250.0})
        loops = _loops_for(market)
        worker = _worker(market, loops, top_k=1)
        private = market.copy()
        # A holds the top-1 threshold: both of X's loops are pruned
        update = worker.process_block(
            _write(private, worker.store, 1, [_collapse("X", 1)])
        )
        assert update.entries == () and update.pruned == 2
        # the collapse left X's reverse loop the profitable one; its
        # pre-swap quote is unprofitable.  A tick lifts its fresh
        # bound over the threshold, so it is quoted again
        target = next(loop for loop in loops if loop.canonical_id == _reverse("X"))
        token = Token("Xb")
        prices = market.prices.with_price(token, 100.0)
        tick = PriceTickEvent(token, prices[token], block=2)
        update = worker.process_block(_write(private, worker.store, 2, [tick]))
        entry = next(e for e in update.entries if e.loop_id == target.canonical_id)
        fresh = MaxMaxStrategy().evaluate(_current(private, target), prices)
        assert fresh.monetized_profit > 0.0
        assert entry.profit_usd == fresh.monetized_profit
        assert entry.amount_in == fresh.amount_in
        assert entry.start_symbol == fresh.start_token.symbol

    def test_pruned_loops_keep_their_bounds_until_a_pool_moves(
        self, disjoint_triangles
    ):
        """X's loops, bound-pruned after the swap that collapsed them,
        hold no quotes but keep their rotation bounds: a tick on X's
        tokens re-bounds them with no kernel pass, and a block that
        moves one of X's pools runs exactly one."""
        market = disjoint_triangles({"A": 1300.0, "X": 1250.0})
        worker = _worker(market, _loops_for(market), top_k=1)
        private = market.copy()
        update = worker.process_block(
            _write(private, worker.store, 1, [_collapse("X", 1)])
        )
        assert update.entries == () and update.pruned == 2
        passes = worker.evaluator_stats.bound_passes
        token = Token("Xb")
        tick = PriceTickEvent(token, market.prices[token] * 1.01, block=2)
        update = worker.process_block(_write(private, worker.store, 2, [tick]))
        assert update.pruned == 2 and update.remonetized == 0
        assert worker.evaluator_stats.bound_passes == passes
        nudge = SwapEvent(
            pool_id="X-bc", token_in=Token("Xb"), token_out=Token("Xc"),
            amount_in=1e-3, amount_out=0.0, block=3,
        )
        update = worker.process_block(_write(private, worker.store, 3, [nudge]))
        assert update.pruned == 2
        assert worker.evaluator_stats.bound_passes == passes + 1

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


def _forward(name):
    return f"{name}a/{name}-ab|{name}b/{name}-bc|{name}c/{name}-ca"


def _reverse(name):
    return f"{name}a/{name}-ca|{name}c/{name}-bc|{name}b/{name}-ab"


def _collapse(name, block):
    """150 of ``{name}a`` into ``{name}-ab``: the forward loop turns
    unprofitable and the reverse one slightly profitable."""
    return SwapEvent(
        pool_id=f"{name}-ab", token_in=Token(f"{name}a"),
        token_out=Token(f"{name}b"), amount_in=150.0, amount_out=0.0,
        block=block,
    )


def _crash_ticks(market, name):
    """Every token of triangle ``name`` down 1e9x, at block 1."""
    return [
        PriceTickEvent(token, market.prices[token] * 1e-9, block=1)
        for token in (Token(f"{name}{suffix}") for suffix in "abc")
    ]


def _current(private, loop):
    """``loop`` over the current pool objects of ``private``."""
    return rebind_loops([loop], private.registry)[0]


def _loops_for(market, length=3):
    from repro.engine import EvaluationEngine

    universe = EvaluationEngine().loop_universe(market.registry, length)
    plan = ShardPlan([p.pool_id for p in market.registry], universe.candidates, 1)
    return [universe.candidates[i] for i in plan.shard_loops[0]]


def _worker(market, loops, shard_id=0, strategy=None, top_k=None):
    """A worker over a fresh in-process store of ``market``."""
    return ShardWorker(
        shard_id,
        MarketArrays.from_registry(market.registry),
        loops,
        strategy if strategy is not None else MaxMaxStrategy(),
        market.prices,
        top_k=top_k,
    )


def _write(private, store, block, events):
    """Play the ingest stage: apply ``events`` to its private market
    copy, pull the dirty rows into the store, then build the block's
    work item."""
    _, dirty, _, _ = apply_block_events(private.registry, private.prices, events)
    store.pull(private.registry, dirty)
    return BlockWork.from_events(block, events, store)


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
