"""Unit tests for the event-sourced replay subsystem."""

from __future__ import annotations

import pytest

from repro.amm import Pool, PoolRegistry
from repro.amm.events import (
    BlockEvent,
    BurnEvent,
    MintEvent,
    PriceTickEvent,
    SwapEvent,
)
from repro.core import PriceMap, Token
from repro.core.errors import (
    EventLogFormatError,
    EventOrderError,
    ReplayError,
    UnknownPoolError,
)
from repro.data import MarketSnapshot, SyntheticMarketGenerator
from repro.replay import (
    MarketEventLog,
    ReplayDriver,
    event_from_dict,
    event_to_dict,
    generate_event_stream,
)


@pytest.fixture
def triangle_market(tokens_xyz):
    """One 3-loop (X-Y-Z) plus a dangling pool no loop can use."""
    x, y, z = tokens_xyz
    w = Token("W")
    registry = PoolRegistry()
    registry.create(x, y, 100.0, 200.0, pool_id="t-xy")
    registry.create(y, z, 300.0, 200.0, pool_id="t-yz")
    registry.create(z, x, 200.0, 400.0, pool_id="t-zx")
    registry.create(w, x, 500.0, 500.0, pool_id="t-wx")
    prices = PriceMap({x: 2.0, y: 10.2, z: 20.0, w: 1.0})
    return MarketSnapshot(registry=registry, prices=prices, label="triangle")


class TestEventFamily:
    def test_block_defaults_to_zero(self, tokens_xyz):
        x, y, _ = tokens_xyz
        event = SwapEvent("p", x, y, 1.0, 2.0)
        assert event.block == 0

    def test_block_is_keyword_only(self, tokens_xyz):
        x, y, _ = tokens_xyz
        event = SwapEvent("p", x, y, 1.0, 2.0, block=7)
        assert event.block == 7

    def test_pool_records_mint_and_burn(self, tokens_xyz):
        x, y, _ = tokens_xyz
        pool = Pool(x, y, 100.0, 200.0, pool_id="p")
        pool.add_liquidity(1.0, 2.0)
        out0, out1 = pool.remove_liquidity(0.01)
        mint, burn = pool.events
        assert mint == MintEvent(pool_id="p", amount0=1.0, amount1=2.0)
        assert burn == BurnEvent(pool_id="p", fraction=0.01, amount0=out0, amount1=out1)

    def test_discard_events_after(self, tokens_xyz):
        x, y, _ = tokens_xyz
        pool = Pool(x, y, 100.0, 200.0, pool_id="p")
        pool.swap(x, 1.0)
        pool.swap(x, 1.0)
        pool.discard_events_after(1)
        assert len(pool.events) == 1
        with pytest.raises(ValueError, match="count"):
            pool.discard_events_after(-1)


class TestEventCodec:
    def test_round_trip_every_type(self, tokens_xyz):
        x, y, _ = tokens_xyz
        events = [
            BlockEvent(block=0),
            PriceTickEvent(token=x, price=2.5, block=0),
            SwapEvent("p", x, y, 1.25, 2.4375, block=0),
            MintEvent("p", 0.1, 0.2, block=1),
            BurnEvent("p", 0.01, 1.0, 2.0, block=1),
        ]
        for event in events:
            assert event_from_dict(event_to_dict(event)) == event

    def test_token_metadata_survives(self):
        token = Token("WETH", decimals=8, address="0xabc")
        event = PriceTickEvent(token=token, price=1650.0, block=3)
        parsed = event_from_dict(event_to_dict(event))
        assert parsed.token.decimals == 8
        assert parsed.token.address == "0xabc"

    def test_unknown_tag_rejected(self):
        with pytest.raises(EventLogFormatError, match="unknown event type"):
            event_from_dict({"type": "teleport", "block": 0})

    def test_missing_field_rejected(self):
        with pytest.raises(EventLogFormatError, match="malformed"):
            event_from_dict({"type": "mint", "block": 0, "amount0": 1.0})


class TestMarketEventLog:
    def test_append_enforces_block_order(self):
        log = MarketEventLog()
        log.append(BlockEvent(block=1))
        with pytest.raises(EventOrderError):
            log.append(BlockEvent(block=0))
        assert isinstance(EventOrderError("x"), ReplayError)

    def test_iter_blocks_groups_consecutively(self, tokens_xyz):
        x, _, _ = tokens_xyz
        log = MarketEventLog(
            [
                BlockEvent(block=0),
                PriceTickEvent(token=x, price=1.0, block=0),
                BlockEvent(block=2),
            ]
        )
        grouped = dict(log.iter_blocks())
        assert set(grouped) == {0, 2}
        assert len(grouped[0]) == 2
        assert log.blocks() == (0, 2)

    def test_jsonl_round_trip_and_save(self, tmp_path, tokens_xyz):
        x, y, _ = tokens_xyz
        log = MarketEventLog(
            [
                BlockEvent(block=0),
                SwapEvent("p", x, y, 1.0 / 3.0, 0.12345678901234567, block=0),
            ]
        )
        assert MarketEventLog.from_jsonl(log.to_jsonl()) == log
        path = log.save(tmp_path / "stream.jsonl")
        assert MarketEventLog.load(path) == log

    def test_from_jsonl_bad_json(self):
        with pytest.raises(EventLogFormatError, match="invalid JSON"):
            MarketEventLog.from_jsonl('{"type": "block", "block": 0}\nnot json\n')

    def test_from_jsonl_out_of_order(self):
        text = (
            '{"type": "block", "block": 3}\n'
            '{"type": "block", "block": 1}\n'
        )
        with pytest.raises(EventLogFormatError, match="block-ordered"):
            MarketEventLog.from_jsonl(text)

    def test_touched_pool_ids(self, tokens_xyz):
        x, y, _ = tokens_xyz
        log = MarketEventLog(
            [
                SwapEvent("a", x, y, 1.0, 2.0, block=0),
                MintEvent("b", 1.0, 2.0, block=0),
                PriceTickEvent(token=x, price=1.0, block=0),
            ]
        )
        assert log.touched_pool_ids() == {"a", "b"}


class TestGenerator:
    def test_deterministic_per_seed(self, triangle_market):
        a = generate_event_stream(triangle_market, n_blocks=4, events_per_block=3, seed=5)
        b = generate_event_stream(triangle_market, n_blocks=4, events_per_block=3, seed=5)
        c = generate_event_stream(triangle_market, n_blocks=4, events_per_block=3, seed=6)
        assert a == b
        assert a != c

    def test_source_market_untouched(self, triangle_market):
        before = triangle_market.to_json()
        generate_event_stream(triangle_market, n_blocks=5, events_per_block=5, seed=1)
        assert triangle_market.to_json() == before

    def test_pools_per_block_limits_touch(self, triangle_market):
        log = generate_event_stream(
            triangle_market,
            n_blocks=6,
            events_per_block=5,
            seed=2,
            pools_per_block=1,
            price_ticks_per_block=0,
        )
        for _block, events in log.iter_blocks():
            pool_ids = {
                e.pool_id
                for e in events
                if isinstance(e, (SwapEvent, MintEvent, BurnEvent))
            }
            assert len(pool_ids) <= 1

    def test_validation(self, triangle_market):
        with pytest.raises(ValueError, match="n_blocks"):
            generate_event_stream(triangle_market, n_blocks=-1)
        with pytest.raises(ValueError, match="pools_per_block"):
            generate_event_stream(triangle_market, pools_per_block=0)
        with pytest.raises(ValueError, match="mint_fraction"):
            generate_event_stream(triangle_market, mint_fraction=0.9, burn_fraction=0.9)


def _parity(market, log, **kwargs):
    inc = ReplayDriver(market, mode="incremental", **kwargs)
    full = ReplayDriver(market, mode="full", **kwargs)
    ri = inc.replay(log)
    rf = full.replay(log)
    assert len(ri.reports) == len(rf.reports)
    for a, b in zip(ri.reports, rf.reports):
        assert a.same_numbers(b), f"mode mismatch at block {a.block}"
    return inc, full, ri, rf


class TestReplayDriver:
    def test_mode_validated(self, triangle_market):
        with pytest.raises(ValueError, match="mode"):
            ReplayDriver(triangle_market, mode="magic")
        with pytest.raises(ValueError, match="strategy"):
            ReplayDriver(triangle_market, strategies={})

    def test_unknown_pool_raises_typed_error(self, triangle_market, tokens_xyz):
        x, y, _ = tokens_xyz
        driver = ReplayDriver(triangle_market)
        log = MarketEventLog([SwapEvent("nope", x, y, 1.0, 2.0, block=0)])
        with pytest.raises(UnknownPoolError, match="nope"):
            driver.replay(log)
        log = MarketEventLog([MintEvent("missing", 1.0, 2.0, block=0)])
        with pytest.raises(UnknownPoolError, match="missing"):
            ReplayDriver(triangle_market).replay(log)

    def test_untouched_loops_cost_zero(self, triangle_market, tokens_xyz):
        """A swap on the dangling pool dirties no loop: zero evaluations."""
        x, _, _ = tokens_xyz
        w = Token("W")
        driver = ReplayDriver(triangle_market)
        log = MarketEventLog([SwapEvent("t-wx", w, x, 5.0, 4.9, block=0)])
        report = driver.replay(log).reports[0]
        assert report.dirty_pools == ("t-wx",)
        assert report.evaluated_loops == 0
        assert report.total_loops > 0

    def test_mint_and_burn_mid_stream_invalidate(self, triangle_market, tokens_xyz):
        x, y, _ = tokens_xyz
        pool = triangle_market.registry["t-xy"]
        r0 = pool.reserve_of(pool.token0)
        # mint amounts must match the *post-swap* ratio: stage the swap
        # on a copy to quote them, as any honest event producer would
        staged = triangle_market.copy().registry["t-xy"]
        staged.swap(x, 1.0)
        log = MarketEventLog(
            [
                SwapEvent("t-xy", x, y, 1.0, 0.0, block=0),
                MintEvent(
                    "t-xy",
                    staged.reserve_of(staged.token0) * 0.02,
                    staged.reserve_of(staged.token1) * 0.02,
                    block=1,
                ),
                BurnEvent("t-xy", 0.01, block=2),
            ]
        )
        inc, _full, ri, _rf = _parity(triangle_market, log)
        # the touched pool sits in every X-Y-Z loop: each block re-evaluates them
        for report in ri.reports:
            assert report.evaluated_loops > 0
            assert report.dirty_pools == ("t-xy",)
        # mid-stream mint changed depth: the driver's market reflects it
        replayed = inc.market.registry["t-xy"]
        assert replayed.reserve_of(replayed.token0) != r0

    def test_pool_touched_twice_in_one_block(self, triangle_market, tokens_xyz):
        x, y, _ = tokens_xyz
        log = MarketEventLog(
            [
                SwapEvent("t-xy", x, y, 1.0, 0.0, block=0),
                SwapEvent("t-xy", y, x, 0.5, 0.0, block=0),
            ]
        )
        inc, _full, ri, _rf = _parity(triangle_market, log)
        report = ri.reports[0]
        assert report.n_events == 2
        # both swaps applied sequentially...
        pool = inc.market.registry["t-xy"]
        assert pool.reserve_of(pool.token0) != 100.0
        # ...but each dirty loop evaluated exactly once for the block
        assert report.evaluated_loops <= report.total_loops

    def test_tick_only_block_is_re_monetized(self, triangle_market, tokens_xyz):
        x, _, _ = tokens_xyz
        driver = ReplayDriver(triangle_market)
        primed = driver.evaluator_stats
        log = MarketEventLog([PriceTickEvent(token=x, price=2.5, block=0)])
        report = driver.replay(log).reports[0]
        # every loop holding X re-valued, but reserves are unchanged, so
        # each is re-monetized from its stored rotation quotes: no
        # kernel or scalar quote runs
        assert report.evaluated_loops > 0
        stats = driver.evaluator_stats
        assert stats.kernel_loops == primed.kernel_loops
        assert stats.scalar_loops == primed.scalar_loops

    def test_tick_for_a_token_no_pool_holds(self, triangle_market):
        v = Token("V")
        log = MarketEventLog([PriceTickEvent(token=v, price=3.0, block=0)])
        inc, _full, ri, _rf = _parity(triangle_market, log)
        # the tick dirties no loop, but the driver's prices track it
        assert ri.reports[0].evaluated_loops == 0
        assert inc.prices[v] == 3.0

    def test_tick_parity_with_full(self, triangle_market, tokens_xyz):
        x, _, _ = tokens_xyz
        log = MarketEventLog(
            [
                PriceTickEvent(token=x, price=2.5, block=0),
                SwapEvent("t-xy", x, Token("Y"), 2.0, 0.0, block=1),
            ]
        )
        _parity(triangle_market, log)

    def test_empty_block_keeps_state(self, triangle_market):
        log = MarketEventLog([BlockEvent(block=0), BlockEvent(block=1)])
        inc, _full, ri, _rf = _parity(triangle_market, log)
        assert [r.evaluated_loops for r in ri.reports] == [0, 0]
        assert ri.reports[0].profit_usd == ri.reports[1].profit_usd

    def test_sequential_replays_report_per_call(self, triangle_market, tokens_xyz):
        """A driver replaying two logs returns per-call results; the
        cumulative history stays on driver.reports."""
        x, y, _ = tokens_xyz
        driver = ReplayDriver(triangle_market)
        first = driver.replay(
            MarketEventLog([SwapEvent("t-xy", x, y, 1.0, 0.0, block=0)])
        )
        second = driver.replay(
            MarketEventLog([SwapEvent("t-xy", y, x, 0.5, 0.0, block=1)])
        )
        assert [r.block for r in first.reports] == [0]
        assert [r.block for r in second.reports] == [1]
        assert second.events_applied == 1
        assert [r.block for r in driver.reports] == [0, 1]

    def test_replayed_pools_do_not_accumulate_events(self, triangle_market, tokens_xyz):
        x, y, _ = tokens_xyz
        driver = ReplayDriver(triangle_market)
        driver.replay(
            MarketEventLog(
                [SwapEvent("t-xy", x, y, 1.0, 0.0, block=b) for b in range(5)]
            )
        )
        assert driver.market.registry["t-xy"].events == ()

    def test_synthetic_market_parity(self):
        market = SyntheticMarketGenerator(
            n_tokens=10, n_pools=24, seed=17, price_noise=0.02
        ).generate()
        log = generate_event_stream(market, n_blocks=5, events_per_block=6, seed=17)
        _triangle, _full, ri, rf = _parity(market, log)
        assert ri.evaluations() <= rf.evaluations()


class TestPrunedReplay:
    """``prune=True``: skip exact quotes for loops the bound proves
    unprofitable, with per-block reports bit-identical to the
    exhaustive driver."""

    def _market_and_log(self):
        market = SyntheticMarketGenerator(
            n_tokens=10, n_pools=24, seed=17, price_noise=0.02
        ).generate()
        log = generate_event_stream(
            market, n_blocks=6, events_per_block=6, seed=17,
            price_ticks_per_block=1,
        )
        return market, log

    def test_reports_bit_identical_with_fewer_exact_quotes(self):
        market, log = self._market_and_log()
        pruned = ReplayDriver(market, prune=True)
        exact = ReplayDriver(market, prune=False)
        rp = pruned.replay(log)
        rf = exact.replay(log)
        assert len(rp.reports) == len(rf.reports)
        for a, b in zip(rf.reports, rp.reports):
            assert a.same_numbers(b), f"prune mismatch at block {a.block}"
        assert rp.evaluations() < rf.evaluations()
        assert pruned.evaluator_stats.pruned_loops > 0
        assert exact.evaluator_stats.pruned_loops == 0

    def test_prune_requires_the_batch_evaluator(self, triangle_market):
        with pytest.raises(ValueError, match="prune"):
            ReplayDriver(triangle_market, mode="full", prune=True)
