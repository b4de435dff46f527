"""Property tests: event-log serialization is lossless and incremental
replay is bit-identical to full recompute.

These two properties are the replay subsystem's contract:

* any event stream survives a JSONL round trip unchanged (floats
  included — JSON numbers carry ``repr`` precision);
* for any generated market and stream, the incremental driver's
  per-block reports equal the full-recompute driver's *exactly* —
  not approximately, with or without bound pruning.  Dirty-set
  tracking changes when work happens, never what is computed.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.amm.events import (
    BlockEvent,
    BurnEvent,
    MintEvent,
    PriceTickEvent,
    SwapEvent,
)
from repro.data import SyntheticMarketGenerator
from repro.replay import MarketEventLog, ReplayDriver, generate_event_stream
from repro.strategies import MaxMaxStrategy, MaxPriceStrategy, TraditionalStrategy
from repro.core.types import Token

# ----------------------------------------------------------------------
# arbitrary (not necessarily applicable) events — serialization only
# ----------------------------------------------------------------------

_symbols = st.sampled_from(["WETH", "USDC", "DAI", "TOK0", "TOK1", "X"])
_tokens = st.builds(
    Token,
    symbol=_symbols,
    decimals=st.integers(min_value=0, max_value=24),
    address=st.sampled_from(["", "0xdead", "0xbeef"]),
)
_amounts = st.floats(
    min_value=1e-12, max_value=1e12, allow_nan=False, allow_infinity=False
)
_pool_ids = st.sampled_from(["pool-a", "pool-b", "syn-0001"])

_events = st.one_of(
    st.builds(BlockEvent),
    st.builds(PriceTickEvent, token=_tokens, price=_amounts),
    st.builds(
        SwapEvent,
        pool_id=_pool_ids,
        token_in=_tokens,
        token_out=_tokens,
        amount_in=_amounts,
        amount_out=_amounts,
    ),
    st.builds(MintEvent, pool_id=_pool_ids, amount0=_amounts, amount1=_amounts),
    st.builds(
        BurnEvent,
        pool_id=_pool_ids,
        fraction=st.floats(min_value=1e-6, max_value=0.99),
        amount0=_amounts,
        amount1=_amounts,
    ),
)


@st.composite
def event_logs(draw):
    """A block-ordered log of arbitrary events."""
    events = draw(st.lists(_events, max_size=30))
    blocks = sorted(draw(st.lists(st.integers(0, 50), min_size=len(events), max_size=len(events))))
    from dataclasses import replace

    return MarketEventLog(
        replace(event, block=block) for event, block in zip(events, blocks)
    )


@given(log=event_logs())
@settings(max_examples=60, deadline=None)
def test_jsonl_round_trip_is_lossless(log):
    parsed = MarketEventLog.from_jsonl(log.to_jsonl())
    assert parsed == log
    # and idempotent: serialize-parse-serialize is a fixed point
    assert parsed.to_jsonl() == log.to_jsonl()


# ----------------------------------------------------------------------
# incremental ≡ full on generated markets + streams
# ----------------------------------------------------------------------


@given(
    market_seed=st.integers(0, 2**16),
    stream_seed=st.integers(0, 2**16),
    n_blocks=st.integers(1, 5),
    events_per_block=st.integers(0, 6),
    ticks=st.integers(0, 2),
    prune=st.booleans(),
)
@settings(max_examples=12, deadline=None)
def test_incremental_replay_matches_full_recompute(
    market_seed, stream_seed, n_blocks, events_per_block, ticks, prune
):
    market = SyntheticMarketGenerator(
        n_tokens=8, n_pools=18, seed=market_seed, price_noise=0.02
    ).generate()
    log = generate_event_stream(
        market,
        n_blocks=n_blocks,
        events_per_block=events_per_block,
        seed=stream_seed,
        price_ticks_per_block=ticks,
    )
    strategies = {
        "maxmax": MaxMaxStrategy(),
        "maxprice": MaxPriceStrategy(),
        "traditional": TraditionalStrategy(),
    }
    incremental = ReplayDriver(
        market, strategies=strategies, mode="incremental", prune=prune
    )
    full = ReplayDriver(market, strategies=strategies, mode="full")
    ri = incremental.replay(log)
    rf = full.replay(log)

    assert len(ri.reports) == len(rf.reports) == len(log.blocks())
    for a, b in zip(ri.reports, rf.reports):
        # bit-identical, not approximately equal
        assert a.same_numbers(b), f"divergence at block {a.block}: {a} vs {b}"
        assert a.evaluated_loops <= b.evaluated_loops

    # final market state agrees too (same events, same order)
    assert (
        incremental.market.registry.snapshot().__class__
        is full.market.registry.snapshot().__class__
    )
    for pool in incremental.market.registry:
        other = full.market.registry[pool.pool_id]
        assert pool.reserve_of(pool.token0) == other.reserve_of(other.token0)
        assert pool.reserve_of(pool.token1) == other.reserve_of(other.token1)
