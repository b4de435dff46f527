"""Hypothesis: stableswap parity across every evaluation path.

Three contracts, matching the family's entry in the parity-policy
table (:mod:`repro.market.weighted_kernel` docstring):

* **scalar ↔ batched** — for random loops mixing constant-product and
  stableswap hops, the chain kernel
  (:func:`repro.market.stableswap_quotes`) agrees with the scalar
  optimizer within the documented
  :data:`repro.market.STABLESWAP_PARITY_RTOL` — and, because every
  stableswap operation is ``+ - * /`` (correctly rounded under
  IEEE-754) replayed in lockstep operation order by the batched
  D/Y solvers, the two paths also agree *bit for bit* on this
  hardware.  Unlike the weighted family's ``pow``-based lockstep
  (which was demoted to the rtol contract after ulp flakes), division
  rounding is pinned by the standard, so the bit-identity tier here
  is portable to any compliant float64 platform.

* **incremental ≡ full replay** — with stableswap events (swaps,
  mints, burns) in the stream, dirty-set tracking still changes when
  work happens, never what is computed.

* **shared ≡ private ≡ batch detect** — with stableswap pools in the
  mix, a service on the shared-memory segment (process backend) and
  one on private in-process columns (inline backend) both produce the
  book of batch detection, bit for bit.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amm import Pool, PoolRegistry
from repro.amm.stableswap import StableSwapPool
from repro.core import ArbitrageLoop, PriceMap, Token
from repro.data import SyntheticMarketGenerator
from repro.market import (
    STABLESWAP_PARITY_RTOL,
    BatchEvaluator,
    MarketArrays,
    compile_loops,
)
from repro.market.weighted_kernel import stableswap_quotes
from repro.replay import ReplayDriver, generate_event_stream
from repro.service import OpportunityService, batch_detect_ranking, log_source
from repro.strategies import (
    MaxMaxStrategy,
    MaxPriceStrategy,
    TraditionalStrategy,
)
from repro.strategies.traditional import rotation_quote

TOKENS = tuple(Token(s) for s in ("A", "B", "C", "D"))

reserve = st.floats(min_value=50.0, max_value=1e6)
amplification = st.floats(min_value=1.0, max_value=300.0)
fee = st.floats(min_value=0.0, max_value=0.05)
price = st.floats(min_value=0.01, max_value=1e4)
length = st.integers(min_value=2, max_value=4)
method = st.sampled_from(["closed_form", "bisection", "golden"])


@st.composite
def stableswap_market(draw):
    """One loop of random length mixing CPMM and stableswap hops (at
    least one stableswap), plus prices for every token."""
    n = draw(length)
    tokens = list(TOKENS[:n])
    registry = PoolRegistry()
    pools = []
    stable_slots = draw(
        st.lists(st.booleans(), min_size=n, max_size=n).filter(any)
    )
    for j in range(n):
        a, b = tokens[j], tokens[(j + 1) % n]
        ra, rb = draw(reserve), draw(reserve)
        f = draw(fee)
        if stable_slots[j]:
            pool = StableSwapPool(
                a, b, ra, rb, amplification=draw(amplification),
                fee=f, pool_id=f"s{j}",
            )
        else:
            pool = Pool(a, b, ra, rb, fee=f, pool_id=f"p{j}")
        registry.add(pool)
        pools.append(pool)
    loop = ArbitrageLoop(tokens, pools)
    prices = PriceMap({t: draw(price) for t in tokens})
    return registry, loop, prices


# ----------------------------------------------------------------------
# scalar ↔ batched
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(market=stableswap_market(), m=method)
def test_stableswap_quotes_match_scalar_optimizer(market, m):
    registry, loop, prices = market
    evaluator = BatchEvaluator(
        [loop], arrays=MarketArrays.from_registry(registry), min_batch=1
    )
    assert evaluator.fallback_positions == []
    assert evaluator.groups[0].mixed
    for strategy in (
        TraditionalStrategy(method=m),
        MaxPriceStrategy(method=m),
        MaxMaxStrategy(method=m),
    ):
        got = evaluator.evaluate_many(strategy, prices)[0]
        ref = strategy.evaluate_cached(loop, prices, None)
        # documented contract: relative tolerance
        assert got.amount_in == pytest.approx(
            ref.amount_in, rel=STABLESWAP_PARITY_RTOL, abs=1e-12
        )
        assert got.monetized_profit == pytest.approx(
            ref.monetized_profit, rel=STABLESWAP_PARITY_RTOL, abs=1e-9
        )
        # IEEE-pinned lockstep: + - * / only, so also bit-identical
        # (see module docstring — this tier is portable, unlike pow)
        assert got.amount_in == ref.amount_in
        assert got.hop_amounts == ref.hop_amounts
        assert got.monetized_profit == ref.monetized_profit
        assert got.details == ref.details
    assert evaluator.stats.scalar_loops == 0


@settings(max_examples=40, deadline=None)
@given(market=stableswap_market())
def test_every_rotation_quote_matches_chain_optimizer(market):
    """Rotation-level parity independent of any strategy."""
    registry, loop, _prices = market
    arrays = MarketArrays.from_registry(registry)
    groups, fallback = compile_loops([loop], arrays)
    assert fallback == []
    for offset in range(len(loop)):
        quotes = stableswap_quotes(arrays, groups[0], offset)
        ref = rotation_quote(loop.rotations()[offset])
        got = quotes.quote(0)
        assert got.amount_in == pytest.approx(
            ref.amount_in, rel=STABLESWAP_PARITY_RTOL, abs=1e-12
        )
        assert got == ref  # lockstep tier (iterations included)


# ----------------------------------------------------------------------
# incremental ≡ full replay with stableswap events
# ----------------------------------------------------------------------


@given(
    market_seed=st.integers(0, 2**16),
    stream_seed=st.integers(0, 2**16),
    n_blocks=st.integers(1, 5),
    events_per_block=st.integers(0, 6),
)
@settings(max_examples=10, deadline=None)
def test_incremental_replay_matches_full_with_stableswap(
    market_seed, stream_seed, n_blocks, events_per_block
):
    market = SyntheticMarketGenerator(
        n_tokens=8, n_pools=18, seed=market_seed, price_noise=0.02,
        stableswap_fraction=0.4,
    ).generate()
    log = generate_event_stream(
        market,
        n_blocks=n_blocks,
        events_per_block=events_per_block,
        seed=stream_seed,
    )
    strategies = {"maxmax": MaxMaxStrategy(), "maxprice": MaxPriceStrategy()}
    incremental = ReplayDriver(market, strategies=strategies, mode="incremental")
    full = ReplayDriver(market, strategies=strategies, mode="full")
    ri = incremental.replay(log)
    rf = full.replay(log)
    assert len(ri.reports) == len(rf.reports) == len(log.blocks())
    for a, b in zip(ri.reports, rf.reports):
        # bit-identical, not approximately equal
        assert a.same_numbers(b), f"divergence at block {a.block}: {a} vs {b}"
        assert a.evaluated_loops <= b.evaluated_loops
    for pool in incremental.market.registry:
        other = full.market.registry[pool.pool_id]
        assert pool.reserve_of(pool.token0) == other.reserve_of(other.token0)
        assert pool.reserve_of(pool.token1) == other.reserve_of(other.token1)


# ----------------------------------------------------------------------
# shared ≡ private ≡ batch-detect service books with stableswap pools
# ----------------------------------------------------------------------


def _book(report):
    return [
        (o.loop_id, o.profit_usd, o.amount_in, o.block)
        for o in report.book.entries
    ]


@given(
    market_seed=st.integers(0, 2**16),
    stream_seed=st.integers(0, 2**16),
    n_blocks=st.integers(0, 4),
    n_shards=st.integers(1, 3),
)
@settings(max_examples=6, deadline=None)
def test_shared_book_equals_private_with_stableswap(
    market_seed, stream_seed, n_blocks, n_shards
):
    market = SyntheticMarketGenerator(
        n_tokens=7, n_pools=14, seed=market_seed, price_noise=0.02,
        stableswap_fraction=0.35,
    ).generate()
    log = generate_event_stream(
        market, n_blocks=n_blocks, events_per_block=4, seed=stream_seed
    )
    private = asyncio.run(
        OpportunityService(market, n_shards=n_shards).run(log_source(log))
    )
    shared = OpportunityService(market, n_shards=n_shards, backend="process")
    try:
        report = asyncio.run(shared.run(log_source(log)))
    finally:
        shared.close()
    expected = batch_detect_ranking(market, log)
    assert [(o.profit_usd, o.loop_id) for o in private.book.entries] == expected
    assert [(o.profit_usd, o.loop_id) for o in report.book.entries] == expected
    assert _book(report) == _book(private)
    assert report.events_dropped == 0
    assert report.events_ingested == len(log)
