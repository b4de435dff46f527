"""Property: monetized profit bounds are sound, and pruning with them
never changes the top-K book.

Two halves of the same contract:

* **bound soundness** — on random loops mixing CPMM, weighted, and
  stableswap hops, for every strategy × solver method,
  :meth:`BatchEvaluator.monetized_bounds` is never below the exact
  kernel profit, and a bound of exactly ``0.0`` proves the exact
  profit is non-positive.  This is what makes every prune decision
  safe by construction.
* **pruned ≡ unpruned** — on random event streams, the service run
  with ``prune_top_k`` publishes a top-K book bit-identical to the
  exhaustive (``--no-prune``) run, and the work accounting closes:
  exact quotes + pruned loops = loops the unpruned run dirtied.

Deterministic small-case versions live in
``tests/unit/test_market_bounds.py``.
"""

from __future__ import annotations

import asyncio
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amm import Pool, PoolRegistry
from repro.amm.stableswap import StableSwapPool
from repro.amm.weighted import WeightedPool
from repro.core import ArbitrageLoop, PriceMap, Token
from repro.data import SyntheticMarketGenerator
from repro.market import BatchEvaluator, MarketArrays, below_threshold
from repro.replay import ReplayDriver, generate_event_stream
from repro.service import OpportunityService, batch_detect_ranking, log_source
from repro.strategies import (
    MaxMaxStrategy,
    MaxPriceStrategy,
    TraditionalStrategy,
)

TOKENS = tuple(Token(s) for s in ("A", "B", "C", "D"))

reserve = st.floats(min_value=50.0, max_value=1e6)
weight = st.floats(min_value=0.1, max_value=0.9)
amplification = st.floats(min_value=1.0, max_value=300.0)
fee = st.floats(min_value=0.0, max_value=0.05)
price = st.floats(min_value=0.01, max_value=1e4)
length = st.integers(min_value=2, max_value=4)
method = st.sampled_from(["closed_form", "bisection", "golden"])


@st.composite
def mixed_market(draw):
    """A single loop of random length mixing CPMM, G3M, and stableswap
    hops in any combination (pure-CPMM included), plus prices for every
    token."""
    n = draw(length)
    tokens = list(TOKENS[:n])
    registry = PoolRegistry()
    pools = []
    slots = draw(
        st.lists(
            st.sampled_from(["cpmm", "g3m", "stableswap"]),
            min_size=n, max_size=n,
        )
    )
    for j in range(n):
        a, b = tokens[j], tokens[(j + 1) % n]
        ra, rb = draw(reserve), draw(reserve)
        f = draw(fee)
        if slots[j] == "g3m":
            pool = WeightedPool(
                a, b, ra, rb, draw(weight), draw(weight),
                fee=f, pool_id=f"w{j}",
            )
        elif slots[j] == "stableswap":
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


@settings(max_examples=60, deadline=None)
@given(market=mixed_market(), m=method)
def test_bound_dominates_exact_profit(market, m):
    registry, loop, prices = market
    evaluator = BatchEvaluator(
        [loop], arrays=MarketArrays.from_registry(registry), min_batch=1
    )
    for strategy in (
        TraditionalStrategy(method=m),
        MaxPriceStrategy(method=m),
        MaxMaxStrategy(method=m),
    ):
        bound = evaluator.monetized_bounds(strategy, prices)[0]
        if math.isnan(bound):
            # NaN refuses to prune; nothing to prove
            assert not below_threshold(
                evaluator.monetized_bounds(strategy, prices), 1e18
            )[0]
            continue
        exact = evaluator.evaluate_many(strategy, prices)[0].monetized_profit
        assert bound >= exact, (
            f"{strategy!r}: bound {bound!r} below exact profit {exact!r}"
        )
        if bound == 0.0:
            assert exact <= 0.0


@given(
    market_seed=st.integers(0, 2**16),
    stream_seed=st.integers(0, 2**16),
    n_blocks=st.integers(0, 4),
    events_per_block=st.integers(0, 5),
    ticks=st.integers(0, 4),
    n_shards=st.integers(1, 3),
    k=st.integers(1, 5),
    strategy_cls=st.sampled_from(
        [TraditionalStrategy, MaxPriceStrategy, MaxMaxStrategy]
    ),
)
@settings(max_examples=10, deadline=None)
def test_pruned_service_equals_unpruned_book(
    market_seed, stream_seed, n_blocks, events_per_block, ticks, n_shards, k,
    strategy_cls,
):
    market = SyntheticMarketGenerator(
        n_tokens=7, n_pools=14, seed=market_seed, price_noise=0.02
    ).generate()
    log = generate_event_stream(
        market,
        n_blocks=n_blocks,
        events_per_block=events_per_block,
        seed=stream_seed,
        price_ticks_per_block=ticks,
    )

    strategy = strategy_cls()

    def run(prune_top_k):
        service = OpportunityService(
            market, n_shards=n_shards, prune_top_k=prune_top_k,
            strategy=strategy,
        )
        return asyncio.run(service.run(log_source(log)))

    pruned = run(k)
    exact = run(None)

    got = [(o.profit_usd, o.loop_id) for o in pruned.book.top(k)]
    want = [(o.profit_usd, o.loop_id) for o in exact.book.top(k)]
    assert got == want
    assert want == batch_detect_ranking(market, log, strategy=strategy)[:k]
    # work accounting closes: every dirtied loop was either exactly
    # re-quoted or provably below the running threshold
    assert pruned.evaluations + pruned.loops_pruned == exact.evaluations
    assert exact.loops_pruned == 0
    assert pruned.events_dropped == 0 and exact.events_dropped == 0


@given(
    market_seed=st.integers(0, 2**16),
    stream_seed=st.integers(0, 2**16),
    n_blocks=st.integers(0, 4),
    events_per_block=st.integers(0, 5),
)
@settings(max_examples=10, deadline=None)
def test_pruned_replay_reports_are_bit_identical(
    market_seed, stream_seed, n_blocks, events_per_block
):
    market = SyntheticMarketGenerator(
        n_tokens=6, n_pools=12, seed=market_seed, price_noise=0.02
    ).generate()
    log = generate_event_stream(
        market,
        n_blocks=n_blocks,
        events_per_block=events_per_block,
        seed=stream_seed,
        price_ticks_per_block=1,
    )
    pruned = ReplayDriver(market, prune=True).replay(log)
    exact = ReplayDriver(market, prune=False).replay(log)
    assert len(pruned.reports) == len(exact.reports)
    for a, b in zip(exact.reports, pruned.reports):
        assert a.same_numbers(b)
