"""Property: the streaming service is sharding-invariant and equals
batch detection on any quiesced stream.

For arbitrary generated markets, streams, and shard counts the final
opportunity book must be bit-identical to evaluating every candidate
loop against the final market state — profits, ordering, and the
profit-tie canonical-id tie-break included.  This is the service-level
analogue of the replay layer's incremental ≡ full property.  With
pruning on, the top K must still equal batch detection's, including on
schedules that collapse the loops above a pruned one.
"""

from __future__ import annotations

import asyncio

from hypothesis import given, settings, strategies as st

from repro.amm.events import SwapEvent
from repro.core import Token
from repro.data import SyntheticMarketGenerator
from repro.replay import MarketEventLog, generate_event_stream
from repro.service import OpportunityService, batch_detect_ranking, log_source
from repro.strategies import MaxMaxStrategy, MaxPriceStrategy, TraditionalStrategy

#: the fixed-start strategies whose shards re-monetize ticks from
#: stored rotation quotes
FIXED_START = st.sampled_from(
    [TraditionalStrategy, MaxPriceStrategy, MaxMaxStrategy]
)


@given(
    market_seed=st.integers(0, 2**16),
    stream_seed=st.integers(0, 2**16),
    n_blocks=st.integers(0, 4),
    events_per_block=st.integers(0, 5),
    ticks=st.integers(0, 4),
    n_shards=st.integers(1, 4),
    strategy_cls=FIXED_START,
)
@settings(max_examples=10, deadline=None)
def test_quiesced_service_equals_batch_detect(
    market_seed, stream_seed, n_blocks, events_per_block, ticks, n_shards,
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
    service = OpportunityService(market, n_shards=n_shards, strategy=strategy)
    report = asyncio.run(service.run(log_source(log)))

    got = [(o.profit_usd, o.loop_id) for o in report.book.entries]
    assert got == batch_detect_ranking(market, log, strategy=strategy)
    # conservation of work accounting: nothing dropped under backpressure
    assert report.events_dropped == 0
    assert report.events_ingested == len(log)


@given(
    b_reserves=st.lists(st.floats(1010.0, 1400.0), min_size=2, max_size=5),
    data=st.data(),
    k=st.integers(1, 3),
    n_shards=st.integers(1, 3),
)
@settings(max_examples=60, deadline=None)
def test_pruned_top_k_after_collapses(disjoint_triangles, b_reserves, data, k, n_shards):
    """Disjoint triangles, each mispriced on its a->b pool; one block
    per triangle, in a drawn order, swaps enough ``a`` into that pool
    to close (or overshoot) its arbitrage.  A loop pruned while others
    held the threshold keeps a stale entry until the loops above it
    fall; the pruned top K must never show it."""
    market = disjoint_triangles({f"T{i}": b for i, b in enumerate(b_reserves)})
    order = data.draw(st.permutations(range(len(b_reserves))))
    log = MarketEventLog(
        SwapEvent(
            pool_id=f"T{i}-ab", token_in=Token(f"T{i}a"), token_out=Token(f"T{i}b"),
            amount_in=data.draw(st.floats(50.0, 200.0)), amount_out=0.0,
            block=block,
        )
        for block, i in enumerate(order, start=1)
    )
    service = OpportunityService(market, n_shards=n_shards, prune_top_k=k)
    report = asyncio.run(service.run(log_source(log)))
    got = [(o.profit_usd, o.loop_id) for o in report.book.top(k)]
    assert got == batch_detect_ranking(market, log)[:k]
