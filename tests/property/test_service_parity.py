"""Property: the streaming service is sharding-invariant and equals
batch detection on any quiesced stream.

For arbitrary generated markets, streams, and shard counts the final
opportunity book must be bit-identical to evaluating every candidate
loop against the final market state — profits, ordering, and the
profit-tie canonical-id tie-break included.  This is the service-level
analogue of the replay layer's incremental ≡ full property.
"""

from __future__ import annotations

import asyncio

from hypothesis import given, settings, strategies as st

from repro.data import SyntheticMarketGenerator
from repro.replay import generate_event_stream
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
