"""Property: the column store's memory is invisible in the numbers.

For arbitrary generated markets, streams, and shard counts, a service
on the process backend — one shared segment, zero-copy views,
seqlock-bracketed quote passes — and one on the inline backend — the
same columns in private process memory — must both produce the
quiesced opportunity book of batch detection, and therefore
**bit-identical** books to each other.  A second, concurrent property
hammers the seqlock itself: under writer churn a consistent read never
observes a torn pair, and the torn-read retry path is exercised for
real.
"""

from __future__ import annotations

import asyncio
import sys
import threading

from hypothesis import given, settings, strategies as st

from repro.amm import PoolRegistry
from repro.core import Token
from repro.data import SyntheticMarketGenerator
from repro.market import SharedMarketArrays
from repro.replay import generate_event_stream
from repro.service import OpportunityService, batch_detect_ranking, log_source


def _book(report):
    return [
        (o.loop_id, o.profit_usd, o.amount_in, o.block)
        for o in report.book.entries
    ]


@given(
    market_seed=st.integers(0, 2**16),
    stream_seed=st.integers(0, 2**16),
    n_blocks=st.integers(0, 4),
    events_per_block=st.integers(0, 5),
    ticks=st.integers(0, 2),
    n_shards=st.integers(1, 4),
)
@settings(max_examples=8, deadline=None)
def test_shared_book_equals_private_book(
    market_seed, stream_seed, n_blocks, events_per_block, ticks, n_shards,
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


def test_consistent_reads_survive_writer_churn():
    """A reader spinning against a live writer thread never sees a
    torn (reserve0, reserve1) pair — every consistent read observes
    exactly one committed write, and the retry path really fires.

    The retry is guaranteed, not hoped for: the writer *holds its
    first epoch odd* (mid-write) until the reader is provably spinning
    on it, then the pair free-run for the invariant half.
    """
    X, Y = Token("X"), Token("Y")
    registry = PoolRegistry()
    registry.create(X, Y, 1.0, 2.0, pool_id="xy")
    arrays = SharedMarketArrays(registry)
    view = arrays.view()
    row = arrays.pool_index["xy"]
    stop = threading.Event()
    mid_write = threading.Event()   # writer: "epoch is odd right now"
    release = threading.Event()     # reader: "I saw it, commit away"

    def churn():
        value = 1.0
        while not stop.is_set():
            value += 1.0
            with arrays.write_block():
                arrays.reserve0[row] = value
                arrays.reserve1[row] = 2.0 * value
                if not mid_write.is_set():
                    mid_write.set()
                    release.wait(timeout=10.0)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # force tight reader/writer interleaving
    writer = threading.Thread(target=churn)
    writer.start()
    try:
        assert mid_write.wait(timeout=10.0)
        # epoch is odd: this read must spin at least once, and the
        # spin hook is what lets the writer commit out from under it
        view._spin_hook = release.set
        r0, r1 = view.read_consistent(
            lambda: (float(view.reserve0[row]), float(view.reserve1[row]))
        )
        assert r1 == 2.0 * r0
        assert view.torn_retries > 0
        view._spin_hook = None
        for _ in range(400):
            r0, r1 = view.read_consistent(
                lambda: (float(view.reserve0[row]), float(view.reserve1[row]))
            )
            assert r1 == 2.0 * r0, f"torn read escaped the seqlock: {(r0, r1)}"
    finally:
        stop.set()
        release.set()
        writer.join(timeout=10.0)
        sys.setswitchinterval(old_interval)
        view.close()
        arrays.unlink()
