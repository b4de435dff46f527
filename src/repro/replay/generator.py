"""Seeded synthetic market-event streams.

:func:`generate_event_stream` turns a :class:`~repro.data.snapshot.
MarketSnapshot` into an N-block stream of swaps, mints, burns and CEX
price ticks, scaled by ``n_blocks`` × ``events_per_block``.  Events are
produced by *executing* them against a private working copy of the
snapshot, so every recorded amount is consistent with the market state
at its point in the stream — replaying the log from the same snapshot
reproduces the working copy's final state bit-for-bit.

``pools_per_block`` controls touch sparsity: with 10⁴ pools and 2
touched pools per block, an incremental replay re-evaluates a handful
of loops while a full recompute re-evaluates them all — the regime the
throughput benchmark measures.

:func:`make_workload` builds the seeded synthetic market too and returns
the ``(market, log)`` pair that ``repro-arb replay`` and ``serve``
generate, the ``service_throughput`` gates run and the service tests use.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..amm.events import BlockEvent, PriceTickEvent
from ..data.snapshot import MarketSnapshot
from ..data.synthetic import SyntheticMarketGenerator
from .log import MarketEventLog

__all__ = ["generate_event_stream", "make_workload"]


def generate_event_stream(
    market: MarketSnapshot,
    n_blocks: int = 20,
    events_per_block: int = 5,
    seed: int = 0,
    *,
    pools_per_block: int | None = None,
    mint_fraction: float = 0.1,
    burn_fraction: float = 0.1,
    price_ticks_per_block: int = 1,
    tick_sigma: float = 0.002,
    max_trade_fraction: float = 0.01,
    emit_block_markers: bool = True,
) -> MarketEventLog:
    """Generate a deterministic event stream for ``market``.

    Parameters
    ----------
    market:
        Starting snapshot.  Left untouched — events are staged on a
        private copy.
    n_blocks, events_per_block:
        Stream size: each block carries ``events_per_block`` pool
        events (swap / mint / burn) plus ``price_ticks_per_block``
        CEX ticks.
    seed:
        RNG seed; identical seeds give identical streams.
    pools_per_block:
        When set, each block's pool events concentrate on at most this
        many distinct pools (sparse-touch streams); ``None`` draws every
        event's pool uniformly.
    mint_fraction, burn_fraction:
        Probability that a pool event is a mint / burn (the remainder
        are swaps).
    price_ticks_per_block:
        CEX price updates per block (0 disables ticks).
    tick_sigma:
        Lognormal sigma of each tick (~0.2 % default).
    max_trade_fraction:
        Swap inputs are uniform in ``[1e-4, max_trade_fraction]`` of
        the input-side reserve.
    emit_block_markers:
        Emit a :class:`~repro.amm.events.BlockEvent` at each block
        start so empty blocks stay representable.
    """
    if n_blocks < 0:
        raise ValueError(f"n_blocks must be >= 0, got {n_blocks}")
    if events_per_block < 0:
        raise ValueError(f"events_per_block must be >= 0, got {events_per_block}")
    if pools_per_block is not None and pools_per_block < 1:
        raise ValueError(f"pools_per_block must be >= 1, got {pools_per_block}")
    if not 0.0 <= mint_fraction + burn_fraction <= 1.0:
        raise ValueError(
            f"mint_fraction + burn_fraction must be in [0, 1], got "
            f"{mint_fraction} + {burn_fraction}"
        )
    rng = np.random.default_rng(seed)
    staging = market.copy()
    pools = sorted(staging.registry, key=lambda p: p.pool_id)
    prices = dict(staging.prices.items())
    priced_tokens = sorted(prices, key=lambda t: t.symbol)
    log = MarketEventLog()

    for block in range(n_blocks):
        if emit_block_markers:
            log.append(BlockEvent(block=block))
        for _ in range(price_ticks_per_block):
            token = priced_tokens[int(rng.integers(0, len(priced_tokens)))]
            price = prices[token] * float(
                np.exp(tick_sigma * rng.standard_normal())
            )
            prices[token] = price
            log.append(PriceTickEvent(token=token, price=price, block=block))
        if pools_per_block is not None:
            chosen = rng.choice(
                len(pools), size=min(pools_per_block, len(pools)), replace=False
            )
            block_pools = [pools[int(i)] for i in chosen]
        else:
            block_pools = pools
        for _ in range(events_per_block):
            pool = block_pools[int(rng.integers(0, len(block_pools)))]
            roll = float(rng.random())
            if roll < mint_fraction:
                fraction = float(rng.uniform(0.005, 0.05))
                pool.add_liquidity(
                    pool.reserve_of(pool.token0) * fraction,
                    pool.reserve_of(pool.token1) * fraction,
                )
            elif roll < mint_fraction + burn_fraction:
                pool.remove_liquidity(float(rng.uniform(0.005, 0.05)))
            else:
                token = pool.tokens[int(rng.integers(0, 2))]
                fraction = float(rng.uniform(1e-4, max_trade_fraction))
                pool.swap(token, pool.reserve_of(token) * fraction)
            # the pool recorded the event; stamp it and drop the staging
            # copy so generation stays O(1) in memory per pool
            log.append(replace(pool.last_event, block=block))
            pool.discard_events_after(0)
    return log


def make_workload(
    n_tokens: int,
    n_pools: int,
    n_blocks: int,
    events_per_block: int,
    seed: int,
    *,
    price_noise: float = 0.02,
    pools_per_block: int | None = None,
    price_ticks_per_block: int = 1,
    stableswap_fraction: float = 0.0,
) -> tuple[MarketSnapshot, MarketEventLog]:
    """Seeded synthetic market and an event stream over it.

    The market comes from :class:`~repro.data.synthetic.
    SyntheticMarketGenerator` (``n_tokens``, ``n_pools``, ``seed``,
    ``price_noise``, ``stableswap_fraction``); the stream from
    :func:`generate_event_stream` with the same ``seed``.  Invalid sizes
    raise ``ValueError``.
    """
    market = SyntheticMarketGenerator(
        n_tokens=n_tokens,
        n_pools=n_pools,
        seed=seed,
        price_noise=price_noise,
        stableswap_fraction=stableswap_fraction,
    ).generate()
    log = generate_event_stream(
        market,
        n_blocks=n_blocks,
        events_per_block=events_per_block,
        seed=seed,
        pools_per_block=pools_per_block,
        price_ticks_per_block=price_ticks_per_block,
    )
    return market, log
