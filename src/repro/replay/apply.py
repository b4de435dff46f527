"""Shared event-application and invalidation-index primitives.

The block-by-block consumers of a market event stream — the offline
:class:`~repro.replay.ReplayDriver` and the online
:class:`~repro.service.OpportunityService` (its ingest stage and its
shard workers) — share these building blocks:

* :func:`apply_event` — mutate a private market copy (and price map)
  according to one event, recording which pool / token it dirtied;
* :func:`apply_block_events` — a whole block of events at once,
  including dropping the pools' own event records and, optionally,
  pulling the dirty pools into a columnar
  :class:`~repro.market.MarketArrays`.  Both consumers write their
  column store this way — the driver its in-process store, the
  service's ingest its shared store (calling ``pull`` itself, so that
  on a shared-memory segment only the row copy runs under the seqlock)
  — so the pool classes in :mod:`repro.amm` are the one place an event
  moves reserves;
* :func:`build_loop_indices` — the inverted indices (pool id → loop
  positions, token → loop positions) that turn a dirty set into the
  exact set of loops whose stored results are stale;
* :func:`rebind_loops` — point loops at another set of pool objects.

The driver's incremental mode runs the service's
:class:`~repro.service.ShardWorker` itself, so the dirty-set logic the
replay parity suite pins down is the *same code* every shard runs,
not a reimplementation that could drift.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from ..amm.events import (
    BlockEvent,
    BurnEvent,
    MarketEvent,
    MintEvent,
    PriceTickEvent,
    SwapEvent,
)
from ..amm.registry import PoolRegistry
from ..core.errors import UnknownPoolError
from ..core.loop import ArbitrageLoop
from ..core.types import PriceMap, Token

if TYPE_CHECKING:  # imported lazily to keep the layers decoupled
    from ..market import MarketArrays

__all__ = [
    "apply_block_events",
    "apply_event",
    "build_loop_indices",
    "rebind_loops",
]


def _pool(registry: PoolRegistry, pool_id: str):
    try:
        return registry[pool_id]
    except KeyError:
        raise UnknownPoolError(
            f"event references pool {pool_id!r} which is not in the market"
        ) from None


def apply_event(
    registry: PoolRegistry,
    prices: PriceMap,
    event: MarketEvent,
    dirty_pools: set[str],
    dirty_tokens: set[Token],
) -> PriceMap:
    """Apply one event to ``registry`` / ``prices``, tracking dirt.

    Pool events (swap / mint / burn) mutate the pool in place and add
    its id to ``dirty_pools``; a price tick adds the token to
    ``dirty_tokens`` and returns the updated price map (price maps are
    immutable, so the caller must keep the return value); block
    markers are boundary no-ops.
    """
    if isinstance(event, SwapEvent):
        _pool(registry, event.pool_id).swap(event.token_in, event.amount_in)
        dirty_pools.add(event.pool_id)
    elif isinstance(event, MintEvent):
        _pool(registry, event.pool_id).add_liquidity(event.amount0, event.amount1)
        dirty_pools.add(event.pool_id)
    elif isinstance(event, BurnEvent):
        _pool(registry, event.pool_id).remove_liquidity(event.fraction)
        dirty_pools.add(event.pool_id)
    elif isinstance(event, PriceTickEvent):
        prices = prices.with_price(event.token, event.price)
        dirty_tokens.add(event.token)
    elif isinstance(event, BlockEvent):
        pass  # boundary marker, no state change
    else:
        raise TypeError(f"cannot replay event of type {type(event).__name__}")
    return prices


def apply_block_events(
    registry: PoolRegistry,
    prices: PriceMap,
    events: Iterable[MarketEvent],
    arrays: "MarketArrays | None" = None,
) -> tuple[PriceMap, set[str], set[Token], int]:
    """Apply one block's events; return ``(prices, dirty_pools,
    dirty_tokens, n_events)``.

    The block-consumer boilerplate of the replay driver and the
    service's ingest: every event goes through :func:`apply_event`, the
    mutated pools' own event records are dropped (the private pools
    record their mutations as they happen; nothing here reads those
    logs, so they must not hold the whole input stream in memory), and
    — when the caller passes its columnar ``arrays`` — the dirty pools'
    reserves are pulled into it.  The pull copies reserves straight
    off the mutated pool objects, so it is family-agnostic by
    construction: a weighted pool's G3M swap arithmetic happened on
    the object side, and the columns can never re-apply CPMM math to
    it (the weighted replay regression suite pins this).
    """
    dirty_pools: set[str] = set()
    dirty_tokens: set[Token] = set()
    n_events = 0
    for event in events:
        prices = apply_event(registry, prices, event, dirty_pools, dirty_tokens)
        n_events += 1
    for pool_id in dirty_pools:
        registry[pool_id].discard_events_after(0)
    if arrays is not None and dirty_pools:
        arrays.pull(registry, dirty_pools)
    return prices, dirty_pools, dirty_tokens, n_events


def build_loop_indices(
    loops: Sequence[ArbitrageLoop],
) -> tuple[dict[str, tuple[int, ...]], dict[Token, tuple[int, ...]]]:
    """Inverted indices over ``loops``: pool id → positions, token →
    positions.  Positions are indices into the given sequence, so the
    same helper serves the driver's global universe and a shard's
    local slice."""
    pool_loops: dict[str, list[int]] = {}
    token_loops: dict[Token, list[int]] = {}
    for index, loop in enumerate(loops):
        for pool in set(loop.pools):
            pool_loops.setdefault(pool.pool_id, []).append(index)
        for token in loop.tokens:
            token_loops.setdefault(token, []).append(index)
    return (
        {k: tuple(v) for k, v in pool_loops.items()},
        {k: tuple(v) for k, v in token_loops.items()},
    )


def rebind_loops(
    loops: Sequence[ArbitrageLoop], registry: PoolRegistry
) -> tuple[ArbitrageLoop, ...]:
    """Re-point loops at another registry's pool objects (by pool id).

    Loop *topology* is registry-independent; only the live pool
    references differ between a market and its copies.  Rebinding a
    universe enumerated once onto each shard's reserve-less pool
    handles (any ``pool_id -> pool`` mapping works) is how the service
    avoids per-shard re-enumeration.
    """
    return tuple(
        ArbitrageLoop(
            loop.tokens, [_pool(registry, pool.pool_id) for pool in loop.pools]
        )
        for loop in loops
    )
