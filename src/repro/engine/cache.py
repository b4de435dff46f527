"""Reserve-keyed memoization of price-independent evaluation work.

The fixed-start strategies (traditional / MaxPrice / MaxMax) split
cleanly into a price-independent optimization — optimal input, hop
amounts, single-token profit, all functions of the *reserves* only —
and a trivial monetization step.  :class:`PoolStateCache` memoizes the
former, keyed on each hop's ``(pool_id, input token, reserves, fee)``,
so:

* a price sweep re-evaluating one loop at hundreds of CEX prices pays
  for the optimization exactly once per rotation;
* a harvest / simulation round re-evaluating loops whose pools did not
  move since the last round gets its quotes for free;
* any pool mutation (swap, mint, burn) changes the reserves and hence
  the key — stale entries are simply never hit again, so the cache
  needs no explicit invalidation.

Entries are evicted LRU once ``maxsize`` is exceeded.
"""

from __future__ import annotations

from collections import OrderedDict

from ..core.loop import Rotation
from ..strategies.traditional import RotationQuote, rotation_quote

__all__ = ["PoolStateCache", "RotationQuote", "rotation_state_key"]


def rotation_state_key(rotation: Rotation, method: str) -> tuple:
    """Hashable key identifying a rotation *at its current reserves*.

    Includes the optimizer method (quotes differ across methods by
    solver tolerance) and, per hop, the pool identity, orientation,
    oriented reserves, and fee.  Weighted-pool weights are immutable
    attributes of the pool identified by ``pool_id``, so reserves +
    identity pin the quote for them too.

    The static part (pool ids, symbols, fees — everything but the
    reserves) is precomputed once per loop
    (:attr:`repro.core.loop.ArbitrageLoop.rotation_key_statics`), so a
    lookup only gathers the current reserves; on the hot per-block
    paths this key is built once per rotation per cache access.
    """
    static, hop_refs = rotation.loop.rotation_key_statics[rotation.offset]
    reserves = []
    for pool, token_in, is_token0 in hop_refs:
        if is_token0 is None:
            reserves.append(pool.reserves_oriented(token_in))
        elif is_token0:
            reserves.append((pool.reserve0, pool.reserve1))
        else:
            reserves.append((pool.reserve1, pool.reserve0))
    return (method, static, tuple(reserves))


class PoolStateCache:
    """LRU cache of :class:`RotationQuote` objects keyed on reserves.

    Not shared across processes: a parallel sweep gives each chunk of
    grid points its own instance.
    """

    __slots__ = ("_entries", "maxsize", "hits", "misses")

    def __init__(self, maxsize: int = 65536):
        if maxsize <= 0:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self._entries: OrderedDict[tuple, RotationQuote] = OrderedDict()
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0

    def rotation_quote(
        self, rotation: Rotation, method: str = "closed_form"
    ) -> RotationQuote:
        """Memoized :func:`repro.strategies.traditional.rotation_quote`."""
        key = rotation_state_key(rotation, method)
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return entry
        self.misses += 1
        quote = rotation_quote(rotation, method=method)
        self._entries[key] = quote
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        return quote

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        """Counter snapshot."""
        return {
            "entries": len(self._entries),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
        }

    def publish(self, registry, **labels) -> None:
        """Mirror the counters into a telemetry registry
        (``cache_hits`` / ``cache_misses`` counters plus a
        ``cache_entries`` gauge).  The hot path keeps the plain int
        attributes; syncing happens at publish points."""
        registry.counter("cache_hits", **labels).set(self.hits)
        registry.counter("cache_misses", **labels).set(self.misses)
        registry.gauge("cache_entries", **labels).set(len(self._entries))

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def __repr__(self) -> str:
        return (
            f"PoolStateCache({len(self._entries)} entries, "
            f"hits={self.hits}, misses={self.misses})"
        )
