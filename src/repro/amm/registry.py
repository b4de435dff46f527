"""Pool registry: the in-memory equivalent of the Uniswap V2 factory.

A :class:`PoolRegistry` owns a set of pools of any family
(:class:`~repro.amm.pool.TwoTokenPool` subclasses), indexed by pool id
and by token pair, and provides the snapshot/restore primitives the
atomic execution simulator builds on.
Unlike the real factory it permits *multiple* pools per token pair
(paper §VI treats every qualifying pool as a distinct graph edge).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from ..core.errors import UnknownTokenError
from ..core.types import Token
from .pool import Pool, PoolSnapshot, TwoTokenPool

__all__ = ["PoolRegistry", "RegistrySnapshot"]


class RegistrySnapshot:
    """Frozen state of every pool in a registry at one instant."""

    __slots__ = ("_snaps",)

    def __init__(self, snaps: Mapping[str, PoolSnapshot]):
        self._snaps = dict(snaps)

    def __len__(self) -> int:
        return len(self._snaps)

    def __iter__(self) -> Iterator[PoolSnapshot]:
        return iter(self._snaps.values())

    def __getitem__(self, pool_id: str) -> PoolSnapshot:
        return self._snaps[pool_id]

    def __contains__(self, pool_id: str) -> bool:
        return pool_id in self._snaps


class PoolRegistry:
    """Mutable collection of pools with pair and token indices."""

    def __init__(self, pools: Iterable[TwoTokenPool] = ()):
        self._pools: dict[str, TwoTokenPool] = {}
        self._by_pair: dict[frozenset[Token], list[TwoTokenPool]] = {}
        self._by_token: dict[Token, list[TwoTokenPool]] = {}
        for pool in pools:
            self.add(pool)

    # ------------------------------------------------------------------
    # collection protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._pools)

    def __iter__(self) -> Iterator[TwoTokenPool]:
        return iter(self._pools.values())

    def __contains__(self, pool_id: str) -> bool:
        return pool_id in self._pools

    def __getitem__(self, pool_id: str) -> TwoTokenPool:
        try:
            return self._pools[pool_id]
        except KeyError:
            raise KeyError(f"no pool with id {pool_id!r}") from None

    def add(self, pool: TwoTokenPool) -> TwoTokenPool:
        """Register a pool; pool ids must be unique."""
        if pool.pool_id in self._pools:
            raise ValueError(f"duplicate pool id {pool.pool_id!r}")
        self._pools[pool.pool_id] = pool
        pair = frozenset(pool.tokens)
        self._by_pair.setdefault(pair, []).append(pool)
        for token in pool.tokens:
            self._by_token.setdefault(token, []).append(pool)
        return pool

    def create(
        self,
        token0: Token,
        token1: Token,
        reserve0: float,
        reserve1: float,
        fee: float = 0.003,
        pool_id: str | None = None,
    ) -> Pool:
        """Factory shorthand: build a pool and register it."""
        return self.add(Pool(token0, token1, reserve0, reserve1, fee=fee, pool_id=pool_id))

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    @property
    def tokens(self) -> frozenset[Token]:
        """All tokens that appear in at least one pool."""
        return frozenset(self._by_token)

    def pools_for_pair(self, token_a: Token, token_b: Token) -> tuple[TwoTokenPool, ...]:
        """All pools (possibly several) between two tokens."""
        return tuple(self._by_pair.get(frozenset((token_a, token_b)), ()))

    def pools_with_token(self, token: Token) -> tuple[TwoTokenPool, ...]:
        """All pools that hold ``token`` on either side."""
        if token not in self._by_token:
            raise UnknownTokenError(f"no pool holds {token}")
        return tuple(self._by_token[token])

    def best_pool_for_pair(self, token_in: Token, token_out: Token) -> TwoTokenPool:
        """Among parallel pools, the one with the best spot price for
        ``token_in -> token_out`` (deterministic tie-break on pool id)."""
        candidates = self.pools_for_pair(token_in, token_out)
        if not candidates:
            raise UnknownTokenError(
                f"no pool between {token_in} and {token_out}"
            )
        return max(candidates, key=lambda p: (p.spot_price(token_in), p.pool_id))

    # ------------------------------------------------------------------
    # snapshot / restore (atomicity primitive)
    # ------------------------------------------------------------------

    def snapshot(self) -> RegistrySnapshot:
        return RegistrySnapshot({pid: p.snapshot() for pid, p in self._pools.items()})

    def restore(self, snap: RegistrySnapshot) -> None:
        """Roll every pool captured in ``snap`` back to its saved state.

        Pools added after the snapshot are left untouched; pools in the
        snapshot but since removed raise ``KeyError`` (registries are
        append-only in normal use, so this indicates a bug).
        """
        for pool_snap in snap:
            self._pools[pool_snap.pool_id].restore(pool_snap)

    def copy(self) -> "PoolRegistry":
        """Deep copy with independent pool states."""
        return PoolRegistry(pool.copy() for pool in self)
