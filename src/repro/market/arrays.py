"""Structure-of-arrays view of a pool market.

:class:`MarketArrays` holds every pool's reserves, fee, and weights in
contiguous ``float64`` numpy arrays, plus the index maps (pool id →
row, token → column) that let loop-hop matrices address them.  It is
the columnar twin of :class:`~repro.amm.registry.PoolRegistry`:

* built *from* a registry (:meth:`MarketArrays.from_registry`) and
  round-trippable *to* one (:meth:`MarketArrays.to_registry`);
* kept in sync with a live registry via :meth:`pull` (copy reserves
  and fees of the named pools — the per-block refresh the replay
  driver and the service's ingest run after applying a block's events
  to their pool objects).

The columns never compute reserves from events: how a swap, mint or
burn moves reserves is decided once, by the pool classes in
:mod:`repro.amm`, and the arrays only copy the results.

Pool families are first-class columns: ``family`` holds each row's
integer family code (:data:`~repro.amm.families.FAMILY_CPMM` /
``FAMILY_G3M`` / ``FAMILY_STABLESWAP``) next to the per-family
parameter columns — ``weight0`` / ``weight1`` (1.0 outside G3M, where
only the ratio would matter anyway) and ``amp`` (0.0 outside
stableswap).  The kernels dispatch on it through the per-family
descriptor registry (:mod:`repro.market.families`).
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from ..amm.families import FAMILY_NAMES, pool_family
from ..amm.registry import PoolRegistry
from ..core.errors import UnknownPoolError
from ..core.types import Token
from .families import family_descriptor

__all__ = ["FEE_PPM_DENOMINATOR", "MarketArrays", "quantize_fee"]

#: Denominator of the integer fee column: per-pool fees are quantized
#: to parts-per-million.  The V2 constant 0.003 maps to a retained
#: numerator of 997_000 / 1_000_000, which floor-divides identically to
#: the contract's 997/1000 (numerator and denominator share the factor
#: 1000, and ``(k*a) // (k*b) == a // b``).
FEE_PPM_DENOMINATOR = 10**6


def quantize_fee(fee: float) -> int:
    """Retained-input (gamma) ppm numerator for a float fee fraction.

    ``0.003 → 997_000``.  Fees that are not exactly representable in
    parts-per-million are rounded to the nearest ppm — the integer
    backend is then exact *for the quantized fee*, which the precision
    policy documents as part of the ``--exact`` contract.
    """
    if not 0.0 <= fee < 1.0:
        raise ValueError(f"fee must be in [0, 1), got {fee}")
    gamma_num = FEE_PPM_DENOMINATOR - round(fee * FEE_PPM_DENOMINATOR)
    # a 100% quantized fee would make every integer quote zero and the
    # integer pool arithmetic reject the pool; clamp to the smallest
    # non-degenerate numerator instead (fees this close to 1 are
    # rejected by Pool's own validation anyway)
    return max(gamma_num, 1)


class MarketArrays:
    """Columnar (structure-of-arrays) reserves of a fixed pool set.

    The pool *set* is fixed at construction (rows never move, so the
    hop-index matrices compiled against it stay valid); the reserves
    and fees are refreshed from pool objects with :meth:`pull`.
    """

    __slots__ = (
        "pool_ids",
        "pool_index",
        "tokens",
        "token_index",
        "reserve0",
        "reserve1",
        "fee",
        "fee_num",
        "weight0",
        "weight1",
        "amp",
        "token0_idx",
        "token1_idx",
        "family",
    )

    def __init__(self, pools: Iterable):
        pool_list = list(pools)
        seen: set[str] = set()
        for pool in pool_list:
            if pool.pool_id in seen:
                raise ValueError(f"duplicate pool id {pool.pool_id!r}")
            seen.add(pool.pool_id)
        self.pool_ids: tuple[str, ...] = tuple(p.pool_id for p in pool_list)
        self.pool_index: dict[str, int] = {
            pid: i for i, pid in enumerate(self.pool_ids)
        }
        tokens: dict[Token, int] = {}
        for pool in pool_list:
            for token in pool.tokens:
                tokens.setdefault(token, len(tokens))
        self.tokens: tuple[Token, ...] = tuple(tokens)
        self.token_index: dict[Token, int] = tokens
        n = len(pool_list)
        self.reserve0 = np.empty(n, dtype=np.float64)
        self.reserve1 = np.empty(n, dtype=np.float64)
        self.fee = np.empty(n, dtype=np.float64)
        self.fee_num = np.empty(n, dtype=np.int64)
        self.weight0 = np.ones(n, dtype=np.float64)
        self.weight1 = np.ones(n, dtype=np.float64)
        self.amp = np.zeros(n, dtype=np.float64)
        self.token0_idx = np.empty(n, dtype=np.intp)
        self.token1_idx = np.empty(n, dtype=np.intp)
        self.family = np.empty(n, dtype=np.int8)
        for i, pool in enumerate(pool_list):
            self.reserve0[i] = pool.reserve_of(pool.token0)
            self.reserve1[i] = pool.reserve_of(pool.token1)
            self._write_fee(i, pool.fee)
            self.token0_idx[i] = tokens[pool.token0]
            self.token1_idx[i] = tokens[pool.token1]
            code = pool_family(pool)
            family_descriptor(code)  # unknown families fail loudly here
            self.family[i] = code
            weight_of = getattr(pool, "weight_of", None)
            if weight_of is not None:
                self.weight0[i] = weight_of(pool.token0)
                self.weight1[i] = weight_of(pool.token1)
            self.amp[i] = getattr(pool, "amplification", 0.0)

    @classmethod
    def from_registry(cls, registry: PoolRegistry) -> "MarketArrays":
        """Columnar view of every pool in ``registry`` (reserves copied)."""
        return cls(registry)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.pool_ids)

    @property
    def nbytes(self) -> int:
        """Total payload bytes of the ten columns.

        The index maps (``pool_index`` / ``token_index``) are excluded
        on purpose: this is the store size the service's memory report
        shows, and only the columns are what gets mapped into a
        shared-memory segment.
        """
        return (
            self.reserve0.nbytes
            + self.reserve1.nbytes
            + self.fee.nbytes
            + self.fee_num.nbytes
            + self.weight0.nbytes
            + self.weight1.nbytes
            + self.amp.nbytes
            + self.token0_idx.nbytes
            + self.token1_idx.nbytes
            + self.family.nbytes
        )

    def __contains__(self, pool_id: str) -> bool:
        return pool_id in self.pool_index

    def __repr__(self) -> str:
        parts = []
        for code in np.unique(self.family):
            count = int((self.family == code).sum())
            parts.append(f"{count} {FAMILY_NAMES.get(int(code), f'family{code}')}")
        return (
            f"MarketArrays({len(self)} pools, {len(self.tokens)} tokens, "
            f"{' / '.join(parts) if parts else 'empty'})"
        )

    def reserves(self, pool_id: str) -> tuple[float, float]:
        """Current ``(reserve0, reserve1)`` of one pool, as floats."""
        try:
            i = self.pool_index[pool_id]
        except KeyError:
            raise UnknownPoolError(f"pool {pool_id!r} is not in the market") from None
        return (float(self.reserve0[i]), float(self.reserve1[i]))

    def _write_fee(self, i: int, fee: float) -> None:
        """Set both fee columns of one row in lockstep.

        The float column feeds the float kernels; the int64 column is
        the ppm-quantized gamma numerator the integer kernel divides
        by.  Writing them together is the invariant that keeps the
        exact backend from silently desyncing when a fee changes.
        """
        self.fee[i] = fee
        self.fee_num[i] = quantize_fee(float(fee))

    # ------------------------------------------------------------------
    # registry round-trip / sync
    # ------------------------------------------------------------------

    def to_registry(self) -> PoolRegistry:
        """Materialize the current array state as fresh pool objects,
        through each row's family descriptor."""
        registry = PoolRegistry()
        for i in range(len(self.pool_ids)):
            token0 = self.tokens[self.token0_idx[i]]
            token1 = self.tokens[self.token1_idx[i]]
            descriptor = family_descriptor(self.family[i])
            registry.add(
                descriptor.to_pool(self, i, self.pool_ids[i], token0, token1)
            )
        return registry

    def pull(
        self,
        registry: PoolRegistry,
        pool_ids: Iterable[str] | None = None,
    ) -> None:
        """Copy reserves *and fees* from live pool objects into the arrays.

        ``pool_ids`` limits the copy to the named pools (the dirty set
        of a block); ``None`` refreshes every row.  Pools the arrays do
        not know are ignored — a registry may hold pools outside the
        compiled loop set.  Fees refresh alongside reserves (they used
        to be baked at build time) so a fee-tier change on the object
        side can never silently desync kernel quotes from the scalar
        path.
        """
        if pool_ids is None:
            pool_ids = self.pool_ids
        for pool_id in pool_ids:
            i = self.pool_index.get(pool_id)
            if i is None:
                continue
            pool = registry[pool_id]
            self.reserve0[i] = pool.reserve_of(pool.token0)
            self.reserve1[i] = pool.reserve_of(pool.token1)
            if pool.fee != self.fee[i]:
                self._write_fee(i, pool.fee)

    # ------------------------------------------------------------------
    # price vector
    # ------------------------------------------------------------------

    def price_vector(self, prices: Mapping[Token, float]) -> np.ndarray:
        """Per-token USD price aligned with :attr:`tokens`.

        Unquoted tokens get ``NaN`` — the kernel only monetizes loops
        whose optimal input is positive, matching the scalar path that
        never touches the price map for zero-profit results.
        """
        from ..core.errors import MissingPriceError

        out = np.empty(len(self.tokens), dtype=np.float64)
        for j, token in enumerate(self.tokens):
            try:
                out[j] = prices[token]
            except (KeyError, MissingPriceError):
                out[j] = np.nan
        return out
