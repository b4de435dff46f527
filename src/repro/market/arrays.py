"""Structure-of-arrays view of a pool market.

:class:`MarketArrays` holds every pool's reserves, fee, and weights in
contiguous ``float64`` numpy arrays, plus the index maps (pool id →
row, token → column) that let loop-hop matrices address them.  It is
the columnar twin of :class:`~repro.amm.registry.PoolRegistry`:

* built *from* a registry (:meth:`MarketArrays.from_registry`) and
  round-trippable *to* one (:meth:`MarketArrays.to_registry`);
* kept in sync with a live registry via :meth:`pull` (copy reserves of
  the named pools — the cheap per-block refresh the replay driver and
  shard workers use after applying events on the object side);
* or driven directly: :meth:`apply_events` applies a Swap/Mint/Burn
  event batch in place, vectorized across pools whenever the batch
  touches each pool at most once and falling back to exact sequential
  application otherwise.

Float arithmetic here mirrors :mod:`repro.amm.swap` operation by
operation, so array-applied reserves are *bit-identical* to the same
events applied through :class:`~repro.amm.pool.Pool` — the property
the hypothesis round-trip suite pins down.

Pool families are first-class columns: ``family`` holds each row's
integer family code (:data:`~repro.amm.families.FAMILY_CPMM` /
``FAMILY_G3M`` / ``FAMILY_STABLESWAP``) next to the per-family
parameter columns — ``weight0`` / ``weight1`` (1.0 outside G3M, where
only the ratio would matter anyway) and ``amp`` (0.0 outside
stableswap).  Both the event mirror and the kernels dispatch through
the per-family descriptor registry (:mod:`repro.market.families`):
each family's swap events apply that family's exact-in formula
op-for-op with its pool class (G3M through the same
:func:`~repro.amm.weighted.pinned_pow`, stableswap through the same
Newton iterations), so the columnar mirror never drifts from the pools
it shadows — the replay regression suites pin that per family.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from ..amm.events import (
    BlockEvent,
    BurnEvent,
    MarketEvent,
    MintEvent,
    PriceTickEvent,
    SwapEvent,
)
from ..amm.families import FAMILY_CPMM, FAMILY_NAMES, pool_family
from ..amm.registry import PoolRegistry
from ..core.errors import (
    InvalidReserveError,
    UnknownPoolError,
    UnknownTokenError,
)
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
    are mutable, either via :meth:`apply_events` or :meth:`pull`.
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
        i = self._index(pool_id)
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

    def set_fee(self, pool_id: str, fee: float) -> None:
        """Update one pool's fee (both float and integer columns).

        The per-event-batch refresh hook for array-driven markets: a
        fee-tier change lands here instead of requiring a rebuild, so
        compiled hop matrices stay valid while kernel quotes pick up
        the new gamma on the next batch.
        """
        if not 0.0 <= fee < 1.0:
            raise ValueError(f"fee must be in [0, 1), got {fee}")
        self._write_fee(self._index(pool_id), fee)

    def _index(self, pool_id: str) -> int:
        try:
            return self.pool_index[pool_id]
        except KeyError:
            raise UnknownPoolError(
                f"event references pool {pool_id!r} which is not in the market"
            ) from None

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
    # event application
    # ------------------------------------------------------------------

    def apply_events(self, events: Sequence[MarketEvent]) -> set[str]:
        """Apply a batch of pool events in place; return dirty pool ids.

        Price ticks and block markers are no-ops here (arrays hold no
        prices — the caller tracks those); swap/mint/burn mutate the
        reserve columns with arithmetic that mirrors the object path
        bit for bit — per-family: constant-product rows use the CPMM
        exact-in formula, weighted rows the G3M one (through the same
        ``pinned_pow`` as :meth:`WeightedPool.quote_out`).  When every
        pool in the batch is touched at most once the updates are
        applied as single vectorized scatters; any repeated pool forces
        the exact sequential path (later events must see earlier
        events' reserves).
        """
        pool_events: list[MarketEvent] = []
        for event in events:
            if isinstance(event, (SwapEvent, MintEvent, BurnEvent)):
                pool_events.append(event)
            elif isinstance(event, (PriceTickEvent, BlockEvent)):
                continue
            else:
                raise TypeError(
                    f"cannot apply event of type {type(event).__name__}"
                )
        if not pool_events:
            return set()
        indices = [self._index(e.pool_id) for e in pool_events]
        if len(set(indices)) == len(indices):
            self._apply_distinct(pool_events, indices)
        else:
            for event, i in zip(pool_events, indices):
                self._apply_one(event, i)
        return {e.pool_id for e in pool_events}

    # -- sequential exact path -----------------------------------------

    def _orientation(self, i: int, token_in: Token) -> bool:
        if token_in == self.tokens[self.token0_idx[i]]:
            return True
        if token_in == self.tokens[self.token1_idx[i]]:
            return False
        raise UnknownTokenError(
            f"{token_in} is not in pool {self.pool_ids[i]!r}"
        )

    def _apply_one(self, event: MarketEvent, i: int) -> None:
        r0 = float(self.reserve0[i])
        r1 = float(self.reserve1[i])
        if isinstance(event, SwapEvent):
            is0 = self._orientation(i, event.token_in)
            x, y = (r0, r1) if is0 else (r1, r0)
            dx = event.amount_in
            if not np.isfinite(dx) or dx < 0:
                raise ValueError(
                    f"input amount must be >= 0 and finite, got {dx}"
                )
            if dx == 0.0:
                return
            gamma = 1.0 - float(self.fee[i])
            descriptor = family_descriptor(self.family[i])
            dy = descriptor.scalar_out(self, i, is0, x, y, gamma, dx)
            new_x = x + dx
            new_y = y - dy
            # only CPMM rows mirror an object-path depletion check: the
            # G3M / stableswap formulas cannot emit a full reserve, and
            # their pool.swap methods have no such check to mirror
            if descriptor.depletion_check and new_y <= 0:
                raise InvalidReserveError(
                    f"reserve of {event.token_out} would become {new_y}"
                )
            if is0:
                self.reserve0[i], self.reserve1[i] = new_x, new_y
            else:
                self.reserve0[i], self.reserve1[i] = new_y, new_x
        elif isinstance(event, MintEvent):
            a0, a1 = event.amount0, event.amount1
            if a0 <= 0 or a1 <= 0:
                raise InvalidReserveError(
                    f"liquidity amounts must be positive, got ({a0}, {a1})"
                )
            ratio_pool = r0 / r1
            if abs(a0 / a1 - ratio_pool) > 1e-3 * ratio_pool:
                raise InvalidReserveError(
                    f"deposit ratio {a0 / a1:g} does not match pool ratio "
                    f"{ratio_pool:g} in {self.pool_ids[i]}"
                )
            self.reserve0[i] = r0 + a0
            self.reserve1[i] = r1 + a1
        else:  # BurnEvent
            fraction = event.fraction
            if not 0.0 < fraction < 1.0:
                raise InvalidReserveError(
                    f"fraction must be in (0, 1), got {fraction}"
                )
            self.reserve0[i] = r0 - r0 * fraction
            self.reserve1[i] = r1 - r1 * fraction

    # -- vectorized distinct-pool path ---------------------------------

    def _apply_distinct(
        self, events: Sequence[MarketEvent], indices: Sequence[int]
    ) -> None:
        """Scatter a batch in which each pool appears exactly once.

        Disjoint rows make the event kinds order-independent *when every
        event is valid*, so swaps and burns become one gather / compute
        / scatter each, with the same IEEE-754 sequence per element as
        :meth:`_apply_one` (mints stay scalar — rare, per-event ratio
        validation; non-CPMM swap outputs are likewise recomputed
        per-row through each family's scalar mirror, so their call
        sequence is identical to the object path's).  Everything
        is validated against the (disjoint) pre-states before anything
        is written; a batch containing any invalid event is re-run
        sequentially instead, so the exception raised — and the partial
        state left behind — match the event-by-event object path
        exactly.
        """
        swaps = [(e, i) for e, i in zip(events, indices) if isinstance(e, SwapEvent)]
        mints = [(e, i) for e, i in zip(events, indices) if isinstance(e, MintEvent)]
        burns = [(e, i) for e, i in zip(events, indices) if isinstance(e, BurnEvent)]

        def sequential() -> None:
            for event, i in zip(events, indices):
                self._apply_one(event, i)

        # -- validate / precompute (no writes) -------------------------
        swap_update = None
        if swaps:
            idx = np.fromiter((i for _, i in swaps), dtype=np.intp, count=len(swaps))
            try:
                is0 = np.fromiter(
                    (self._orientation(i, e.token_in) for e, i in swaps),
                    dtype=bool,
                    count=len(swaps),
                )
            except UnknownTokenError:
                return sequential()
            dx = np.fromiter((e.amount_in for e, _ in swaps), dtype=np.float64,
                             count=len(swaps))
            if not np.isfinite(dx).all() or (dx < 0).any():
                return sequential()
            r0 = self.reserve0[idx]
            r1 = self.reserve1[idx]
            x = np.where(is0, r0, r1)
            y = np.where(is0, r1, r0)
            gamma = 1.0 - self.fee[idx]
            eff = gamma * dx
            dy = y * eff / (x + eff)
            fam = self.family[idx]
            cp = fam == FAMILY_CPMM
            if not cp.all():
                # non-CPMM rows: overwrite the CPMM output with the
                # row's scalar family mirror (per row, like _apply_one)
                for k in np.nonzero(~cp)[0]:
                    dy[k] = family_descriptor(fam[k]).scalar_out(
                        self, int(idx[k]), bool(is0[k]), float(x[k]),
                        float(y[k]), float(gamma[k]), float(dx[k]),
                    )
            new_x = np.where(dx == 0.0, x, x + dx)
            new_y = np.where(dx == 0.0, y, y - dy)
            if (new_y[cp] <= 0).any():
                return sequential()
            swap_update = (idx, is0, new_x, new_y)
        for event, i in mints:
            a0, a1 = event.amount0, event.amount1
            if a0 <= 0 or a1 <= 0:
                return sequential()
            ratio_pool = float(self.reserve0[i]) / float(self.reserve1[i])
            if abs(a0 / a1 - ratio_pool) > 1e-3 * ratio_pool:
                return sequential()
        burn_update = None
        if burns:
            idx = np.fromiter((i for _, i in burns), dtype=np.intp, count=len(burns))
            frac = np.fromiter((e.fraction for e, _ in burns), dtype=np.float64,
                               count=len(burns))
            if ((frac <= 0.0) | (frac >= 1.0)).any():
                return sequential()
            burn_update = (idx, frac)

        # -- commit ----------------------------------------------------
        if swap_update is not None:
            idx, is0, new_x, new_y = swap_update
            self.reserve0[idx] = np.where(is0, new_x, new_y)
            self.reserve1[idx] = np.where(is0, new_y, new_x)
        for event, i in mints:
            self.reserve0[i] = float(self.reserve0[i]) + event.amount0
            self.reserve1[i] = float(self.reserve1[i]) + event.amount1
        if burn_update is not None:
            idx, frac = burn_update
            r0 = self.reserve0[idx]
            r1 = self.reserve1[idx]
            self.reserve0[idx] = r0 - r0 * frac
            self.reserve1[idx] = r1 - r1 * frac

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
