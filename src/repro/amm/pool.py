"""Two-token pools: the shared base and the constant-product family.

:class:`TwoTokenPool` is everything a two-token pool family shares:
two token reserves, a fee rate, an identity, an event log, and the
state transitions — :meth:`~TwoTokenPool.swap`,
:meth:`~TwoTokenPool.add_liquidity`,
:meth:`~TwoTokenPool.remove_liquidity` — that move reserves the way
the V2 pair contract does and record the matching typed event
(:class:`~repro.amm.events.SwapEvent` / ``MintEvent`` / ``BurnEvent``),
so a pool's event log replays to its current state.  A family is a
subclass that supplies its curve (``quote_out``, ``spot_price``,
``marginal_rate``) and its parameters; reads never mutate.

:class:`Pool` is the Uniswap-V2-style constant-product family; the
weighted (:class:`~repro.amm.weighted.WeightedPool`) and stableswap
(:class:`~repro.amm.stableswap.StableSwapPool`) families live in their
own modules.

Pools are *directionless*: either token can be the input side.  All
directional methods take the input token explicitly, mirroring how the
paper writes ``F(dx | theta)`` with theta ordered per hop.
"""

from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass
from typing import Mapping

from ..core.errors import InvalidReserveError, InvariantViolationError, UnknownTokenError
from ..core.types import Token
from . import swap as swap_math
from .events import BurnEvent, MarketEvent, MintEvent, SwapEvent
from .families import FAMILY_CPMM

__all__ = ["Pool", "PoolSnapshot", "TwoTokenPool", "DEFAULT_FEE"]

#: Uniswap V2 fee (the paper's λ).
DEFAULT_FEE = 0.003

#: One auto-id counter per family id prefix (``pool-N``, ``wpool-N``, ...).
_id_counters: dict[str, itertools.count] = collections.defaultdict(itertools.count)


@dataclass(frozen=True)
class PoolSnapshot:
    """Immutable view of a pool's state, used for revert."""

    pool_id: str
    token0: Token
    token1: Token
    reserve0: float
    reserve1: float
    fee: float

    def tvl(self, prices: Mapping[Token, float]) -> float:
        """Total value locked under a token → USD price mapping.

        Any mapping works (a :class:`~repro.core.types.PriceMap` or a
        plain dict); a missing token surfaces as the mapping's own
        lookup error.
        """
        return prices[self.token0] * self.reserve0 + prices[self.token1] * self.reserve1


class TwoTokenPool:
    """A mutable pool between ``token0`` and ``token1``: the bookkeeping
    every family shares.

    Parameters
    ----------
    token0, token1:
        The two pooled tokens; must differ.  Order is normalized so that
        ``token0.symbol < token1.symbol`` (like V2's address ordering),
        regardless of argument order.
    reserve0, reserve1:
        Initial reserves *matching the argument order given*, re-mapped
        if normalization swapped the tokens.
    fee:
        Transaction tax λ on the input side.
    pool_id:
        Stable identifier; autogenerated (``{id_prefix}-N``) when
        omitted.

    A family subclass sets ``family`` (its :mod:`repro.amm.families`
    code) and ``id_prefix``, stores its parameters after this
    constructor ran (in ``token0``/``token1`` order), and implements
    ``quote_out``, ``spot_price``, ``marginal_rate`` and, if it has
    parameters, ``_params`` (the keyword arguments :meth:`copy` passes
    back to its constructor).
    """

    family: int
    id_prefix: str

    __slots__ = ("_token0", "_token1", "_reserve0", "_reserve1", "_fee", "_pool_id", "_events")

    def __init__(
        self,
        token0: Token,
        token1: Token,
        reserve0: float,
        reserve1: float,
        fee: float = DEFAULT_FEE,
        pool_id: str | None = None,
    ):
        if token0 == token1:
            raise InvalidReserveError(
                f"a pool needs two distinct tokens, got {token0} twice"
            )
        swap_math.validate_reserves(reserve0, reserve1)
        swap_math.validate_fee(fee)
        if token1.symbol < token0.symbol:
            token0, token1 = token1, token0
            reserve0, reserve1 = reserve1, reserve0
        self._token0 = token0
        self._token1 = token1
        self._reserve0 = float(reserve0)
        self._reserve1 = float(reserve1)
        self._fee = float(fee)
        if pool_id is None:
            pool_id = f"{self.id_prefix}-{next(_id_counters[self.id_prefix])}"
        self._pool_id = pool_id
        self._events: list[MarketEvent] = []

    # ------------------------------------------------------------------
    # identity & read-only state
    # ------------------------------------------------------------------

    @property
    def pool_id(self) -> str:
        return self._pool_id

    @property
    def token0(self) -> Token:
        return self._token0

    @property
    def token1(self) -> Token:
        return self._token1

    @property
    def fee(self) -> float:
        return self._fee

    @property
    def reserve0(self) -> float:
        """Current reserve of ``token0`` (the columnar layers read
        these directly instead of paying a token comparison)."""
        return self._reserve0

    @property
    def reserve1(self) -> float:
        """Current reserve of ``token1``."""
        return self._reserve1

    @property
    def tokens(self) -> tuple[Token, Token]:
        return (self._token0, self._token1)

    @property
    def events(self) -> tuple[MarketEvent, ...]:
        """State-changing events applied to this pool, oldest first."""
        return tuple(self._events)

    @property
    def event_count(self) -> int:
        """Number of recorded events, without materializing them."""
        return len(self._events)

    @property
    def last_event(self) -> MarketEvent | None:
        """The most recent event, or ``None`` (no full-history copy)."""
        return self._events[-1] if self._events else None

    def events_after(self, count: int) -> tuple[MarketEvent, ...]:
        """Events recorded after the first ``count`` — the per-block
        delta collectors' accessor, copying only the tail."""
        return tuple(self._events[count:])

    def discard_events_after(self, count: int) -> None:
        """Drop events recorded after the first ``count``.

        Used by the atomic execution simulator: a reverted transaction
        restores reserves, so the events it recorded must not survive
        either (a replayed log would apply phantom swaps).
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        del self._events[count:]

    def __contains__(self, token: Token) -> bool:
        return token == self._token0 or token == self._token1

    def other(self, token: Token) -> Token:
        """The counterpart token of ``token`` in this pool."""
        if token == self._token0:
            return self._token1
        if token == self._token1:
            return self._token0
        raise UnknownTokenError(f"{token} is not in {self!r}")

    def reserve_of(self, token: Token) -> float:
        if token == self._token0:
            return self._reserve0
        if token == self._token1:
            return self._reserve1
        raise UnknownTokenError(f"{token} is not in {self!r}")

    def reserves_oriented(self, token_in: Token) -> tuple[float, float]:
        """Reserves as ``(x, y)`` with ``x`` the input-token reserve."""
        if token_in == self._token0:
            return (self._reserve0, self._reserve1)
        if token_in == self._token1:
            return (self._reserve1, self._reserve0)
        raise UnknownTokenError(f"{token_in} is not in {self!r}")

    # ------------------------------------------------------------------
    # state transitions
    # ------------------------------------------------------------------

    def swap(self, token_in: Token, amount_in: float) -> float:
        """Execute an exact-in swap on the family's curve: mutate
        reserves, log the event, return the amount out.

        A swap that would drain a reserve raises
        :class:`~repro.core.errors.InvalidReserveError` and leaves the
        pool unchanged.
        """
        amount_out = self.quote_out(token_in, amount_in)
        x, y = self.reserves_oriented(token_in)
        self._write_swap(token_in, amount_in, amount_out, x + amount_in, y - amount_out)
        return amount_out

    def _write_swap(
        self,
        token_in: Token,
        amount_in: float,
        amount_out: float,
        new_in: float,
        new_out: float,
    ) -> None:
        """Write a swap's new (input-side, output-side) reserves and log
        it.  Both are checked before either is written."""
        if not (new_in > 0.0 and new_out > 0.0):
            raise InvalidReserveError(
                f"swapping {amount_in} {token_in} into {self._pool_id} would "
                f"leave reserves {new_in} (in) / {new_out} (out)"
            )
        if token_in == self._token0:
            self._reserve0 = new_in
            self._reserve1 = new_out
            token_out = self._token1
        else:
            self._reserve1 = new_in
            self._reserve0 = new_out
            token_out = self._token0
        self._events.append(
            SwapEvent(
                pool_id=self._pool_id,
                token_in=token_in,
                token_out=token_out,
                amount_in=amount_in,
                amount_out=amount_out,
            )
        )

    def add_liquidity(self, amount0: float, amount1: float) -> None:
        """Deposit reserves proportionally (V2 ``mint``).

        Deposits must match the current reserve ratio to within 0.1 %
        — the V2 periphery enforces ratio-matching by refunding excess;
        we require the caller to quote correctly instead.  LP shares
        are not modeled (the arbitrage analysis never holds them).
        """
        if amount0 <= 0 or amount1 <= 0:
            raise InvalidReserveError(
                f"liquidity amounts must be positive, got ({amount0}, {amount1})"
            )
        ratio_pool = self._reserve0 / self._reserve1
        ratio_in = amount0 / amount1
        if abs(ratio_in - ratio_pool) > 1e-3 * ratio_pool:
            raise InvalidReserveError(
                f"deposit ratio {ratio_in:g} does not match pool ratio "
                f"{ratio_pool:g} in {self._pool_id}"
            )
        self._reserve0 += amount0
        self._reserve1 += amount1
        self._events.append(
            MintEvent(pool_id=self._pool_id, amount0=amount0, amount1=amount1)
        )

    def remove_liquidity(self, fraction: float) -> tuple[float, float]:
        """Withdraw a fraction of both reserves (V2 ``burn``).

        Returns the withdrawn ``(amount0, amount1)``.  ``fraction``
        must leave a non-empty pool (strictly less than 1).
        """
        if not 0.0 < fraction < 1.0:
            raise InvalidReserveError(
                f"fraction must be in (0, 1), got {fraction}"
            )
        out0 = self._reserve0 * fraction
        out1 = self._reserve1 * fraction
        self._reserve0 -= out0
        self._reserve1 -= out1
        self._events.append(
            BurnEvent(
                pool_id=self._pool_id, fraction=fraction, amount0=out0, amount1=out1
            )
        )
        return (out0, out1)

    # ------------------------------------------------------------------
    # snapshot / restore / copy
    # ------------------------------------------------------------------

    def snapshot(self) -> PoolSnapshot:
        return PoolSnapshot(
            pool_id=self._pool_id,
            token0=self._token0,
            token1=self._token1,
            reserve0=self._reserve0,
            reserve1=self._reserve1,
            fee=self._fee,
        )

    def restore(self, snap: PoolSnapshot) -> None:
        """Restore reserves from a snapshot taken on *this* pool."""
        if snap.pool_id != self._pool_id:
            raise ValueError(
                f"snapshot of {snap.pool_id} cannot restore {self._pool_id}"
            )
        self._reserve0 = snap.reserve0
        self._reserve1 = snap.reserve1

    def _params(self) -> dict:
        """The family's constructor parameters beyond reserves and fee."""
        return {}

    def copy(self):
        """Independent copy: same family, id, reserves, fee and
        parameters (event log not carried over)."""
        return type(self)(
            self._token0,
            self._token1,
            self._reserve0,
            self._reserve1,
            fee=self._fee,
            pool_id=self._pool_id,
            **self._params(),
        )

    def tvl(self, prices) -> float:
        """Total value locked under a price map."""
        return (
            prices[self._token0] * self._reserve0
            + prices[self._token1] * self._reserve1
        )


class Pool(TwoTokenPool):
    """A constant-product (Uniswap V2) pool: ``x * y = k``.

    Construction as :class:`TwoTokenPool`; ``fee`` defaults to
    :data:`DEFAULT_FEE` and auto ids read ``pool-N``.
    """

    family = FAMILY_CPMM
    id_prefix = "pool"

    __slots__ = ()

    @property
    def k(self) -> float:
        """Current constant-product invariant ``reserve0 * reserve1``."""
        return self._reserve0 * self._reserve1

    def __repr__(self) -> str:
        return (
            f"Pool({self._pool_id}: {self._reserve0:g} {self._token0.symbol} / "
            f"{self._reserve1:g} {self._token1.symbol}, fee={self._fee})"
        )

    # ------------------------------------------------------------------
    # quotes (pure)
    # ------------------------------------------------------------------

    def quote_out(self, token_in: Token, amount_in: float) -> float:
        """Exact-in quote without mutating state (``F(dx | theta)``)."""
        x, y = self.reserves_oriented(token_in)
        return swap_math.amount_out(x, y, amount_in, self._fee)

    def quote_in(self, token_out: Token, amount_out: float) -> float:
        """Exact-out quote: input needed to receive ``amount_out``."""
        x, y = self.reserves_oriented(self.other(token_out))
        return swap_math.amount_in(x, y, amount_out, self._fee)

    def spot_price(self, token_in: Token) -> float:
        """Fee-adjusted marginal price of ``token_in`` in output units."""
        x, y = self.reserves_oriented(token_in)
        return swap_math.spot_price(x, y, self._fee)

    def marginal_rate(self, token_in: Token, amount_in: float) -> float:
        """Derivative of output wrt input at trade size ``amount_in``."""
        x, y = self.reserves_oriented(token_in)
        return swap_math.marginal_rate(x, y, amount_in, self._fee)

    # ------------------------------------------------------------------
    # state transitions
    # ------------------------------------------------------------------

    def swap(self, token_in: Token, amount_in: float) -> float:
        """Execute an exact-in swap, mutate reserves, return amount out.

        The base swap with one reserve read (ingest calls this once per
        swap event) and a checked post-condition: the invariant never
        decreases — ``(x + dx)(y - dy) >= x*y`` because the fee stays
        in the pool (the full ``dx`` is added, but ``dy`` was computed
        from the fee-discounted input).  A swap that would drain a
        reserve raises ``InvalidReserveError`` and leaves the pool
        unchanged, as on every family.
        """
        x, y = self.reserves_oriented(token_in)
        dy = swap_math.amount_out(x, y, amount_in, self._fee)
        new_x = x + amount_in
        new_y = y - dy
        k_before = x * y
        # Rounding slack: ``y - dy`` cancels catastrophically for huge
        # trades, with absolute error up to ~eps*y, amplified by the
        # grown input reserve.  Real bugs violate by orders of
        # magnitude more than this bound.  (A drained ``new_y`` is
        # ``_write_swap``'s InvalidReserveError, not a violation.)
        slack = 1e-12 * k_before + 1e-14 * new_x * y
        if new_y > 0.0 and new_x * new_y < k_before - slack:
            raise InvariantViolationError(
                f"invariant decreased in {self._pool_id}: "
                f"{k_before} -> {new_x * new_y}"
            )
        self._write_swap(token_in, amount_in, dy, new_x, new_y)
        return dy
