"""Typed market events: the canonical state-change vocabulary.

Mirrors the trade event log that McLaughlin et al. (paper ref [7]) mine
for historic arbitrages, widened from swaps alone to the full set of
state changes a live DEX market streams: swaps, liquidity mints and
burns, CEX price ticks, and block boundaries.  Every event carries the
``block`` it happened in, so an ordered sequence of events *is* a
replayable market history (see :mod:`repro.replay`).

Producers:

* :meth:`~repro.amm.pool.TwoTokenPool.swap`, ``add_liquidity`` and
  ``remove_liquidity`` append the matching event to the pool's log;
* :class:`~repro.simulation.engine.SimulationEngine` stamps block
  numbers and collects everything its agents did into one
  :class:`~repro.replay.MarketEventLog`;
* :func:`~repro.replay.generate_event_stream` synthesizes seeded
  streams for benchmarks and tests.

The execution simulator uses pool event logs to reconcile predicted vs
realized profits, and tests use them to assert exactly which state
changes ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.types import Token

__all__ = [
    "BlockEvent",
    "BurnEvent",
    "MarketEvent",
    "MintEvent",
    "PriceTickEvent",
    "SwapEvent",
]


@dataclass(frozen=True)
class MarketEvent:
    """Base of the event family: anything that happened in some block.

    ``block`` is keyword-only so subclasses list their payload fields
    positionally; producers that do not know the block yet (e.g. a pool
    recording its own swaps) leave the default and the collector stamps
    it with :func:`dataclasses.replace`.
    """

    block: int = field(default=0, kw_only=True)


@dataclass(frozen=True)
class SwapEvent(MarketEvent):
    """One executed swap: ``amount_in`` of ``token_in`` entered
    ``pool_id`` and ``amount_out`` of ``token_out`` left it."""

    pool_id: str
    token_in: Token
    token_out: Token
    amount_in: float
    amount_out: float

    def __str__(self) -> str:
        return (
            f"{self.amount_in:g} {self.token_in.symbol} -> "
            f"{self.amount_out:g} {self.token_out.symbol} @ {self.pool_id}"
        )


@dataclass(frozen=True)
class MintEvent(MarketEvent):
    """A proportional liquidity deposit (V2 ``mint``): ``amount0`` /
    ``amount1`` entered ``pool_id`` in token0/token1 order."""

    pool_id: str
    amount0: float
    amount1: float

    def __str__(self) -> str:
        return f"mint {self.amount0:g} / {self.amount1:g} @ {self.pool_id}"


@dataclass(frozen=True)
class BurnEvent(MarketEvent):
    """A proportional liquidity withdrawal (V2 ``burn``): ``fraction``
    of both reserves left ``pool_id``; ``amount0`` / ``amount1`` record
    the realized outputs in token0/token1 order."""

    pool_id: str
    fraction: float
    amount0: float = 0.0
    amount1: float = 0.0

    def __str__(self) -> str:
        return f"burn {self.fraction:.4%} @ {self.pool_id}"


@dataclass(frozen=True)
class PriceTickEvent(MarketEvent):
    """A CEX quote update: ``token`` now trades at ``price`` USD."""

    token: Token
    price: float

    def __str__(self) -> str:
        return f"tick {self.token.symbol} = {self.price:g}"


@dataclass(frozen=True)
class BlockEvent(MarketEvent):
    """A block boundary marker: block ``block`` started.

    Carries no payload; it keeps empty blocks representable in a
    serialized stream (a block in which nothing traded still advances
    the clock, and a replay still emits its per-block report).
    """

    def __str__(self) -> str:
        return f"block {self.block}"
