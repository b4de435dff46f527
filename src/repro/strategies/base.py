"""Strategy interface and shared result type.

A *strategy* answers one question for one arbitrage loop: given the
current pool reserves and a CEX price map, what trades should run and
what monetized profit do they yield?  All four strategies from the
paper implement :class:`Strategy`:

* :class:`~repro.strategies.traditional.TraditionalStrategy`
* :class:`~repro.strategies.maxprice.MaxPriceStrategy`
* :class:`~repro.strategies.maxmax.MaxMaxStrategy`
* :class:`~repro.strategies.convexopt.ConvexOptimizationStrategy`
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from ..core.loop import ArbitrageLoop
from ..core.types import PriceMap, ProfitVector, Token

__all__ = ["Strategy", "StrategyResult"]


@dataclass(frozen=True)
class StrategyResult:
    """Outcome of evaluating one strategy on one loop.

    Attributes
    ----------
    strategy:
        Name of the strategy that produced this result.
    loop:
        The loop evaluated.
    profit:
        Net per-token profit vector.
    monetized_profit:
        ``profit`` valued with the CEX price map (USD).
    start_token:
        The start token, for fixed-start strategies; ``None`` for the
        convex strategy, which has no distinguished start.
    amount_in:
        Optimal input amount of ``start_token`` for fixed-start
        strategies; ``None`` otherwise.
    hop_amounts:
        Per-hop ``(amount_in, amount_out)`` pairs in the loop's hop
        order — enough to build an execution plan.
    details:
        Free-form solver metadata (backend, iterations, ...).
    """

    strategy: str
    loop: ArbitrageLoop
    profit: ProfitVector
    monetized_profit: float
    start_token: Token | None = None
    amount_in: float | None = None
    hop_amounts: tuple[tuple[float, float], ...] = ()
    details: dict = field(default_factory=dict)

    @property
    def is_profitable(self) -> bool:
        return self.monetized_profit > 0.0

    def __str__(self) -> str:
        start = f" from {self.start_token.symbol}" if self.start_token else ""
        return (
            f"{self.strategy}{start}: {self.profit} "
            f"(${self.monetized_profit:,.2f})"
        )


class Strategy(abc.ABC):
    """Evaluate arbitrage loops under a CEX price map.

    :meth:`evaluate` is the scalar reference every batch route is
    tested against.  :meth:`evaluate_cached` is the same evaluation
    with an optional :class:`~repro.engine.cache.PoolStateCache`, so
    repeated evaluations of an unchanged loop reuse the
    price-independent optimization work; the evaluation engine
    (:mod:`repro.engine`) and the batch evaluator's scalar fallback
    call it.

    The engine's kernels (cross-loop batches, price grids) stand in
    for it only on the exact fixed-start classes
    (:func:`repro.market.batch_kind`); a subclass is always evaluated
    through its own methods.
    """

    #: Human-readable name used in results, reports, and figures.
    name: str = "strategy"

    @abc.abstractmethod
    def evaluate(self, loop: ArbitrageLoop, prices: PriceMap) -> StrategyResult:
        """Compute this strategy's best action for ``loop``.

        Implementations never mutate pool state; they only *quote*.
        A loop without profitable action yields a zero-profit result,
        not an exception.
        """

    def evaluate_cached(
        self, loop: ArbitrageLoop, prices: PriceMap, cache=None
    ) -> StrategyResult:
        """Cache-aware evaluation; numerically identical to
        :meth:`evaluate`.  The base implementation ignores ``cache``;
        strategies whose per-loop work is price-independent override
        it to memoize on pool reserves."""
        return self.evaluate(loop, prices)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
