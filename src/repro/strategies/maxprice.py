"""The MaxPrice strategy: start from the highest-CEX-price token.

The paper's first strategy.  Practitioners might assume that starting
from the most valuable token maximizes monetized profit; the paper's
Fig. 2 (example) and Fig. 6 (empirical) show this is *not* reliable —
the strategy is included precisely so the benchmarks can reproduce
that negative result.
"""

from __future__ import annotations

from ..core.loop import ArbitrageLoop
from ..core.types import PriceMap
from .base import Strategy, StrategyResult
from .traditional import rotation_result

__all__ = ["MaxPriceStrategy"]


class MaxPriceStrategy(Strategy):
    """Fixed-start arbitrage from the token with the highest CEX price.

    Ties on price break deterministically by token symbol (see
    :meth:`repro.core.types.PriceMap.max_price_token`).
    """

    name = "maxprice"

    def __init__(self, method: str = "closed_form"):
        self.method = method

    def evaluate(self, loop: ArbitrageLoop, prices: PriceMap) -> StrategyResult:
        return self.evaluate_cached(loop, prices, None)

    def evaluate_cached(
        self, loop: ArbitrageLoop, prices: PriceMap, cache=None
    ) -> StrategyResult:
        start = prices.max_price_token(loop.tokens)
        rotation = loop.rotation_from(start)
        return rotation_result(
            rotation, prices, strategy_name=self.name, method=self.method, cache=cache
        )
