"""The MaxMax strategy: best fixed start over all rotations.

The paper's second strategy (eq. 6): optimize the single-token profit
for *every* rotation of the loop, monetize each with the CEX price of
its start token, and keep the maximum:

    MaxMax = max_j  max_t  P_j * (F_rot_j(t) - t).

By construction MaxMax dominates every traditional fixed-start result
and the MaxPrice result on the same loop — the dominance the paper's
Fig. 5 and Fig. 6 scatter plots visualize and our property tests
assert.
"""

from __future__ import annotations

from ..core.loop import ArbitrageLoop
from ..core.types import PriceMap
from .base import Strategy, StrategyResult
from .traditional import rotation_result

__all__ = ["MaxMaxStrategy"]


class MaxMaxStrategy(Strategy):
    """Evaluate every rotation; return the best monetized result.

    Ties (e.g. a loop with no profitable rotation at all, where every
    rotation monetizes to zero) resolve to the first rotation in loop
    order, keeping results deterministic.
    """

    name = "maxmax"

    def __init__(self, method: str = "closed_form"):
        self.method = method

    def evaluate(self, loop: ArbitrageLoop, prices: PriceMap) -> StrategyResult:
        return self.evaluate_cached(loop, prices, None)

    def evaluate_cached(
        self, loop: ArbitrageLoop, prices: PriceMap, cache=None
    ) -> StrategyResult:
        best: StrategyResult | None = None
        per_rotation: dict[str, float] = {}
        for rotation in loop.rotations():
            candidate = rotation_result(
                rotation, prices, strategy_name=self.name, method=self.method,
                cache=cache,
            )
            per_rotation[rotation.start_token.symbol] = candidate.monetized_profit
            if best is None or candidate.monetized_profit > best.monetized_profit:
                best = candidate
        assert best is not None  # loops have >= 2 rotations
        best.details["per_rotation"] = per_rotation
        return best
