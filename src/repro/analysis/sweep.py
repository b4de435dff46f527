"""Parameter-sweep utilities.

Figures 2–4 sweep token X's CEX price from 0$ to 20$ and re-evaluate
every strategy at each point.  :func:`price_sweep` generalizes that:
sweep any one token's price over a grid and collect per-strategy
monetized profits (and optionally full results).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.loop import ArbitrageLoop
from ..core.types import PriceMap, Token
from ..engine import EvaluationEngine
from ..strategies.base import Strategy, StrategyResult

__all__ = ["SweepPoint", "SweepSeries", "price_sweep", "paper_px_grid"]


def paper_px_grid(max_price: float = 20.0, step: float = 0.2) -> np.ndarray:
    """The paper's grid: 0$ to ``max_price`` with interval ``step``
    (defaults reproduce Fig. 4's 0$–20$ at 0.2$).

    The first point is nudged off exact zero (1e-9) because a token
    with price exactly 0 never contributes monetized profit but keeps
    the optimization well-posed either way; the paper's plots start at
    0 too.
    """
    if max_price <= 0:
        raise ValueError(f"max_price must be positive, got {max_price:g}")
    if step <= 0:
        raise ValueError(f"step must be positive, got {step:g}")
    grid = np.arange(0.0, max_price + 1e-9, step)
    grid[0] = 1e-9
    return grid


@dataclass(frozen=True)
class SweepPoint:
    """All strategy results at one swept price."""

    price: float
    results: dict[str, StrategyResult]

    def monetized(self, strategy: str) -> float:
        return self.results[strategy].monetized_profit


@dataclass(frozen=True)
class SweepSeries:
    """A full sweep: one :class:`SweepPoint` per grid value."""

    token: Token
    points: tuple[SweepPoint, ...]

    def prices(self) -> np.ndarray:
        return np.array([p.price for p in self.points])

    def series(self, strategy: str) -> np.ndarray:
        """Monetized profits of one strategy across the sweep."""
        return np.array([p.monetized(strategy) for p in self.points])

    def strategies(self) -> tuple[str, ...]:
        return tuple(self.points[0].results) if self.points else ()


def price_sweep(
    loop: ArbitrageLoop,
    base_prices: PriceMap,
    token: Token,
    grid,
    strategies: dict[str, Strategy],
    engine: EvaluationEngine | None = None,
) -> SweepSeries:
    """Evaluate ``strategies`` on ``loop`` as ``token``'s price sweeps.

    ``strategies`` maps a label (used in figures) to a strategy
    instance; labels are free-form so the same strategy class can
    appear multiple times (e.g. three differently-anchored
    ``TraditionalStrategy`` instances for Fig. 2).

    The whole sweep is one
    :meth:`~repro.engine.EvaluationEngine.sweep_results` call: the
    fixed-start strategies take the price-grid kernels on every pool
    family, everything else walks the grid point by point.  Pass
    ``engine`` to share its cache across sweeps; the default builds a
    fresh one.
    """
    engine = engine if engine is not None else EvaluationEngine()
    per_label = engine.sweep_results(strategies, loop, base_prices, token, grid)
    points = []
    for index, price in enumerate(grid):
        results = {label: per_label[label][index] for label in strategies}
        points.append(SweepPoint(price=float(price), results=results))
    return SweepSeries(token=token, points=tuple(points))
