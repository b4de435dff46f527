"""Vectorized numpy fast path for price-grid evaluation.

The observation that makes a Fig. 2-style sweep collapse: for the
fixed-start strategies on a loop with *fixed reserves*, the optimal
input, hop amounts, and single-token profit of each rotation are
independent of CEX prices — only the monetization (``P_start *
profit``) varies across the grid.  So a 101-point sweep needs one
optimization per rotation, not one per (rotation, point); the whole
monetized series is a single array multiply, and MaxMax's envelope is
one ``argmax`` over the rotation × grid matrix.

Parity with the scalar path is exact, not approximate: the quotes are
produced by the same :func:`repro.strategies.traditional.rotation_quote`
computation, monetization multiplies the same two floats (IEEE-754
multiplication is identical in numpy and pure Python), MaxMax's
``argmax`` mirrors the scalar strict-``>`` first-wins tie-break, and
MaxPrice's column argmax over symbol-sorted rows mirrors
:meth:`repro.core.types.PriceMap.max_price_token`'s
``(-price, symbol)`` ordering.

The kernels cover every pool family: a weighted or stableswap rotation
is quoted by the same ``rotation_quote`` (its chain-rule optimizer)
on both routes.  :func:`grid_results` dispatches on
:func:`repro.market.batch_kind`, so only the exact Traditional,
MaxPrice and MaxMax classes take this path; convex and subclasses walk
the grid point by point.
"""

from __future__ import annotations

import numpy as np

from ..core.loop import ArbitrageLoop, Rotation
from ..core.types import PriceMap, ProfitVector, Token
from ..strategies.base import Strategy, StrategyResult
from ..strategies.traditional import (
    RotationQuote,
    quote_profit_vector,
    result_from_quote,
    rotation_quote,
)

__all__ = [
    "grid_results",
    "traditional_grid",
    "maxmax_grid",
    "maxprice_grid",
]


def grid_results(
    kind: str,
    strategy: Strategy,
    loop: ArbitrageLoop,
    base_prices: PriceMap,
    token: Token,
    grid,
    cache=None,
) -> list[StrategyResult]:
    """``strategy``'s results across the grid through the kernel for its
    batch ``kind`` (``"traditional"``, ``"maxprice"`` or ``"maxmax"``,
    as :func:`repro.market.batch_kind` names it)."""
    if kind == "traditional":
        return traditional_grid(
            strategy.rotation(loop), base_prices, token, grid,
            strategy.name, strategy.method, cache,
        )
    kernel = maxprice_grid if kind == "maxprice" else maxmax_grid
    return kernel(
        loop, base_prices, token, grid, strategy.name, strategy.method, cache
    )


# ----------------------------------------------------------------------
# shared pieces
# ----------------------------------------------------------------------


def _quote(rotation: Rotation, method: str, cache) -> RotationQuote:
    if cache is not None:
        return cache.rotation_quote(rotation, method)
    return rotation_quote(rotation, method=method)


def _price_vector(
    start: Token, base_prices: PriceMap, token: Token, grid: np.ndarray
) -> np.ndarray:
    """``start``'s price at every grid point of the swept ``token``."""
    if start == token:
        return grid
    return np.full(grid.shape, base_prices[start])


def _monetized_row(
    rotation: Rotation,
    quote: RotationQuote,
    base_prices: PriceMap,
    token: Token,
    grid: np.ndarray,
) -> np.ndarray:
    """Monetized profit of one rotation across the grid.

    Unprofitable rotations monetize to zero without any price lookup,
    matching the scalar path (an empty profit vector never touches the
    price map).
    """
    if quote.amount_in <= 0.0:
        return np.zeros(grid.shape)
    return _price_vector(rotation.start_token, base_prices, token, grid) * quote.profit


# ----------------------------------------------------------------------
# per-strategy kernels
# ----------------------------------------------------------------------


def traditional_grid(
    rotation: Rotation,
    base_prices: PriceMap,
    token: Token,
    grid,
    strategy_name: str = "traditional",
    method: str = "closed_form",
    cache=None,
) -> list[StrategyResult]:
    """Fixed-rotation sweep: one optimization, one array multiply."""
    g = np.asarray(grid, dtype=float)
    if g.size == 0:
        return []
    quote = _quote(rotation, method, cache)
    monetized = _monetized_row(rotation, quote, base_prices, token, g)
    profit = quote_profit_vector(rotation, quote)
    return [
        result_from_quote(
            rotation, quote, None, strategy_name, method,
            profit=profit, monetized=float(value),
        )
        for value in monetized
    ]


def maxmax_grid(
    loop: ArbitrageLoop,
    base_prices: PriceMap,
    token: Token,
    grid,
    strategy_name: str = "maxmax",
    method: str = "closed_form",
    cache=None,
) -> list[StrategyResult]:
    """MaxMax sweep: rotation × grid matrix, envelope via argmax.

    ``argmax`` picks the first maximal row, which reproduces the
    scalar loop's strict-``>`` comparison (ties resolve to the first
    rotation in loop order).
    """
    g = np.asarray(grid, dtype=float)
    if g.size == 0:
        return []
    rotations = loop.rotations()
    quotes = [_quote(rotation, method, cache) for rotation in rotations]
    matrix = np.vstack(
        [
            _monetized_row(rotation, quote, base_prices, token, g)
            for rotation, quote in zip(rotations, quotes)
        ]
    )
    best = np.argmax(matrix, axis=0)
    symbols = [rotation.start_token.symbol for rotation in rotations]
    profits = [
        quote_profit_vector(rotation, quote)
        for rotation, quote in zip(rotations, quotes)
    ]
    results = []
    for j in range(g.size):
        r = int(best[j])
        per_rotation = {
            symbols[i]: float(matrix[i, j]) for i in range(len(rotations))
        }
        results.append(
            result_from_quote(
                rotations[r], quotes[r], None, strategy_name, method,
                profit=profits[r],
                monetized=float(matrix[r, j]),
                extra_details={"per_rotation": per_rotation},
            )
        )
    return results


def maxprice_grid(
    loop: ArbitrageLoop,
    base_prices: PriceMap,
    token: Token,
    grid,
    strategy_name: str = "maxprice",
    method: str = "closed_form",
    cache=None,
) -> list[StrategyResult]:
    """MaxPrice sweep: per-point start selection, then fixed rotations.

    The start token can flip along the sweep (the swept token
    overtakes the rest); selection is a column argmax over
    symbol-sorted price rows, reproducing ``max_price_token``'s
    ``(-price, symbol)`` tie-break.
    """
    g = np.asarray(grid, dtype=float)
    if g.size == 0:
        return []
    candidates = sorted(loop.tokens, key=lambda t: t.symbol)
    price_rows = np.vstack(
        [_price_vector(t, base_prices, token, g) for t in candidates]
    )
    selection = np.argmax(price_rows, axis=0)
    quotes: dict[Token, tuple[Rotation, RotationQuote, ProfitVector]] = {}
    results = []
    for j in range(g.size):
        start = candidates[int(selection[j])]
        if start not in quotes:
            rotation = loop.rotation_from(start)
            quote = _quote(rotation, method, cache)
            quotes[start] = (rotation, quote, quote_profit_vector(rotation, quote))
        rotation, quote, profit = quotes[start]
        if quote.amount_in <= 0.0:
            monetized = 0.0
        else:
            monetized = float(price_rows[int(selection[j]), j] * quote.profit)
        results.append(
            result_from_quote(
                rotation, quote, None, strategy_name, method,
                profit=profit, monetized=monetized,
            )
        )
    return results
