"""One harness function per paper figure (DESIGN.md §3).

Every function returns a plain result object holding exactly the
series the corresponding figure plots, so benchmarks, the CLI, tests
and EXPERIMENTS.md all consume the same source of truth.

Figure index (paper has no numbered tables):

========  ==========================================================
Fig. 1    profit curve of a rotation; optimum where d out/d in = 1
Fig. 2    Px sweep: three rotation curves + MaxMax envelope
Fig. 3    Px sweep: Convex vs MaxMax
Fig. 4    Px sweep: convex profit decomposed into token amounts
§V        the worked example's in-text numbers
Fig. 5    MaxMax vs traditional scatter (length-3 loops)
Fig. 6    MaxPrice vs MaxMax scatter
Fig. 7    Convex vs MaxMax scatter
Fig. 8    per-token profit vectors, Convex vs MaxMax
Fig. 9    length-4: traditional vs Convex scatter
Fig. 10   length-4: MaxMax vs Convex scatter
§VII      runtime scaling of MaxMax vs Convex with loop length
§VI       snapshot calibration counts
========  ==========================================================
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core.loop import ArbitrageLoop
from ..core.types import Token
from ..data.example import TOKEN_X, section5_loop, section5_prices
from ..data.loops import synthetic_loop, synthetic_loop_prices
from ..data.snapshot import MarketSnapshot
from ..data.synthetic import paper_market
from ..engine import EvaluationEngine
from ..graph.cycles import find_arbitrage_loops
from ..strategies.base import Strategy
from ..strategies.convexopt import ConvexOptimizationStrategy
from ..strategies.maxmax import MaxMaxStrategy
from ..strategies.maxprice import MaxPriceStrategy
from ..strategies.traditional import TraditionalStrategy
from .stats import ScatterStats, scatter_stats
from .sweep import SweepSeries, paper_px_grid, price_sweep

__all__ = [
    "Fig1Result",
    "ScatterResult",
    "TokenProfitResult",
    "RuntimeResult",
    "CalibrationResult",
    "fig1_profit_curve",
    "fig2_rotation_sweep",
    "fig3_convex_vs_maxmax_sweep",
    "fig4_profit_composition",
    "section5_numbers",
    "fig5_maxmax_vs_traditional",
    "fig6_maxprice_vs_maxmax",
    "fig7_convex_vs_maxmax",
    "fig8_token_profit_overlap",
    "fig9_len4_traditional",
    "fig10_len4_maxmax",
    "runtime_scaling",
    "snapshot_calibration",
    "profitable_loops",
]


# ----------------------------------------------------------------------
# result containers
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Fig1Result:
    """Series of Fig. 1: profit vs input, plus the analytic optimum."""

    inputs: np.ndarray
    profits: np.ndarray
    optimal_input: float
    optimal_profit: float
    derivative_at_optimum: float


@dataclass(frozen=True)
class ScatterResult:
    """A scatter comparison: per-loop x/y monetized profits."""

    x_label: str
    y_label: str
    x: np.ndarray
    y: np.ndarray
    loop_ids: tuple[str, ...]
    point_labels: tuple[str, ...]
    stats: ScatterStats


@dataclass(frozen=True)
class TokenProfitResult:
    """Fig. 8 data: per-loop per-token profits under two strategies."""

    loops: tuple[str, ...]
    maxmax_profits: tuple[dict, ...]
    convex_profits: tuple[dict, ...]
    max_component_gap: float


@dataclass(frozen=True)
class RuntimeResult:
    """§VII data: per-length average runtimes (seconds)."""

    lengths: tuple[int, ...]
    maxmax_seconds: tuple[float, ...]
    convex_seconds: tuple[float, ...]
    repeats: int

    def speedup(self) -> tuple[float, ...]:
        """Convex time / MaxMax time per length."""
        return tuple(
            c / m if m > 0 else float("inf")
            for m, c in zip(self.maxmax_seconds, self.convex_seconds)
        )


@dataclass(frozen=True)
class CalibrationResult:
    """§VI counts for a generated snapshot."""

    tokens: int
    pools: int
    profitable_loops_len3: int
    profitable_loops_len4: int
    paper_tokens: int = 51
    paper_pools: int = 208
    paper_loops_len3: int = 123


# ----------------------------------------------------------------------
# Section V / Figs. 1-4 (worked example)
# ----------------------------------------------------------------------


def fig1_profit_curve(
    loop: ArbitrageLoop | None = None,
    start: Token | None = None,
    n_points: int = 200,
    max_input: float = 30.0,
) -> Fig1Result:
    """Fig. 1: the concave profit curve and its derivative-1 optimum."""
    loop = loop if loop is not None else section5_loop()
    start = start if start is not None else loop.tokens[0]
    comp = loop.rotation_from(start).composition()
    inputs = np.linspace(0.0, max_input, n_points)
    profits = np.array([comp.profit(t) for t in inputs])
    t_star = comp.optimal_input()
    return Fig1Result(
        inputs=inputs,
        profits=profits,
        optimal_input=t_star,
        optimal_profit=comp.profit(t_star) if t_star > 0 else 0.0,
        derivative_at_optimum=comp.derivative(t_star),
    )


def fig2_rotation_sweep(
    grid=None, engine: EvaluationEngine | None = None
) -> SweepSeries:
    """Fig. 2: per-rotation monetized profit + MaxMax, sweeping Px.

    The full grid is one engine job; all five series share one
    rotation-quote cache, so the three traditional anchors, MaxMax,
    and MaxPrice together cost three optimizations total.
    """
    loop = section5_loop()
    grid = paper_px_grid() if grid is None else grid
    strategies: dict[str, Strategy] = {
        f"start_{token.symbol}": TraditionalStrategy(start_token=token)
        for token in loop.tokens
    }
    strategies["maxmax"] = MaxMaxStrategy()
    strategies["maxprice"] = MaxPriceStrategy()
    return price_sweep(loop, section5_prices(), TOKEN_X, grid, strategies, engine=engine)


def fig3_convex_vs_maxmax_sweep(
    grid=None, backend: str = "slsqp", engine: EvaluationEngine | None = None
) -> SweepSeries:
    """Fig. 3: Convex vs MaxMax monetized profit, sweeping Px.

    MaxMax takes the price-grid kernel; the convex strategy is
    price-dependent and walks the grid point by point (its internal
    MaxMax floor still hits the shared cache).
    """
    loop = section5_loop()
    grid = paper_px_grid() if grid is None else grid
    strategies: dict[str, Strategy] = {
        "maxmax": MaxMaxStrategy(),
        "convex": ConvexOptimizationStrategy(backend=backend),
    }
    return price_sweep(loop, section5_prices(), TOKEN_X, grid, strategies, engine=engine)


def fig4_profit_composition(grid=None, backend: str = "slsqp"):
    """Fig. 4: convex profit as (X, Y, Z) token amounts along the sweep.

    Returns ``(prices, token_amount_rows, monetized)`` where each row
    is the net amount of (X, Y, Z) kept as profit at that Px.
    """
    loop = section5_loop()
    grid = paper_px_grid() if grid is None else grid
    strategy = ConvexOptimizationStrategy(backend=backend)
    rows = []
    monetized = []
    for px in grid:
        prices = section5_prices(px=float(px))
        result = strategy.evaluate(loop, prices)
        net = result.profit.as_mapping()
        rows.append(tuple(net.get(token, 0.0) for token in loop.tokens))
        monetized.append(result.monetized_profit)
    return np.asarray(grid, dtype=float), np.array(rows), np.array(monetized)


def section5_numbers(backend: str = "slsqp") -> dict:
    """The §V in-text numbers, recomputed."""
    loop = section5_loop()
    prices = section5_prices()
    out: dict = {}
    for token in loop.tokens:
        result = TraditionalStrategy(start_token=token).evaluate(loop, prices)
        out[f"input_{token.symbol}"] = result.amount_in
        out[f"profit_{token.symbol}"] = result.profit.as_mapping()[token]
        out[f"monetized_from_{token.symbol}"] = result.monetized_profit
    out["maxmax"] = MaxMaxStrategy().evaluate(loop, prices).monetized_profit
    out["maxprice"] = MaxPriceStrategy().evaluate(loop, prices).monetized_profit
    convex = ConvexOptimizationStrategy(backend=backend).evaluate(loop, prices)
    out["convex"] = convex.monetized_profit
    net = convex.profit.as_mapping()
    for token in loop.tokens:
        out[f"convex_profit_{token.symbol}"] = net.get(token, 0.0)
    out["spot_product_no_fee"] = 2.0 * (2.0 / 3.0) * 2.0
    return out


# ----------------------------------------------------------------------
# §VI empirical comparisons (Figs. 5-10)
# ----------------------------------------------------------------------


def profitable_loops(
    snapshot: MarketSnapshot | None = None, length: int = 3
) -> tuple[MarketSnapshot, list[ArbitrageLoop]]:
    """The §VI pipeline: snapshot -> filtered graph -> profitable loops."""
    snapshot = snapshot if snapshot is not None else paper_market()
    graph = snapshot.graph()
    loops = find_arbitrage_loops(graph, length)
    return snapshot, loops


def fig5_maxmax_vs_traditional(
    snapshot: MarketSnapshot | None = None,
    length: int = 3,
    engine: EvaluationEngine | None = None,
) -> ScatterResult:
    """Fig. 5 (Fig. 9 uses length=4): traditional points vs MaxMax.

    Each loop contributes ``length`` points — one per rotation — all
    sharing the loop's MaxMax value on the x-axis.  One engine job:
    the MaxMax pass fills the rotation cache, so every traditional
    point afterwards is a cache hit.
    """
    snapshot, loops = profitable_loops(snapshot, length)
    engine = engine if engine is not None else EvaluationEngine()
    mm_results = engine.evaluate_strategy(MaxMaxStrategy(), loops, snapshot.prices)
    xs, ys, loop_ids, labels = [], [], [], []
    for index, loop in enumerate(loops):
        mm = mm_results[index].monetized_profit
        for token in loop.tokens:
            trad = engine.evaluate(
                TraditionalStrategy(start_token=token), loop, snapshot.prices
            )
            xs.append(mm)
            ys.append(trad.monetized_profit)
            loop_ids.append(f"loop{index}")
            labels.append(token.symbol)
    return ScatterResult(
        x_label="maxmax",
        y_label="traditional",
        x=np.array(xs),
        y=np.array(ys),
        loop_ids=tuple(loop_ids),
        point_labels=tuple(labels),
        stats=scatter_stats(xs, ys),
    )


def fig6_maxprice_vs_maxmax(
    snapshot: MarketSnapshot | None = None,
    length: int = 3,
    engine: EvaluationEngine | None = None,
) -> ScatterResult:
    """Fig. 6: MaxPrice monetized profit vs MaxMax per loop.

    One batched engine job per strategy; the MaxPrice pass reuses the
    rotation quotes the MaxMax pass already computed.
    """
    snapshot, loops = profitable_loops(snapshot, length)
    engine = engine if engine is not None else EvaluationEngine()
    per_label = engine.evaluate_loops(
        {"maxmax": MaxMaxStrategy(), "maxprice": MaxPriceStrategy()},
        loops,
        snapshot.prices,
    )
    xs = [result.monetized_profit for result in per_label["maxmax"]]
    ys = [result.monetized_profit for result in per_label["maxprice"]]
    loop_ids = [f"loop{index}" for index in range(len(loops))]
    return ScatterResult(
        x_label="maxmax",
        y_label="maxprice",
        x=np.array(xs),
        y=np.array(ys),
        loop_ids=tuple(loop_ids),
        point_labels=tuple(loop_ids),
        stats=scatter_stats(xs, ys),
    )


def fig7_convex_vs_maxmax(
    snapshot: MarketSnapshot | None = None,
    length: int = 3,
    backend: str = "slsqp",
    engine: EvaluationEngine | None = None,
) -> ScatterResult:
    """Fig. 7 (Fig. 10 uses length=4): Convex vs MaxMax per loop.

    Batched: the convex pass's internal MaxMax warm start / floor and
    the explicit MaxMax pass share one rotation cache, halving the
    fixed-start work.
    """
    snapshot, loops = profitable_loops(snapshot, length)
    engine = engine if engine is not None else EvaluationEngine()
    per_label = engine.evaluate_loops(
        {
            "convex": ConvexOptimizationStrategy(backend=backend),
            "maxmax": MaxMaxStrategy(),
        },
        loops,
        snapshot.prices,
    )
    xs = [result.monetized_profit for result in per_label["convex"]]
    ys = [result.monetized_profit for result in per_label["maxmax"]]
    loop_ids = [f"loop{index}" for index in range(len(loops))]
    return ScatterResult(
        x_label="convex",
        y_label="maxmax",
        x=np.array(xs),
        y=np.array(ys),
        loop_ids=tuple(loop_ids),
        point_labels=tuple(loop_ids),
        stats=scatter_stats(xs, ys),
    )


def fig8_token_profit_overlap(
    snapshot: MarketSnapshot | None = None,
    length: int = 3,
    backend: str = "slsqp",
    engine: EvaluationEngine | None = None,
) -> TokenProfitResult:
    """Fig. 8: per-token profit vectors of Convex vs MaxMax.

    ``max_component_gap`` is the largest absolute per-token difference
    between the two strategies' profit vectors, normalized by the
    loop's MaxMax profit scale — the figure's visual 'overlap' claim
    made numeric.
    """
    snapshot, loops = profitable_loops(snapshot, length)
    engine = engine if engine is not None else EvaluationEngine()
    per_label = engine.evaluate_loops(
        {
            "maxmax": MaxMaxStrategy(),
            "convex": ConvexOptimizationStrategy(backend=backend),
        },
        loops,
        snapshot.prices,
    )
    loop_ids, mm_rows, cv_rows = [], [], []
    worst = 0.0
    for index, loop in enumerate(loops):
        mm = per_label["maxmax"][index]
        cv = per_label["convex"][index]
        mm_net = {t.symbol: a for t, a in mm.profit.as_mapping().items()}
        cv_net = {t.symbol: a for t, a in cv.profit.as_mapping().items()}
        loop_ids.append(f"loop{index}")
        mm_rows.append(mm_net)
        cv_rows.append(cv_net)
        scale = max(
            1e-12,
            max((abs(a) for a in mm_net.values()), default=0.0),
        )
        for symbol in set(mm_net) | set(cv_net):
            gap = abs(mm_net.get(symbol, 0.0) - cv_net.get(symbol, 0.0)) / scale
            worst = max(worst, gap)
    return TokenProfitResult(
        loops=tuple(loop_ids),
        maxmax_profits=tuple(mm_rows),
        convex_profits=tuple(cv_rows),
        max_component_gap=worst,
    )


def fig9_len4_traditional(
    snapshot: MarketSnapshot | None = None,
    engine: EvaluationEngine | None = None,
) -> ScatterResult:
    """Fig. 9: traditional vs Convex on length-4 loops."""
    snapshot, loops = profitable_loops(snapshot, 4)
    engine = engine if engine is not None else EvaluationEngine()
    cv_results = engine.evaluate_strategy(
        ConvexOptimizationStrategy(backend="slsqp"), loops, snapshot.prices
    )
    xs, ys, loop_ids, labels = [], [], [], []
    for index, loop in enumerate(loops):
        cv = cv_results[index].monetized_profit
        for token in loop.tokens:
            trad = engine.evaluate(
                TraditionalStrategy(start_token=token), loop, snapshot.prices
            )
            xs.append(cv)
            ys.append(trad.monetized_profit)
            loop_ids.append(f"loop{index}")
            labels.append(token.symbol)
    return ScatterResult(
        x_label="convex",
        y_label="traditional",
        x=np.array(xs),
        y=np.array(ys),
        loop_ids=tuple(loop_ids),
        point_labels=tuple(labels),
        stats=scatter_stats(xs, ys),
    )


def fig10_len4_maxmax(snapshot: MarketSnapshot | None = None) -> ScatterResult:
    """Fig. 10: MaxMax vs Convex on length-4 loops."""
    return fig7_convex_vs_maxmax(snapshot, length=4)


# ----------------------------------------------------------------------
# §VII runtime and §VI calibration
# ----------------------------------------------------------------------


def runtime_scaling(
    lengths: tuple[int, ...] = (3, 4, 5, 6, 8, 10),
    repeats: int = 3,
    backend: str = "slsqp",
    seed: int = 7,
) -> RuntimeResult:
    """§VII: wall-clock of MaxMax vs Convex as loop length grows."""
    maxmax = MaxMaxStrategy()
    convex = ConvexOptimizationStrategy(backend=backend)
    mm_times, cv_times = [], []
    for length in lengths:
        loop = synthetic_loop(length, seed=seed)
        prices = synthetic_loop_prices(loop, seed=seed)
        mm_best, cv_best = float("inf"), float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            maxmax.evaluate(loop, prices)
            mm_best = min(mm_best, time.perf_counter() - t0)
            t0 = time.perf_counter()
            convex.evaluate(loop, prices)
            cv_best = min(cv_best, time.perf_counter() - t0)
        mm_times.append(mm_best)
        cv_times.append(cv_best)
    return RuntimeResult(
        lengths=tuple(lengths),
        maxmax_seconds=tuple(mm_times),
        convex_seconds=tuple(cv_times),
        repeats=repeats,
    )


def snapshot_calibration(
    seed: int = 20230901, include_len4: bool = True
) -> CalibrationResult:
    """§VI: token/pool/profitable-loop counts of the generated market."""
    snapshot = paper_market(seed=seed)
    graph = snapshot.graph()
    loops3 = find_arbitrage_loops(graph, 3)
    loops4 = find_arbitrage_loops(graph, 4) if include_len4 else []
    return CalibrationResult(
        tokens=graph.number_of_nodes(),
        pools=graph.number_of_edges(),
        profitable_loops_len3=len(loops3),
        profitable_loops_len4=len(loops4),
    )
