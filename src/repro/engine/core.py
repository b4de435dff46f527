"""The batched evaluation engine: one pipeline for loops × strategies
× price scenarios.

:class:`EvaluationEngine` is the single entry point every consumer —
price sweeps, scatter figures, harvesting, the simulation engine, the
CLI — routes through.  Each of its two jobs has one route:

* loops at one price map (:meth:`~EvaluationEngine.evaluate_loops`)
  score through one :class:`~repro.market.BatchEvaluator` shared by
  every strategy: the cross-loop batch kernels (:mod:`repro.market`)
  compile *every* loop — constant-product, weighted and stableswap
  alike, on any of the three fixed-start solvers — into hop-index
  matrices over columnar reserves and quote them per rotation in one
  vectorized pass.  The evaluator's scalar fallback takes
  non-batchable strategies and groups below its ``min_batch``;
* one loop across a price grid (:meth:`~EvaluationEngine.sweep_results`):
  the price-grid kernels (:mod:`repro.engine.vectorized`) quote each
  rotation once and monetize the whole grid in one array pass, on
  every pool family.  Strategies without a kernel (convex,
  subclasses) walk the grid point by point in process.

Every scalar evaluation goes through the engine's reserve-keyed
:class:`~repro.engine.cache.PoolStateCache`, so repeated evaluations
of unchanged loops (across strategies or price points) pay for the
optimization once.  Both kernel routes serve exactly the strategies
:func:`~repro.market.batch_kind` admits.  Results are always identical
to the scalar path — the engine changes *when* work happens, never
*what* is computed.

:class:`LoopUniverse` complements it on the detection side: loop
*topology* (which token cycles exist, through which pools) depends
only on which pools exist, while *profitability* depends on reserves.
Splitting the two lets block-by-block consumers enumerate once and
re-filter cheaply.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Mapping, Sequence

from ..amm.pool import Pool
from ..core.loop import ArbitrageLoop
from ..core.types import PriceMap, Token
from ..graph.build import build_token_graph
from ..graph.cycles import enumerate_token_cycles, expand_cycle_to_loops
from ..strategies.base import Strategy, StrategyResult
from ..telemetry import trace
from .cache import PoolStateCache

__all__ = ["EvaluationEngine", "LoopUniverse"]


class LoopUniverse:
    """All candidate loops of one length over a fixed pool topology.

    Enumeration (cycle DFS + pool expansion) is the expensive part of
    :func:`repro.graph.cycles.find_arbitrage_loops` and depends only
    on the pool set, not on reserves.  The universe enumerates once,
    keeps live pool references, and re-applies the paper's
    ``sum(log p_ij) > tol`` criterion against current reserves on each
    :meth:`profitable` call — same loops, same order, no re-walk of
    the graph.
    """

    def __init__(self, pools: Iterable[Pool], length: int):
        graph = build_token_graph(pools)
        self.length = length
        self.candidates: tuple[ArbitrageLoop, ...] = tuple(
            loop
            for cycle in enumerate_token_cycles(graph, length)
            for loop in expand_cycle_to_loops(graph, cycle)
        )

    def __len__(self) -> int:
        return len(self.candidates)

    def profitable(self, tol: float = 0.0) -> list[ArbitrageLoop]:
        """Candidates currently admitting arbitrage — identical to
        ``find_arbitrage_loops`` on the same pools."""
        return [loop for loop in self.candidates if loop.log_rate_sum() > tol]

    def count_profitable(self, tol: float = 0.0) -> int:
        return sum(1 for loop in self.candidates if loop.log_rate_sum() > tol)


def _universe_key(pools: Sequence[Pool], length: int) -> tuple:
    """Identity of a pool topology: the same live pool objects.

    ``id()`` is included so a copied registry (fresh pool objects with
    the same ids) gets its own universe; the universe keeps references
    to the pools, so the ids stay valid for its lifetime.
    """
    return (length,) + tuple(
        sorted((pool.pool_id, id(pool)) for pool in pools)
    )


class EvaluationEngine:
    """Batched strategy evaluation with a shared rotation cache, the
    cross-loop batch kernels and the price-grid kernels.

    Parameters
    ----------
    cache:
        A shared :class:`PoolStateCache`; pass ``None`` to get a fresh
        one, or an existing cache to share quotes across engines.
    """

    def __init__(self, cache: PoolStateCache | None = None):
        self.cache = cache if cache is not None else PoolStateCache()
        # Universes hold strong references to every candidate loop (and
        # hence every pool) of a topology, so the memo is bounded: a
        # long-lived engine fed many distinct snapshots evicts the
        # least recently used topology instead of pinning them all.
        self._universes: OrderedDict[tuple, LoopUniverse] = OrderedDict()
        self._max_universes = 8

    def __repr__(self) -> str:
        return f"EvaluationEngine(cache={self.cache!r})"

    # ------------------------------------------------------------------
    # evaluation entry points
    # ------------------------------------------------------------------

    def evaluate(
        self, strategy: Strategy, loop: ArbitrageLoop, prices: PriceMap
    ) -> StrategyResult:
        """One evaluation through the shared cache."""
        return strategy.evaluate_cached(loop, prices, self.cache)

    def evaluate_strategy(
        self,
        strategy: Strategy,
        loops: Sequence[ArbitrageLoop],
        prices: PriceMap,
    ) -> list[StrategyResult]:
        """One strategy over many loops at one price map
        (:meth:`evaluate_loops` with one label)."""
        return self.evaluate_loops({strategy.name: strategy}, loops, prices)[
            strategy.name
        ]

    def evaluate_loops(
        self,
        strategies: Mapping[str, Strategy],
        loops: Sequence[ArbitrageLoop],
        prices: PriceMap,
    ) -> dict[str, list[StrategyResult]]:
        """Several labeled strategies over many loops at one price map.

        Every label scores through one
        :class:`~repro.market.BatchEvaluator` over ``loops`` (arrays
        and compiled hop matrices built once).  Loops under a
        fixed-start strategy (any solver method, weighted and
        stableswap hops included) take the batch kernels; the rest —
        other strategies, and groups below the evaluator's
        ``min_batch`` — evaluate scalar through the shared cache, with
        identical numbers either way.
        """
        from ..market import BatchEvaluator

        with trace.span(
            "engine.evaluate_loops", loops=len(loops), strategies=len(strategies)
        ):
            evaluator = BatchEvaluator(loops)
            return {
                label: evaluator.evaluate_many(strategy, prices, cache=self.cache)
                for label, strategy in strategies.items()
            }

    def sweep_results(
        self,
        strategies: Mapping[str, Strategy],
        loop: ArbitrageLoop,
        base_prices: PriceMap,
        token: Token,
        grid,
    ) -> dict[str, list[StrategyResult]]:
        """Every strategy across a price grid of one token.

        Strategies :func:`~repro.market.batch_kind` admits (the exact
        Traditional, MaxPrice and MaxMax classes) take the price-grid
        kernels on every pool family; the rest — convex, subclasses,
        unknown solver methods — walk the grid point by point in
        process, through the shared cache.
        """
        from ..market import batch_kind
        from .vectorized import grid_results

        out: dict[str, list[StrategyResult]] = {}
        for label, strategy in strategies.items():
            kind = batch_kind(strategy)
            if kind is None:
                out[label] = [
                    strategy.evaluate_cached(
                        loop, base_prices.with_price(token, float(price)), self.cache
                    )
                    for price in grid
                ]
            else:
                out[label] = grid_results(
                    kind, strategy, loop, base_prices, token, grid, self.cache
                )
        return out

    # ------------------------------------------------------------------
    # loop detection
    # ------------------------------------------------------------------

    def loop_universe(
        self, pools: Iterable[Pool], length: int
    ) -> LoopUniverse:
        """Memoized :class:`LoopUniverse` for a pool topology.

        Re-enumerates only when the pool set itself changes (pools
        created or destroyed); reserve changes reuse the universe.
        """
        pool_list = list(pools)
        key = _universe_key(pool_list, length)
        universe = self._universes.get(key)
        if universe is None:
            universe = LoopUniverse(pool_list, length)
            self._universes[key] = universe
            if len(self._universes) > self._max_universes:
                self._universes.popitem(last=False)
        else:
            self._universes.move_to_end(key)
        return universe

    def find_profitable_loops(
        self, pools: Iterable[Pool], length: int, tol: float = 0.0
    ) -> list[ArbitrageLoop]:
        """Drop-in for ``find_arbitrage_loops(build_token_graph(pools),
        length)`` with topology caching."""
        return self.loop_universe(pools, length).profitable(tol)

    def count_profitable_loops(
        self, pools: Iterable[Pool], length: int, tol: float = 0.0
    ) -> int:
        return self.loop_universe(pools, length).count_profitable(tol)
