"""The batched evaluation engine: one pipeline for loops × strategies
× price scenarios.

:class:`EvaluationEngine` is the single entry point every consumer —
price sweeps, scatter figures, harvesting, the simulation engine, the
CLI — routes through.  It composes three independent accelerations:

* a reserve-keyed :class:`~repro.engine.cache.PoolStateCache`, so
  repeated evaluations of unchanged loops (across strategies, rounds,
  or price points) pay for the optimization once;
* the cross-loop batch kernels (:mod:`repro.market`): loops-at-one-
  price-map calls compile *every* loop — constant-product, weighted
  and stableswap alike, on any of the three fixed-start solvers —
  into hop-index matrices over columnar reserves and quote them per
  rotation in one vectorized pass (closed form for CPMM groups,
  batched chain-rule/iterative solvers otherwise), with scalar
  fallback only for non-batchable strategies and tiny slices;
* the price-grid kernels (:mod:`repro.engine.vectorized`): one loop
  swept across a price grid quotes each rotation once and monetizes
  the whole grid in one array pass, on every pool family.  Strategies
  without a kernel (convex, subclasses) walk the grid point by point,
  optionally fanned over worker processes (``jobs=``).

Both kernel routes serve exactly the strategies
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

import math
import multiprocessing
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from itertools import repeat
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

#: Loop batches below this size skip building a batch evaluator: the
#: compile + numpy dispatch overhead only pays for itself across tens
#: of loops.
_MIN_BATCH_LOOPS = 16

#: A parallel grid walk splits its points into about this many
#: contiguous chunks per worker, so a worker that drew cheap points
#: picks up more instead of idling behind a slow one.
_CHUNKS_PER_JOB = 4


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


def _walk_points(
    strategies: Mapping[str, Strategy],
    loop: ArbitrageLoop,
    price_maps: Sequence[PriceMap],
    cache: PoolStateCache | None = None,
) -> dict[str, list[StrategyResult]]:
    """Each strategy at each price map, point by point.  Process-pool
    workers call it without ``cache`` and quote through a chunk-local
    one."""
    cache = cache if cache is not None else PoolStateCache()
    return {
        label: [
            strategy.evaluate_cached(loop, prices, cache) for prices in price_maps
        ]
        for label, strategy in strategies.items()
    }


class EvaluationEngine:
    """Batched strategy evaluation with a shared rotation cache, the
    cross-loop batch kernels and the price-grid kernels.

    Parameters
    ----------
    cache:
        A shared :class:`PoolStateCache`; pass ``None`` to get a fresh
        one, or an existing cache to share quotes across engines.
    vectorize:
        When True (default) loop batches and price sweeps take the
        kernels for every strategy :func:`~repro.market.batch_kind`
        admits; when False everything is evaluated scalar through the
        cache — useful for benchmarking and as a correctness oracle.
    """

    def __init__(
        self,
        cache: PoolStateCache | None = None,
        vectorize: bool = True,
    ):
        self.cache = cache if cache is not None else PoolStateCache()
        self.vectorize = vectorize
        # Universes hold strong references to every candidate loop (and
        # hence every pool) of a topology, so the memo is bounded: a
        # long-lived engine fed many distinct snapshots evicts the
        # least recently used topology instead of pinning them all.
        self._universes: OrderedDict[tuple, LoopUniverse] = OrderedDict()
        self._max_universes = 8
        # Batch evaluators memoized like universes: compiled hop
        # matrices are reserve-independent, so iterative consumers
        # (harvest rounds re-scoring a universe's filtered sub-lists)
        # pay compilation once and only refresh the reserve columns.
        self._batch_evaluators: OrderedDict[int, "object"] = OrderedDict()
        self._max_batch_evaluators = 4
        self._batch_evaluator_counter = 0

    def __repr__(self) -> str:
        return (
            f"EvaluationEngine(vectorize={self.vectorize}, cache={self.cache!r})"
        )

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

        Loops under a fixed-start strategy (any solver method, weighted
        and stableswap hops included) take the cross-loop batch
        kernels; everything else — and everything when
        ``vectorize=False`` — evaluates scalar, with identical numbers
        either way.  The batch evaluator (arrays + compiled hop
        matrices) is built once and shared across all labels.
        """
        with trace.span(
            "engine.evaluate_loops", loops=len(loops), strategies=len(strategies)
        ):
            picked = self._batch_evaluator(strategies.values(), loops)
            if picked is not None:
                evaluator, indices = picked
                return {
                    label: evaluator.evaluate_many(
                        strategy, prices, indices=indices, cache=self.cache
                    )
                    for label, strategy in strategies.items()
                }
            return {
                label: strategy.evaluate_many(loops, prices, cache=self.cache)
                for label, strategy in strategies.items()
            }

    def _batch_evaluator(self, strategies, loops):
        """``(evaluator, indices)`` routing ``loops`` through the batch
        kernel, or ``None`` when the batch path cannot win
        (vectorization off, batch too small, or no batchable strategy
        in the mix).

        A memoized evaluator whose compiled loop set covers every
        requested loop (by object identity — e.g. a universe's filtered
        sub-list on a later harvest round) is reused after a reserve
        refresh; otherwise a fresh one is compiled and memoized.
        ``indices`` maps the request onto the evaluator's positions
        (``None`` means "all, in order" for a fresh build).
        """
        if not self.vectorize or len(loops) < _MIN_BATCH_LOOPS:
            return None
        from ..market import BatchEvaluator, batch_kind

        if all(batch_kind(strategy) is None for strategy in strategies):
            return None
        for key in reversed(self._batch_evaluators):
            evaluator = self._batch_evaluators[key]
            indices = evaluator.positions_for(loops)
            if indices is not None:
                self._batch_evaluators.move_to_end(key)
                evaluator.refresh()
                return evaluator, indices
        evaluator = BatchEvaluator(loops)
        self._batch_evaluator_counter += 1
        self._batch_evaluators[self._batch_evaluator_counter] = evaluator
        if len(self._batch_evaluators) > self._max_batch_evaluators:
            self._batch_evaluators.popitem(last=False)
        return evaluator, None

    def sweep_results(
        self,
        strategies: Mapping[str, Strategy],
        loop: ArbitrageLoop,
        base_prices: PriceMap,
        token: Token,
        grid,
        jobs: int = 1,
    ) -> dict[str, list[StrategyResult]]:
        """Every strategy across a price grid of one token.

        Strategies :func:`~repro.market.batch_kind` admits (the exact
        Traditional, MaxPrice and MaxMax classes) take the price-grid
        kernels on every pool family; the rest — convex, subclasses,
        unknown solver methods, and everything when
        ``vectorize=False`` — walk the grid point by point.  ``jobs``
        worker processes share the walk in contiguous chunks of grid
        points, reassembled in grid order; only the wall-clock time
        depends on it.
        """
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        from ..market import batch_kind
        from .vectorized import grid_results

        out: dict[str, list[StrategyResult]] = {}
        walked: dict[str, Strategy] = {}
        for label, strategy in strategies.items():
            kind = batch_kind(strategy) if self.vectorize else None
            if kind is None:
                walked[label] = strategy
            else:
                out[label] = grid_results(
                    kind, strategy, loop, base_prices, token, grid, self.cache
                )
        if walked:
            price_maps = [
                base_prices.with_price(token, float(price)) for price in grid
            ]
            out.update(self._walk(walked, loop, price_maps, jobs))
        # preserve the caller's label order
        return {label: out[label] for label in strategies}

    def _walk(
        self,
        strategies: Mapping[str, Strategy],
        loop: ArbitrageLoop,
        price_maps: Sequence[PriceMap],
        jobs: int,
    ) -> dict[str, list[StrategyResult]]:
        """Each strategy at each price map — in process through the
        shared cache, or over a process pool when ``jobs > 1``.

        The pool's ``map`` yields chunk results in submission order
        whatever order the workers finish in, so the concatenation is
        in grid order.  Workers start by ``spawn`` (numpy's BLAS threads
        make forking this process unsafe) from a fresh import and get
        everything they need in the chunk arguments; each chunk quotes
        through its own :class:`PoolStateCache`.
        """
        size = max(1, math.ceil(len(price_maps) / (jobs * _CHUNKS_PER_JOB)))
        chunks = [
            price_maps[i : i + size] for i in range(0, len(price_maps), size)
        ]
        workers = min(jobs, len(chunks))
        if workers <= 1:
            return _walk_points(strategies, loop, price_maps, self.cache)
        out: dict[str, list[StrategyResult]] = {label: [] for label in strategies}
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("spawn")
        ) as pool:
            for part in pool.map(
                _walk_points, repeat(strategies), repeat(loop), chunks
            ):
                for label, results in part.items():
                    out[label].extend(results)
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
