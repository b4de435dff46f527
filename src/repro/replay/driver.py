"""Block-by-block market replay with incremental invalidation.

:class:`ReplayDriver` streams a :class:`~repro.replay.MarketEventLog`
through a private copy of a :class:`~repro.data.snapshot.MarketSnapshot`
and re-runs arbitrage detection after every block.  Two modes, same
numbers:

* ``"incremental"`` (default) — the service's shard evaluator, run
  inline.  Each block's events move the private copy's pools through
  :func:`~repro.replay.apply.apply_block_events`, which pulls the dirty
  pools' rows into one column store (:class:`~repro.market.MarketArrays`).
  One :class:`~repro.service.ShardWorker` per strategy label, over that
  store and the whole loop universe, then takes the block as a
  :class:`~repro.service.BlockWork`: it re-quotes only the loops over
  moved pools (through the batch kernels), re-monetizes the loops
  dirtied only by price ticks from their stored rotation quotes, and
  leaves every other loop's profit untouched.  The report reads each
  worker's published-profit column.
* ``"full"`` — every loop re-evaluated from scratch each block on the
  scalar path, no cache.  The parity oracle: per-block reports must be
  bit-identical to incremental mode, which the property and golden
  tests assert.

The equivalence rests on two facts the engine layer already pins down:
a loop's optimal trade depends only on its pools' reserves, and its
monetized profit additionally only on its own tokens' CEX prices.  An
untouched, untick-ed loop therefore cannot change its result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from ..amm.events import MarketEvent
from ..core.types import PriceMap
from ..data.snapshot import MarketSnapshot
from ..engine import EvaluationEngine
from ..simulation.metrics import mispricing_index
from ..market import EvaluatorStats, MarketArrays
from ..service.worker import BlockWork, ShardWorker
from ..strategies.base import Strategy
from ..strategies.maxmax import MaxMaxStrategy
from ..telemetry import trace
from ..telemetry.metrics import MetricRegistry, get_registry
from .apply import apply_block_events, build_loop_indices
from .log import MarketEventLog

__all__ = ["BlockReport", "ReplayDriver", "ReplayResult"]

_MODES = ("incremental", "full")


@dataclass(frozen=True)
class BlockReport:
    """Arbitrage surface of the market at the end of one block.

    ``profit_usd`` / ``best_profit_usd`` map strategy labels to the sum
    and maximum of positive monetized profits over all candidate loops;
    ``evaluated_loops`` counts the loops whose value was recomputed this
    block — re-quoted or re-monetized — by the strategy that recomputed
    the most: the dirty set in unpruned incremental mode,
    ``total_loops`` in full mode.
    """

    block: int
    n_events: int
    dirty_pools: tuple[str, ...]
    evaluated_loops: int
    total_loops: int
    profitable_loops: int
    mispricing_index: float
    profit_usd: dict[str, float]
    best_profit_usd: dict[str, float]

    def to_dict(self) -> dict:
        """JSON-ready form (used by the golden regression fixtures)."""
        return {
            "block": self.block,
            "n_events": self.n_events,
            "dirty_pools": list(self.dirty_pools),
            "evaluated_loops": self.evaluated_loops,
            "total_loops": self.total_loops,
            "profitable_loops": self.profitable_loops,
            "mispricing_index": self.mispricing_index,
            "profit_usd": dict(self.profit_usd),
            "best_profit_usd": dict(self.best_profit_usd),
        }

    def same_numbers(self, other: "BlockReport") -> bool:
        """Exact equality of everything except ``evaluated_loops`` —
        the one field that legitimately differs between modes."""
        return (
            self.block == other.block
            and self.n_events == other.n_events
            and self.dirty_pools == other.dirty_pools
            and self.total_loops == other.total_loops
            and self.profitable_loops == other.profitable_loops
            and self.mispricing_index == other.mispricing_index
            and self.profit_usd == other.profit_usd
            and self.best_profit_usd == other.best_profit_usd
        )


@dataclass(frozen=True)
class ReplayResult:
    """A finished replay: per-block reports plus stream totals."""

    mode: str
    reports: tuple[BlockReport, ...]
    events_applied: int

    def total_profit(self, label: str) -> float:
        return sum(r.profit_usd[label] for r in self.reports)

    def evaluations(self) -> int:
        """Total loop evaluations across the replay (the work metric
        the incremental mode minimizes)."""
        return sum(r.evaluated_loops for r in self.reports)

    def mispricing_series(self) -> list[float]:
        return [r.mispricing_index for r in self.reports]

    def __repr__(self) -> str:
        return (
            f"ReplayResult({self.mode}: {len(self.reports)} blocks, "
            f"{self.events_applied} events, {self.evaluations()} evaluations)"
        )


class ReplayDriver:
    """Apply an event stream to a market copy and re-detect per block.

    Parameters
    ----------
    market:
        Starting snapshot; the driver mutates a private copy.
    strategies:
        Labeled strategies to score every candidate loop with; default
        ``{"maxmax": MaxMaxStrategy()}``.
    length:
        Candidate loop length for the universe (default 3).
    mode:
        ``"incremental"`` or ``"full"`` (see module docstring).
    engine:
        Shared :class:`~repro.engine.EvaluationEngine`; a fresh one by
        default.  The driver reads its topology-cached loop universe.
    prune:
        Incremental mode only: each worker prunes with ``top_k`` set to
        the number of loops, so its threshold is 0 on every block that
        dirties a loop (fewer loops than K are exact then).  A dirty
        loop whose profit bound and published profit are both
        non-positive keeps its published profit instead of an exact
        quote, so every report sum is unchanged; ``evaluated_loops``
        then counts only the quotes and re-monetizations that ran.
    """

    def __init__(
        self,
        market: MarketSnapshot,
        strategies: Mapping[str, Strategy] | None = None,
        length: int = 3,
        mode: str = "incremental",
        engine: EvaluationEngine | None = None,
        prune: bool = False,
    ):
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        if prune and mode != "incremental":
            raise ValueError(
                "prune=True needs incremental mode (full mode is the "
                "unpruned scalar oracle)"
            )
        self.mode = mode
        self.prune = prune
        self.market = market.copy()
        self.prices: PriceMap = market.prices
        self.strategies: dict[str, Strategy] = (
            dict(strategies) if strategies is not None else {"maxmax": MaxMaxStrategy()}
        )
        if not self.strategies:
            raise ValueError("at least one strategy is required")
        self.engine = engine if engine is not None else EvaluationEngine()
        self.length = length

        universe = self.engine.loop_universe(self.market.registry, length)
        self._loops = universe.candidates
        self._pool_loops, _ = build_loop_indices(self._loops)
        self._log_rates: list[float] = [loop.log_rate_sum() for loop in self._loops]
        # incremental mode: the column store ingest writes, and one
        # inline worker per strategy label over every loop (its
        # construction is the block-0 priming pass)
        self._store: MarketArrays | None = None
        self._workers: dict[str, ShardWorker] = {}
        if mode == "incremental":
            self._store = MarketArrays.from_registry(self.market.registry)
            top_k = max(1, len(self._loops)) if prune else None
            self._workers = {
                label: ShardWorker(
                    shard, self._store, self._loops, strategy, self.prices, top_k=top_k
                )
                for shard, (label, strategy) in enumerate(self.strategies.items())
            }
        self._block_reports: list[BlockReport] = []

    def __repr__(self) -> str:
        return (
            f"ReplayDriver({self.mode}, {len(self._loops)} candidate "
            f"loops over {len(self.market.registry)} pools)"
        )

    @property
    def total_loops(self) -> int:
        return len(self._loops)

    @property
    def reports(self) -> tuple[BlockReport, ...]:
        return tuple(self._block_reports)

    @property
    def evaluator_stats(self) -> EvaluatorStats | None:
        """Batch-evaluator counters (kernel/scalar routing, bound
        passes, pruned loops) summed over the strategy workers;
        ``None`` in full mode."""
        if not self._workers:
            return None
        counts = [worker.evaluator_stats.to_dict() for worker in self._workers.values()]
        return EvaluatorStats(
            **{name: sum(count[name] for count in counts) for name in counts[0]}
        )

    def publish_metrics(self, registry: MetricRegistry | None = None) -> MetricRegistry:
        """Mirror the driver's lifetime counters into a telemetry
        registry (the process-wide one by default): blocks replayed,
        loop evaluations, and the workers' batch-evaluator routing
        stats.  Safe to call repeatedly — mirrored totals are ``set``,
        not re-added."""
        registry = registry if registry is not None else get_registry()
        registry.counter("replay_blocks", mode=self.mode).set(len(self._block_reports))
        registry.counter("replay_evaluations", mode=self.mode).set(
            sum(r.evaluated_loops for r in self._block_reports)
        )
        stats = self.evaluator_stats
        if stats is not None:
            stats.publish(registry, layer="replay")
        return registry

    # ------------------------------------------------------------------
    # per-block evaluation
    # ------------------------------------------------------------------

    def apply_block(self, block: int, events: Iterable[MarketEvent]) -> BlockReport:
        """Apply one block's events, re-evaluate, and report.

        In incremental mode only loops whose pools moved are
        re-optimized and only loops whose tokens ticked are
        re-monetized; every other loop keeps its published profit.
        """
        events = list(events)
        with trace.span("replay.apply", block=block):
            self.prices, dirty_pools, _, n_events = apply_block_events(
                self.market.registry, self.prices, events, arrays=self._store
            )

        if self.mode == "full":
            moved: Iterable[int] = range(len(self._loops))
            with trace.span("replay.quote", block=block, loops=len(self._loops)):
                columns = {
                    label: [
                        strategy.evaluate_cached(loop, self.prices, None).monetized_profit
                        for loop in self._loops
                    ]
                    for label, strategy in self.strategies.items()
                }
            evaluated = len(self._loops)
        else:
            moved = {
                index
                for pool_id in dirty_pools
                for index in self._pool_loops.get(pool_id, ())
            }
            with trace.span("replay.quote", block=block) as sp:
                work = BlockWork.from_events(block, events, self._store)
                updates = [
                    worker.process_block(work) for worker in self._workers.values()
                ]
                evaluated = max(update.evaluated for update in updates)
                sp.set(loops=evaluated)
            columns = {
                label: worker.profits.tolist() for label, worker in self._workers.items()
            }
        for index in moved:
            self._log_rates[index] = self._loops[index].log_rate_sum()

        # Totals are always recomputed over every loop in index order,
        # as Python floats, so both modes sum identical values in an
        # identical order — bit-identical reports, not just
        # approximately equal ones (np.sum's pairwise order would not be).
        profit_usd: dict[str, float] = {}
        best_profit_usd: dict[str, float] = {}
        for label, profits in columns.items():
            total = 0.0
            best = 0.0
            for monetized in profits:
                if monetized > 0.0:
                    total += monetized
                    if monetized > best:
                        best = monetized
            profit_usd[label] = total
            best_profit_usd[label] = best

        report = BlockReport(
            block=block,
            n_events=n_events,
            dirty_pools=tuple(sorted(dirty_pools)),
            evaluated_loops=evaluated,
            total_loops=len(self._loops),
            profitable_loops=sum(1 for r in self._log_rates if r > 0.0),
            mispricing_index=mispricing_index(self.market, self.prices),
            profit_usd=profit_usd,
            best_profit_usd=best_profit_usd,
        )
        self._block_reports.append(report)
        return report

    def replay(self, log: MarketEventLog) -> ReplayResult:
        """Stream the whole log block by block.

        The result covers only this call's blocks (a driver can replay
        several logs in sequence; ``self.reports`` keeps the full
        history), so its totals and its event count stay consistent.
        """
        start = len(self._block_reports)
        events_applied = 0
        for block, events in log.iter_blocks():
            self.apply_block(block, events)
            events_applied += len(events)
        return ReplayResult(
            mode=self.mode,
            reports=tuple(self._block_reports[start:]),
            events_applied=events_applied,
        )
