"""The streaming opportunity service: ingest → shards → live book.

:class:`OpportunityService` wires the pieces of this package into one
asyncio pipeline::

    source ──► ingest/route ──► shard queues ──► shard workers ──► publish ──► OpportunityBook
               (block batch,     (bounded,        (inline tasks                 (top-K, seq'd
                backpressure      per shard)       or processes)                 subscriptions)
                or drop)

* **Ingest** groups the event stream into blocks (AMM state advances
  per block) and routes each block's events to exactly the shards
  whose loops they touch.  Queues are bounded: the default policy
  ``"block"`` applies backpressure to the source (lossless — required
  for parity with batch detection); ``"drop"`` sheds whole blocks
  atomically across shards when any target queue is full (lossy but
  cross-shard consistent — ``serve --policy drop``), counting every
  dropped event.  Ingest is also the only writer of the one column
  store every shard reads: each non-shed block's routed pool events
  move ingest's private copy of the pools, and the dirty rows are
  copied into the store before the block is dispatched — plain
  in-process :class:`~repro.market.MarketArrays` on the inline
  backend, a :class:`~repro.market.SharedMarketArrays`
  segment under a single-writer seqlock on the process backend.  A
  price tick that is not finite or is negative stops the run with
  :class:`~repro.core.errors.InvalidPriceError` before its block is
  written or dispatched: shards take tick prices as given.  So does an
  event whose block is below the current one, with
  :class:`~repro.core.errors.EventOrderError`.
* **Shards** map each block's dirty store rows and ticked tokens to
  their slice of the loop universe and re-evaluate only those loops —
  tick-only loops re-monetized from stored rotation quotes, the rest
  re-quoted, bound-pruned against the shard's own top K when pruning
  is on (see :mod:`repro.service.worker`) — either inline on the event
  loop or in long-lived child processes (``backend="process"``) for
  multi-core throughput.
* **Publish** applies each shard's updates to the
  :class:`~repro.service.book.OpportunityBook` as a sequenced delta
  and records per-stage latencies into :class:`ServiceMetrics`.

On a quiesced stream (source exhausted, queues drained) the book is
bit-identical to batch-evaluating every candidate loop against the
final market state — the integration and property tests assert this
for both backends and any shard count.
"""

from __future__ import annotations

import asyncio
import logging
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import AsyncIterator

from ..amm.events import BurnEvent, MarketEvent, MintEvent, PriceTickEvent, SwapEvent
from ..core.errors import EventOrderError, InvalidPriceError
from ..core.types import is_valid_price
from ..data.snapshot import MarketSnapshot
from ..engine import EvaluationEngine
from ..market import MarketArrays, SharedMarketArrays
from ..replay.apply import apply_block_events
from ..strategies.base import Strategy
from ..strategies.maxmax import MaxMaxStrategy
from ..telemetry import trace
from ..telemetry.memory import peak_rss_bytes
from ..telemetry.metrics import MetricRegistry, get_registry
from .book import BookSnapshot, Opportunity, OpportunityBook
from .metrics import ServiceMetrics
from .sharding import ShardPlan
from .worker import BlockWork, ProcessShardPool, ShardUpdate, ShardWorker

__all__ = ["OpportunityService", "ServiceReport", "batch_detect_ranking"]

logger = logging.getLogger("repro.service.pipeline")

#: Seconds between samples of the per-shard queue-depth and
#: event-loop-lag gauges while a run is live.
GAUGE_SAMPLE_INTERVAL_S = 0.05


def batch_detect_ranking(
    market: MarketSnapshot,
    events,
    length: int = 3,
    strategy: Strategy | None = None,
) -> list[tuple[float, str]]:
    """The quiesced-service oracle: apply ``events`` to a copy of
    ``market``, batch-evaluate every candidate loop against the final
    state, and rank the profitable ones in the book's total order.

    A drained :class:`OpportunityService` must produce exactly this
    list — ``[(o.profit_usd, o.loop_id) for o in report.book.entries]``
    — bit for bit.  The integration/property tests, the throughput
    benchmark, and the example all assert against this one definition.
    """
    from ..engine.core import LoopUniverse
    from ..replay.apply import apply_event
    from .book import opportunity_sort_key

    strategy = strategy if strategy is not None else MaxMaxStrategy()
    copy = market.copy()
    prices = copy.prices
    dirty_pools: set = set()
    dirty_tokens: set = set()
    for event in events:
        prices = apply_event(
            copy.registry, prices, event, dirty_pools, dirty_tokens
        )
    scored = [
        (result.monetized_profit, loop.canonical_id)
        for loop in LoopUniverse(copy.registry, length).candidates
        for result in [strategy.evaluate(loop, prices)]
        if result.monetized_profit > 0.0
    ]
    return sorted(scored, key=lambda pair: opportunity_sort_key(*pair))

_BACKENDS = ("inline", "process")
_POLICIES = ("block", "drop")


@dataclass(frozen=True)
class ServiceReport:
    """Summary of one service run (quiesced stream)."""

    duration_s: float
    events_ingested: int
    events_dropped: int
    blocks_ingested: int
    blocks_dropped: int
    evaluations: int
    n_shards: int
    backend: str
    loops_per_shard: tuple[int, ...]
    book: BookSnapshot
    metrics: dict
    loops_pruned: int = 0
    #: How many of ``evaluations`` were tick-only loops re-monetized
    #: from their stored rotation quotes (no bound, no solve).
    loops_remonetized: int = 0
    #: Kept entries re-valued outside their block's dirty set because
    #: their shard's threshold fell (not part of ``evaluations``).
    loops_restored: int = 0
    #: Memory accounting: the column store (held once), per-shard
    #: private column and handle bytes, and RSS high-water marks (see
    #: ``OpportunityService._memory_report``).
    memory: dict = field(default_factory=dict)

    @property
    def events_per_s(self) -> float:
        applied = self.events_ingested - self.events_dropped
        return applied / self.duration_s if self.duration_s > 0 else 0.0

    def top(self, k: int) -> tuple[Opportunity, ...]:
        return self.book.top(k)

    def to_dict(self) -> dict:
        return {
            "duration_s": self.duration_s,
            "events_ingested": self.events_ingested,
            "events_dropped": self.events_dropped,
            "blocks_ingested": self.blocks_ingested,
            "blocks_dropped": self.blocks_dropped,
            "events_per_s": self.events_per_s,
            "evaluations": self.evaluations,
            "loops_pruned": self.loops_pruned,
            "loops_remonetized": self.loops_remonetized,
            "loops_restored": self.loops_restored,
            "n_shards": self.n_shards,
            "backend": self.backend,
            "loops_per_shard": list(self.loops_per_shard),
            "book_seq": self.book.seq,
            "profitable_loops": len(self.book.entries),
            "memory": self.memory,
            "metrics": self.metrics,
        }


class OpportunityService:
    """Sharded streaming arbitrage detection over a live event stream.

    Parameters
    ----------
    market:
        Starting snapshot; ingest keeps one private copy of its pools,
        from which the column store is built and refreshed (the
        snapshot itself is never mutated).
    n_shards:
        Number of shard workers; pools (and hence loops) are
        partitioned deterministically across them.
    length:
        Candidate loop length for the universe (default 3).
    strategy:
        The scoring strategy for the book; default MaxMax.
    backend:
        ``"inline"`` (shards as asyncio tasks reading one in-process
        column store, default) or ``"process"`` (one child process per
        shard — multi-core — each mapping one shared-memory segment).
        Either way shards hold only reserve-less pool handles, and a
        shard may quote *fresher* state than the block that dirtied a
        loop when ingest has already written later blocks (never torn
        state — the seqlock retries those reads), so per-run pruning
        counters can depend on timing; the quiesced book cannot.
    queue_size:
        Bound of every inter-stage queue.
    ingest_policy:
        ``"block"`` (backpressure, lossless) or ``"drop"`` (shed whole
        blocks under overload, counted).
    metrics:
        A :class:`ServiceMetrics` registry; fresh one by default.
    prune_top_k:
        When set, enable bound-based re-quote pruning: every shard
        worker takes it as its ``top_k`` and prunes against the K-th
        exact profit of its own loops, skipping the exact quote for
        dirty loops whose profit upper bound *and* currently published
        profit both sit below it (and republishing a re-monetized loop
        only when its new or published value reaches it), then
        restoring any kept entry its falling threshold no longer
        covers.  The top-``prune_top_k`` book is then identical to the
        unpruned run after every block each shard has processed;
        entries below rank K may retain stale (provably sub-threshold)
        values.  Each shard ranks only its own slice, so more shards
        prune less.  ``None`` (default) disables pruning — the
        full-book parity mode, in which every dirty loop is
        published.
    shared:
        Not a setting: whether the store is a shared-memory segment
        follows from ``backend``.  ``None`` (default) accepts that; an
        explicit value must agree with it (``True`` exactly for
        ``"process"``), otherwise ``ValueError``.
    start_method:
        Multiprocessing start method for the process backend
        (``"fork"``, ``"spawn"``, ``"forkserver"``; ``None`` =
        platform default).
    """

    def __init__(
        self,
        market: MarketSnapshot,
        *,
        n_shards: int = 1,
        length: int = 3,
        strategy: Strategy | None = None,
        backend: str = "inline",
        queue_size: int = 64,
        ingest_policy: str = "block",
        metrics: ServiceMetrics | None = None,
        engine: EvaluationEngine | None = None,
        prune_top_k: int | None = None,
        shared: bool | None = None,
        start_method: str | None = None,
    ):
        if backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {_BACKENDS}, got {backend!r}")
        if shared is not None and bool(shared) != (backend == "process"):
            raise ValueError(
                f"shared={shared!r} contradicts backend={backend!r}: the "
                "process backend always shares one memory segment and the "
                "inline backend never does"
            )
        if ingest_policy not in _POLICIES:
            raise ValueError(
                f"ingest_policy must be one of {_POLICIES}, got {ingest_policy!r}"
            )
        if queue_size < 1:
            raise ValueError(f"queue_size must be >= 1, got {queue_size}")
        if prune_top_k is not None and prune_top_k < 1:
            raise ValueError(f"prune_top_k must be >= 1, got {prune_top_k}")
        self.backend = backend
        self.ingest_policy = ingest_policy
        self.queue_size = queue_size
        self.strategy = strategy if strategy is not None else MaxMaxStrategy()
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.engine = engine if engine is not None else EvaluationEngine()
        self.start_method = start_method

        universe = self.engine.loop_universe(market.registry, length)
        self.plan = ShardPlan(
            [pool.pool_id for pool in market.registry],
            universe.candidates,
            n_shards,
        )
        # ingest's private pool copy (the events move these objects)
        # and the one column store for the whole market, written only
        # by ingest from them: a segment each shard process maps through
        # its own zero-copy view, or in-process columns the inline
        # shards read directly — no per-shard market copies anywhere
        self._market = market.copy()
        self._segment: SharedMarketArrays | None = None
        if backend == "process":
            self._segment = SharedMarketArrays(self._market.registry)
            self._store: MarketArrays = self._segment
        else:
            self._store = MarketArrays.from_registry(self._market.registry)
        self.workers = [
            ShardWorker(
                shard,
                self._segment.view() if self._segment is not None else self._store,
                [universe.candidates[i] for i in self.plan.shard_loops[shard]],
                self.strategy,
                market.prices,
                top_k=prune_top_k,
            )
            for shard in range(n_shards)
        ]
        self.book = OpportunityBook()
        for worker in self.workers:
            self.book.apply(-1, worker.shard_id, worker.initial_entries())
        self._process_spent = False
        # the in-flight run's metric window, exposed so a live scrape
        # (--metrics-port) sees this run's numbers before they are
        # merged into the cumulative registry at quiescence
        self._window: ServiceMetrics | None = None

    def _write_block(self, events, block: int) -> int:
        """Write one (non-shed) block's routed pool events to the store;
        return the committed seqlock epoch (0 in-process).

        The single-writer half of the store protocol, the replay
        driver's write path: the events move ingest's private pool
        objects through :func:`~repro.replay.apply.apply_block_events`
        (an invalid event raises there, before the store is touched),
        then :meth:`~repro.market.MarketArrays.pull` copies the dirty
        rows in — on a segment the only step run with the epoch odd.
        Only events that route to at least one shard are applied: a
        pool no loop crosses never changes.
        """
        writes = [
            event
            for event in events
            if isinstance(event, (SwapEvent, MintEvent, BurnEvent))
            and self.plan.shards_for_pool(event.pool_id)
        ]
        segment = self._segment
        if writes:
            with trace.span("ingest.shm_write", block=block, events=len(writes)):
                # writes hold no price ticks: the prices pass through
                _, dirty, _, _ = apply_block_events(
                    self._market.registry, self._market.prices, writes
                )
                with segment.write_block() if segment is not None else nullcontext():
                    self._store.pull(self._market.registry, dirty)
        return segment.epoch if segment is not None else 0

    def _memory_report(self, window: ServiceMetrics) -> dict:
        """The report's ``memory`` block: the column store's bytes (held
        once, whatever the shard count), what each shard holds on top —
        private column bytes (zero) and reserve-less handle bytes — and
        RSS high-water marks (observational: RSS includes the whole
        interpreter)."""
        segment = self._segment
        return {
            "segment_name": segment.segment_name if segment is not None else None,
            "store_nbytes": self._store.nbytes,
            "shard_private_column_bytes": [
                worker.private_column_nbytes for worker in self.workers
            ],
            "shard_handle_bytes": [worker.handle_nbytes for worker in self.workers],
            "shard_rss_bytes_max": {
                name: int(value)
                for name, value in window.gauges.items()
                if name.endswith("rss_bytes_max")
            },
            "parent_rss_bytes_max": peak_rss_bytes(),
        }

    def close(self) -> None:
        """Release shared-memory state: detach every worker view and
        unlink the segment (idempotent; a no-op on the inline backend).
        The process backend calls this automatically from the pool's
        cleanup path — and a leaked segment is still swept by the
        module's ``atexit`` guard and, ultimately, the stdlib resource
        tracker."""
        if self._segment is None:
            return
        for worker in self.workers:
            worker.close()
        self._segment.unlink()

    @property
    def n_shards(self) -> int:
        return len(self.workers)

    @property
    def total_loops(self) -> int:
        return sum(len(worker.loops) for worker in self.workers)

    def __repr__(self) -> str:
        return (
            f"OpportunityService({self.n_shards} shards, {self.backend}, "
            f"{self.total_loops} loops, book seq {self.book.seq})"
        )

    # ------------------------------------------------------------------
    # pipeline stages
    # ------------------------------------------------------------------

    async def _ingest(
        self,
        source: AsyncIterator[MarketEvent],
        shard_queues: list[asyncio.Queue],
        metrics: ServiceMetrics,
    ) -> None:
        """Group the stream into blocks, route, enqueue (or shed).

        Blocks must not decrease within one run: an event for an
        earlier block raises :class:`EventOrderError` before its block
        is written or dispatched."""
        current_block: int | None = None
        buffer: list[MarketEvent] = []

        async def flush() -> None:
            if current_block is None:
                return
            t_ingest = time.perf_counter()
            metrics.inc("blocks_ingested")
            with trace.span(
                "ingest.block", block=current_block, events=len(buffer)
            ) as sp:
                await route_and_dispatch(t_ingest, sp)

        async def route_and_dispatch(t_ingest: float, sp) -> None:
            for event in buffer:
                # shards trust tick prices (they write them straight
                # into their price vectors), so a bad one stops the run
                # here, before the block is written or dispatched
                if isinstance(event, PriceTickEvent) and not is_valid_price(
                    event.price
                ):
                    raise InvalidPriceError(
                        f"price tick for {event.token} in block "
                        f"{event.block} must be finite and >= 0, got "
                        f"{event.price}"
                    )
            routed = self.plan.route_block(buffer)
            if not routed:
                return  # block touched nothing any shard evaluates
            if self.ingest_policy == "drop" and any(
                shard_queues[shard].full() for shard in routed
            ):
                # shed the whole block atomically: every shard skips the
                # same events, so cross-shard state stays consistent
                metrics.inc("blocks_dropped")
                metrics.inc("events_dropped", len(buffer))
                sp.set(shed=True)
                logger.warning(
                    "shed block %d (%d events): shard queue full under "
                    "drop policy",
                    current_block,
                    len(buffer),
                )
                return
            epoch = self._write_block(buffer, current_block)
            for shard, events in routed.items():
                queue = shard_queues[shard]
                metrics.observe_gauge_max("shard_queue_depth_max", queue.qsize())
                work = BlockWork.from_events(
                    current_block,
                    events,
                    self._store,
                    epoch=epoch,
                    t_ingest=t_ingest,
                )
                t0 = time.perf_counter()
                await queue.put(work)
                metrics.latency("ingest_backpressure").observe(
                    time.perf_counter() - t0
                )

        async for event in source:
            metrics.inc("events_ingested")
            if current_block is None:
                current_block = event.block
            elif event.block != current_block:
                if event.block < current_block:
                    raise EventOrderError(
                        f"event for block {event.block} arrived after block "
                        f"{current_block}; streams are block-ordered"
                    )
                await flush()
                buffer = []
                current_block = event.block
            buffer.append(event)
        await flush()
        for queue in shard_queues:
            await queue.put(None)  # per-shard end-of-stream sentinel

    async def _inline_shard(
        self,
        worker: ShardWorker,
        in_queue: asyncio.Queue,
        out_queue: asyncio.Queue,
    ) -> None:
        """Inline backend: evaluate on the event loop, one block a time."""
        while True:
            work = await in_queue.get()
            if work is None:
                # inline shards record spans straight into the process
                # tracer, so the done message ships an empty span list
                await out_queue.put(
                    ("done", (worker.shard_id, worker.stats_snapshot(), []))
                )
                return
            update = worker.process_block(work)
            await out_queue.put(("update", update))
            # cooperative yield so ingest/publish interleave between blocks
            await asyncio.sleep(0)

    async def _process_feeder(
        self, shard: int, in_queue: asyncio.Queue, pool: ProcessShardPool
    ) -> None:
        """Process backend: forward the bounded asyncio queue into the
        shard's (equally bounded) IPC queue off-loop."""
        loop = asyncio.get_running_loop()
        while True:
            work = await in_queue.get()
            if work is None:
                await loop.run_in_executor(None, pool.finish, shard)
                return
            await loop.run_in_executor(None, pool.submit, shard, work)

    async def _process_collector(
        self, pool: ProcessShardPool, out_queue: asyncio.Queue
    ) -> None:
        """Forward child results into the publish stage until every
        shard has acknowledged its sentinel."""
        loop = asyncio.get_running_loop()
        done = 0
        while done < len(pool):
            kind, payload = await loop.run_in_executor(None, pool.next_message)
            if kind == "done":
                done += 1
                await out_queue.put(("done", payload))
            elif kind == "error":
                shard, tb = payload
                raise RuntimeError(f"shard {shard} worker failed:\n{tb}")
            else:
                await out_queue.put((kind, payload))

    async def _publish(
        self,
        out_queue: asyncio.Queue,
        metrics: ServiceMetrics,
    ) -> None:
        """Apply shard updates to the book and record latencies."""
        remaining = self.n_shards
        while remaining:
            kind, payload = await out_queue.get()
            if kind == "done":
                shard_id, stats, shard_spans = payload
                # per-shard evaluator routing/pruning counters (lifetime
                # totals — the worker's stats are never reset) surfaced
                # as gauges so reports show where the quotes went
                for name, value in stats.items():
                    metrics.set_gauge(f"shard{shard_id}_{name}", float(value))
                if shard_spans:
                    # spans recorded inside a shard child process: merge
                    # them into the parent tracer on the shard's display
                    # lane (tid 0 is the parent pipeline itself)
                    trace.ingest(shard_spans, tid=shard_id + 1)
                remaining -= 1
                continue
            update: ShardUpdate = payload
            t_publish = time.perf_counter()
            with trace.span(
                "publish.book",
                shard=update.shard,
                block=update.block,
                entries=len(update.entries),
            ):
                self.book.apply(update.block, update.shard, update.entries)
            metrics.inc("updates_published")
            metrics.inc("evaluations", update.evaluated)
            metrics.inc("loops_pruned", update.pruned)
            metrics.inc("loops_remonetized", update.remonetized)
            metrics.inc("loops_restored", update.restored)
            # seqlock retry accounting (zero in-process; zero-valued
            # incs still materialize the counters for every report)
            metrics.inc("shm_epoch_waits", update.shm_epoch_waits)
            metrics.inc("shm_torn_retries", update.shm_torn_retries)
            metrics.latency("shard_eval").observe(update.eval_s)
            metrics.latency("dispatch_wait").observe(
                max(0.0, update.t_dispatch - update.t_ingest)
            )
            metrics.latency("end_to_end").observe(
                max(0.0, t_publish - update.t_ingest)
            )
        self.book.close()

    async def _sample_gauges(
        self,
        shard_queues: list[asyncio.Queue],
        metrics: ServiceMetrics,
        interval_s: float = GAUGE_SAMPLE_INTERVAL_S,
    ) -> None:
        """Timer-driven gauges: per-shard queue depth and event-loop
        lag (how late the timer itself fires — the scheduling delay
        every coroutine on this loop is experiencing).  Runs until
        cancelled at quiescence; the ``*_max`` variants survive the
        run-end merge as high-water marks."""
        registry = metrics.registry
        loop = asyncio.get_running_loop()
        while True:
            t0 = loop.time()
            await asyncio.sleep(interval_s)
            lag_ms = max(0.0, loop.time() - t0 - interval_s) * 1e3
            registry.gauge("event_loop_lag_ms").set(lag_ms)
            registry.gauge("event_loop_lag_ms_max").max(lag_ms)
            for shard, queue in enumerate(shard_queues):
                depth = queue.qsize()
                registry.gauge("shard_queue_depth", shard=shard).set(depth)
                metrics.observe_gauge_max("shard_queue_depth_max", depth)

    def scrape_registry(self) -> MetricRegistry:
        """A merged snapshot for live exporters (``--metrics-port``):
        the process-wide registry (engine/evaluator publishes), the
        service's cumulative run history, and — while a run is in
        flight — its live window.  Inline-backend evaluator routing
        counters are synced in at scrape time; process-backend shards
        report theirs in their done message instead."""
        merged = MetricRegistry()
        merged.merge(get_registry())
        merged.merge(self.metrics.registry)
        window = self._window
        if window is not None:
            merged.merge(window.registry)
        if self.backend == "inline":
            for worker in self.workers:
                worker.evaluator_stats.publish(merged, shard=worker.shard_id)
        return merged

    @staticmethod
    async def _gather(*coros) -> None:
        """``asyncio.gather`` that actually tears the pipeline down on
        failure: a raising stage cancels its siblings instead of
        leaving them blocked on queues forever."""
        tasks = [asyncio.ensure_future(coro) for coro in coros]
        try:
            await asyncio.gather(*tasks)
        except BaseException:
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            raise

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------

    async def run(self, source: AsyncIterator[MarketEvent]) -> ServiceReport:
        """Consume ``source`` to exhaustion and return the quiesced report.

        The service can be run repeatedly with consecutive sources
        (shard state carries over, like a driver replaying several
        logs); each call drains fully before returning.
        """
        shard_queues = [
            asyncio.Queue(maxsize=self.queue_size) for _ in range(self.n_shards)
        ]
        out_queue: asyncio.Queue = asyncio.Queue(maxsize=self.queue_size)
        # each run records into a fresh window, merged into the
        # cumulative self.metrics at the end — so a report's counters
        # AND latency quantiles are per-run, never mixed across runs
        window = ServiceMetrics()
        self._window = window
        # a previous run closed the delta stream at quiescence; anyone
        # who subscribed since must see this run's deltas, not a
        # premature end-of-stream
        self.book.reopen()
        sampler = asyncio.ensure_future(
            self._sample_gauges(shard_queues, window)
        )
        t_start = time.perf_counter()
        try:
            if self.backend == "process":
                if self._process_spent:
                    raise RuntimeError(
                        "a process-backed service is single-shot: the shard "
                        "processes (and their advanced state) are gone after "
                        "run(); build a new service for another stream"
                    )
                self._process_spent = True
                pool = ProcessShardPool(
                    self.workers,
                    maxsize=self.queue_size,
                    start_method=self.start_method,
                    # a process-backed service is single-shot, so the
                    # segment can be unlinked as soon as the pool winds
                    # down — on *every* exit path, including errors and
                    # KeyboardInterrupt, which is what keeps /dev/shm
                    # clean after killed runs
                    cleanup=self.close,
                )
                pool.start()
                try:
                    await self._gather(
                        self._ingest(source, shard_queues, window),
                        *(
                            self._process_feeder(shard, shard_queues[shard], pool)
                            for shard in range(self.n_shards)
                        ),
                        self._process_collector(pool, out_queue),
                        self._publish(out_queue, window),
                    )
                finally:
                    pool.close()
            else:
                await self._gather(
                    self._ingest(source, shard_queues, window),
                    *(
                        self._inline_shard(
                            self.workers[shard], shard_queues[shard], out_queue
                        )
                        for shard in range(self.n_shards)
                    ),
                    self._publish(out_queue, window),
                )
        finally:
            sampler.cancel()
            await asyncio.gather(sampler, return_exceptions=True)
        duration = time.perf_counter() - t_start

        counters = window.counters
        window.set_gauge("events_per_s", (
            (counters.get("events_ingested", 0) - counters.get("events_dropped", 0))
            / duration
            if duration > 0 else 0.0
        ))
        self.metrics.merge(window)
        self._window = None  # merged above: scrapes read self.metrics now
        return ServiceReport(
            duration_s=duration,
            events_ingested=counters.get("events_ingested", 0),
            events_dropped=counters.get("events_dropped", 0),
            blocks_ingested=counters.get("blocks_ingested", 0),
            blocks_dropped=counters.get("blocks_dropped", 0),
            evaluations=counters.get("evaluations", 0),
            loops_pruned=counters.get("loops_pruned", 0),
            loops_remonetized=counters.get("loops_remonetized", 0),
            loops_restored=counters.get("loops_restored", 0),
            n_shards=self.n_shards,
            backend=self.backend,
            loops_per_shard=self.plan.loops_per_shard(),
            book=self.book.snapshot(),
            metrics=window.to_dict(),
            memory=self._memory_report(window),
        )
