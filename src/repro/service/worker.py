"""Per-shard evaluation state and the process-shard host.

A :class:`ShardWorker` is the service's unit of parallelism.  It reads
the one column store the ingest stage writes — plain in-process
:class:`~repro.market.MarketArrays` on the inline backend, a
:class:`~repro.market.SharedMarketView` of the shared-memory segment
on the process backend — and holds no reserve state of its own: its
loops are rebound onto reserve-less :class:`~repro.market.PoolHandle`
stand-ins and compiled against the store once.  Per block it

1. syncs to the block (on a segment, waits for the block's seqlock
   epoch),
2. maps the block's dirty store rows and ticked tokens to its loops,
3. bound-prunes the dirty loops against the book's threshold, and
4. quotes the rest through :class:`~repro.market.BatchEvaluator`.

Quotes route through the batch kernels, except dirty slices below the
evaluator's ``min_batch`` and scalar-only strategies (convex), which
take the scalar route on pool objects materialised on demand from the
current column rows.  Every bound and quote pass runs inside one read
bracket — :meth:`~repro.market.SharedMarketView.read_consistent` on a
segment, which discards and retries passes the writer committed
underneath; a direct call on in-process columns, which ingest only
writes between shard passes.  The segment's seqlock (that bracket plus
the epoch wait of step 1) is the only difference between the two
backends.

Workers are plain synchronous objects, so the pipeline can run them

* **inline** — called directly from an asyncio task (deterministic,
  zero IPC; the default and the test configuration), or
* **in a process** — :class:`ProcessShardPool` moves the worker into a
  long-lived child process fed over queues, which is what buys real
  multi-core throughput (each shard burns its own interpreter).

Either way the per-block work item is :class:`BlockWork` — (block id,
epoch, dirty row indices, price ticks) — so nothing resembling market
state crosses the process boundary after construction.
"""

from __future__ import annotations

import multiprocessing as mp
import sys
import time
import traceback
from dataclasses import dataclass
from queue import Empty, Full
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from ..amm.events import BurnEvent, MarketEvent, MintEvent, PriceTickEvent, SwapEvent
from ..core.types import Token
from ..market import (
    BatchEvaluator,
    MarketArrays,
    SharedMarketView,
    below_threshold,
    pool_handles,
)
from ..replay.apply import build_loop_indices, rebind_loops
from ..strategies.base import Strategy
from ..telemetry import trace
from ..telemetry.memory import peak_rss_bytes
from .book import Opportunity

__all__ = [
    "BlockWork",
    "ProcessShardPool",
    "ShardUpdate",
    "ShardWorker",
]


@dataclass(frozen=True)
class BlockWork:
    """One block routed to one shard.

    No market state crosses the process boundary: ``epoch`` names the
    seqlock epoch at which the writer committed this block (0 on an
    in-process store), ``rows`` the store rows the block dirtied, and
    ``ticks`` the block's price updates (stream data, not market state
    — prices feed the monetization map each shard tracks locally).  A
    work item pickles to a few hundred bytes regardless of market size.

    ``threshold`` is the pruning feedback from the book: the K-th
    profit among entries whose value is final for this block (``None``
    disables pruning — every dirty loop gets an exact quote).
    """

    block: int
    epoch: int
    rows: tuple[int, ...]
    ticks: tuple[tuple[Token, float], ...]
    t_ingest: float  # perf_counter at ingest (monotonic across processes on Linux)
    t_dispatch: float
    threshold: float | None = None

    @classmethod
    def from_events(
        cls,
        block: int,
        events: Iterable[MarketEvent],
        pool_index: Mapping[str, int],
        *,
        epoch: int = 0,
        t_ingest: float = 0.0,
        threshold: float | None = None,
    ) -> "BlockWork":
        """The work item for ``events`` already written to the store:
        their dirty rows (ordered, deduplicated) plus the price ticks."""
        rows: dict[int, None] = {}
        ticks: list[tuple[Token, float]] = []
        for event in events:
            if isinstance(event, PriceTickEvent):
                ticks.append((event.token, event.price))
            elif isinstance(event, (SwapEvent, MintEvent, BurnEvent)):
                rows.setdefault(pool_index[event.pool_id])
        return cls(
            block=block,
            epoch=epoch,
            rows=tuple(rows),
            ticks=tuple(ticks),
            t_ingest=t_ingest,
            t_dispatch=time.perf_counter(),
            threshold=threshold,
        )


@dataclass(frozen=True)
class ShardUpdate:
    """A shard's output for one block: changed entries + work stats.

    ``evaluated`` counts exact quotes; ``pruned`` counts dirty loops
    answered by the bound pass alone (``evaluated + pruned`` = the
    block's dirty-set size on this shard).  The ``shm_*`` counters are
    the shared-memory seqlock's retry accounting for this block (zero
    on an in-process store).
    """

    shard: int
    block: int
    entries: tuple[Opportunity, ...]
    evaluated: int
    eval_s: float
    t_ingest: float
    t_dispatch: float
    pruned: int = 0
    shm_epoch_waits: int = 0
    shm_torn_retries: int = 0


def _loop_path(loop) -> str:
    return " -> ".join(t.symbol for t in loop.tokens) + f" -> {loop.tokens[0].symbol}"


class ShardWorker:
    """Dirty-set incremental evaluation of one shard's loops over the
    column store.

    ``store`` is the service's in-process :class:`MarketArrays` or a
    :class:`SharedMarketView` of its segment; either must still carry
    its ``pool_index`` (build workers in the parent, before pickling).
    The worker keeps, per loop, only what the book shows — last
    published profit, amount in, start token — never a pool object.
    """

    def __init__(
        self,
        shard_id: int,
        store: MarketArrays | SharedMarketView,
        loops: Sequence,
        strategy: Strategy,
        prices,
    ):
        if store.pool_index is None:
            raise ValueError(
                "shard construction needs a store with pool_index "
                "(build workers in the parent, before pickling)"
            )
        self.shard_id = shard_id
        self.strategy = strategy
        self.store = store
        self._view = store if isinstance(store, SharedMarketView) else None
        pools = {pool.pool_id: pool for loop in loops for pool in loop.pools}
        self.loops = rebind_loops(loops, pool_handles(pools.values()))
        self._evaluator = BatchEvaluator(self.loops, arrays=store)
        if self._evaluator.fallback_positions:  # pragma: no cover - defensive
            raise RuntimeError(
                f"{len(self._evaluator.fallback_positions)} loops cross "
                "pools the store does not hold"
            )
        # store row -> this shard's loop positions (BlockWork routes by row)
        pool_loops, self._token_loops = build_loop_indices(self.loops)
        self._row_loops: dict[int, tuple[int, ...]] = {
            store.pool_index[pool_id]: positions
            for pool_id, positions in pool_loops.items()
        }
        self._loop_ids = tuple(loop.canonical_id for loop in self.loops)
        self._paths = tuple(_loop_path(loop) for loop in self.loops)
        self.prices = prices
        n = len(self.loops)
        # the book-facing state per loop: last published monetized
        # profit (also the "stored" side of the prune predicate),
        # amount in, and start symbol
        self._profits = np.empty(n, dtype=np.float64)
        self._amounts: list[float | None] = [None] * n
        self._starts: list[str | None] = [None] * n
        self._record(range(n), self._quote(list(range(n))))

    def __repr__(self) -> str:
        return (
            f"ShardWorker(shard={self.shard_id}, {len(self.loops)} loops, "
            f"{self.store!r})"
        )

    @property
    def evaluator_stats(self):
        """Kernel-vs-scalar routing counters of the shard's
        :class:`~repro.market.BatchEvaluator`."""
        return self._evaluator.stats

    @property
    def handle_nbytes(self) -> int:
        """Bytes of the reserve-less pool handles this shard holds (one
        per distinct pool its loops cross) — its only per-pool state."""
        handles = {pool.pool_id: pool for loop in self.loops for pool in loop.pools}
        return sum(sys.getsizeof(handle) for handle in handles.values())

    @property
    def private_column_nbytes(self) -> int:
        """Column bytes this shard holds privately: zero either way —
        a segment view maps every column, and an in-process store is
        the service's one copy, not the shard's."""
        return self._view.private_nbytes if self._view is not None else 0

    def stats_snapshot(self) -> dict:
        """Lifetime counters for the done message: evaluator routing,
        this process's RSS high-water (``*_max`` so the registry merge
        keeps the peak), and the seqlock totals."""
        stats = self._evaluator.stats.to_dict()
        stats["rss_bytes_max"] = peak_rss_bytes()
        stats["shm_epoch_waits"], stats["shm_torn_retries"] = self._seqlock_counters()
        return stats

    def close(self) -> None:
        """Detach a segment view (no-op on an in-process store)."""
        if self._view is not None:
            self._view.close()

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------

    def initial_entries(self, block: int = -1) -> tuple[Opportunity, ...]:
        """Every loop's current entry — at construction, the shard's
        full evaluation of the starting market (primes the book before
        any event is applied)."""
        return tuple(self._entry(index, block) for index in range(len(self.loops)))

    def _entry(self, index: int, block: int) -> Opportunity:
        return Opportunity(
            loop_id=self._loop_ids[index],
            path=self._paths[index],
            profit_usd=float(self._profits[index]),
            amount_in=self._amounts[index],
            start_symbol=self._starts[index],
            block=block,
            shard=self.shard_id,
        )

    def _record(self, indices: Iterable[int], results) -> None:
        for index, result in zip(indices, results):
            self._profits[index] = result.monetized_profit
            self._amounts[index] = result.amount_in
            self._starts[index] = (
                result.start_token.symbol if result.start_token else None
            )

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def _read(self, fn):
        """Run one side-effect-free read of the store: a seqlock read
        on a segment view (torn passes are discarded and re-run), a
        direct call on in-process columns."""
        if self._view is None:
            return fn()
        return self._view.read_consistent(fn)

    def _quote(self, indices: list[int]) -> list:
        """Exact quotes of the loops at ``indices`` — kernels for large
        slices, pool objects materialised from the columns for the
        rest, all inside one read bracket."""
        return self._read(
            lambda: self._evaluator.evaluate_many(
                self.strategy, self.prices, indices=indices
            )
        )

    def _seqlock_counters(self) -> tuple[int, int]:
        """Lifetime (epoch_waits, torn_retries); zero in-process."""
        if self._view is None:
            return (0, 0)
        return (self._view.epoch_waits, self._view.torn_retries)

    # ------------------------------------------------------------------
    # work
    # ------------------------------------------------------------------

    def process_block(self, work: BlockWork) -> ShardUpdate:
        """Advance to one routed block and re-evaluate only its dirty
        loops."""
        t0 = time.perf_counter()
        if trace.is_enabled():
            # retroactive span for the time this block spent queued
            # between the pipeline's dispatch and this worker picking
            # it up (perf_counter is system-wide on Linux, so the two
            # stamps are comparable even across the process backend)
            trace.record(
                "shard.queue_wait",
                int(work.t_dispatch * 1e9),
                int((t0 - work.t_dispatch) * 1e9),
                shard=self.shard_id,
                block=work.block,
            )
        with trace.span(
            "shard.block",
            shard=self.shard_id,
            block=work.block,
            events=len(work.rows) + len(work.ticks),
        ) as sp:
            waits0, torn0 = self._seqlock_counters()
            if self._view is not None:
                with trace.span(
                    "shard.sync", rows=len(work.rows), epoch=work.epoch
                ) as sync:
                    waits = self._view.wait_for_epoch(work.epoch)
                    if waits:
                        sync.set(waits=waits)
            with trace.span("shard.apply", rows=len(work.rows), ticks=len(work.ticks)):
                touched: set[int] = set()
                for row in work.rows:
                    touched.update(self._row_loops.get(row, ()))
                for token, price in work.ticks:
                    self.prices = self.prices.with_price(token, price)
                    touched.update(self._token_loops.get(token, ()))
            reeval = sorted(touched)
            if work.threshold is None:
                requote = reeval
            else:
                requote = self._select_requotes(reeval, work.threshold)
            with trace.span("shard.quote", loops=len(requote)):
                self._record(requote, self._quote(requote))
                entries = tuple(self._entry(index, work.block) for index in requote)
            pruned = len(reeval) - len(requote)
            self._evaluator.stats.pruned_loops += pruned
            waits1, torn1 = self._seqlock_counters()
            sp.set(dirty=len(reeval), quoted=len(requote), pruned=pruned)
        return ShardUpdate(
            shard=self.shard_id,
            block=work.block,
            entries=entries,
            evaluated=len(requote),
            eval_s=time.perf_counter() - t0,
            t_ingest=work.t_ingest,
            t_dispatch=work.t_dispatch,
            pruned=pruned,
            shm_epoch_waits=waits1 - waits0,
            shm_torn_retries=torn1 - torn0,
        )

    def _select_requotes(self, reeval: list[int], threshold: float) -> list[int]:
        """The dirty loops that need an exact quote at the given
        threshold, in ``reeval`` order — one mask over the block.

        A dirty loop may keep its stale book entry only when *both* its
        fresh profit upper bound and its currently published profit are
        prunable (below the threshold or non-positive): the bound
        proves the new exact value cannot reach the displayed top K,
        and the stored check proves the entry it would replace is not
        sitting in (or above) the top K either.  Everything else —
        including every NaN bound — gets requoted.
        """
        if not reeval:
            return []
        with trace.span("shard.bounds", loops=len(reeval)):
            bounds = self._read(
                lambda: self._evaluator.monetized_bounds(
                    self.strategy, self.prices, indices=reeval
                )
            )
        stale_ok = below_threshold(bounds, threshold) & below_threshold(
            self._profits[reeval], threshold
        )
        return [index for index, keep in zip(reeval, stale_ok) if not keep]


# ----------------------------------------------------------------------
# process backend
# ----------------------------------------------------------------------


def _shard_main(worker: ShardWorker, in_queue, out_queue) -> None:
    """Child-process loop: pull work until the ``None`` sentinel.

    The worker arrives by fork (Linux) or pickle (spawn contexts —
    its segment view re-attaches by name on unpickle); the priming pass
    already ran in the parent, so the child starts with the published
    profits its pruning compares against.  A failing block is reported
    as an ``("error", ...)`` message — never a silent death that would
    leave the parent blocked on the result queue.

    Tracing: a forked child inherits the parent tracer's enabled flag
    *and* its ring buffer, so the buffer is cleared here — the parent
    already owns those spans — and the child's own spans ship back as
    plain dicts in the ``done`` message for the parent to re-ingest.
    (On spawn platforms the tracer state is not inherited and child
    spans are simply absent.)
    """
    trace.clear()
    out_queue.put(("ready", worker.shard_id))
    try:
        while True:
            item = in_queue.get()
            if item is None:
                # the stats dict rides along because the worker's
                # counters live in this child; the parent turns them
                # into gauges
                out_queue.put(
                    (
                        "done",
                        (
                            worker.shard_id,
                            worker.stats_snapshot(),
                            trace.drain(),
                        ),
                    )
                )
                return
            try:
                update = worker.process_block(item)
            except BaseException:
                out_queue.put(("error", (worker.shard_id, traceback.format_exc())))
                return
            out_queue.put(("update", update))
    finally:
        # detach shared mappings before exit so the resource tracker
        # never sees a reader holding a segment it did not create
        worker.close()


class ProcessShardPool:
    """All process-backed shards plus their shared result queue.

    Input queues are bounded to ``maxsize`` so the pipeline's
    backpressure reaches across the process boundary instead of
    piling unbounded work into IPC buffers.

    ``start_method`` selects the multiprocessing context (``"fork"``,
    ``"spawn"``, ``"forkserver"``; ``None`` = platform default) —
    workers pickle to segment names either way.
    ``cleanup`` is invoked exactly once from :meth:`close`'s
    ``finally`` path (the service passes the shared segment's unlink
    there, so even an aborted run leaves ``/dev/shm`` clean).
    """

    def __init__(
        self,
        workers: Sequence[ShardWorker],
        maxsize: int = 64,
        *,
        start_method: str | None = None,
        cleanup: Callable[[], None] | None = None,
    ):
        self._ctx = mp.get_context(start_method)
        self._cleanup = cleanup
        self._closed = False
        self._finished: set[int] = set()  # shards sent their sentinel
        # the result path is bounded too (the pipeline's backpressure
        # must reach the children): a slow publish stage blocks shard
        # puts instead of letting updates pile up in IPC buffers
        self.out_queue = self._ctx.Queue(
            maxsize=max(1, maxsize) * max(1, len(workers))
        )
        self.in_queues = []
        self.processes = []
        for worker in workers:
            in_queue = self._ctx.Queue(maxsize=maxsize)
            process = self._ctx.Process(
                target=_shard_main,
                args=(worker, in_queue, self.out_queue),
                daemon=True,
            )
            self.in_queues.append(in_queue)
            self.processes.append(process)

    def start(self) -> None:
        for process in self.processes:
            process.start()
        for _ in self.processes:
            # next_message polls exitcodes, so a child that dies before
            # its ready marker (unpicklable worker on spawn platforms,
            # startup OOM) raises here instead of hanging the parent
            kind, shard = self.next_message()
            if kind != "ready":  # pragma: no cover - defensive
                raise RuntimeError(
                    f"shard {shard} sent {kind!r} before becoming ready"
                )

    def _put(self, shard: int, item, poll_s: float = 1.0) -> None:
        """Bounded put that notices a dead child instead of blocking
        forever on a queue nobody will ever drain."""
        while True:
            try:
                self.in_queues[shard].put(item, timeout=poll_s)
                return
            except Full:
                code = self.processes[shard].exitcode
                if code is not None:
                    raise RuntimeError(
                        f"shard {shard} process exited (code {code}) "
                        "with work still pending"
                    )

    def submit(self, shard: int, work) -> None:
        self._put(shard, work)

    def finish(self, shard: int) -> None:
        self._put(shard, None)
        self._finished.add(shard)

    def next_message(self, poll_s: float = 1.0):
        """Blocking read of the shared result queue (call off-loop).

        Polls so an abnormally dead child (OOM-kill, segfault — one
        that could not even send its ``error`` message) surfaces as an
        exception instead of a parent that waits forever.
        """
        while True:
            try:
                return self.out_queue.get(timeout=poll_s)
            except Empty:
                for shard, process in enumerate(self.processes):
                    code = process.exitcode
                    if code not in (None, 0):
                        raise RuntimeError(
                            f"shard {shard} process died with exit code {code}"
                        )

    def join(self, timeout: float = 5.0) -> None:
        """Wait up to ``timeout`` for each child that was sent its
        end-of-stream sentinel, and terminate at once every other live
        child: one never finished (an aborted run) cannot exit by itself."""
        for shard, process in enumerate(self.processes):
            if shard in self._finished:
                process.join(timeout=timeout)
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)

    def close(self, timeout: float = 5.0) -> None:
        """Tear the pool down and run the cleanup hook, exactly once.

        Safe on every exit path — normal quiescence, a raising stage,
        KeyboardInterrupt — and the hook runs even if joining children
        raises, so a shared segment is unlinked no matter how the run
        ended.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self.join(timeout=timeout)
        finally:
            if self._cleanup is not None:
                self._cleanup()

    def __len__(self) -> int:
        return len(self.processes)
