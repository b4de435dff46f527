"""Per-shard evaluation state and the process-shard host.

A :class:`ShardWorker` is the service's unit of parallelism.  It reads
the one column store the ingest stage writes — plain in-process
:class:`~repro.market.MarketArrays` on the inline backend, a
:class:`~repro.market.SharedMarketView` of the shared-memory segment
on the process backend — and holds no reserve state of its own: its
loops are rebound onto reserve-less :class:`~repro.market.PoolHandle`
stand-ins and compiled against the store once.  What it does keep is
the price-independent half of every fixed-start evaluation it ran: per
loop, the optimal input and the start-token profit of each rotation
its strategy monetizes (every rotation for MaxMax, the start for
Traditional and MaxPrice), plus a price vector aligned with the
store's tokens that ticks update in place.  With pruning on it keeps
the price-independent half of every bound it took the same way: per
loop, the start-token profit bound of each rotation
(:func:`~repro.market.rotation_profit_bounds`).  Per block it

1. syncs to the block (on a segment, waits for the block's seqlock
   epoch),
2. maps the block's dirty store rows and ticked token indices to its
   loops, updating the price vector and dropping the stored quotes and
   stored bounds of every loop whose pools moved,
3. re-monetizes the loops dirtied only by ticks whose stored quotes are
   still valid — one numpy pass of ``price × profit`` through
   :func:`~repro.market.monetize_rotations`, no bound and no solve
   (MaxPrice only while the quoted start is still the max-price
   token),
4. with pruning on (``top_k``), bound-prunes the other dirty loops
   against its own threshold (below): one kernel pass bounds the
   rotations of those without stored bounds (their pools moved, or a
   MaxPrice start moved on a loop never bounded), then every one of
   them is valued from its stored rotation bounds at the current
   prices (:func:`~repro.market.monetized_bounds`), so a tick-only
   loop re-bounds with a multiply,
5. quotes the rest through :class:`~repro.market.BatchEvaluator`,
   storing their rotation quotes for later ticks, and
6. with pruning on, restores every kept entry the new threshold no
   longer covers.

A loop's stored quotes are valid from the quote that produced them
until the next block whose dirty rows touch one of its pools; a
bound-pruned pool-dirty loop has none until it is quoted again.  Its
stored bounds follow the same rule from the bound pass that produced
them.  On the process backend a quote or bound pass may read reserves
newer than its block; the block that moved those rows reaches the
shard later and drops them.
Strategies without a batch kind (convex) re-solve every dirty loop.

Pruning is the worker's alone.  Its threshold is the K-th largest
published profit among its own loops whose value is exact (0.0 while
fewer than K are positive); a loop's value is exact unless the worker
*kept* its entry: a dirty loop whose fresh bound and published profit
are both below the threshold keeps its published profit instead of an
exact quote, and a re-monetized loop whose new and published values
both are keeps its entry too.  Step 4 ranks the loops the block leaves
untouched, so a falling dirty loop cannot prop the threshold up; step
6 re-ranks after the quotes and re-values every kept loop whose bound
or published profit reaches the new threshold.  Restoring only adds
exact values to the ranking, so the threshold cannot fall again and
one pass suffices.  After every block each
kept entry's bound and published profit sit below the K-th exact
profit of its shard, so it is in neither the displayed nor the true
top K of the shard — nor of the book, whose K-th profit is at least
any one shard's.  Each shard ranks only its own slice, so more shards
prune less.

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

:class:`~repro.replay.ReplayDriver` calls them directly too: its
incremental mode is one worker per strategy over its own in-process
store, and its reports read :attr:`ShardWorker.profits`.

Either way the per-block work item is :class:`BlockWork` — (block id,
epoch, dirty row indices, price ticks by store token index) — so
nothing resembling market state crosses the process boundary after
construction.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import sys
import time
import traceback
from dataclasses import dataclass
from queue import Empty, Full
from typing import Callable, Iterable, Sequence

import numpy as np

from ..amm.events import BurnEvent, MarketEvent, MintEvent, PriceTickEvent, SwapEvent
from ..core.types import PriceMap
from ..market import (
    BatchEvaluator,
    MarketArrays,
    SharedMarketView,
    batch_kind,
    below_threshold,
    monetize_rotations,
    monetized_bounds,
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
    ``ticks`` the block's price updates as ``(store token index,
    price)`` pairs (stream data, not market state — each shard keeps
    its own price vector, aligned with the store's tokens).  Ingest has
    already validated every tick price (finite, ``>= 0``).  A work item
    pickles to a few hundred bytes regardless of market size.
    """

    block: int
    epoch: int
    rows: tuple[int, ...]
    ticks: tuple[tuple[int, float], ...]
    t_ingest: float  # perf_counter at ingest (monotonic across processes on Linux)
    t_dispatch: float

    @classmethod
    def from_events(
        cls,
        block: int,
        events: Iterable[MarketEvent],
        store: MarketArrays,
        *,
        epoch: int = 0,
        t_ingest: float = 0.0,
    ) -> "BlockWork":
        """The work item for ``events`` already written to ``store``
        (which must still carry its ``pool_index``): their dirty rows
        (ordered, deduplicated) plus the price ticks of tokens the store
        holds (a token no pool holds dirties no loop)."""
        rows: dict[int, None] = {}
        ticks: list[tuple[int, float]] = []
        for event in events:
            if isinstance(event, PriceTickEvent):
                token = store.token_index.get(event.token)
                if token is not None:
                    ticks.append((token, event.price))
            elif isinstance(event, (SwapEvent, MintEvent, BurnEvent)):
                rows.setdefault(store.pool_index[event.pool_id])
        return cls(
            block=block,
            epoch=epoch,
            rows=tuple(rows),
            ticks=tuple(ticks),
            t_ingest=t_ingest,
            t_dispatch=time.perf_counter(),
        )


@dataclass(frozen=True)
class ShardUpdate:
    """A shard's output for one block: changed entries + work stats.

    ``evaluated`` counts dirty loops whose value is exact for the block:
    exact quotes plus ``remonetized``, the tick-only loops valued from
    their stored rotation quotes without a solve.  ``pruned`` counts
    dirty loops answered by the bound pass alone (``evaluated +
    pruned`` = the block's dirty-set size on this shard).  ``restored``
    counts kept entries outside the dirty set that the block's new
    threshold no longer covered, re-valued exactly and republished.
    The ``shm_*`` counters are the shared-memory seqlock's retry
    accounting for this block (zero on an in-process store).
    """

    shard: int
    block: int
    entries: tuple[Opportunity, ...]
    evaluated: int
    eval_s: float
    t_ingest: float
    t_dispatch: float
    pruned: int = 0
    remonetized: int = 0
    restored: int = 0
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
    The worker keeps, per loop, what the book shows — last published
    profit, amount in, start token — and, for strategies with a batch
    kind, the rotation quotes behind it; never a pool object.

    ``top_k`` turns pruning on: the worker keeps the entries of dirty
    loops provably below the K-th exact profit of its own loops (see
    the module docstring).  ``None`` (default) values every dirty loop
    exactly and publishes every one.
    """

    def __init__(
        self,
        shard_id: int,
        store: MarketArrays | SharedMarketView,
        loops: Sequence,
        strategy: Strategy,
        prices: PriceMap,
        top_k: int | None = None,
    ):
        if store.pool_index is None:
            raise ValueError(
                "shard construction needs a store with pool_index "
                "(build workers in the parent, before pickling)"
            )
        if top_k is not None and top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {top_k}")
        self.shard_id = shard_id
        self.strategy = strategy
        self.top_k = top_k
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
        # store row / store token index -> this shard's loop positions
        # (BlockWork routes by both)
        pool_loops, token_loops = build_loop_indices(self.loops)
        self._row_loops: dict[int, tuple[int, ...]] = {
            store.pool_index[pool_id]: positions
            for pool_id, positions in pool_loops.items()
        }
        self._token_loops: dict[int, tuple[int, ...]] = {
            store.token_index[token]: positions
            for token, positions in token_loops.items()
        }
        self._loop_ids = tuple(loop.canonical_id for loop in self.loops)
        self._paths = tuple(_loop_path(loop) for loop in self.loops)
        # CEX prices aligned with the store's tokens (NaN = unquoted);
        # ticks write it in place
        self._prices = store.price_vector(prices)
        self._kind = batch_kind(strategy)
        n = len(self.loops)
        # the book-facing state per loop: last published monetized
        # profit (also the "stored" side of the prune predicate),
        # amount in, and start symbol
        self._profits = np.empty(n, dtype=np.float64)
        self._amounts: list[float | None] = [None] * n
        self._starts: list[str | None] = [None] * n
        # pruning state: which loops' published profit is not their
        # exact value (a block's dirty loops until valued, kept entries
        # after), each kept one with the bound (or re-monetized value)
        # that proved it below the threshold
        self._stale = np.zeros(n, dtype=bool)
        self._bounds = np.zeros(n, dtype=np.float64)
        if self._kind is None:
            self._price_map: PriceMap | None = None
            self._quote(list(range(n)))
            return
        # the price-independent half, per compiled group: rotation
        # offsets, optimal inputs and start-token profits of each row
        # (one column per rotation the strategy monetizes), plus which
        # loops' quotes still match the store
        self._group_of = np.empty(n, dtype=np.intp)
        self._row_of = np.empty(n, dtype=np.intp)
        self._stored = []
        for gi, group in enumerate(self._evaluator.groups):
            self._group_of[group.positions] = gi
            self._row_of[group.positions] = np.arange(len(group))
            width = group.length if self._kind == "maxmax" else 1
            self._stored.append(
                (
                    np.zeros((len(group), width), dtype=np.intp),
                    np.zeros((len(group), width), dtype=np.float64),
                    np.zeros((len(group), width), dtype=np.float64),
                )
            )
        self._valid = np.zeros(n, dtype=bool)
        # pruning: the reserve half of each loop's bound, per compiled
        # group (every rotation's start-token bound), plus which loops'
        # bounds still match the store; filled by the first bound pass
        # that needs them
        self._rotation_bounds: list[np.ndarray] = []
        self._bounded: np.ndarray | None = None
        if top_k is not None:
            self._rotation_bounds = [
                np.zeros((len(group), group.length), dtype=np.float64)
                for group in self._evaluator.groups
            ]
            self._bounded = np.zeros(n, dtype=bool)
        everything = np.arange(n)
        self._store_quotes(everything)
        self._publish(everything, *self._monetize(everything))

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
    def profits(self) -> np.ndarray:
        """Each loop's last published monetized profit, in loop order
        (a read-only view of the column the book entries carry)."""
        view = self._profits.view()
        view.flags.writeable = False
        return view

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

    def _publish(
        self,
        positions: np.ndarray,
        values: np.ndarray,
        amounts: np.ndarray,
        starts: np.ndarray,
    ) -> None:
        """Make these monetized values the loops' book-facing state."""
        self._profits[positions] = values
        for index, amount, start in zip(
            positions.tolist(), amounts.tolist(), starts.tolist()
        ):
            self._amounts[index] = amount
            self._starts[index] = self.loops[index].tokens[start].symbol

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

    def _quote(self, indices: list[int]) -> None:
        """Strategies without a batch kind: solve the loops at
        ``indices`` on the scalar route (pool objects materialised
        from the columns inside one read bracket) and make the results
        their book-facing state."""
        if self._price_map is None:
            self._price_map = PriceMap(
                {
                    token: price
                    for token, price in zip(self.store.tokens, self._prices.tolist())
                    if not math.isnan(price)
                }
            )
        results = self._read(
            lambda: self._evaluator.evaluate_many(
                self.strategy, self._price_map, indices=indices
            )
        )
        for index, result in zip(indices, results):
            self._profits[index] = result.monetized_profit
            self._amounts[index] = result.amount_in
            self._starts[index] = (
                result.start_token.symbol if result.start_token else None
            )

    def _store_quotes(self, positions: np.ndarray) -> None:
        """Quote the strategy's rotations of the loops at ``positions``
        (one read bracket) and keep them as the loops' valid quotes."""
        indices = positions.tolist()
        quoted = self._read(
            lambda: self._evaluator.quote_rotations(
                self.strategy, self._prices, indices
            )
        )
        for gi, (rows, offsets, amount_in, profit) in quoted.items():
            stored_offsets, stored_amount_in, stored_profit = self._stored[gi]
            stored_offsets[rows] = offsets
            stored_amount_in[rows] = amount_in
            stored_profit[rows] = profit
            self._valid[self._evaluator.groups[gi].positions[rows]] = True

    def _store_bounds(self, positions: np.ndarray) -> None:
        """Bound the rotations of the loops at ``positions`` (one kernel
        pass per group, one read bracket) and keep the bounds as the
        loops' valid stored bounds."""
        rows_by_group = {gi: rows for gi, _, rows in self._by_group(positions)}
        bounded = self._read(lambda: self._evaluator.rotation_bounds(rows_by_group))
        for gi, per_rotation in bounded.items():
            self._rotation_bounds[gi][rows_by_group[gi]] = per_rotation
        self._bounded[positions] = True

    def _monetized_bounds(self, positions: np.ndarray) -> np.ndarray:
        """Each loop's monetized profit bound from its stored rotation
        bounds at the current prices."""
        bounds = np.empty(len(positions), dtype=np.float64)
        for gi, sel, rows in self._by_group(positions):
            bounds[sel] = monetized_bounds(
                self._kind, self.strategy, self._evaluator.groups[gi], rows,
                self._rotation_bounds[gi][rows], self._prices,
            )
        return bounds

    def _by_group(self, positions: np.ndarray):
        """``(group index, selector into positions, group rows)`` per
        compiled group the loops at ``positions`` fall in."""
        groups = self._group_of[positions]
        for gi in np.unique(groups).tolist():
            sel = np.flatnonzero(groups == gi)
            yield gi, sel, self._row_of[positions[sel]]

    def _monetize(
        self, positions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each loop's monetized profit from its stored quotes at the
        current prices, with the amount in and the start offset of the
        rotation that earns it."""
        values = np.empty(len(positions), dtype=np.float64)
        amounts = np.empty(len(positions), dtype=np.float64)
        starts = np.empty(len(positions), dtype=np.intp)
        for gi, sel, rows in self._by_group(positions):
            stored_offsets, stored_amount_in, stored_profit = self._stored[gi]
            offsets = stored_offsets[rows]
            amount_in = stored_amount_in[rows]
            best, monetized = monetize_rotations(
                self._evaluator.groups[gi], rows, offsets, amount_in,
                stored_profit[rows], self._prices,
            )
            k = np.arange(len(rows))
            values[sel] = monetized[k, best]
            amounts[sel] = amount_in[k, best]
            starts[sel] = offsets[k, best]
        return values, amounts, starts

    def _start_moved(self, positions: np.ndarray) -> np.ndarray:
        """MaxPrice: which loops' max-price start is no longer the start
        of their stored quote (a missing price counts as moved, so the
        quote path raises for it)."""
        moved = np.empty(len(positions), dtype=bool)
        for gi, sel, rows in self._by_group(positions):
            group = self._evaluator.groups[gi]
            price_matrix = self._prices[group.token_idx[rows]]
            moved[sel] = (
                group.max_price_offsets(price_matrix, rows)
                != self._stored[gi][0][rows, 0]
            ) | np.isnan(price_matrix).any(axis=1)
        return moved

    def _seqlock_counters(self) -> tuple[int, int]:
        """Lifetime (epoch_waits, torn_retries); zero in-process."""
        if self._view is None:
            return (0, 0)
        return (self._view.epoch_waits, self._view.torn_retries)

    # ------------------------------------------------------------------
    # work
    # ------------------------------------------------------------------

    def process_block(self, work: BlockWork) -> ShardUpdate:
        """Advance to one routed block, re-evaluate only its dirty
        loops, and (pruning on) restore the kept entries the new
        threshold no longer covers."""
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
                moved: set[int] = set()
                for row in work.rows:
                    moved.update(self._row_loops.get(row, ()))
                touched = set(moved)
                for token, price in work.ticks:
                    self._prices[token] = price
                    touched.update(self._token_loops.get(token, ()))
                if work.ticks and self._kind is None:
                    self._price_map = None
                dirty = np.array(sorted(touched), dtype=np.intp)
                if self._kind is not None:
                    # a pool move invalidates the stored quotes and
                    # bounds; every dirty loop still holding valid
                    # quotes is tick-only
                    moved_positions = list(moved)
                    self._valid[moved_positions] = False
                    if self._bounded is not None:
                        self._bounded[moved_positions] = False
                unready, ready = self._split(dirty)
            threshold = None
            if self.top_k is not None and len(dirty):
                # a dirty loop's published profit is stale until it is
                # valued again, so it cannot prop the threshold up
                self._stale[dirty] = True
                threshold = self._threshold()
            requote = unready if threshold is None else self._select_requotes(unready, threshold)
            with trace.span(
                "shard.quote", loops=len(requote), remonetized=len(ready)
            ):
                published = self._value(requote, ready, threshold)
                restored = self._restore() if threshold is not None else published[:0]
                if len(restored):
                    published = np.union1d(published, restored)
                entries = tuple(
                    self._entry(index, work.block) for index in published.tolist()
                )
            pruned = len(unready) - len(requote)
            self._evaluator.stats.pruned_loops += pruned
            waits1, torn1 = self._seqlock_counters()
            sp.set(
                dirty=len(dirty), quoted=len(requote), remonetized=len(ready),
                pruned=pruned, restored=len(restored),
            )
        return ShardUpdate(
            shard=self.shard_id,
            block=work.block,
            entries=entries,
            evaluated=len(requote) + len(ready),
            eval_s=time.perf_counter() - t0,
            t_ingest=work.t_ingest,
            t_dispatch=work.t_dispatch,
            pruned=pruned,
            remonetized=len(ready),
            restored=len(restored),
            shm_epoch_waits=waits1 - waits0,
            shm_torn_retries=torn1 - torn0,
        )

    def _split(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(to quote, to re-monetize)``: the loops at ``positions``
        that hold no valid stored quotes, and those that do (MaxPrice:
        only while their quoted start is still the max-price token).
        Strategies without a batch kind quote everything."""
        if self._kind is None:
            return positions, positions[:0]
        remonetize = self._valid[positions]
        if self._kind == "maxprice" and remonetize.any():
            held = np.flatnonzero(remonetize)
            remonetize[held[self._start_moved(positions[held])]] = False
        return positions[~remonetize], positions[remonetize]

    def _value(
        self, requote: np.ndarray, ready: np.ndarray, threshold: float | None
    ) -> np.ndarray:
        """Quote the loops at ``requote``, re-monetize those at
        ``ready`` from their stored quotes, publish, and return the
        published positions in loop order.

        With a threshold, a re-monetized loop keeps its stale entry on
        the predicate a re-quote is held to: its new value and its
        published value both below the threshold.
        """
        if self._kind is None:
            self._quote(requote.tolist())
            self._stale[requote] = False
            return requote
        if len(requote):
            self._store_quotes(requote)
        positions = np.concatenate([requote, ready])
        values, amounts, starts = self._monetize(positions)
        publish = np.ones(len(positions), dtype=bool)
        if threshold is not None and len(ready):
            fresh = values[len(requote):]
            kept = below_threshold(fresh, threshold) & below_threshold(
                self._profits[ready], threshold
            )
            self._bounds[ready[kept]] = fresh[kept]
            publish[len(requote):] = ~kept
        sel = np.flatnonzero(publish)
        sel = sel[np.argsort(positions[sel])]
        published = positions[sel]
        self._publish(published, values[sel], amounts[sel], starts[sel])
        self._stale[published] = False
        return published

    def _threshold(self) -> float:
        """The K-th largest published profit among the loops whose
        value is exact (not stale), or 0.0 while fewer than K of them
        are positive."""
        profits = self._profits[~self._stale]
        profits = profits[profits > 0.0]
        rank = len(profits) - self.top_k
        if rank < 0:
            return 0.0
        return float(np.partition(profits, rank)[rank])

    def _select_requotes(self, unready: np.ndarray, threshold: float) -> np.ndarray:
        """The dirty loops that need an exact quote at the given
        threshold, in ``unready`` order — one mask over the block.

        A dirty loop may keep its stale book entry only when *both* its
        fresh profit upper bound and its currently published profit are
        prunable (below the threshold or non-positive): the bound
        proves the new exact value cannot reach the shard's top K, and
        the published check proves the entry it would replace is not
        sitting in (or above) it either.  Everything else — including
        every NaN bound — gets requoted.  Strategies without a batch
        kind have no cheap bound and requote every dirty loop.

        The bounds come in two halves (:mod:`repro.market.bounds`): one
        kernel pass over the loops without stored rotation bounds, then
        every loop's stored rotation bounds valued at the current
        prices.
        """
        if not len(unready) or self._kind is None:
            return unready
        with trace.span("shard.bounds", loops=len(unready)):
            fresh = unready[~self._bounded[unready]]
            if len(fresh):
                self._store_bounds(fresh)
            bounds = self._monetized_bounds(unready)
        prunable = below_threshold(bounds, threshold) & below_threshold(
            self._profits[unready], threshold
        )
        self._bounds[unready[prunable]] = bounds[prunable]
        return unready[~prunable]

    def _restore(self) -> np.ndarray:
        """Re-value and publish every kept entry whose bound or
        published profit the current threshold no longer covers (the
        loops above it fell); return their positions in loop order.

        The other kept entries stay covered (see the module
        docstring).
        """
        threshold = self._threshold()
        lost = np.flatnonzero(
            self._stale
            & ~(
                below_threshold(self._bounds, threshold)
                & below_threshold(self._profits, threshold)
            )
        )
        if len(lost):
            self._value(*self._split(lost), None)
        return lost


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
