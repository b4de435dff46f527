"""The live top-K arbitrage book.

:class:`OpportunityBook` holds the latest evaluation of every candidate
loop and serves two read paths:

* :meth:`top` — the current K best opportunities, heap-backed with
  lazy invalidation, ordered by :func:`opportunity_sort_key` (profit
  descending, canonical loop id ascending on ties — the same total
  order ``repro-arb detect`` prints, which is what makes the quiesced
  service bit-comparable to batch detection);
* sequence-numbered subscriptions — :meth:`snapshot` returns the book
  at its current sequence number, :meth:`subscribe` a bounded delta
  feed.  A subscriber that falls behind loses deltas (counted, and the
  subscription is marked gapped) and must resynchronize from a fresh
  snapshot; the book itself never blocks on slow consumers.

Writes are single-writer by design: the publish stage of the pipeline
is the only caller of :meth:`apply`, so the book needs no locking.
"""

from __future__ import annotations

import asyncio
import heapq
import logging
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "BookDelta",
    "BookSnapshot",
    "BookSubscription",
    "Opportunity",
    "OpportunityBook",
    "opportunity_sort_key",
    "rank_opportunities",
]

logger = logging.getLogger("repro.service.book")


def opportunity_sort_key(profit_usd: float, loop_id: str) -> tuple:
    """Total order on opportunities: profit descending, then canonical
    loop id ascending.  Shared by the book and ``detect`` so both rank
    profit ties identically."""
    return (-profit_usd, loop_id)


@dataclass(frozen=True)
class Opportunity:
    """One loop's latest evaluation, as published by a shard."""

    loop_id: str
    path: str
    profit_usd: float
    amount_in: float | None
    start_symbol: str | None
    block: int
    shard: int

    @property
    def is_profitable(self) -> bool:
        return self.profit_usd > 0.0

    def sort_key(self) -> tuple:
        return opportunity_sort_key(self.profit_usd, self.loop_id)

    def to_dict(self) -> dict:
        return {
            "loop_id": self.loop_id,
            "path": self.path,
            "profit_usd": self.profit_usd,
            "amount_in": self.amount_in,
            "start_symbol": self.start_symbol,
            "block": self.block,
            "shard": self.shard,
        }


@dataclass(frozen=True)
class BookDelta:
    """One applied update batch: the entries that changed at ``seq``."""

    seq: int
    block: int
    shard: int
    changed: tuple[Opportunity, ...]


@dataclass(frozen=True)
class BookSnapshot:
    """The whole profitable book at one sequence number."""

    seq: int
    entries: tuple[Opportunity, ...]

    def top(self, k: int) -> tuple[Opportunity, ...]:
        return self.entries[:k] if k > 0 else ()


class BookSubscription:
    """A bounded delta feed off the book.

    ``dropped`` counts deltas lost to a full queue; once any are lost
    the subscription is ``gapped`` and the consumer should call
    :meth:`resync`, which clears the flag and returns a fresh
    :meth:`OpportunityBook.snapshot` to rebuild from.
    """

    def __init__(self, book: "OpportunityBook", maxsize: int):
        self._book = book
        self.queue: asyncio.Queue[BookDelta | None] = asyncio.Queue(maxsize=maxsize)
        self.dropped = 0
        self.gapped = False
        self.closed = False

    async def next_delta(self) -> BookDelta | None:
        """Next delta, or ``None`` once the book is closed and drained."""
        while True:
            if self.closed and self.queue.empty():
                return None
            delta = await self.queue.get()
            if delta is None and not self.closed:
                # stale end-of-stream sentinel from a run that has since
                # been reopened: skip it, the stream is live again
                continue
            return delta

    def resync(self) -> BookSnapshot:
        """Acknowledge a gap: clear the flag and take a fresh snapshot."""
        if self.gapped:
            logger.info(
                "subscriber resyncing after gap (%d deltas dropped so far)",
                self.dropped,
            )
        self.gapped = False
        return self._book.snapshot()

    def close(self) -> None:
        self._book.unsubscribe(self)


class OpportunityBook:
    """Current best-known result per loop, with heap-backed top-K."""

    def __init__(self):
        self._entries: dict[str, Opportunity] = {}
        #: lazy max-heap of (sort_key, loop_id); stale tuples are
        #: skipped at read time by comparing against ``_entries``
        self._heap: list[tuple[tuple, str]] = []
        self._seq = 0
        self._subscribers: list[BookSubscription] = []
        self._closed = False

    # ------------------------------------------------------------------
    # writes (single writer: the pipeline's publish stage)
    # ------------------------------------------------------------------

    def apply(
        self, block: int, shard: int, entries: Iterable[Opportunity]
    ) -> BookDelta:
        """Upsert a batch of loop results as one sequenced delta.

        ``seq`` advances exactly when content changes, so a subscriber
        whose last delta seq equals ``book.seq`` is provably current —
        an all-unchanged batch (e.g. a swap and its exact reverse)
        leaves both the sequence and the delta stream untouched.
        """
        changed = []
        for entry in entries:
            previous = self._entries.get(entry.loop_id)
            if previous is not None and previous.profit_usd == entry.profit_usd:
                # same number at the same loop: the heap entry is still
                # valid and subscribers don't need to hear about it
                self._entries[entry.loop_id] = entry
                continue
            self._entries[entry.loop_id] = entry
            heapq.heappush(self._heap, (entry.sort_key(), entry.loop_id))
            changed.append(entry)
        # lazy deletion leaves stale tuples behind; rebuild once stale
        # tuples outnumber live entries ~2:1 so a long-running service
        # stays O(loops) in memory (the floor keeps tiny books from
        # compacting on every churn)
        if len(self._heap) > 3 * max(16, len(self._entries)):
            self._heap = [
                (entry.sort_key(), loop_id)
                for loop_id, entry in self._entries.items()
            ]
            heapq.heapify(self._heap)
        if not changed:
            return BookDelta(seq=self._seq, block=block, shard=shard, changed=())
        self._seq += 1
        delta = BookDelta(
            seq=self._seq, block=block, shard=shard, changed=tuple(changed)
        )
        self._publish(delta)
        return delta

    def _publish(self, delta: BookDelta) -> None:
        for sub in self._subscribers:
            try:
                sub.queue.put_nowait(delta)
            except asyncio.QueueFull:
                sub.dropped += 1
                if not sub.gapped:
                    # log the transition, not every dropped delta — a
                    # slow consumer would otherwise flood the log
                    logger.warning(
                        "subscriber queue full at seq %d: delta dropped, "
                        "subscription gapped until resync",
                        delta.seq,
                    )
                sub.gapped = True

    def close(self) -> None:
        """Mark the stream finished; wake subscribers with a sentinel."""
        self._closed = True
        for sub in self._subscribers:
            sub.closed = True
            try:
                sub.queue.put_nowait(None)
            except asyncio.QueueFull:
                pass  # a queued delta is already there to wake the reader

    def reopen(self) -> None:
        """Resume the delta stream (a service starting another run).

        Clears the closed state on the book *and* its current
        subscribers, so a consumer that subscribed between runs is not
        born dead; one that already consumed the end-of-stream sentinel
        and left is unaffected."""
        self._closed = False
        for sub in self._subscribers:
            sub.closed = False

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    @property
    def seq(self) -> int:
        return self._seq

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, loop_id: str) -> Opportunity | None:
        return self._entries.get(loop_id)

    def top(self, k: int) -> list[Opportunity]:
        """The K most profitable current entries (profit > 0 only).

        Heap-backed with lazy deletion: stale heap tuples (superseded
        by a later upsert of the same loop) are discarded as they
        surface; live ones are collected and pushed back.
        """
        if k <= 0:
            return []
        collected: list[tuple[tuple, str]] = []
        seen: set[str] = set()
        out: list[Opportunity] = []
        while self._heap and len(out) < k:
            key, loop_id = heapq.heappop(self._heap)
            entry = self._entries.get(loop_id)
            if entry is None or entry.sort_key() != key:
                continue  # stale: superseded or removed
            if loop_id in seen:
                # a profit that cycled back to an earlier value leaves
                # two identical live tuples; keep one, discard the rest
                continue
            seen.add(loop_id)
            collected.append((key, loop_id))
            if entry.is_profitable:
                out.append(entry)
            else:
                break  # heap order: everything after is unprofitable too
        for item in collected:
            heapq.heappush(self._heap, item)
        return out

    def snapshot(self) -> BookSnapshot:
        """All profitable entries in book order, stamped with ``seq``."""
        entries = sorted(
            (e for e in self._entries.values() if e.is_profitable),
            key=Opportunity.sort_key,
        )
        return BookSnapshot(seq=self._seq, entries=tuple(entries))

    # ------------------------------------------------------------------
    # subscriptions
    # ------------------------------------------------------------------

    def subscribe(self, maxsize: int = 256) -> BookSubscription:
        sub = BookSubscription(self, maxsize)
        sub.closed = self._closed
        self._subscribers.append(sub)
        return sub

    def unsubscribe(self, sub: BookSubscription) -> None:
        if sub in self._subscribers:
            self._subscribers.remove(sub)
        sub.closed = True
        try:  # wake any reader blocked in next_delta()
            sub.queue.put_nowait(None)
        except asyncio.QueueFull:
            pass  # a queued delta is already there to wake it

    def __repr__(self) -> str:
        return (
            f"OpportunityBook(seq={self._seq}, {len(self._entries)} loops, "
            f"{len(self._subscribers)} subscribers)"
        )


def rank_opportunities(
    entries: Sequence[Opportunity], k: int | None = None
) -> list[Opportunity]:
    """Sort entries by the book's total order (helper for reports)."""
    ranked = sorted(entries, key=Opportunity.sort_key)
    return ranked if k is None else ranked[:k]
