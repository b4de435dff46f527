"""Unit tests for the live top-K opportunity book."""

from __future__ import annotations

import pytest

from repro.service import (
    Opportunity,
    OpportunityBook,
    opportunity_sort_key,
    rank_opportunities,
)


def make_entry(loop_id: str, profit: float, block: int = 0, shard: int = 0):
    return Opportunity(
        loop_id=loop_id,
        path=loop_id.replace("|", " -> "),
        profit_usd=profit,
        amount_in=1.0,
        start_symbol="X",
        block=block,
        shard=shard,
    )


class TestSortKey:
    def test_profit_descends_first(self):
        assert opportunity_sort_key(5.0, "zzz") < opportunity_sort_key(4.0, "aaa")

    def test_ties_break_by_canonical_id_ascending(self):
        a = opportunity_sort_key(5.0, "aaa")
        b = opportunity_sort_key(5.0, "bbb")
        assert a < b

    def test_rank_opportunities_is_total_and_deterministic(self):
        entries = [
            make_entry("b", 2.0),
            make_entry("a", 2.0),
            make_entry("c", 3.0),
            make_entry("d", -1.0),
        ]
        ranked = rank_opportunities(entries)
        assert [e.loop_id for e in ranked] == ["c", "a", "b", "d"]
        assert [e.loop_id for e in rank_opportunities(entries, k=2)] == ["c", "a"]


class TestBook:
    def test_apply_upserts_and_bumps_seq(self):
        book = OpportunityBook()
        assert book.seq == 0
        delta = book.apply(0, 0, [make_entry("a", 1.0), make_entry("b", 2.0)])
        assert book.seq == 1 and delta.seq == 1
        assert len(book) == 2
        delta = book.apply(1, 0, [make_entry("a", 5.0)])
        assert book.seq == 2
        assert {e.loop_id for e in delta.changed} == {"a"}
        assert book.get("a").profit_usd == 5.0

    def test_unchanged_profit_is_not_republished(self):
        book = OpportunityBook()
        book.apply(0, 0, [make_entry("a", 1.0)])
        seq = book.seq
        delta = book.apply(1, 0, [make_entry("a", 1.0, block=1)])
        assert delta.changed == ()
        # no content change: seq holds, so "my last delta seq ==
        # book.seq" remains a sound currency check for subscribers
        assert delta.seq == seq and book.seq == seq
        # but the entry metadata still advanced
        assert book.get("a").block == 1

    def test_top_orders_and_filters_unprofitable(self):
        book = OpportunityBook()
        book.apply(0, 0, [
            make_entry("a", 1.0), make_entry("b", 3.0),
            make_entry("c", 0.0), make_entry("d", -2.0),
            make_entry("e", 3.0),
        ])
        top = book.top(10)
        assert [e.loop_id for e in top] == ["b", "e", "a"]
        assert [e.loop_id for e in book.top(2)] == ["b", "e"]
        assert book.top(0) == []
        snapshot = book.snapshot()
        assert [e.loop_id for e in snapshot.top(2)] == ["b", "e"]
        assert snapshot.top(0) == ()
        assert snapshot.top(-1) == ()

    def test_top_survives_stale_heap_entries(self):
        book = OpportunityBook()
        book.apply(0, 0, [make_entry("a", 10.0), make_entry("b", 1.0)])
        book.apply(1, 0, [make_entry("a", 0.5)])  # demote the leader
        assert [e.loop_id for e in book.top(5)] == ["b", "a"]
        # repeated reads are stable (lazy deletion pushes live keys back)
        assert [e.loop_id for e in book.top(5)] == ["b", "a"]
        book.apply(2, 0, [make_entry("a", 99.0)])
        assert [e.loop_id for e in book.top(1)] == ["a"]

    def test_profit_cycling_back_does_not_duplicate_top_entries(self):
        # 5 -> 3 -> 5 leaves two live heap tuples with identical keys;
        # top() must return the loop once, not twice
        book = OpportunityBook()
        book.apply(0, 0, [make_entry("a", 5.0), make_entry("b", 4.0)])
        book.apply(1, 0, [make_entry("a", 3.0)])
        book.apply(2, 0, [make_entry("a", 5.0)])
        assert [e.loop_id for e in book.top(10)] == ["a", "b"]
        assert [e.loop_id for e in book.top(10)] == ["a", "b"]  # stable

    def test_heap_stays_bounded_under_churn(self):
        # compaction fires once stale tuples outnumber live entries
        # ~2:1, so heavy churn on a small book keeps the heap O(live)
        book = OpportunityBook()
        for i in range(2000):
            book.apply(i, 0, [make_entry("a", float(i + 1))])
        assert len(book._heap) <= 3 * max(16, len(book._entries))
        assert book.top(1)[0].profit_usd == 2000.0

    def test_heap_stays_bounded_under_churn_many_loops(self):
        book = OpportunityBook()
        loop_ids = [f"loop-{i}" for i in range(50)]
        for round_ in range(100):
            book.apply(
                round_, 0,
                [make_entry(lid, float((round_ + i) % 37) + 0.5)
                 for i, lid in enumerate(loop_ids)],
            )
        assert len(book._heap) <= 3 * max(16, len(book._entries))
        # reads still correct after compactions
        top = book.top(5)
        assert len(top) == 5
        assert all(a.profit_usd >= b.profit_usd for a, b in zip(top, top[1:]))

    def test_snapshot_is_sequenced_and_sorted(self):
        book = OpportunityBook()
        book.apply(0, 0, [make_entry("b", 1.0), make_entry("a", 2.0),
                          make_entry("x", -1.0)])
        snap = book.snapshot()
        assert snap.seq == book.seq
        assert [e.loop_id for e in snap.entries] == ["a", "b"]
        assert snap.top(1)[0].loop_id == "a"


class TestSubscriptions:
    async def test_subscriber_receives_sequenced_deltas(self):
        book = OpportunityBook()
        sub = book.subscribe()
        book.apply(0, 0, [make_entry("a", 1.0)])
        book.apply(1, 0, [make_entry("b", 2.0)])
        first = await sub.next_delta()
        second = await sub.next_delta()
        assert (first.seq, second.seq) == (1, 2)
        assert first.changed[0].loop_id == "a"
        book.close()
        assert await sub.next_delta() is None

    async def test_slow_subscriber_gaps_and_resyncs(self):
        book = OpportunityBook()
        sub = book.subscribe(maxsize=1)
        book.apply(0, 0, [make_entry("a", 1.0)])
        book.apply(1, 0, [make_entry("b", 2.0)])  # queue full -> dropped
        assert sub.dropped == 1 and sub.gapped
        snap = sub.resync()
        assert not sub.gapped
        assert snap.seq == book.seq
        assert {e.loop_id for e in snap.entries} == {"a", "b"}

    async def test_unsubscribe_stops_delivery_and_wakes_reader(self):
        book = OpportunityBook()
        sub = book.subscribe()
        sub.close()
        # closing wakes any blocked next_delta() with the end sentinel
        assert await sub.next_delta() is None
        book.apply(0, 0, [make_entry("a", 1.0)])
        assert sub.queue.empty()

    async def test_close_unblocks_pending_reader(self):
        import asyncio

        book = OpportunityBook()
        sub = book.subscribe()
        reader = asyncio.ensure_future(sub.next_delta())
        await asyncio.sleep(0)  # reader is now parked on the empty queue
        sub.close()
        assert await asyncio.wait_for(reader, timeout=1.0) is None

    async def test_stale_sentinel_does_not_end_a_reopened_stream(self):
        book = OpportunityBook()
        sub = book.subscribe()
        book.apply(0, 0, [make_entry("a", 1.0)])
        book.close()  # queues a None sentinel behind the first delta
        book.reopen()
        book.apply(1, 0, [make_entry("b", 2.0)])
        first = await sub.next_delta()
        second = await sub.next_delta()  # must skip the stale sentinel
        assert first.changed[0].loop_id == "a"
        assert second is not None and second.changed[0].loop_id == "b"
        book.close()
        assert await sub.next_delta() is None

    def test_zero_profit_entries_never_rank(self):
        book = OpportunityBook()
        book.apply(0, 0, [make_entry("a", 0.0)])
        assert book.top(5) == []
        assert book.snapshot().entries == ()


def test_opportunity_to_dict_round_trips_fields():
    entry = make_entry("a|b", 1.5, block=7, shard=2)
    data = entry.to_dict()
    assert data["loop_id"] == "a|b"
    assert data["profit_usd"] == 1.5
    assert data["block"] == 7 and data["shard"] == 2


def test_book_top_rejects_nothing_on_empty():
    book = OpportunityBook()
    assert book.top(3) == []
    assert len(book) == 0
    with pytest.raises(AttributeError):
        book.entries  # internal dict is private
