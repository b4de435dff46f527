"""Run the streaming opportunity service end to end.

Walks the full service lifecycle:

1. generate a synthetic market and a seeded event stream;
2. start a sharded :class:`~repro.service.OpportunityService` with a
   live delta subscription on its top-K book;
3. stream the events through (watching sequenced deltas arrive as
   shards publish);
4. quiesce and verify the final book equals batch detection on the
   final market state — the service's parity guarantee;
5. print the top opportunities and the run's throughput / latency
   metrics.

Run::

    PYTHONPATH=src python examples/opportunity_service.py --shards 4
"""

from __future__ import annotations

import argparse
import asyncio

from repro.data import SyntheticMarketGenerator
from repro.replay import generate_event_stream
from repro.service import OpportunityService, batch_detect_ranking, log_source


async def watch(subscription, seen: list) -> None:
    while True:
        delta = await subscription.next_delta()
        if delta is None:
            return
        seen.append(delta)


async def main_async(args) -> None:
    # 1. market + stream ------------------------------------------------
    market = SyntheticMarketGenerator(
        n_tokens=args.tokens, n_pools=args.pools, seed=args.seed,
        price_noise=0.015,
    ).generate()
    log = generate_event_stream(
        market,
        n_blocks=args.blocks,
        events_per_block=args.events_per_block,
        seed=args.seed,
    )
    print(f"market: {market}")
    print(f"stream: {log}")

    # 2. service + subscription -----------------------------------------
    service = OpportunityService(market, n_shards=args.shards)
    print(
        f"service: {service.n_shards} shard(s), "
        f"{service.total_loops} candidate loops, "
        f"loops per shard {service.plan.loops_per_shard()}"
    )
    subscription = service.book.subscribe(maxsize=4096)
    deltas: list = []

    # 3. stream through -------------------------------------------------
    report, _ = await asyncio.gather(
        service.run(log_source(log)), watch(subscription, deltas)
    )
    print(
        f"quiesced at book seq {report.book.seq}: "
        f"{report.events_ingested} events, {report.evaluations} loop "
        f"evaluations, {len(deltas)} deltas observed live"
    )

    # 4. parity with batch detection ------------------------------------
    expected = batch_detect_ranking(market, log)
    got = [(o.profit_usd, o.loop_id) for o in report.book.entries]
    assert got == expected, "service book diverged from batch detection!"
    print(f"parity with batch detect: OK ({len(got)} profitable loops)")

    # 5. top opportunities + metrics ------------------------------------
    print("top opportunities:")
    for i, opp in enumerate(report.top(args.top), start=1):
        print(f"  {i}. ${opp.profit_usd:>10,.2f}  {opp.path}  (block {opp.block})")
    e2e = report.metrics["latencies"]["end_to_end"]
    print(
        f"throughput {report.events_per_s:,.0f} ev/s, end-to-end p50 "
        f"{e2e['p50_ms']:.2f}ms / p99 {e2e['p99_ms']:.2f}ms"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tokens", type=int, default=12)
    parser.add_argument("--pools", type=int, default=30)
    parser.add_argument("--blocks", type=int, default=10)
    parser.add_argument("--events-per-block", type=int, default=6)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--top", type=int, default=5)
    args = parser.parse_args()
    asyncio.run(main_async(args))


if __name__ == "__main__":
    main()
