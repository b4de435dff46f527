"""Load-generation harness for the opportunity service.

Builds a seeded synthetic market and event stream, offers it to an
:class:`~repro.service.OpportunityService` at a target rate (or as
fast as the pipeline will take it), and reduces the run to a flat
:class:`LoadReport` — sustained events/sec, end-to-end latency
quantiles, drop and backpressure accounting.  The
``repro-arb loadgen`` command and the ``service_throughput`` section of
``benchmarks/gates.py`` are thin wrappers over this module, so
CLI runs, CI smoke runs, and the full benchmark ladder all measure
exactly the same code path.
"""

from __future__ import annotations

import asyncio
import csv
from dataclasses import dataclass
from pathlib import Path

from ..data.snapshot import MarketSnapshot
from ..data.synthetic import SyntheticMarketGenerator
from ..replay.generator import generate_event_stream
from ..replay.log import MarketEventLog
from .pipeline import OpportunityService, ServiceReport
from .sources import log_source, paced

__all__ = ["LoadReport", "make_workload", "run_load"]

#: Flat column order for CSV reports (one row per run).
_CSV_FIELDS = [
    "n_pools", "n_tokens", "n_blocks", "n_shards", "backend", "rate",
    "events_ingested", "events_dropped", "blocks_dropped", "duration_s",
    "events_per_s", "evaluations", "loops_pruned", "e2e_p50_ms", "e2e_p95_ms", "e2e_p99_ms", "book_seq", "profitable_loops",
]


@dataclass(frozen=True)
class LoadReport:
    """One load-generation run, flattened for tables and CSV."""

    n_pools: int
    n_tokens: int
    n_blocks: int
    rate: float  # offered events/sec; 0 = unthrottled
    service: ServiceReport

    def to_row(self) -> dict:
        s = self.service
        e2e = s.metrics["latencies"].get("end_to_end", {})
        return {
            "n_pools": self.n_pools,
            "n_tokens": self.n_tokens,
            "n_blocks": self.n_blocks,
            "n_shards": s.n_shards,
            "backend": s.backend,
            "rate": self.rate,
            "events_ingested": s.events_ingested,
            "events_dropped": s.events_dropped,
            "blocks_dropped": s.blocks_dropped,
            "duration_s": s.duration_s,
            "events_per_s": s.events_per_s,
            "evaluations": s.evaluations,
            "loops_pruned": s.loops_pruned,
            "e2e_p50_ms": e2e.get("p50_ms", 0.0),
            "e2e_p95_ms": e2e.get("p95_ms", 0.0),
            "e2e_p99_ms": e2e.get("p99_ms", 0.0),
            "book_seq": s.book.seq,
            "profitable_loops": len(s.book.entries),
        }

    def to_dict(self) -> dict:
        return {
            "n_pools": self.n_pools,
            "n_tokens": self.n_tokens,
            "n_blocks": self.n_blocks,
            "rate": self.rate,
            "service": self.service.to_dict(),
        }


def save_rows_csv(reports: list[LoadReport], path: str | Path) -> Path:
    """One CSV row per run (the golden-file-friendly shape)."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_CSV_FIELDS)
        writer.writeheader()
        for report in reports:
            writer.writerow(report.to_row())
    return path


def make_workload(
    n_tokens: int,
    n_pools: int,
    n_blocks: int,
    events_per_block: int,
    seed: int,
    *,
    pools_per_block: int | None = None,
    price_ticks_per_block: int = 1,
    stableswap_fraction: float = 0.0,
) -> tuple[MarketSnapshot, MarketEventLog]:
    """Seeded synthetic market + stream (the loadgen's event supply)."""
    market = SyntheticMarketGenerator(
        n_tokens=n_tokens,
        n_pools=n_pools,
        seed=seed,
        price_noise=0.02,
        stableswap_fraction=stableswap_fraction,
    ).generate()
    log = generate_event_stream(
        market,
        n_blocks=n_blocks,
        events_per_block=events_per_block,
        seed=seed,
        pools_per_block=pools_per_block,
        price_ticks_per_block=price_ticks_per_block,
    )
    return market, log


def run_load(
    market: MarketSnapshot,
    log: MarketEventLog,
    *,
    rate: float = 0.0,
    n_shards: int = 1,
    length: int = 3,
    backend: str = "inline",
    ingest_policy: str = "block",
    queue_size: int = 64,
    n_tokens: int | None = None,
    n_blocks: int | None = None,
    prune_top_k: int | None = None,
    start_method: str | None = None,
) -> LoadReport:
    """Drive one service run over ``log`` and flatten the result.

    ``rate`` throttles the offered stream (events/sec); 0 means "as
    fast as the pipeline accepts", which measures sustained capacity.
    ``prune_top_k`` enables bound-based re-quote pruning against each
    shard's own K-th profit (see :class:`OpportunityService`).
    """
    service = OpportunityService(
        market,
        n_shards=n_shards,
        length=length,
        backend=backend,
        ingest_policy=ingest_policy,
        queue_size=queue_size,
        prune_top_k=prune_top_k,
        start_method=start_method,
    )
    try:
        source = log_source(log)
        if rate > 0:
            source = paced(source, rate)
        report = asyncio.run(service.run(source))
    finally:
        service.close()
    return LoadReport(
        n_pools=len(market.registry),
        n_tokens=n_tokens if n_tokens is not None else len(market.registry.tokens),
        n_blocks=n_blocks if n_blocks is not None else len(log.blocks()),
        rate=rate,
        service=report,
    )
