"""Streaming opportunity service (tentpole of PR 3).

The offline layers answer "what arbitrage exists in this snapshot?";
this package keeps that answer *continuously current* against a live
event stream:

* :mod:`~repro.service.sources` — async event ingest from a recorded
  log, a JSONL file, or a running simulation;
* :class:`ShardPlan` — deterministic pool/loop partitioning and event
  routing across N shards;
* :class:`ShardWorker` — per-shard dirty-set re-evaluation over the one
  column store ingest writes (in-process columns, or a shared-memory
  segment for child processes), inline or in a child process
  (:class:`ProcessShardPool`) for multi-core throughput;
* :class:`OpportunityBook` — the live top-K book: heap-backed ranking
  (profit desc, canonical loop id asc) with sequence-numbered
  snapshots and bounded delta subscriptions;
* :class:`OpportunityService` — the asyncio pipeline wiring it all
  together, with bounded queues, backpressure or block-shedding, and a
  :class:`ServiceMetrics` registry (events/sec, queue depths,
  per-stage p50/p99 latency).

On a quiesced stream the book is bit-identical to batch detection on
the final market state, for any shard count and either backend.
"""

from .book import (
    BookDelta,
    BookSnapshot,
    BookSubscription,
    Opportunity,
    OpportunityBook,
    opportunity_sort_key,
    rank_opportunities,
)
from .metrics import ServiceMetrics
from .pipeline import OpportunityService, ServiceReport, batch_detect_ranking
from .sharding import ShardPlan
from .sources import jsonl_source, log_source, paced, simulation_source
from .worker import BlockWork, ProcessShardPool, ShardUpdate, ShardWorker

__all__ = [
    "BlockWork",
    "BookDelta",
    "BookSnapshot",
    "BookSubscription",
    "Opportunity",
    "OpportunityBook",
    "OpportunityService",
    "ProcessShardPool",
    "ServiceMetrics",
    "ServiceReport",
    "ShardPlan",
    "ShardUpdate",
    "ShardWorker",
    "batch_detect_ranking",
    "jsonl_source",
    "log_source",
    "opportunity_sort_key",
    "paced",
    "rank_opportunities",
    "simulation_source",
]
