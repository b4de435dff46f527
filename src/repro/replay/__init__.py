"""Event-sourced market replay (tentpole of PR 2).

Real DEX markets arrive as an ordered stream of swap / mint / burn
events and CEX price ticks, block by block.  This package makes that
stream a first-class artifact and re-runs arbitrage detection
*incrementally* after every block:

* :class:`MarketEventLog` — a block-ordered, JSONL-serializable event
  stream (the events themselves live in :mod:`repro.amm.events`);
* :func:`generate_event_stream` — seeded synthetic streams scaled to
  N pools × M events;
* :class:`ReplayDriver` — applies events to a private market copy and
  re-evaluates only the loops whose pools (or token prices) changed,
  using the engine's reserve-keyed cache and topology-cached loop
  universe; a full-recompute mode provides the parity oracle;
* :class:`BlockReport` / :class:`ReplayResult` — per-block profit and
  mispricing reporting.

The ``repro-arb replay`` CLI command and the simulation engine's event
emission both build on this package; the ``replay_throughput``
section of ``benchmarks/gates.py`` pins the incremental speedup.
"""

from .apply import (
    apply_block_events,
    apply_event,
    build_loop_indices,
    rebind_loops,
)
from .driver import BlockReport, ReplayDriver, ReplayResult
from .generator import generate_event_stream
from .log import MarketEventLog, event_from_dict, event_to_dict

__all__ = [
    "BlockReport",
    "MarketEventLog",
    "ReplayDriver",
    "ReplayResult",
    "apply_block_events",
    "apply_event",
    "build_loop_indices",
    "event_from_dict",
    "event_to_dict",
    "generate_event_stream",
    "rebind_loops",
]
