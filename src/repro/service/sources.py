"""Async event sources feeding the streaming pipeline.

Every source is an ``AsyncIterator[MarketEvent]``; the pipeline does
not care whether events come from a prerecorded log, a JSONL file on
disk, or a live :class:`~repro.simulation.SimulationEngine`, paced or
not.  Sources never mutate market state — they only emit the events;
the shards apply them.

* :func:`log_source` — replay a :class:`~repro.replay.MarketEventLog`;
* :func:`jsonl_source` — stream a saved JSONL log from disk;
* :func:`simulation_source` — *live* ingest: steps a simulation engine
  block by block and yields each block's events as they are recorded,
  so the service consumes a market that is being generated under it;
* :func:`paced` — wrap any source with a target event rate
  (events/sec), the throttle behind ``serve --rate``.
"""

from __future__ import annotations

import asyncio
import time
from pathlib import Path
from typing import AsyncIterator

from ..amm.events import MarketEvent
from ..replay.log import MarketEventLog
from ..simulation.engine import SimulationEngine

__all__ = ["jsonl_source", "log_source", "paced", "simulation_source"]


async def log_source(log: MarketEventLog) -> AsyncIterator[MarketEvent]:
    """Emit a prerecorded log, yielding control at block boundaries."""
    for block, events in log.iter_blocks():
        for event in events:
            yield event
        # one cooperative yield per block keeps the pipeline's other
        # stages (dispatch, publish) interleaved with a fast source
        await asyncio.sleep(0)


async def jsonl_source(path: str | Path) -> AsyncIterator[MarketEvent]:
    """Emit a saved JSONL stream (see :class:`MarketEventLog`)."""
    log = MarketEventLog.load(path)
    async for event in log_source(log):
        yield event


async def simulation_source(
    engine: SimulationEngine, n_blocks: int
) -> AsyncIterator[MarketEvent]:
    """Live ingest off a simulation: step, then emit what was recorded.

    The engine must be constructed with ``record_events=True`` (the
    default).  Each iteration advances one block and yields exactly
    the events that block appended to the engine's canonical log, so
    the service observes the same stream a post-hoc replay would.
    """
    if engine.event_log is None:
        raise ValueError(
            "simulation_source needs a SimulationEngine with record_events=True"
        )
    if n_blocks < 0:
        raise ValueError(f"n_blocks must be >= 0, got {n_blocks}")
    seen = len(engine.event_log)
    for _ in range(n_blocks):
        engine.step()
        for event in engine.event_log.events_since(seen):
            yield event
        seen = len(engine.event_log)
        await asyncio.sleep(0)


async def paced(
    source: AsyncIterator[MarketEvent], rate: float
) -> AsyncIterator[MarketEvent]:
    """Throttle ``source`` to ``rate`` events per second.

    Uses an absolute schedule (event *i* is due at ``start + i/rate``)
    rather than per-event sleeps, so pacing error does not accumulate
    and bursts after a slow block catch back up to the offered rate.
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    interval = 1.0 / rate
    start = time.perf_counter()
    emitted = 0
    async for event in source:
        due = start + emitted * interval
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        yield event
        emitted += 1
