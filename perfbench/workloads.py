"""The benchmark's four workloads, driven through the repo's public API.

Each ``run_*`` function builds its inputs from ``seed``, measures for
about ``seconds`` of operation time, optionally checks every output
against the repo's own oracles (outside the timed region), and returns
a :class:`Measurement`.  With ``traced`` the process tracer records the
measured region; the spans come back in ``Measurement.spans``.

A run is split into ``rounds`` rounds over identical inputs, each with
a fresh set-up; an operation's latency is its best over the rounds and
a throughput the best round's.  The rounds run seconds apart, so the
best of them filters out the slow phases of a shared machine, whose
speed drifts by a fifth or more within a minute.

* ``detect`` — cold snapshot ranking, exactly the ``detect`` command's
  path: ``analysis.profitable_loops`` → ``MarketArrays.from_registry`` +
  ``BatchEvaluator`` → ``evaluate_top_k``.  One operation is one
  snapshot ranked from cold; snapshot ``i`` is a fixed market after
  ``i`` steps of a seeded event stream.
* ``backtest`` — ``ReplayDriver`` (incremental, bound pruning on, as
  the ``replay`` command runs it) scoring MaxMax and Convex block by
  block over small constant-product markets with one price tick per
  block.  One operation is one block applied and re-detected.
* ``serve-sparse`` — an inline one-shard ``OpportunityService`` fed by
  an open-loop source at a fixed block rate.  One operation is one
  block, timed from when it was due to the last shard update for it
  reaching the book.
* ``serve-dense`` — a process-backed service, one shard process on
  shared memory, fed by the same open-loop source at a lower rate with
  larger blocks, timed the same way.
"""

from __future__ import annotations

import asyncio
import gc
import logging
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import repro.market.batch as market_batch
from repro import analysis
from repro.amm.events import BlockEvent
from repro.data.snapshot import MarketSnapshot
from repro.data.synthetic import SyntheticMarketGenerator
from repro.engine import EvaluationEngine
from repro.market import BatchEvaluator, MarketArrays
from repro.replay import ReplayDriver, apply_block_events, generate_event_stream
from repro.service import OpportunityService, ProcessShardPool, batch_detect_ranking
from repro.service.book import opportunity_sort_key
from repro.strategies.convexopt import ConvexOptimizationStrategy
from repro.strategies.maxmax import MaxMaxStrategy
from repro.telemetry import trace
from repro.telemetry.memory import peak_rss_bytes

from harness import BlockTracker, CallTimer, best_of_rounds

#: Rounds per end-to-end run (see the module docstring).  detect and
#: backtest repeat a few operations in many short rounds, so each
#: operation's best time is taken over samples spread across the whole
#: run; each serve round pays a multi-second market and service set-up.
ROUNDS = {"detect": 10, "backtest": 12, "serve-sparse": 3, "serve-dense": 5}

#: Ring capacity for traced runs; a run that fills it is refused.
TRACE_CAPACITY = 1_000_000

#: Book depth every ranking and correctness check compares.
TOP_K = 10

#: Latency limits: an operation slower than this counts as failed.
LATENCY_LIMIT_S = {
    "detect": 10.0,
    "backtest": 5.0,
    "serve-sparse": 1.0,
    "serve-dense": 5.0,
}

#: Every market is fixed and only its event stream follows --seed: the
#: cost of an operation swings 1.5-5x between generated markets (hub
#: tokens, graph shape, which loops are profitable), which would drown
#: any change under test in a run of a dozen snapshots or blocks.
MARKET_SEED = 20240601

# detect: a CPMM + stableswap market of ~5k profitable loops; snapshot i
# is its state after i steps of the seeded stream
DETECT_TOKENS, DETECT_POOLS, DETECT_STABLESWAP = 120, 1500, 0.2
DETECT_EVENTS, DETECT_TICKS, DETECT_MAX_SNAPSHOTS = 150, 20, 64
#: snapshots built (and their set-up timed) before the first is ranked,
#: so ``setup_s`` is a median over this many however few are ranked
DETECT_SETUPS = 16

# backtest: triangle markets (3 tokens, 3 pools, 2 candidate loops)
BACKTEST_MARKETS, BACKTEST_BLOCKS = 3, 400
#: pool mispricing well above the ~1% a run's price ticks drift, so a
#: loop's profitability (and with it the convex solve's cost) is a
#: property of the market rather than of the tick sequence
BACKTEST_MISPRICING = 0.05

# serve-sparse: ~10^4 CPMM loops, 4 pool events over 4 pools + 1 tick
SPARSE_TOKENS, SPARSE_POOLS = 300, 3000
SPARSE_EVENTS, SPARSE_TOUCH, SPARSE_TICKS = 4, 4, 1
#: about a third of the inline shard's saturation on a 2-core VM: at
#: 400 blocks/s the machine's slow phases already push it past
#: saturation and the backlog grows without bound
SPARSE_BLOCKS_PER_S = 250.0

# serve-dense: ~4.5k loops, 24 events over 12 pools + 2 ticks per block
DENSE_TOKENS, DENSE_POOLS, DENSE_STABLESWAP = 80, 800, 0.2
DENSE_EVENTS, DENSE_TOUCH, DENSE_TICKS = 24, 12, 2
#: one shard process: ingest and the shard then fill the two cores the
#: benchmark was tuned on; two shards made three busy processes share
#: them, and the run measured the scheduler (ten-seed spread 0.26 of
#: the median, against 0.07 with one shard)
DENSE_SHARDS, DENSE_QUEUE = 1, 4
#: about a third of the shard's saturation on a 2-core VM (~20 blocks/s
#: in the machine's fast phases, ~12 in its slow ones).  Run closed to
#: saturation instead, each block waited behind a full queue, so every
#: slow phase of the machine counted several times over in its latency
#: and the ten-seed spread was 0.25-0.27 of the median
DENSE_BLOCKS_PER_S = 6.0
#: serve-dense replays one fixed stream whatever the seed: a block that
#: touches a hub pool or ticks a hub token dirties ~10^3 loops, so the
#: blocks of one run differ by +-15% in work from another seed's, and the
#: latency would track the draw, not the code
DENSE_STREAM_SEED = MARKET_SEED


@dataclass
class Measurement:
    """What one workload run observed, before it becomes metrics."""

    #: per operation, its best latency over the rounds
    latencies: list[float] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)
    events_per_s: float = 0.0
    loops_per_s: float = 0.0
    rss_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: per-layer values the workload measured itself (name -> value)
    layers: dict[str, float] = field(default_factory=dict)
    spans: tuple = ()

    def fail(self, message: str, operations: int = 1) -> None:
        self.failed += operations
        self.problems.append(message)


class FallbackCounter(logging.Handler):
    """Counts the convex strategy's "falling back to SLSQP" records."""

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.fallbacks = 0

    def emit(self, record: logging.LogRecord) -> None:
        if "falling back to SLSQP" in record.getMessage():
            self.fallbacks += 1


FALLBACKS = FallbackCounter()


def install_log_counter() -> None:
    logger = logging.getLogger("repro")
    logger.addHandler(FALLBACKS)
    logger.setLevel(logging.WARNING)


@contextmanager
def patched(owner, name: str, timer: CallTimer):
    """Time every call of ``owner.name`` while the block runs."""
    original = getattr(owner, name)
    setattr(owner, name, timer.wrap(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


@contextmanager
def tracing(enabled: bool, out: Measurement):
    """Record spans for the block when ``enabled``; refuse a wrapped ring."""
    if not enabled:
        yield
        return
    trace.clear()
    trace.enable(capacity=TRACE_CAPACITY)
    try:
        yield
    finally:
        trace.disable()
        out.spans = trace.spans()
        trace.clear()
    if len(out.spans) >= TRACE_CAPACITY:
        raise RuntimeError(
            f"trace ring filled ({len(out.spans)} spans): spans were lost"
        )


@contextmanager
def untraced():
    """Pause the tracer (correctness checks stay out of the trace)."""
    was = trace.is_enabled()
    trace.disable()
    try:
        yield
    finally:
        if was:
            trace.enable()


def _ranked(pairs) -> list[tuple[float, str]]:
    return sorted(pairs, key=lambda pair: opportunity_sort_key(*pair))


def _late(latencies, limit_s: float) -> int:
    return sum(1 for latency in latencies if latency > limit_s)


# ----------------------------------------------------------------------
# detect
# ----------------------------------------------------------------------


def run_detect(seed: int, seconds: float, traced: bool, check: bool,
               rounds: int = ROUNDS["detect"]) -> Measurement:
    out = Measurement()
    enumerate_timer, compile_timer = CallTimer(), CallTimer()
    kernel = scalar = pruned = exact = pools = loop_count = 0
    strategy = MaxMaxStrategy()
    snapshots: list = []
    ranked_count = 0
    times: list[list[float]] = []
    t0 = time.perf_counter()
    market = SyntheticMarketGenerator(
        n_tokens=DETECT_TOKENS,
        n_pools=DETECT_POOLS,
        seed=MARKET_SEED,
        price_noise=0.012,
        stableswap_fraction=DETECT_STABLESWAP,
    ).generate()
    steps = iter(generate_event_stream(
        market, n_blocks=DETECT_MAX_SNAPSHOTS, events_per_block=DETECT_EVENTS,
        seed=seed, price_ticks_per_block=DETECT_TICKS,
    ).iter_blocks())
    prices = market.prices
    generation_s = time.perf_counter() - t0

    def next_snapshot() -> None:
        """Build the next snapshot: the market one seeded step on."""
        nonlocal prices, generation_s
        t0 = time.perf_counter()
        _block, events = next(steps)
        prices, *_ = apply_block_events(market.registry, prices, events)
        snapshots.append(MarketSnapshot(registry=market.registry, prices=prices).copy())
        # the market and its stream count once, with the first
        out.setups.append(time.perf_counter() - t0 + generation_s)
        generation_s = 0.0

    for _ in range(DETECT_SETUPS):
        next_snapshot()
    with patched(market_batch, "compile_loops", compile_timer), tracing(traced, out):
        for round_index in range(rounds):
            round_times: list[float] = []
            times.append(round_times)
            while (
                len(round_times) < ranked_count
                if round_index
                else sum(round_times) < seconds / rounds
                and len(round_times) < DETECT_MAX_SNAPSHOTS
            ):
                index = len(round_times)
                if index == len(snapshots):
                    next_snapshot()
                snapshot = snapshots[index]

                t0 = time.perf_counter()
                with trace.span("bench.detect", snapshot=index):
                    with trace.span("bench.detect.enumerate"):
                        _snapshot, loops = enumerate_timer.wrap(
                            analysis.profitable_loops
                        )(snapshot, 3)
                    with trace.span("bench.detect.compile"):
                        evaluator = BatchEvaluator(
                            loops, arrays=MarketArrays.from_registry(snapshot.registry)
                        )
                    with trace.span("bench.detect.rank"):
                        topk, skipped = evaluator.evaluate_top_k(
                            strategy, snapshot.prices, k=TOP_K
                        )
                        ranked = _ranked(
                            (profit, loops[position].canonical_id)
                            for profit, position in topk
                        )[:TOP_K]
                round_times.append(time.perf_counter() - t0)
                if round_index:
                    continue
                ranked_count = len(round_times)
                pools += len(snapshot.registry)
                loop_count += len(loops)
                kernel += evaluator.stats.kernel_loops
                scalar += evaluator.stats.scalar_loops
                pruned += skipped
                exact += len(topk)
                if check:
                    with untraced():
                        exhaustive = BatchEvaluator(
                            loops,
                            arrays=MarketArrays.from_registry(snapshot.registry),
                        ).evaluate_many(strategy, snapshot.prices)
                    expected = _ranked(
                        (result.monetized_profit, loop.canonical_id)
                        for result, loop in zip(exhaustive, loops)
                    )[:TOP_K]
                    if ranked != expected:
                        out.fail(f"detect snapshot {index}: pruned top-{TOP_K} "
                                 "differs from the exhaustive ranking")
    out.rss_bytes = peak_rss_bytes()
    out.latencies = best_of_rounds(times)
    out.attempted = ranked_count
    out.failed += _late(out.latencies, LATENCY_LIMIT_S["detect"])
    busy = sum(out.latencies)
    out.events_per_s = pools / busy
    out.loops_per_s = loop_count / busy
    ops = max(1, out.attempted)
    out.layers.update({
        "graph.profitable_loops_s": enumerate_timer.mean_s,
        "market.compile_s": compile_timer.mean_s,
        "market.kernel_loops": kernel / ops,
        "market.scalar_loops": scalar / ops,
        "market.prune_ratio": pruned / max(1, pruned + exact),
    })
    return out


# ----------------------------------------------------------------------
# backtest
# ----------------------------------------------------------------------


def _triangle_markets(count: int):
    """The first ``count`` generated 3-token markets whose universe is
    one triangle (two directed candidate loops), so every price tick
    dirties both."""
    markets = []
    draw = 0
    while len(markets) < count:
        market = SyntheticMarketGenerator(
            n_tokens=3, n_pools=3, seed=MARKET_SEED + draw,
            price_noise=BACKTEST_MISPRICING,
        ).generate()
        draw += 1
        universe = EvaluationEngine().loop_universe(market.registry, 3)
        if len(universe.candidates) == 2:
            markets.append(market)
    return markets


def run_backtest(seed: int, seconds: float, traced: bool, check: bool,
                 rounds: int = ROUNDS["backtest"]) -> Measurement:
    out = Measurement()
    enumerate_timer, compile_timer, convex_timer = CallTimer(), CallTimer(), CallTimer()
    oracle = MaxMaxStrategy()
    convex_log: list = []  # (loop, prices, convex profit) while checking
    recording = [False]
    markets = _triangle_markets(BACKTEST_MARKETS)

    def replica(index: int, market) -> dict:
        """One market's driver and seeded tick stream (timed set-up)."""
        t0 = time.perf_counter()
        blocks = list(generate_event_stream(
            market, n_blocks=BACKTEST_BLOCKS, events_per_block=0,
            seed=seed * 1000 + index, price_ticks_per_block=1,
        ).iter_blocks())
        convex = ConvexOptimizationStrategy()
        evaluate = convex_timer.wrap(convex.evaluate_cached)

        def logged(loop, prices, cache=None):
            result = evaluate(loop, prices, cache)
            if recording[0]:
                convex_log.append((loop, prices, result.monetized_profit))
            return result

        convex.evaluate_cached = logged
        engine = EvaluationEngine()
        engine.loop_universe = enumerate_timer.wrap(engine.loop_universe)
        driver = ReplayDriver(
            market,
            strategies={"maxmax": MaxMaxStrategy(), "convex": convex},
            mode="incremental",
            engine=engine,
            prune=True,
        )
        out.setups.append(time.perf_counter() - t0)
        return {
            "market": market,
            "driver": driver,
            "blocks": blocks,
            "reports": [],
            "stats0": driver.evaluator_stats.to_dict(),
            "cache0": (engine.cache.hits, engine.cache.misses),
        }

    order: list[tuple[int, int]] = []  # (replica, block position) applied
    times: list[list[float]] = []
    with tracing(traced, out):
        for round_index in range(rounds):
            with patched(market_batch, "compile_loops", compile_timer), untraced():
                replicas = [replica(i, market) for i, market in enumerate(markets)]
            convex_calls0, fallbacks0 = convex_timer.calls, FALLBACKS.fallbacks
            gc.collect()  # set-up garbage is not the measured run's to collect
            round_times: list[float] = []
            times.append(round_times)
            step = 0
            while (
                step < len(order) if round_index else sum(round_times) < seconds / rounds
            ):
                if round_index == 0:
                    order.append((step % len(replicas), step // len(replicas)))
                which, position = order[step]
                step += 1
                target = replicas[which]
                block, events = target["blocks"][position]
                convex_log.clear()
                recording[0] = check and round_index == 0
                t0 = time.perf_counter()
                with trace.span("bench.replay.block", block=block):
                    report = target["driver"].apply_block(block, events)
                round_times.append(time.perf_counter() - t0)
                recording[0] = False
                target["reports"].append((block, events, report))
                if not (check and round_index == 0):
                    continue
                with untraced():
                    for loop, prices, profit in convex_log:
                        floor = oracle.evaluate(loop, prices).monetized_profit
                        if profit < floor - 1e-9 * max(1.0, abs(floor)):
                            out.fail(f"backtest block {block}: convex {profit!r} "
                                     f"< maxmax {floor!r} on {loop.canonical_id}")
            if round_index == 0:
                first = replicas
                convex_calls = convex_timer.calls - convex_calls0
                fallbacks = FALLBACKS.fallbacks - fallbacks0
    out.rss_bytes = peak_rss_bytes()
    out.latencies = best_of_rounds(times)
    out.attempted = len(order)
    out.failed += _late(out.latencies, LATENCY_LIMIT_S["backtest"])

    if check:
        # the full-mode MaxMax-only replay is the incremental path's
        # parity oracle: identical per-block MaxMax numbers
        for target in first:
            full = ReplayDriver(
                target["market"], strategies={"maxmax": MaxMaxStrategy()}, mode="full"
            )
            for block, events, report in target["reports"]:
                expected = full.apply_block(block, events)
                if (
                    expected.profit_usd["maxmax"] != report.profit_usd["maxmax"]
                    or expected.best_profit_usd["maxmax"]
                    != report.best_profit_usd["maxmax"]
                    or expected.profitable_loops != report.profitable_loops
                    or expected.mispricing_index != report.mispricing_index
                ):
                    out.fail(f"backtest block {block}: incremental MaxMax "
                             "differs from the full-mode replay")

    busy = sum(out.latencies)
    reports = [report for target in first for _, _, report in target["reports"]]
    out.events_per_s = sum(report.n_events for report in reports) / busy
    out.loops_per_s = sum(report.evaluated_loops for report in reports) / busy
    ops = max(1, out.attempted)
    kernel = scalar = pruned = hits = misses = 0
    for target in first:
        stats = target["driver"].evaluator_stats.to_dict()
        kernel += stats["kernel_loops"] - target["stats0"]["kernel_loops"]
        scalar += stats["scalar_loops"] - target["stats0"]["scalar_loops"]
        pruned += stats["pruned_loops"] - target["stats0"]["pruned_loops"]
        cache = target["driver"].engine.cache
        hits += cache.hits - target["cache0"][0]
        misses += cache.misses - target["cache0"][1]
    out.layers.update({
        "graph.profitable_loops_s": enumerate_timer.mean_s,
        "market.compile_s": compile_timer.mean_s,
        "market.kernel_loops": kernel / ops,
        "market.scalar_loops": scalar / ops,
        "market.prune_ratio": pruned / max(1, pruned + kernel + scalar),
        "engine.cache_hit_rate": hits / max(1, hits + misses),
        "optimize.convex_s": convex_timer.mean_s,
        "optimize.convex_calls": convex_calls / ops,
        "optimize.slsqp_fallbacks": fallbacks / ops,
    })
    return out


# ----------------------------------------------------------------------
# serve-sparse / serve-dense
# ----------------------------------------------------------------------


async def block_source(blocks, tracker: BlockTracker, rate: float, emitted: list):
    """Release ``blocks`` on an open-loop schedule and stamp each one's
    due time.

    Block ``i`` is due at ``t0 + i / rate`` whatever the service is
    doing, and its latency counts from that due time.  Every block is
    followed by the next block's marker, so ingest flushes it on release
    instead of when the next block's events arrive.
    """
    clock = tracker.clock
    t0 = clock()
    for i, (block, events) in enumerate(blocks):
        due = t0 + i / rate
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        tracker.start(block, due, clock())
        emitted.append((block, events))
        for event in events:
            yield event
        yield BlockEvent(block=block + 1)


def _evaluator_totals(stats_dicts) -> tuple[int, int]:
    kernel = sum(stats["kernel_loops"] for stats in stats_dicts)
    scalar = sum(stats["scalar_loops"] for stats in stats_dicts)
    return kernel, scalar


def run_serve(workload: str, seed: int, seconds: float, traced: bool,
              check: bool, rounds: int | None = None) -> Measurement:
    rounds = rounds or ROUNDS[workload]
    out = Measurement()
    dense = workload == "serve-dense"
    enumerate_timer, compile_timer = CallTimer(), CallTimer()
    submit_timer, next_timer = CallTimer(), CallTimer()
    rate = DENSE_BLOCKS_PER_S if dense else SPARSE_BLOCKS_PER_S
    n_blocks = int(seconds / rounds * rate) + 1

    def setup():
        t0 = time.perf_counter()
        market = SyntheticMarketGenerator(
            n_tokens=DENSE_TOKENS if dense else SPARSE_TOKENS,
            n_pools=DENSE_POOLS if dense else SPARSE_POOLS,
            seed=MARKET_SEED,
            price_noise=0.02,
            stableswap_fraction=DENSE_STABLESWAP if dense else 0.0,
        ).generate()
        log = generate_event_stream(
            market,
            n_blocks=n_blocks,
            events_per_block=DENSE_EVENTS if dense else SPARSE_EVENTS,
            seed=DENSE_STREAM_SEED if dense else seed,
            pools_per_block=DENSE_TOUCH if dense else SPARSE_TOUCH,
            price_ticks_per_block=DENSE_TICKS if dense else SPARSE_TICKS,
        )
        engine = EvaluationEngine()
        engine.loop_universe = enumerate_timer.wrap(engine.loop_universe)
        with patched(market_batch, "compile_loops", compile_timer):
            service = OpportunityService(
                market,
                n_shards=DENSE_SHARDS if dense else 1,
                backend="process" if dense else "inline",
                shared=dense,
                queue_size=DENSE_QUEUE if dense else 64,
                prune_top_k=TOP_K,
                engine=engine,
            )
        out.setups.append(time.perf_counter() - t0)
        return market, service, list(log.iter_blocks())

    def one_round(service, blocks):
        """Drive one service run; return (tracker, report, emitted)."""
        tracker = BlockTracker()
        for block, events in blocks:
            tracker.owe(block, len(service.plan.route_block(events)))
        publish = service.book.apply

        def apply(block, shard, entries):
            delta = publish(block, shard, entries)
            tracker.applied(block)
            return delta

        service.book.apply = apply
        emitted: list = []
        # collect the set-up's garbage, then freeze the live heap out of
        # the cyclic collector, as a long-running service would after
        # start-up: otherwise one or two ~200 ms full collections of the
        # 10^4-loop heap land at random in each run and swing the tail
        gc.collect()
        gc.freeze()
        try:
            with patched(ProcessShardPool, "submit", submit_timer), \
                    patched(ProcessShardPool, "next_message", next_timer):
                with trace.span("bench.serve.run", workload=workload):
                    report = asyncio.run(service.run(
                        block_source(blocks, tracker, rate, emitted)
                    ))
        finally:
            gc.unfreeze()
            service.close()
        return tracker, report, emitted

    per_round: list[dict[int, float]] = []
    expected = None
    with tracing(traced, out):
        for round_index in range(rounds):
            with untraced():
                market, service, blocks = setup()
            stats0 = [worker.evaluator_stats.to_dict() for worker in service.workers]
            tracker, report, emitted = one_round(service, blocks)
            per_round.append(tracker.latencies())
            out.rss_bytes = max(out.rss_bytes, peak_rss_bytes() + sum(
                report.memory.get("shard_rss_bytes_max", {}).values()
            ))
            n_events = sum(len(events) for _, events in emitted)
            out.events_per_s = max(out.events_per_s, n_events / report.duration_s)
            out.loops_per_s = max(
                out.loops_per_s,
                (report.evaluations + report.loops_pruned) / report.duration_s,
            )
            out.failed += len(tracker.lost())
            if round_index == 0:
                first_report, first_tracker = report, tracker
                first_stats0, first_service = stats0, service
            if check:
                if expected is None:
                    events = [event for _, block_events in emitted
                              for event in block_events]
                    with untraced():
                        expected = batch_detect_ranking(market, events)[:TOP_K]
                got = [(o.profit_usd, o.loop_id) for o in report.top(TOP_K)]
                if got != expected:
                    out.fail(f"{workload} round {round_index}: quiesced top-{TOP_K} "
                             "differs from batch_detect_ranking",
                             operations=len(tracker.operations()))

    common = set.intersection(*(set(latencies) for latencies in per_round))
    out.latencies = best_of_rounds(
        [[latencies[block] for block in sorted(common)] for latencies in per_round]
    )
    out.attempted = len(first_tracker.operations())
    out.failed += _late(out.latencies, LATENCY_LIMIT_S[workload])

    report, service = first_report, first_service
    ops = max(1, out.attempted)
    metrics = report.metrics
    gauges, counters = metrics["gauges"], metrics["counters"]
    if dense:
        after = [
            {
                name: gauges.get(f"shard{shard}_{name}", 0.0)
                for name in ("kernel_loops", "scalar_loops")
            }
            for shard in range(service.n_shards)
        ]
    else:
        after = [worker.evaluator_stats.to_dict() for worker in service.workers]
    kernel1, scalar1 = _evaluator_totals(after)
    kernel0, scalar0 = _evaluator_totals(first_stats0)
    e2e = metrics["latencies"].get("end_to_end", {})
    out.layers.update({
        "graph.profitable_loops_s": enumerate_timer.mean_s,
        "market.compile_s": compile_timer.mean_s,
        "market.kernel_loops": (kernel1 - kernel0) / ops,
        "market.scalar_loops": (scalar1 - scalar0) / ops,
        "market.prune_ratio": report.loops_pruned
        / max(1, report.loops_pruned + report.evaluations),
        "service.evaluations": report.evaluations / ops,
        "service.loops_pruned": report.loops_pruned / ops,
        "service.shard_queue_depth_max": gauges.get("shard_queue_depth_max", 0.0),
        "service.event_loop_lag_ms_max": gauges.get("event_loop_lag_ms_max", 0.0),
        "service.internal_e2e_p50_ms": e2e.get("p50_ms", 0.0),
        "shm.epoch_waits": counters.get("shm_epoch_waits", 0) / ops,
        "shm.torn_retries": counters.get("shm_torn_retries", 0) / ops,
        "ipc.submit_s": submit_timer.mean_s,
        "ipc.next_message_s": next_timer.mean_s,
        "bench.generator_lag_ms_max": first_tracker.max_lateness() * 1e3,
    })
    return out


WORKLOADS = {
    "detect": run_detect,
    "backtest": run_backtest,
    "serve-sparse": lambda *args, **kwargs: run_serve("serve-sparse", *args, **kwargs),
    "serve-dense": lambda *args, **kwargs: run_serve("serve-dense", *args, **kwargs),
}
