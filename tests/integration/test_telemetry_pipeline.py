"""Integration tests for telemetry across the pipeline.

A traced service run must cover the whole hot path —
ingest → apply → bounds → quote → publish — on one monotonic
timeline; child-process shards must ship their spans back; the
structured logs must fire on shedding and subscriber gaps; and the
scrape registry must expose the routing/prune counters the
acceptance list names.
"""

from __future__ import annotations

import logging

import pytest

from repro.replay import ReplayDriver, generate_event_stream, make_workload
from repro.service import OpportunityService, log_source
from repro.telemetry import trace
from repro.telemetry.export import chrome_trace_events, prometheus_text
from repro.telemetry.metrics import MetricRegistry


@pytest.fixture(scope="module")
def workload():
    return make_workload(10, 24, 8, 6, seed=11)


@pytest.fixture
def traced():
    trace.clear()
    trace.enable()
    yield
    trace.disable()
    trace.clear()


class TestTracedServiceRun:
    async def test_spans_cover_the_hot_path(self, workload, traced):
        market, log = workload
        service = OpportunityService(market, n_shards=2)
        await service.run(log_source(log))
        names = {s.name for s in trace.spans()}
        assert {
            "ingest.block",
            "shard.queue_wait",
            "shard.block",
            "shard.apply",
            "shard.quote",
            "publish.book",
        } <= names
        # and the trace is Chrome/Perfetto-renderable
        events = chrome_trace_events(trace.spans())
        assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)

    async def test_nesting_shard_stages_under_the_block_span(
        self, workload, traced
    ):
        market, log = workload
        await OpportunityService(market, n_shards=1).run(log_source(log))
        spans = trace.spans()
        blocks = {s.span_id for s in spans if s.name == "shard.block"}
        stages = [s for s in spans if s.name in ("shard.apply", "shard.quote")]
        assert stages
        assert all(s.parent_id in blocks for s in stages)

    async def test_disabled_run_records_nothing(self, workload):
        market, log = workload
        trace.clear()
        await OpportunityService(market, n_shards=2).run(log_source(log))
        assert len(trace.spans()) == 0

    async def test_process_backend_ships_child_spans(self, workload, traced):
        market, log = workload
        service = OpportunityService(market, n_shards=2, backend="process")
        await service.run(log_source(log))
        shipped = [s for s in trace.spans() if s.name == "shard.block"]
        assert shipped
        # child spans land on the shard's display lane (tid = shard+1)
        assert {s.tid for s in shipped} <= {1, 2}
        # and on the parent's monotonic timeline: publishes happen
        # after the shard block that produced them started
        publishes = [s for s in trace.spans() if s.name == "publish.book"]
        assert publishes
        assert min(p.start_ns for p in publishes) >= min(
            s.start_ns for s in shipped
        )


class TestTracedReplay:
    def test_replay_spans_and_published_metrics(self, workload, traced):
        market, _ = workload
        log = generate_event_stream(market, n_blocks=4, events_per_block=5, seed=3)
        driver = ReplayDriver(market, prune=True)
        driver.replay(log)
        names = {s.name for s in trace.spans()}
        assert {"replay.apply", "replay.quote", "shard.block"} <= names
        registry = driver.publish_metrics(MetricRegistry())
        snap = registry.snapshot()
        assert snap["counters"]['replay_blocks{mode=incremental}'] == 4
        assert (
            snap["counters"]['replay_evaluations{mode=incremental}']
            == sum(r.evaluated_loops for r in driver.reports)
        )
        assert "evaluator_pruned_loops{layer=replay}" in snap["counters"]


class TestScrapeRegistry:
    async def test_scrape_exposes_routing_and_prune_counters(self, workload):
        market, log = workload
        service = OpportunityService(market, n_shards=2, prune_top_k=5)
        await service.run(log_source(log))
        text = prometheus_text(service.scrape_registry())
        lines = text.splitlines()
        assert "# TYPE events_ingested counter" in lines
        assert "# TYPE loops_pruned counter" in lines
        assert "# TYPE evaluator_kernel_loops counter" in lines
        assert any(line.startswith("end_to_end_count") for line in lines)
        assert any(
            line.startswith('evaluator_scalar_loops{shard="0"}')
            for line in lines
        )
        assert any(line.startswith("shard_queue_depth_max") for line in lines)


class TestStructuredLogs:
    async def test_shedding_logs_a_warning(self, workload, caplog):
        market, log = workload

        async def burst():
            for event in log:
                yield event

        service = OpportunityService(
            market, n_shards=1, queue_size=1, ingest_policy="drop"
        )
        with caplog.at_level(logging.WARNING, logger="repro.service.pipeline"):
            report = await service.run(burst())
        if report.blocks_dropped:
            shed = [
                r for r in caplog.records if "shed block" in r.getMessage()
            ]
            assert len(shed) == report.blocks_dropped
            assert all(r.name == "repro.service.pipeline" for r in shed)

    async def test_subscriber_gap_and_resync_log_transitions(self, caplog):
        from repro.service.book import Opportunity, OpportunityBook

        def entry(loop_id, profit):
            return Opportunity(
                loop_id=loop_id, path=loop_id, profit_usd=profit,
                amount_in=None, start_symbol=None, block=0, shard=0,
            )

        book = OpportunityBook()
        sub = book.subscribe(maxsize=1)
        with caplog.at_level(logging.INFO, logger="repro.service.book"):
            book.apply(0, 0, [entry("a", 1.0)])
            book.apply(1, 0, [entry("b", 2.0)])  # overflow -> gap
            book.apply(2, 0, [entry("c", 3.0)])  # still gapped: no new log
            sub.resync()
        gap_logs = [r for r in caplog.records if "gapped" in r.getMessage()]
        assert len(gap_logs) == 1  # transition, not per-delta
        resync_logs = [
            r for r in caplog.records if "resyncing" in r.getMessage()
        ]
        assert len(resync_logs) == 1
        assert "2 deltas dropped" in resync_logs[0].getMessage()
