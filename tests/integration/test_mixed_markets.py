"""End-to-end behaviour on mixed and evolving markets."""

from __future__ import annotations

import pytest

from repro.amm import FAMILY_CPMM, FAMILY_G3M, Pool, PoolRegistry, WeightedPool, pool_family
from repro.core import PriceMap, Token
from repro.data import MarketSnapshot
from repro.execution import ExecutionSimulator, plan_from_result
from repro.graph import build_token_graph, find_arbitrage_loops
from repro.simulation import LiquidityProvider, RetailTrader, SimulationEngine
from repro.strategies import ConvexOptimizationStrategy, MaxMaxStrategy

A, B, C, D = Token("A"), Token("B"), Token("C"), Token("D")


@pytest.fixture
def mixed_snapshot():
    """A market mixing constant-product and weighted pools."""
    registry = PoolRegistry()
    registry.add(Pool(A, B, 1000.0, 2040.0, pool_id="mx-ab"))
    registry.add(WeightedPool(B, C, 2000.0, 1000.0, weight0=0.6, weight1=0.4, pool_id="mx-bc"))
    registry.add(Pool(C, A, 1000.0, 1015.0, pool_id="mx-ca"))
    registry.add(Pool(A, D, 1000.0, 500.0, pool_id="mx-ad"))
    registry.add(WeightedPool(C, D, 1000.0, 495.0, weight0=0.5, weight1=0.5, pool_id="mx-cd"))
    prices = PriceMap({A: 2.0, B: 1.0, C: 2.1, D: 4.0})
    return MarketSnapshot(registry=registry, prices=prices, label="mixed")


class TestMixedDetection:
    def test_graph_includes_weighted_pools(self, mixed_snapshot):
        graph = build_token_graph(mixed_snapshot.registry)
        assert graph.number_of_edges() == 5
        assert graph.number_of_nodes() == 4

    def test_loops_found_and_evaluated(self, mixed_snapshot):
        graph = build_token_graph(mixed_snapshot.registry)
        loops = find_arbitrage_loops(graph, 3)
        strategy = MaxMaxStrategy()
        for loop in loops:
            result = strategy.evaluate(loop, mixed_snapshot.prices)
            assert result.monetized_profit >= 0.0

    def test_convex_on_mixed_loop(self, mixed_snapshot):
        graph = build_token_graph(mixed_snapshot.registry)
        loops = find_arbitrage_loops(graph, 3)
        mixed_loops = [
            loop
            for loop in loops
            if any(pool_family(p) != FAMILY_CPMM for p in loop.pools)
        ]
        if not mixed_loops:
            pytest.skip("no profitable mixed loop at these reserves")
        convex = ConvexOptimizationStrategy(backend="slsqp")
        maxmax = MaxMaxStrategy()
        for loop in mixed_loops:
            cv = convex.evaluate(loop, mixed_snapshot.prices)
            mm = maxmax.evaluate(loop, mixed_snapshot.prices)
            assert cv.monetized_profit >= mm.monetized_profit - 1e-6

    def test_mixed_loop_executes(self, mixed_snapshot):
        graph = build_token_graph(mixed_snapshot.registry)
        loops = find_arbitrage_loops(graph, 3)
        strategy = MaxMaxStrategy()
        results = [(strategy.evaluate(l, mixed_snapshot.prices), l) for l in loops]
        profitable = [(r, l) for r, l in results if r.monetized_profit > 0]
        assert profitable
        best, _loop = max(profitable, key=lambda pair: pair[0].monetized_profit)
        simulator = ExecutionSimulator(registry=mixed_snapshot.registry)
        receipt = simulator.execute(plan_from_result(best, slippage_tolerance=1e-9))
        assert not receipt.reverted
        assert receipt.monetized(mixed_snapshot.prices) == pytest.approx(
            best.monetized_profit, rel=1e-6
        )


class TestMixedSerialization:
    def test_weighted_pools_roundtrip(self, mixed_snapshot):
        restored = MarketSnapshot.from_json(mixed_snapshot.to_json())
        assert restored.to_json() == mixed_snapshot.to_json()
        weighted = restored.registry["mx-bc"]
        assert weighted.family == FAMILY_G3M
        assert weighted.weight_of(B) == pytest.approx(0.6)
        # quotes agree with the original
        original = mixed_snapshot.registry["mx-bc"]
        assert weighted.quote_out(B, 10.0) == pytest.approx(
            original.quote_out(B, 10.0), rel=1e-12
        )


class TestEngineWithAllAgentTypes:
    def test_three_agent_simulation(self, mixed_snapshot):
        engine = SimulationEngine(
            mixed_snapshot,
            [
                RetailTrader(seed=3, trades_per_block=3),
                LiquidityProvider(seed=4, actions_per_block=1),
            ],
            price_seed=3,
            count_loops=True,
        )
        result = engine.run(5)
        assert len(result.metrics) == 5
        lp = result.agents[1]
        assert lp.mints + lp.burns > 0
        # the evolving market keeps valid reserves throughout
        for pool in result.market.registry:
            for token in pool.tokens:
                assert pool.reserve_of(token) > 0


class TestThreeFamilyBatching:
    """Loops crossing all three pool families route through the batch
    chain kernel with zero forced scalar fallbacks, and serving such a
    market from the shared-memory segment (process backend) or private
    in-process columns (inline backend) gives the batch-detect book."""

    @pytest.fixture
    def three_family_snapshot(self):
        from repro.amm.stableswap import StableSwapPool

        registry = PoolRegistry()
        # a triangle with one hop from each family ...
        registry.add(Pool(A, B, 1_000.0, 2_040.0, pool_id="3f-ab"))
        registry.add(
            WeightedPool(
                B, C, 2_000.0, 1_000.0, weight0=0.6, weight1=0.4,
                pool_id="3f-bc",
            )
        )
        registry.add(
            StableSwapPool(
                C, A, 1_000.0, 1_030.0, amplification=90.0, pool_id="3f-ca"
            )
        )
        # ... plus parallel edges so several loops share the compiled
        # group and every family pairing occurs in some loop
        registry.add(Pool(C, A, 990.0, 1_020.0, pool_id="3f-ca2"))
        registry.add(
            StableSwapPool(
                A, B, 1_500.0, 1_480.0, amplification=40.0, pool_id="3f-ab2"
            )
        )
        prices = PriceMap({A: 2.0, B: 1.0, C: 2.1})
        return MarketSnapshot(registry=registry, prices=prices, label="3fam")

    def test_mixed_loops_never_fall_back_to_scalar(self, three_family_snapshot):
        from repro.amm.families import FAMILY_CPMM, FAMILY_G3M, FAMILY_STABLESWAP
        from repro.market import BatchEvaluator, MarketArrays

        graph = build_token_graph(three_family_snapshot.registry)
        loops = find_arbitrage_loops(graph, 3)
        three_family = [
            loop
            for loop in loops
            if {type(p).__name__ for p in loop.pools}
            >= {"Pool", "WeightedPool", "StableSwapPool"}
        ]
        assert three_family, "fixture must yield a loop crossing all families"
        arrays = MarketArrays.from_registry(three_family_snapshot.registry)
        assert set(arrays.family) == {FAMILY_CPMM, FAMILY_G3M, FAMILY_STABLESWAP}
        evaluator = BatchEvaluator(loops, arrays=arrays, min_batch=1)
        # every loop compiles into a batch group — no foreign-pool fallback
        assert evaluator.fallback_positions == []
        results = evaluator.evaluate_many(MaxMaxStrategy(), three_family_snapshot.prices)
        assert len(results) == len(loops)
        # the acceptance criterion: zero loops took the scalar path
        assert evaluator.stats.scalar_loops == 0
        assert evaluator.stats.kernel_loops == len(loops)
        # and the kernel numbers match the scalar strategy path
        strategy = MaxMaxStrategy()
        for result, loop in zip(results, loops):
            ref = strategy.evaluate_cached(loop, three_family_snapshot.prices, None)
            assert result.monetized_profit == pytest.approx(
                ref.monetized_profit, rel=1e-9, abs=1e-9
            )

    def test_shared_serving_bit_identical_to_private(self, three_family_snapshot):
        import asyncio

        from repro.market import WEIGHTED_PARITY_RTOL
        from repro.replay import generate_event_stream
        from repro.service import (
            OpportunityService,
            batch_detect_ranking,
            log_source,
        )

        log = generate_event_stream(
            three_family_snapshot, n_blocks=6, events_per_block=5, seed=31
        )

        def run(backend: str):
            service = OpportunityService(
                three_family_snapshot, n_shards=2, backend=backend
            )
            try:
                return asyncio.run(service.run(log_source(log)))
            finally:
                service.close()

        def book(report):
            return [
                (o.loop_id, o.profit_usd, o.amount_in, o.block)
                for o in report.book.entries
            ]

        private = run("inline")
        shared = run("process")
        # G3M hops quote through pow, so the documented contract with
        # the scalar batch oracle is the weighted rtol, not bits
        expected = batch_detect_ranking(three_family_snapshot, log)
        for report in (private, shared):
            got = [(o.profit_usd, o.loop_id) for o in report.book.entries]
            assert [loop_id for _, loop_id in got] == [
                loop_id for _, loop_id in expected
            ]
            for (profit, _), (want, _) in zip(got, expected):
                assert profit == pytest.approx(want, rel=WEIGHTED_PARITY_RTOL)
        assert book(shared) == book(private)
        assert shared.events_ingested == len(log)
        assert shared.events_dropped == 0
