"""Unit tests for the batched evaluation engine.

Covers the reserve-keyed rotation cache, the price-grid kernels and
the point-by-point sweep walk, and the topology-cached loop universe.
The contract under test throughout: the engine changes *when* work
happens, never *what* is computed.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core import PriceMap, Token
from repro.data import paper_market
from repro.data.example import TOKEN_X
from repro.engine import (
    EvaluationEngine,
    LoopUniverse,
    PoolStateCache,
    rotation_state_key,
)
from repro.graph.build import build_token_graph
from repro.graph.cycles import find_arbitrage_loops
from repro.strategies import (
    ConvexOptimizationStrategy,
    MaxMaxStrategy,
    MaxPriceStrategy,
    TraditionalStrategy,
    rotation_quote,
)

X, Y, Z = Token("X"), Token("Y"), Token("Z")

SMALL_GRID = np.array([1e-9, 2.0, 5.0, 12.0, 20.0])


def _sweep_strategies(loop):
    strategies = {
        f"start_{token.symbol}": TraditionalStrategy(start_token=token)
        for token in loop.tokens
    }
    strategies["maxmax"] = MaxMaxStrategy()
    strategies["maxprice"] = MaxPriceStrategy()
    return strategies


class TestPoolStateCache:
    def test_hit_after_miss(self, s5_loop):
        cache = PoolStateCache()
        rotation = s5_loop.rotations()[0]
        first = cache.rotation_quote(rotation)
        second = cache.rotation_quote(rotation)
        assert cache.misses == 1 and cache.hits == 1
        assert first is second

    def test_quote_matches_uncached(self, s5_loop):
        cache = PoolStateCache()
        for rotation in s5_loop.rotations():
            assert cache.rotation_quote(rotation) == rotation_quote(rotation)

    def test_reserve_change_invalidates(self, s5_loop):
        cache = PoolStateCache()
        rotation = s5_loop.rotations()[0]
        before = cache.rotation_quote(rotation)
        s5_loop.pools[0].swap(s5_loop.tokens[0], 5.0)
        after = cache.rotation_quote(rotation)
        assert cache.misses == 2
        assert after.amount_in != before.amount_in

    def test_key_distinguishes_method_and_orientation(self, s5_loop):
        rotations = s5_loop.rotations()
        keys = {rotation_state_key(r, "closed_form") for r in rotations}
        assert len(keys) == len(rotations)
        assert rotation_state_key(rotations[0], "closed_form") != rotation_state_key(
            rotations[0], "golden"
        )

    def test_lru_eviction(self, s5_loop):
        cache = PoolStateCache(maxsize=2)
        r0, r1, r2 = s5_loop.rotations()
        cache.rotation_quote(r0)
        cache.rotation_quote(r1)
        cache.rotation_quote(r2)  # evicts r0
        assert len(cache) == 2
        cache.rotation_quote(r0)
        assert cache.misses == 4 and cache.hits == 0

    def test_rejects_nonpositive_maxsize(self):
        with pytest.raises(ValueError, match="maxsize"):
            PoolStateCache(maxsize=0)


class PlainMaxMax(MaxMaxStrategy):
    """MaxMax by inheritance only: no batch kind, so every engine route
    evaluates it through its own methods."""


class TestEngineSweep:
    def test_vectorized_matches_scalar_everywhere(self, s5_loop, s5_prices):
        strategies = _sweep_strategies(s5_loop)
        fast = EvaluationEngine().sweep_results(
            strategies, s5_loop, s5_prices, TOKEN_X, SMALL_GRID
        )
        for label, strategy in strategies.items():
            for j, price in enumerate(SMALL_GRID):
                ref = strategy.evaluate(
                    s5_loop, s5_prices.with_price(TOKEN_X, float(price))
                )
                got = fast[label][j]
                assert got.monetized_profit == ref.monetized_profit
                assert got.start_token == ref.start_token
                assert got.amount_in == ref.amount_in
                assert got.hop_amounts == ref.hop_amounts
                assert got.details.get("per_rotation") == ref.details.get(
                    "per_rotation"
                )

    def test_walk_matches_direct_evaluation(self, s5_loop, s5_prices):
        """Strategies without a batch kind walk the grid point by point
        through the engine's cache: every point equals a direct
        ``evaluate``."""
        strategies = {
            "convex": ConvexOptimizationStrategy(backend="slsqp"),
            "maxmax": PlainMaxMax(),
        }
        walked = EvaluationEngine().sweep_results(
            strategies, s5_loop, s5_prices, TOKEN_X, SMALL_GRID
        )
        assert list(walked) == list(strategies)
        for label, strategy in strategies.items():
            for price, result in zip(SMALL_GRID, walked[label]):
                ref = strategy.evaluate(
                    s5_loop, s5_prices.with_price(TOKEN_X, float(price))
                )
                assert result.monetized_profit == ref.monetized_profit

    def test_walk_quotes_through_engine_cache(self, s5_loop, s5_prices):
        """The walk quotes through ``engine.cache``: the loop's three
        rotations miss once, every later point and a repeated sweep
        hit."""
        engine = EvaluationEngine()
        for _ in range(2):
            engine.sweep_results(
                {"plain": PlainMaxMax()}, s5_loop, s5_prices, TOKEN_X, SMALL_GRID
            )
            assert engine.cache.misses == 3
        assert engine.cache.hits == 2 * 3 * len(SMALL_GRID) - 3

    def test_kernel_and_walk_keep_label_order(self, s5_loop, s5_prices):
        """Kernel and walked labels interleave in the caller's order,
        and a walked MaxMax subclass equals the MaxMax grid kernel bit
        for bit."""
        strategies = {
            "plain": PlainMaxMax(),
            "maxmax": MaxMaxStrategy(),
            "convex": ConvexOptimizationStrategy(backend="slsqp"),
            "maxprice": MaxPriceStrategy(),
        }
        results = EvaluationEngine().sweep_results(
            strategies, s5_loop, s5_prices, TOKEN_X, SMALL_GRID
        )
        assert list(results) == list(strategies)
        assert all(len(series) == len(SMALL_GRID) for series in results.values())
        for walked, kernel in zip(results["plain"], results["maxmax"]):
            assert walked.monetized_profit == kernel.monetized_profit
            assert walked.amount_in == kernel.amount_in
            assert walked.hop_amounts == kernel.hop_amounts

    def test_convex_falls_back_to_scalar_walk(self, s5_loop, s5_prices):
        grid = np.array([2.0, 15.0])
        results = EvaluationEngine().sweep_results(
            {"convex": ConvexOptimizationStrategy(backend="slsqp")},
            s5_loop,
            s5_prices,
            TOKEN_X,
            grid,
        )["convex"]
        refs = [
            ConvexOptimizationStrategy(backend="slsqp").evaluate(
                s5_loop, s5_prices.with_price(TOKEN_X, float(p))
            )
            for p in grid
        ]
        for got, ref in zip(results, refs):
            assert got.monetized_profit == pytest.approx(
                ref.monetized_profit, rel=1e-6
            )

    def test_empty_grid(self, s5_loop, s5_prices):
        results = EvaluationEngine().sweep_results(
            _sweep_strategies(s5_loop), s5_loop, s5_prices, TOKEN_X, []
        )
        assert all(series == [] for series in results.values())

    def test_sweep_fills_shared_cache(self, s5_loop, s5_prices):
        engine = EvaluationEngine()
        engine.sweep_results(
            _sweep_strategies(s5_loop), s5_loop, s5_prices, TOKEN_X, SMALL_GRID
        )
        # 3 rotations total; everything beyond the first three quotes hits
        assert engine.cache.misses == 3
        assert engine.cache.hits > 0

    def test_weighted_loop_not_vectorizable(self):
        from repro.amm import Pool
        from repro.amm.weighted import WeightedPool
        from repro.core import ArbitrageLoop

        pools = [
            Pool(X, Y, 100.0, 200.0, pool_id="v-xy"),
            WeightedPool(Y, Z, 300.0, 200.0, 0.8, 0.2, pool_id="v-yz"),
            Pool(Z, X, 200.0, 400.0, pool_id="v-zx"),
        ]
        loop = ArbitrageLoop([X, Y, Z], pools)
        prices = PriceMap({X: 2.0, Y: 10.2, Z: 20.0})
        grid = np.array([1.0, 8.0])
        results = EvaluationEngine().sweep_results(
            {"mm": MaxMaxStrategy()}, loop, prices, X, grid
        )["mm"]
        for got, price in zip(results, grid):
            ref = MaxMaxStrategy().evaluate(loop, prices.with_price(X, float(price)))
            assert got.monetized_profit == ref.monetized_profit

    def test_subclass_sweeps_through_its_own_evaluation(self, s5_loop, s5_prices):
        """A subclass of a kernel-backed strategy is swept with its own
        ``evaluate_cached``, never with its parent's grid kernel."""

        class HalfMaxMax(MaxMaxStrategy):
            def evaluate_cached(self, loop, prices, cache=None):
                result = super().evaluate_cached(loop, prices, cache)
                return replace(result, monetized_profit=result.monetized_profit / 2)

        strategy = HalfMaxMax()
        results = EvaluationEngine().sweep_results(
            {"half": strategy}, s5_loop, s5_prices, TOKEN_X, SMALL_GRID
        )["half"]
        for price, got in zip(SMALL_GRID, results):
            ref = strategy.evaluate(
                s5_loop, s5_prices.with_price(TOKEN_X, float(price))
            )
            assert got == ref


class TestEngineBatches:
    def test_evaluate_strategy_matches_scalar(self, default_market):
        loops = find_arbitrage_loops(default_market.graph(), 3)[:10]
        engine = EvaluationEngine()
        batched = engine.evaluate_strategy(MaxMaxStrategy(), loops, default_market.prices)
        for loop, result in zip(loops, batched):
            ref = MaxMaxStrategy().evaluate(loop, default_market.prices)
            assert result.monetized_profit == ref.monetized_profit

    def test_evaluate_loops_shares_cache_across_strategies(
        self, s5_loop, s5_prices
    ):
        engine = EvaluationEngine()
        per_label = engine.evaluate_loops(
            {"maxmax": MaxMaxStrategy(), "maxprice": MaxPriceStrategy()},
            [s5_loop],
            s5_prices,
        )
        assert engine.cache.misses == 3  # maxprice reused maxmax's quotes
        assert engine.cache.hits >= 1
        assert (
            per_label["maxmax"][0].monetized_profit
            >= per_label["maxprice"][0].monetized_profit
        )

    def test_cached_evaluation_is_identical(self, s5_loop, s5_prices):
        engine = EvaluationEngine()
        ref = MaxMaxStrategy().evaluate(s5_loop, s5_prices)
        for _ in range(2):  # second round is a pure cache hit
            got = engine.evaluate(MaxMaxStrategy(), s5_loop, s5_prices)
            assert got.monetized_profit == ref.monetized_profit
            assert got.hop_amounts == ref.hop_amounts

    def test_reserve_mutations_between_calls_are_visible(self, default_market):
        """Harvest pattern: repeated evaluate_strategy calls over a
        universe's filtered sub-lists see every reserve mutation made
        between rounds."""
        market = default_market.copy()  # the pools are mutated below
        engine = EvaluationEngine()
        universe = engine.loop_universe(market.registry, 3)
        loops = list(universe.candidates)
        assert len(loops) >= 16  # enough for kernel-sized groups
        strategy = MaxMaxStrategy()
        engine.evaluate_strategy(strategy, loops, market.prices)

        # mutate a pool, re-score a filtered sub-list of the same objects
        pool = loops[0].pools[0]
        pool.swap(pool.token0, pool.reserve0 * 0.05)
        subset = loops[: max(16, len(loops) // 2)]
        results = engine.evaluate_strategy(strategy, subset, market.prices)
        for loop, got in zip(subset, results):
            ref = strategy.evaluate(loop, market.prices)
            assert got.monetized_profit == ref.monetized_profit
            assert got.amount_in == ref.amount_in

    def test_small_batch_scores_scalar_through_engine_cache(
        self, default_market
    ):
        """Fewer loops than the evaluator's ``min_batch`` take its scalar
        fallback, on the engine's cache: equal to ``evaluate``, and a
        second call quotes nothing new."""
        from repro.market.batch import DEFAULT_MIN_BATCH

        loops = find_arbitrage_loops(default_market.graph(), 3)[:3]
        assert len(loops) < DEFAULT_MIN_BATCH
        engine = EvaluationEngine()
        strategy = MaxMaxStrategy()
        first = engine.evaluate_strategy(strategy, loops, default_market.prices)
        misses = engine.cache.misses
        assert misses > 0
        second = engine.evaluate_strategy(strategy, loops, default_market.prices)
        assert engine.cache.misses == misses
        for loop, one, two in zip(loops, first, second):
            ref = strategy.evaluate(loop, default_market.prices)
            for got in (one, two):
                assert got.monetized_profit == ref.monetized_profit
                assert got.hop_amounts == ref.hop_amounts

    def test_labels_share_one_batch_evaluator(self, default_market, monkeypatch):
        """One ``evaluate_loops`` call builds one evaluator for all its
        labels: kernel labels take the kernels, a subclass its scalar
        fallback, each equal to its own ``evaluate``, in label order."""
        import repro.market

        built = []
        batch_evaluator = repro.market.BatchEvaluator

        def spy(*args, **kwargs):
            built.append(batch_evaluator(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(repro.market, "BatchEvaluator", spy)
        loops = list(
            EvaluationEngine().loop_universe(default_market.registry, 3).candidates
        )[:20]
        strategies = {
            "plain": PlainMaxMax(),
            "maxmax": MaxMaxStrategy(),
            "maxprice": MaxPriceStrategy(),
        }
        per_label = EvaluationEngine().evaluate_loops(
            strategies, loops, default_market.prices
        )
        assert len(built) == 1
        assert built[0].stats.kernel_loops > 0
        assert built[0].stats.scalar_loops >= len(loops)  # the subclass
        assert list(per_label) == list(strategies)
        for label, strategy in strategies.items():
            for loop, got in zip(loops, per_label[label]):
                ref = strategy.evaluate(loop, default_market.prices)
                assert got.monetized_profit == ref.monetized_profit
                assert got.hop_amounts == ref.hop_amounts


class TestLoopUniverse:
    @pytest.fixture(scope="class")
    def market(self):
        return paper_market()

    def test_profitable_matches_detector(self, market):
        universe = LoopUniverse(market.registry, 3)
        expected = find_arbitrage_loops(build_token_graph(market.registry), 3)
        assert universe.profitable() == expected
        assert universe.count_profitable() == len(expected)

    def test_reserve_change_updates_count_without_reenumeration(self):
        market = paper_market().copy()
        engine = EvaluationEngine()
        before_universe = engine.loop_universe(market.registry, 3)
        # push one pool far off parity; the memoized universe must see it
        pool = max(market.registry, key=lambda p: p.pool_id)
        pool.swap(pool.token0, pool.reserve_of(pool.token0) * 0.5)
        assert engine.loop_universe(market.registry, 3) is before_universe
        after = engine.count_profitable_loops(market.registry, 3)
        expected = len(find_arbitrage_loops(build_token_graph(market.registry), 3))
        assert after == expected

    def test_topology_change_reenumerates(self, small_registry, tokens_xyz):
        x, y, _z = tokens_xyz
        engine = EvaluationEngine()
        first = engine.loop_universe(small_registry, 3)
        small_registry.create(x, y, 50.0, 75.0, pool_id="r-xy2")
        second = engine.loop_universe(small_registry, 3)
        assert second is not first
        assert len(second) > len(first)

    def test_universe_memo_is_bounded(self, s5_loop):
        engine = EvaluationEngine()
        for _ in range(engine._max_universes + 3):
            # each fresh copy is a distinct topology (new pool objects)
            pools = [pool.copy() for pool in s5_loop.pools]
            engine.loop_universe(pools, 3)
        assert len(engine._universes) == engine._max_universes
