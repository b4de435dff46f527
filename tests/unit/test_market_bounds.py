"""Unit tests for the monetized profit upper bounds
(:mod:`repro.market.bounds`) and the pruning entry point they power
here, :meth:`BatchEvaluator.evaluate_top_k` (the service's shard
workers prune on them too; their tests live with the service, except
the NaN-bound case below, which covers both pruning paths).

The soundness contract under test: a bound is *never* below the exact
kernel profit, and a bound of exactly ``0.0`` proves the exact profit
is non-positive.  The hypothesis suite in
``tests/property/test_bound_soundness.py`` hammers the same contract
on random mixed markets; here the cases are small and deterministic.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.amm import PoolRegistry, StableSwapPool
from repro.amm.weighted import WeightedPool
from repro.core import ArbitrageLoop, PriceMap, SolverConvergenceError, Token
from repro.market import (
    BatchEvaluator,
    MarketArrays,
    below_threshold,
)
from repro.service import ShardWorker
from repro.service.worker import BlockWork
from repro.strategies import (
    ConvexOptimizationStrategy,
    MaxMaxStrategy,
    MaxPriceStrategy,
    TraditionalStrategy,
)

X, Y, Z, W = Token("X"), Token("Y"), Token("Z"), Token("W")


@pytest.fixture
def registry():
    registry = PoolRegistry()
    # a profitable CP triangle, a flat CP triangle, and a weighted leg
    registry.create(X, Y, 1_000.0, 2_000.0, pool_id="xy")
    registry.create(Y, Z, 3_000.0, 1_500.0, pool_id="yz")
    registry.create(Z, X, 900.0, 1_800.0, pool_id="zx")
    registry.create(X, W, 5_000.0, 5_000.0, pool_id="xw")
    registry.create(Y, W, 4_000.0, 4_000.0, pool_id="yw")
    registry.add(
        WeightedPool(Z, W, 2_000.0, 1_000.0, weight0=0.7, weight1=0.3,
                     pool_id="zw")
    )
    return registry


@pytest.fixture
def loops(registry):
    return [
        ArbitrageLoop([X, Y, Z], [registry["xy"], registry["yz"], registry["zx"]]),
        ArbitrageLoop([X, Y, W], [registry["xy"], registry["yw"], registry["xw"]]),
        ArbitrageLoop([Y, Z, W], [registry["yz"], registry["zw"], registry["yw"]]),
        ArbitrageLoop([X, W, Z], [registry["xw"], registry["zw"], registry["zx"]]),
    ]


@pytest.fixture
def prices():
    return PriceMap({X: 10.0, Y: 5.0, Z: 20.0, W: 1.0})


def make_evaluator(registry, loops, **kwargs):
    return BatchEvaluator(
        loops, arrays=MarketArrays.from_registry(registry), **kwargs
    )


STRATEGIES = [
    MaxMaxStrategy(),
    MaxMaxStrategy(method="bisection"),
    MaxMaxStrategy(method="golden"),
    MaxPriceStrategy(),
    TraditionalStrategy(start_token=X),
]


class TestBelowThreshold:
    def test_prunable_means_below_threshold_or_nonpositive(self):
        values = np.array([5.0, 2.0, 0.0, -1.0, 3.0])
        out = below_threshold(values, 3.0)
        assert out.tolist() == [False, True, True, True, False]

    def test_zero_threshold_prunes_only_nonpositive(self):
        values = np.array([1e-12, 0.0, -5.0])
        assert below_threshold(values, 0.0).tolist() == [False, True, True]

    def test_nan_is_never_prunable(self):
        values = np.array([np.nan, 1.0])
        assert below_threshold(values, 10.0).tolist() == [False, True]
        assert below_threshold(values, 0.0).tolist() == [False, False]


class TestBoundSoundness:
    @pytest.mark.parametrize(
        "strategy", STRATEGIES, ids=lambda s: type(s).__name__ + "-" + s.method
    )
    def test_bound_dominates_exact_profit(self, registry, loops, prices, strategy):
        if isinstance(strategy, TraditionalStrategy):
            # loops without the numeraire raise on exact evaluation
            loops = [loop for loop in loops if strategy.start_token in loop.tokens]
        evaluator = make_evaluator(registry, loops)
        bounds = evaluator.monetized_bounds(strategy, prices)
        results = evaluator.evaluate_many(strategy, prices)
        for bound, result in zip(bounds, results):
            exact = result.monetized_profit
            if math.isnan(bound):
                continue  # unprunable: the exact path owns this row
            assert bound >= exact, f"bound {bound} < exact {exact}"
            if bound == 0.0:
                assert exact <= 0.0

    def test_bounds_are_finite_for_batchable_loops(
        self, registry, loops, prices
    ):
        evaluator = make_evaluator(registry, loops)
        bounds = evaluator.monetized_bounds(MaxMaxStrategy(), prices)
        assert np.isfinite(bounds).all()

    def test_nonbatchable_strategy_gets_vacuous_bounds(
        self, registry, loops, prices
    ):
        evaluator = make_evaluator(registry, loops)
        bounds = evaluator.monetized_bounds(ConvexOptimizationStrategy(), prices)
        assert np.isinf(bounds).all()
        # +inf is never prunable at any threshold
        assert not below_threshold(bounds, 1e12).any()

    def test_traditional_absent_start_token_is_nan(
        self, registry, loops, prices
    ):
        # loop [Y, Z, W] does not contain X: no traditional quote
        # exists, so the bound must refuse to prune it
        evaluator = make_evaluator(registry, loops)
        bounds = evaluator.monetized_bounds(
            TraditionalStrategy(start_token=X), prices
        )
        assert math.isnan(bounds[2])
        assert not below_threshold(bounds, 1e12)[2]

    def test_indices_subset_aligns_with_positions(self, registry, loops, prices):
        evaluator = make_evaluator(registry, loops)
        full = evaluator.monetized_bounds(MaxMaxStrategy(), prices)
        sub = evaluator.monetized_bounds(MaxMaxStrategy(), prices, indices=[3, 1])
        assert sub[0] == full[3]
        assert sub[1] == full[1]


class TestEvaluateTopK:
    def test_matches_exhaustive_ranking(self, registry, loops, prices):
        strategy = MaxMaxStrategy()
        oracle = make_evaluator(registry, loops).evaluate_many(strategy, prices)
        expected = sorted(
            ((r.monetized_profit, i) for i, r in enumerate(oracle)),
            key=lambda pair: (-pair[0], loops[pair[1]].canonical_id),
        )[:2]
        evaluator = make_evaluator(registry, loops)
        scored, pruned = evaluator.evaluate_top_k(strategy, prices, k=2)
        got = sorted(
            scored, key=lambda pair: (-pair[0], loops[pair[1]].canonical_id)
        )[:2]
        assert got == expected
        assert pruned == len(loops) - len(scored)

    def test_prunes_on_larger_market(self):
        from repro.data.synthetic import SyntheticMarketGenerator
        from repro.engine.core import LoopUniverse

        market = SyntheticMarketGenerator(
            n_tokens=12, n_pools=40, seed=3, price_noise=0.02
        ).generate()
        loops = LoopUniverse(market.registry, 3).candidates
        strategy = MaxMaxStrategy()
        oracle = BatchEvaluator(
            loops, arrays=MarketArrays.from_registry(market.registry)
        ).evaluate_many(strategy, market.prices)
        expected = sorted(
            ((r.monetized_profit, loops[i].canonical_id)
             for i, r in enumerate(oracle)),
            key=lambda pair: (-pair[0], pair[1]),
        )[:5]
        evaluator = BatchEvaluator(
            loops, arrays=MarketArrays.from_registry(market.registry)
        )
        scored, pruned = evaluator.evaluate_top_k(strategy, market.prices, k=5)
        got = sorted(
            ((profit, loops[position].canonical_id)
             for profit, position in scored),
            key=lambda pair: (-pair[0], pair[1]),
        )[:5]
        assert got == expected
        assert pruned > 0  # the bound ordering actually saved quotes
        assert len(scored) + pruned == len(loops)

    def test_k_zero_and_empty(self, registry, loops, prices):
        evaluator = make_evaluator(registry, loops)
        scored, pruned = evaluator.evaluate_top_k(MaxMaxStrategy(), prices, k=0)
        assert len(scored) + pruned == len(loops)
        empty = BatchEvaluator([], arrays=MarketArrays([]))
        assert empty.evaluate_top_k(MaxMaxStrategy(), prices, k=3) == ([], 0)


#: stableswap reserves too far apart for the ``D`` iteration to converge
STUCK = (1e-300, 1e300)


def _forward_loops(registry, names):
    """The forward loop ``{name}a -> {name}b -> {name}c`` of each
    ``disjoint_triangles`` triangle in ``names``."""
    return [
        ArbitrageLoop(
            [Token(f"{name}{s}") for s in "abc"],
            [registry[f"{name}-{pair}"] for pair in ("ab", "bc", "ca")],
        )
        for name in names
    ]


def _with_stuck_triangle(market, reserves):
    """Add triangle ``S`` to a ``disjoint_triangles`` market: CPMM
    ``S-ab`` and ``S-bc`` at 1000/1000, stableswap ``S-ca`` at
    ``reserves``, every price 1.0.  Returns ``(registry, loops,
    prices)`` with the forward loops, ``S``'s last."""
    registry = market.registry
    names = sorted({pool.pool_id.split("-")[0] for pool in registry})
    a, b, c = (Token(f"S{s}") for s in "abc")
    registry.create(a, b, 1000.0, 1000.0, pool_id="S-ab")
    registry.create(b, c, 1000.0, 1000.0, pool_id="S-bc")
    registry.add(StableSwapPool(c, a, *reserves, pool_id="S-ca"))
    prices = PriceMap({**market.prices, a: 1.0, b: 1.0, c: 1.0})
    return registry, _forward_loops(registry, [*names, "S"]), prices


class TestNanBoundsStayUnprunable:
    """A NaN rate (here a stableswap ``D`` iteration that does not
    converge) bounds its loop NaN, never 0.0, so a pruned pass raises
    where the unpruned pass raises; and a MaxMax rotation bounded at
    exactly 0.0 does not turn a missing price into a NaN bound."""

    def test_nan_rate_gives_nan_bound(self, disjoint_triangles):
        registry, loops, prices = _with_stuck_triangle(disjoint_triangles({}), STUCK)
        evaluator = make_evaluator(registry, loops, min_batch=1)
        for strategy in (MaxMaxStrategy(), MaxPriceStrategy()):
            assert np.isnan(evaluator.monetized_bounds(strategy, prices)).all()
            with pytest.raises(SolverConvergenceError):
                evaluator.evaluate_many(strategy, prices)

    def test_top_k_raises_like_the_unpruned_pass(self, disjoint_triangles):
        # A fills K = 1; 64 balanced triangles (bound exactly 0.0) fill
        # the first quote chunk ahead of the stuck loop, so only a NaN
        # bound, sorted first, gets it quoted
        names = {"A": 1300.0, **{f"F{i:02d}": 1000.0 for i in range(64)}}
        registry, loops, prices = _with_stuck_triangle(
            disjoint_triangles(names), STUCK
        )
        evaluator = make_evaluator(registry, loops)
        strategy = MaxMaxStrategy()
        with pytest.raises(SolverConvergenceError):
            evaluator.evaluate_many(strategy, prices)
        with pytest.raises(SolverConvergenceError):
            evaluator.evaluate_top_k(strategy, prices, k=1)

    @pytest.mark.parametrize("top_k", [None, 1])
    def test_pruning_shard_raises_like_the_unpruned_one(
        self, disjoint_triangles, top_k
    ):
        # the stuck pool starts healthy (the priming pass quotes every
        # loop); a block then moves it to the stuck reserves
        registry, loops, prices = _with_stuck_triangle(
            disjoint_triangles({"A": 1300.0}), (1000.0, 1000.0)
        )
        store = MarketArrays.from_registry(registry)
        worker = ShardWorker(0, store, loops, MaxMaxStrategy(), prices, top_k=top_k)
        assert worker.profits.max() > 0.0  # A fills K
        row = store.pool_index["S-ca"]
        store.reserve0[row], store.reserve1[row] = STUCK
        work = BlockWork(
            block=1, epoch=0, rows=(row,), ticks=(), t_ingest=0.0, t_dispatch=0.0
        )
        with pytest.raises(SolverConvergenceError):
            worker.process_block(work)

    def test_zero_rotation_bound_ignores_missing_price(self, disjoint_triangles):
        market = disjoint_triangles({"A": 1000.0, "B": 1300.0})
        unpriced = Token("Ac")
        prices = PriceMap({t: p for t, p in market.prices.items() if t != unpriced})
        evaluator = make_evaluator(
            market.registry, _forward_loops(market.registry, "AB")
        )
        strategy = MaxMaxStrategy()
        # A is balanced: every rotation bounded at 0.0, exact profit 0.0
        bounds = evaluator.monetized_bounds(strategy, prices)
        assert bounds[0] == 0.0
        assert below_threshold(bounds, 0.0)[0]
        assert evaluator.evaluate_many(strategy, prices, [0])[0].monetized_profit == 0.0
        # B is priced: its bound keeps its bits
        full = evaluator.monetized_bounds(strategy, market.prices)
        assert bounds[1] == full[1] > 0.0
