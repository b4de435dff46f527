"""Unit tests for the columnar market layer (:mod:`repro.market`).

Parity assertions here are ``==``, never ``approx``: the batch kernel
is contractually *bit-identical* to the scalar object path (the
hypothesis suite in ``tests/property/test_market_parity.py`` hammers
the same contract with random markets and streams).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.amm import FAMILY_CPMM, FAMILY_G3M, Pool, PoolRegistry
from repro.amm.weighted import WeightedPool
from repro.core import (
    ArbitrageLoop,
    MissingPriceError,
    PriceMap,
    StrategyError,
    Token,
)
from repro.market import (
    BatchEvaluator,
    MarketArrays,
    batch_kind,
    batch_quotes,
    compile_loops,
)
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
    registry.create(X, Y, 1_000.0, 2_000.0, pool_id="xy")
    registry.create(Y, Z, 3_000.0, 1_500.0, pool_id="yz")
    registry.create(Z, X, 900.0, 1_800.0, pool_id="zx")
    registry.create(X, W, 5_000.0, 5_000.0, pool_id="xw")
    return registry


@pytest.fixture
def loop(registry):
    return ArbitrageLoop(
        [X, Y, Z], [registry["xy"], registry["yz"], registry["zx"]]
    )


@pytest.fixture
def prices():
    return PriceMap({X: 10.0, Y: 5.0, Z: 20.0, W: 1.0})


class TestMarketArrays:
    def test_from_registry_copies_state(self, registry):
        arrays = MarketArrays.from_registry(registry)
        assert len(arrays) == 4
        assert arrays.reserves("xy") == (1_000.0, 2_000.0)
        assert set(arrays.tokens) == {X, Y, Z, W}
        assert (arrays.family == FAMILY_CPMM).all()

    def test_duplicate_pool_ids_rejected(self):
        pools = [
            Pool(X, Y, 1.0, 1.0, pool_id="dup"),
            Pool(Y, Z, 1.0, 1.0, pool_id="dup"),
        ]
        with pytest.raises(ValueError, match="duplicate"):
            MarketArrays(pools)

    def test_round_trip_to_registry(self, registry):
        arrays = MarketArrays.from_registry(registry)
        rebuilt = arrays.to_registry()
        assert len(rebuilt) == len(registry)
        for pool in registry:
            clone = rebuilt[pool.pool_id]
            assert clone.tokens == pool.tokens
            assert clone.reserve0 == pool.reserve0
            assert clone.reserve1 == pool.reserve1
            assert clone.fee == pool.fee

    def test_weighted_pools_round_trip_flagged(self, registry):
        original = WeightedPool(Y, W, 100.0, 400.0, 0.8, 0.2, pool_id="wp")
        registry.add(original)
        arrays = MarketArrays.from_registry(registry)
        i = arrays.pool_index["wp"]
        assert arrays.family[i] == FAMILY_G3M
        clone = arrays.to_registry()["wp"]
        assert isinstance(clone, WeightedPool)
        assert clone.weight_of(Y) == original.weight_of(Y) == 0.8
        assert clone.weight_of(W) == original.weight_of(W) == 0.2

    def test_pull_refreshes_named_pools_bit_exactly(self, registry):
        arrays = MarketArrays.from_registry(registry)
        registry["xy"].swap(X, 37.5)
        registry["yz"].swap(Z, 11.0)
        arrays.pull(registry, ["xy"])
        assert arrays.reserves("xy") == (
            registry["xy"].reserve0, registry["xy"].reserve1
        )
        # yz was not named: still stale
        assert arrays.reserves("yz") != (
            registry["yz"].reserve0, registry["yz"].reserve1
        )
        arrays.pull(registry)
        assert arrays.reserves("yz") == (
            registry["yz"].reserve0, registry["yz"].reserve1
        )

    def test_pull_ignores_foreign_pool_ids(self, registry):
        arrays = MarketArrays.from_registry(registry)
        registry.create(Y, W, 10_000.0, 10_000.0, pool_id="extra")
        arrays.pull(registry, ["extra"])  # silently skipped
        assert "extra" not in arrays

    def test_fee_columns_quantized_at_build(self, registry):
        from repro.market import FEE_PPM_DENOMINATOR, quantize_fee

        arrays = MarketArrays.from_registry(registry)
        for pool in registry:
            i = arrays.pool_index[pool.pool_id]
            assert arrays.fee[i] == pool.fee
            assert arrays.fee_num[i] == quantize_fee(pool.fee)
        # the V2 default 0.003 quantizes to the 997/1000-equivalent
        assert (arrays.fee_num == FEE_PPM_DENOMINATOR - 3_000).all()

    def test_pull_refreshes_fee_columns(self, registry):
        """Fees are live state, not baked at build: a registry whose
        pool carries a new fee tier must land in *both* fee columns on
        the next pull, so kernel quotes can never silently desync."""
        from repro.market import quantize_fee

        arrays = MarketArrays.from_registry(registry)
        fresh = PoolRegistry()
        fresh.create(X, Y, 1_000.0, 2_000.0, fee=0.01, pool_id="xy")
        for pool_id in ("yz", "zx", "xw"):
            fresh.add(registry[pool_id])
        arrays.pull(fresh, ["xy"])
        i = arrays.pool_index["xy"]
        assert arrays.fee[i] == 0.01
        assert arrays.fee_num[i] == quantize_fee(0.01)
        # kernel quotes through the arrays now price the new gamma:
        # oriented_reserves reads the float column directly
        from repro.market import oriented_reserves

        _x, _y, gamma = oriented_reserves(
            arrays, np.array([i]), np.array([True])
        )
        assert gamma[0] == 1.0 - 0.01

    def test_weighted_weights_live_in_columns(self, registry):
        pool = WeightedPool(Y, W, 100.0, 400.0, 0.8, 0.2, pool_id="wp")
        registry.add(pool)
        arrays = MarketArrays.from_registry(registry)
        i = arrays.pool_index["wp"]
        assert arrays.weight0[i] == pool.weight_of(pool.token0)
        assert arrays.weight1[i] == pool.weight_of(pool.token1)
        # constant-product rows carry neutral weights
        j = arrays.pool_index["xy"]
        assert (arrays.weight0[j], arrays.weight1[j]) == (1.0, 1.0)

    def test_price_vector_marks_missing_tokens_nan(self, registry):
        arrays = MarketArrays.from_registry(registry)
        vec = arrays.price_vector(PriceMap({X: 2.0}))
        by_token = dict(zip(arrays.tokens, vec))
        assert by_token[X] == 2.0
        assert np.isnan(by_token[Y])


class TestCompileLoops:
    def test_groups_by_length_and_tracks_positions(self, registry, loop):
        two = ArbitrageLoop([X, Y], [registry["xy"], registry["xy"]])
        arrays = MarketArrays.from_registry(registry)
        groups, fallback = compile_loops([loop, two], arrays)
        assert fallback == []
        assert [g.length for g in groups] == [2, 3]
        assert [list(g.positions) for g in groups] == [[1], [0]]

    def test_weighted_loops_compile_into_weighted_groups(self, registry, prices):
        registry.add(WeightedPool(Y, W, 100.0, 400.0, 0.8, 0.2, pool_id="wp"))
        mixed = ArbitrageLoop(
            [X, Y, W], [registry["xy"], registry["wp"], registry["xw"]]
        )
        pure = ArbitrageLoop(
            [X, Y, Z], [registry["xy"], registry["yz"], registry["zx"]]
        )
        arrays = MarketArrays.from_registry(registry)
        groups, fallback = compile_loops([mixed, pure], arrays)
        assert fallback == []
        assert [(g.length, g.mixed) for g in groups] == [(3, False), (3, True)]
        assert [list(g.positions) for g in groups] == [[1], [0]]

    def test_equal_weight_g3m_pools_stay_in_weighted_groups(self, registry):
        """A 50/50 WeightedPool reduces to the V2 formula mathematically,
        but the scalar path still routes it through the chain optimizer —
        so must the compiled grouping."""
        registry.add(WeightedPool(Y, W, 100.0, 400.0, 0.5, 0.5, pool_id="wp"))
        mixed = ArbitrageLoop(
            [X, Y, W], [registry["xy"], registry["wp"], registry["xw"]]
        )
        arrays = MarketArrays.from_registry(registry)
        groups, _ = compile_loops([mixed], arrays)
        assert [g.mixed for g in groups] == [True]

    def test_foreign_pools_fall_back(self, registry):
        foreign = Pool(Y, W, 10.0, 10.0, pool_id="elsewhere")
        loop = ArbitrageLoop(
            [X, Y, W], [registry["xy"], foreign, registry["xw"]]
        )
        arrays = MarketArrays.from_registry(registry)
        groups, fallback = compile_loops([loop], arrays)
        assert groups == [] and fallback == [0]

    def test_orientation_and_pool_rows(self, registry, loop):
        arrays = MarketArrays.from_registry(registry)
        groups, _ = compile_loops([loop], arrays)
        group = groups[0]
        for j, (token_in, _token_out, pool) in enumerate(
            loop.rotations()[0].hops()
        ):
            assert group.pool_idx[0, j] == arrays.pool_index[pool.pool_id]
            assert group.orient[0, j] == (token_in == pool.token0)


class TestBatchQuotes:
    def test_quotes_match_scalar_rotation_quote(self, registry, loop):
        from repro.strategies.traditional import rotation_quote

        arrays = MarketArrays.from_registry(registry)
        groups, _ = compile_loops([loop], arrays)
        group = groups[0]
        for offset in range(3):
            quotes = batch_quotes(arrays, group, offset)
            ref = rotation_quote(loop.rotations()[offset])
            assert quotes.quote(0) == ref

    def test_per_loop_offsets_gather(self, registry, loop):
        from repro.strategies.traditional import rotation_quote

        other = ArbitrageLoop(
            [Z, Y, X], [registry["yz"], registry["xy"], registry["zx"]]
        )
        arrays = MarketArrays.from_registry(registry)
        groups, _ = compile_loops([loop, other], arrays)
        group = groups[0]
        quotes = batch_quotes(arrays, group, np.array([2, 1]))
        assert quotes.quote(0) == rotation_quote(loop.rotations()[2])
        assert quotes.quote(1) == rotation_quote(other.rotations()[1])


class TestBatchKind:
    def test_fixed_start_strategies_qualify_on_every_solver(self):
        assert batch_kind(TraditionalStrategy()) == "traditional"
        assert batch_kind(TraditionalStrategy(start_token=X)) == "traditional"
        assert batch_kind(MaxPriceStrategy()) == "maxprice"
        assert batch_kind(MaxMaxStrategy()) == "maxmax"
        assert batch_kind(TraditionalStrategy(method="bisection")) == "traditional"
        assert batch_kind(TraditionalStrategy(method="golden")) == "traditional"
        assert batch_kind(MaxPriceStrategy(method="bisection")) == "maxprice"
        assert batch_kind(MaxMaxStrategy(method="golden")) == "maxmax"

    def test_convex_and_unknown_solvers_stay_scalar(self):
        assert batch_kind(ConvexOptimizationStrategy()) is None
        assert batch_kind(MaxMaxStrategy(method="sorcery")) is None

    def test_subclasses_stay_scalar(self):
        class Custom(MaxMaxStrategy):
            pass

        assert batch_kind(Custom()) is None


def _strategy_id(s):
    parts = [type(s).__name__]
    if getattr(s, "start_token", None):
        parts.append(s.start_token.symbol)
    method = getattr(s, "method", None)
    if method and method != "closed_form":
        parts.append(method)
    return "-".join(parts)


class TestBatchEvaluator:
    def _loops(self, registry):
        return [
            ArbitrageLoop([X, Y, Z], [registry["xy"], registry["yz"], registry["zx"]]),
            ArbitrageLoop([Z, Y, X], [registry["yz"], registry["xy"], registry["zx"]]),
        ]

    def _mixed_loops(self, registry):
        """Two CPMM loops plus two crossing a weighted (G3M) hop."""
        if "wp" not in registry:
            registry.add(
                WeightedPool(Y, W, 100.0, 400.0, 0.8, 0.2, pool_id="wp")
            )
        return self._loops(registry) + [
            ArbitrageLoop([X, Y, W], [registry["xy"], registry["wp"], registry["xw"]]),
            ArbitrageLoop([W, Y, X], [registry["wp"], registry["xy"], registry["xw"]]),
        ]

    @pytest.mark.parametrize(
        "strategy",
        [
            TraditionalStrategy(),
            TraditionalStrategy(start_token=Y),
            TraditionalStrategy(method="bisection"),
            TraditionalStrategy(method="golden"),
            MaxPriceStrategy(),
            MaxPriceStrategy(method="bisection"),
            MaxPriceStrategy(method="golden"),
            MaxMaxStrategy(),
            MaxMaxStrategy(method="bisection"),
            MaxMaxStrategy(method="golden"),
            ConvexOptimizationStrategy(),
        ],
        ids=_strategy_id,
    )
    def test_bit_identical_to_scalar(self, registry, prices, strategy):
        loops = self._mixed_loops(registry)
        evaluator = BatchEvaluator(loops, min_batch=1)
        batch = evaluator.evaluate_many(strategy, prices)
        for got, loop in zip(batch, loops):
            ref = strategy.evaluate_cached(loop, prices, None)
            assert got.monetized_profit == ref.monetized_profit
            assert got.amount_in == ref.amount_in
            assert got.hop_amounts == ref.hop_amounts
            assert got.profit == ref.profit
            assert got.start_token == ref.start_token
            assert got.details == ref.details
            assert got.loop == ref.loop

    def test_distinct_pools_sharing_an_id_are_rejected(self, registry):
        """Built without arrays, one column row per pool id: a loop over
        a copy's ``yz`` would be quoted on the original's reserves, so
        the evaluator refuses it.  One registry's loops share one object
        per pool and build."""
        copy = registry.copy()
        copy["yz"].swap(Y, 500.0)
        loops = self._loops(registry)
        twin = ArbitrageLoop([X, Y, Z], [registry["xy"], copy["yz"], registry["zx"]])
        with pytest.raises(ValueError, match="'yz'"):
            BatchEvaluator([*loops, twin])
        evaluator = BatchEvaluator(self._mixed_loops(registry))
        assert len(evaluator.arrays.reserve0) == len(registry)

    def test_indices_select_and_align(self, registry, prices):
        loops = self._loops(registry)
        evaluator = BatchEvaluator(loops, min_batch=1)
        out = evaluator.evaluate_many(MaxMaxStrategy(), prices, indices=[1])
        assert len(out) == 1
        assert out[0].loop == loops[1]

    def test_small_sets_fall_back_to_cached_scalar(self, registry, prices):
        from repro.engine import PoolStateCache

        loops = self._loops(registry)
        evaluator = BatchEvaluator(loops, min_batch=10)
        cache = PoolStateCache()
        evaluator.evaluate_many(MaxMaxStrategy(), prices, cache=cache)
        assert cache.misses > 0  # went through the scalar cached path

    def test_missing_price_raises_like_scalar(self, registry):
        loops = self._loops(registry)
        evaluator = BatchEvaluator(loops, min_batch=1)
        sparse = PriceMap({X: 1.0, Y: 1.0})  # Z unpriced
        with pytest.raises(MissingPriceError, match="'Z'"):
            evaluator.evaluate_many(MaxPriceStrategy(), sparse)

    def test_traditional_missing_start_raises(self, registry, prices):
        loops = self._loops(registry)
        evaluator = BatchEvaluator(loops, min_batch=1)
        with pytest.raises(StrategyError, match="start token"):
            evaluator.evaluate_many(TraditionalStrategy(start_token=W), prices)

    def test_pull_tracks_object_mutations(self, registry, prices):
        loops = self._loops(registry)
        evaluator = BatchEvaluator(
            loops, arrays=MarketArrays.from_registry(registry), min_batch=1
        )
        strategy = MaxMaxStrategy()
        registry["xy"].swap(X, 200.0)
        evaluator.arrays.pull(registry, ["xy"])
        batch = evaluator.evaluate_many(strategy, prices)
        for got, loop in zip(batch, loops):
            ref = strategy.evaluate_cached(loop, prices, None)
            assert got.monetized_profit == ref.monetized_profit

    def test_weighted_loops_never_forced_scalar(self, registry, prices):
        """The acceptance gate: mixed CPMM+weighted loop sets route
        entirely through the kernels under every fixed-start strategy
        and solver — zero scalar evaluations."""
        loops = self._mixed_loops(registry)
        evaluator = BatchEvaluator(loops, min_batch=1)
        assert evaluator.fallback_positions == []
        for strategy in (
            TraditionalStrategy(),
            TraditionalStrategy(method="bisection"),
            MaxPriceStrategy(method="golden"),
            MaxMaxStrategy(),
        ):
            evaluator.evaluate_many(strategy, prices)
        assert evaluator.stats.scalar_loops == 0
        assert evaluator.stats.kernel_loops == 4 * len(loops)
        assert evaluator.stats.kernel_passes > 0

    def test_stats_count_small_slice_and_convex_fallbacks(self, registry, prices):
        loops = self._loops(registry)
        evaluator = BatchEvaluator(loops, min_batch=10)
        evaluator.evaluate_many(MaxMaxStrategy(), prices)  # below min_batch
        assert evaluator.stats.scalar_loops == len(loops)
        evaluator.stats.reset()
        evaluator.min_batch = 1
        evaluator.evaluate_many(ConvexOptimizationStrategy(), prices)
        assert evaluator.stats.scalar_loops == len(loops)
        assert evaluator.stats.kernel_loops == 0


class TestKernelWarningHygiene:
    """The market-layer modules run with RuntimeWarning escalated to
    errors (see pyproject); the kernels must stay silent even on
    degenerate reserves because the closed form is evaluated masked,
    exactly like the scalar path that never computes the formula for
    unprofitable rotations."""

    def _degenerate_registry(self):
        """Reserves so large that a*b overflows float64 in the dead
        (unprofitable) branch of the closed form."""
        registry = PoolRegistry()
        registry.create(X, Y, 1e80, 1e80, pool_id="gxy")
        registry.create(Y, Z, 1e80, 1e80, pool_id="gyz")
        registry.create(Z, X, 1e80, 1e80, pool_id="gzx")
        return registry

    def test_closed_form_is_silent_on_degenerate_reserves(self):
        import warnings

        registry = self._degenerate_registry()
        loop = ArbitrageLoop(
            [X, Y, Z], [registry["gxy"], registry["gyz"], registry["gzx"]]
        )
        arrays = MarketArrays.from_registry(registry)
        groups, _ = compile_loops([loop], arrays)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            quotes = batch_quotes(arrays, groups[0], 0)
        # the fee makes the balanced giant loop unprofitable: the scalar
        # path returns the zero quote without ever touching sqrt(a*b)
        from repro.strategies.traditional import rotation_quote

        assert quotes.quote(0) == rotation_quote(loop.rotations()[0])
        assert quotes.amount_in[0] == 0.0

    def test_evaluator_is_silent_on_degenerate_reserves(self):
        import warnings

        registry = self._degenerate_registry()
        loop = ArbitrageLoop(
            [X, Y, Z], [registry["gxy"], registry["gyz"], registry["gzx"]]
        )
        evaluator = BatchEvaluator([loop], min_batch=1)
        prices = PriceMap({X: 1.0, Y: 1.0, Z: 1.0})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            results = evaluator.evaluate_many(MaxMaxStrategy(), prices)
        ref = MaxMaxStrategy().evaluate_cached(loop, prices, None)
        assert results[0].monetized_profit == ref.monetized_profit == 0.0

    def test_iterative_kernels_mirror_scalar_on_degenerate_reserves(self):
        """Where scalar Python-float arithmetic silently propagates
        inf/NaN and then fails (or resolves) in the solver, the batch
        kernels must do exactly the same — no RuntimeWarning, same
        exception type or same zero quote."""
        import warnings

        from repro.core.errors import SolverConvergenceError

        registry = self._degenerate_registry()
        loop = ArbitrageLoop(
            [X, Y, Z], [registry["gxy"], registry["gyz"], registry["gzx"]]
        )
        prices = PriceMap({X: 1.0, Y: 1.0, Z: 1.0})
        # bisection: a*b overflows -> NaN rate -> both paths grind the
        # bracket past max_iter and raise SolverConvergenceError
        scalar = MaxMaxStrategy(method="bisection")
        with pytest.raises(SolverConvergenceError):
            scalar.evaluate_cached(loop, prices, None)
        evaluator = BatchEvaluator([loop], min_batch=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SolverConvergenceError):
                evaluator.evaluate_many(scalar, prices)
        # golden: the is_profitable pre-check masks the degenerate rows
        # on both paths -> silent zero quotes
        golden = MaxMaxStrategy(method="golden")
        ref = golden.evaluate_cached(loop, prices, None)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = BatchEvaluator([loop], min_batch=1).evaluate_many(
                golden, prices
            )
        assert got[0].monetized_profit == ref.monetized_profit == 0.0

    def test_weighted_kernel_overflow_fails_loudly_like_scalar(self):
        """pow overflow at absurd weighted magnitudes raises
        OverflowError on both paths (pinned_pow's contract), never a
        silent NaN quote."""
        registry = PoolRegistry()
        registry.add(
            WeightedPool(X, Y, 1e40, 1e40, 0.9, 0.1, pool_id="gw-xy")
        )
        registry.create(Y, Z, 1e3, 1e3, pool_id="gw-yz")
        registry.create(Z, X, 1e3, 1e3, pool_id="gw-zx")
        loop = ArbitrageLoop(
            [X, Y, Z], [registry["gw-xy"], registry["gw-yz"], registry["gw-zx"]]
        )
        prices = PriceMap({X: 1.0, Y: 1.0, Z: 1.0})
        with pytest.raises(OverflowError):
            MaxMaxStrategy().evaluate_cached(loop, prices, None)
        evaluator = BatchEvaluator([loop], min_batch=1)
        with pytest.raises(OverflowError):
            evaluator.evaluate_many(MaxMaxStrategy(), prices)

    def test_giant_cp_hop_in_weighted_loop_mirrors_scalar(self):
        """A mixed column's constant-product lanes must stay *silent*
        where their scalar twin is plain Python-float math: here the
        loud OverflowError comes from the weighted hop (pinned_pow on
        both paths, same operands), not from the CP lane's denom²."""
        import warnings

        registry = PoolRegistry()
        registry.create(X, Y, 1e155, 1e155, pool_id="big-xy")
        registry.add(WeightedPool(Y, Z, 1e3, 1e3, 0.6, 0.4, pool_id="gw-yz"))
        registry.create(Z, X, 1e3, 1e3, pool_id="g-zx")
        loop = ArbitrageLoop(
            [X, Y, Z], [registry["big-xy"], registry["gw-yz"], registry["g-zx"]]
        )
        prices = PriceMap({X: 1.0, Y: 1.0, Z: 1.0})
        with pytest.raises(OverflowError):
            MaxMaxStrategy().evaluate_cached(loop, prices, None)
        evaluator = BatchEvaluator([loop], min_batch=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(OverflowError):
                evaluator.evaluate_many(MaxMaxStrategy(), prices)
