"""Tests for weighted (G3M) pools and the generic chain-rule optimizer."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amm import FAMILY_CPMM, FAMILY_G3M, Pool, WeightedPool
from repro.core import ArbitrageLoop, InvalidReserveError, PriceMap, Token
from repro.optimize import chain_rate, optimize_rotation_chain
from repro.strategies import (
    ConvexOptimizationStrategy,
    MaxMaxStrategy,
    TraditionalStrategy,
)

X, Y, Z = Token("X"), Token("Y"), Token("Z")


def weighted_loop(w: float = 0.8) -> ArbitrageLoop:
    """A profitable 3-loop with one 80/20 weighted hop."""
    pools = [
        WeightedPool(X, Y, 100.0, 200.0, weight0=w, weight1=1.0 - w, pool_id="w-xy"),
        Pool(Y, Z, 300.0, 200.0, pool_id="w-yz"),
        Pool(Z, X, 200.0, 400.0, pool_id="w-zx"),
    ]
    return ArbitrageLoop([X, Y, Z], pools)


@pytest.fixture
def prices():
    return PriceMap({X: 2.0, Y: 10.2, Z: 20.0})


class TestWeightedPool:
    def test_equal_weights_match_cpmm(self):
        wp = WeightedPool(X, Y, 100.0, 200.0, weight0=0.5, weight1=0.5)
        cp = Pool(X, Y, 100.0, 200.0)
        for dx in (0.1, 1.0, 10.0, 50.0):
            assert wp.quote_out(X, dx) == pytest.approx(cp.quote_out(X, dx), rel=1e-12)
        assert wp.spot_price(X) == pytest.approx(cp.spot_price(X), rel=1e-12)
        assert wp.marginal_rate(X, 5.0) == pytest.approx(
            cp.marginal_rate(X, 5.0), rel=1e-12
        )

    def test_weights_shift_spot_price(self):
        heavy_x = WeightedPool(X, Y, 100.0, 200.0, weight0=0.8, weight1=0.2)
        balanced = WeightedPool(X, Y, 100.0, 200.0)
        # heavier input weight -> higher spot price of the input token
        assert heavy_x.spot_price(X) > balanced.spot_price(X)

    def test_marginal_rate_matches_finite_difference(self):
        pool = WeightedPool(X, Y, 150.0, 260.0, weight0=0.7, weight1=0.3)
        t, h = 13.0, 1e-6
        fd = (pool.quote_out(X, t + h) - pool.quote_out(X, t - h)) / (2 * h)
        assert pool.marginal_rate(X, t) == pytest.approx(fd, rel=1e-6)

    def test_swap_mutates_and_logs(self):
        pool = WeightedPool(X, Y, 100.0, 200.0, weight0=0.6, weight1=0.4)
        out = pool.swap(X, 10.0)
        assert pool.reserve_of(X) == pytest.approx(110.0)
        assert pool.reserve_of(Y) == pytest.approx(200.0 - out)
        assert len(pool.events) == 1

    def test_invariant_preserved(self):
        w0, w1 = 0.6, 0.4
        pool = WeightedPool(X, Y, 100.0, 200.0, weight0=w0, weight1=w1, fee=0.0)
        inv_before = pool.reserve_of(X) ** w0 * pool.reserve_of(Y) ** w1
        pool.swap(X, 25.0)
        inv_after = pool.reserve_of(X) ** w0 * pool.reserve_of(Y) ** w1
        assert inv_after == pytest.approx(inv_before, rel=1e-12)

    def test_fee_grows_invariant(self):
        w0, w1 = 0.6, 0.4
        pool = WeightedPool(X, Y, 100.0, 200.0, weight0=w0, weight1=w1, fee=0.003)
        inv_before = pool.reserve_of(X) ** w0 * pool.reserve_of(Y) ** w1
        pool.swap(X, 25.0)
        inv_after = pool.reserve_of(X) ** w0 * pool.reserve_of(Y) ** w1
        assert inv_after > inv_before

    def test_validation(self):
        with pytest.raises(InvalidReserveError, match="weights"):
            WeightedPool(X, Y, 1.0, 1.0, weight0=0.0, weight1=1.0)
        with pytest.raises(InvalidReserveError, match="distinct"):
            WeightedPool(X, X, 1.0, 1.0)

    def test_normalization_swaps_weights(self):
        pool = WeightedPool(Y, X, 200.0, 100.0, weight0=0.2, weight1=0.8)
        assert pool.token0 == X
        assert pool.weight_of(X) == 0.8
        assert pool.reserve_of(X) == 100.0

    def test_not_constant_product(self):
        assert WeightedPool(X, Y, 1.0, 1.0).family == FAMILY_G3M
        assert Pool(X, Y, 1.0, 1.0).family == FAMILY_CPMM

    def test_overflow_magnitudes_fail_loudly(self):
        """`pinned_pow` keeps `**`'s overflow contract: absurd reserve
        magnitudes raise OverflowError instead of quoting silent NaNs."""
        pool = WeightedPool(X, Y, 1e40, 1e40, weight0=0.9, weight1=0.1)
        with pytest.raises(OverflowError):
            pool.marginal_rate(X, 1.0)


class TestChainOptimizer:
    def test_matches_closed_form_on_cpmm_loop(self, s5_loop):
        from repro.optimize import optimize_rotation

        rotation = s5_loop.rotations()[0]
        chain = optimize_rotation_chain(rotation)
        exact = optimize_rotation(rotation)
        assert chain.x == pytest.approx(exact.x, rel=1e-8)
        assert chain.value == pytest.approx(exact.value, rel=1e-8)

    def test_chain_rate_at_zero_is_spot_product(self):
        loop = weighted_loop()
        rotation = loop.rotations()[0]
        expected = 1.0
        for token_in, _out, pool in rotation.hops():
            expected *= pool.spot_price(token_in)
        assert chain_rate(rotation, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_weighted_optimum_is_stationary(self):
        loop = weighted_loop()
        rotation = loop.rotations()[0]
        result = optimize_rotation_chain(rotation)
        assert result.x > 0
        assert chain_rate(rotation, result.x) == pytest.approx(1.0, rel=1e-6)
        # and it is a maximum of the simulated profit
        def profit(t):
            return rotation.simulate(t)[-1] - t
        assert profit(result.x) >= profit(result.x * 0.9)
        assert profit(result.x) >= profit(result.x * 1.1)

    def test_composition_refuses_weighted(self):
        loop = weighted_loop()
        with pytest.raises(TypeError, match="constant-product"):
            loop.rotations()[0].composition()


class TestStrategiesOnWeightedLoops:
    def test_traditional_works(self, prices):
        loop = weighted_loop()
        result = TraditionalStrategy(start_token=X).evaluate(loop, prices)
        assert result.monetized_profit > 0
        # hop amounts replay exactly
        sim = loop.rotation_from(X).simulate(result.amount_in)
        assert result.hop_amounts[-1][1] == pytest.approx(sim[-1], rel=1e-9)

    def test_maxmax_dominates_rotations(self, prices):
        loop = weighted_loop()
        mm = MaxMaxStrategy().evaluate(loop, prices)
        for token in loop.tokens:
            trad = TraditionalStrategy(start_token=token).evaluate(loop, prices)
            assert mm.monetized_profit >= trad.monetized_profit - 1e-9

    @pytest.mark.parametrize("backend", ["barrier", "slsqp"])
    def test_convex_dominates_maxmax(self, prices, backend):
        loop = weighted_loop()
        mm = MaxMaxStrategy().evaluate(loop, prices)
        cv = ConvexOptimizationStrategy(backend=backend).evaluate(loop, prices)
        assert cv.monetized_profit >= mm.monetized_profit - 1e-6

    def test_backends_agree(self, prices):
        loop = weighted_loop()
        barrier = ConvexOptimizationStrategy(backend="barrier").evaluate(loop, prices)
        slsqp = ConvexOptimizationStrategy(backend="slsqp").evaluate(loop, prices)
        assert barrier.monetized_profit == pytest.approx(
            slsqp.monetized_profit, rel=1e-4
        )

    def test_execution_realizes_weighted_profit(self, prices):
        from repro.amm import PoolRegistry
        from repro.execution import ExecutionSimulator, plan_from_result

        loop = weighted_loop()
        result = MaxMaxStrategy().evaluate(loop, prices)
        # WeightedPool satisfies the duck interface the registry and
        # simulator need (tokens, snapshot/restore, swap).
        registry = PoolRegistry(loop.pools)
        receipt = ExecutionSimulator(registry=registry).execute(
            plan_from_result(result, slippage_tolerance=1e-9)
        )
        assert not receipt.reverted
        assert receipt.monetized(prices) == pytest.approx(
            result.monetized_profit, rel=1e-6
        )


class TestWeightedProperties:
    @given(
        w=st.floats(min_value=0.1, max_value=0.9),
        dx=st.floats(min_value=0.01, max_value=100.0),
    )
    @settings(max_examples=60)
    def test_output_bounded_and_monotone(self, w, dx):
        pool = WeightedPool(X, Y, 100.0, 200.0, weight0=w, weight1=1.0 - w)
        out = pool.quote_out(X, dx)
        assert 0 < out < 200.0
        assert pool.quote_out(X, dx * 2) > out

    @given(w=st.floats(min_value=0.1, max_value=0.9))
    @settings(max_examples=30)
    def test_concavity(self, w):
        pool = WeightedPool(X, Y, 100.0, 200.0, weight0=w, weight1=1.0 - w)
        f = lambda t: pool.quote_out(X, t)
        mid = 0.5 * (f(10.0) + f(30.0))
        assert f(20.0) >= mid * (1.0 - 1e-12)
