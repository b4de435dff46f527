"""Edge-case tests for weighted pools and the chain optimizer."""

from __future__ import annotations

import pytest

from repro.amm import WeightedPool
from repro.core import Token, UnknownTokenError
from repro.data import synthetic_loop
from repro.optimize import chain_rate, optimize_rotation_chain

X, Y = Token("X"), Token("Y")


class TestWeightedPoolEdges:
    def test_unknown_token_errors(self):
        pool = WeightedPool(X, Y, 100.0, 200.0)
        q = Token("Q")
        with pytest.raises(UnknownTokenError):
            pool.other(q)
        with pytest.raises(UnknownTokenError):
            pool.reserve_of(q)
        with pytest.raises(UnknownTokenError):
            pool.weight_of(q)

    def test_negative_input_rejected(self):
        pool = WeightedPool(X, Y, 100.0, 200.0)
        with pytest.raises(ValueError, match=">= 0"):
            pool.quote_out(X, -1.0)
        with pytest.raises(ValueError, match=">= 0"):
            pool.marginal_rate(X, -1.0)

    def test_zero_input_zero_output(self):
        pool = WeightedPool(X, Y, 100.0, 200.0, weight0=0.7, weight1=0.3)
        assert pool.quote_out(X, 0.0) == 0.0

    def test_copy_of_reversed_pool_keeps_token_weights(self):
        """Weights follow the tokens through normalization and survive
        a copy (snapshot, restore and copy of every family are in
        test_pool.py)."""
        pool = WeightedPool(Y, X, 200.0, 100.0, weight0=0.3, weight1=0.7)
        for p in (pool, pool.copy()):
            assert p.token0 == X
            assert (p.weight_of(X), p.weight_of(Y)) == (0.7, 0.3)
            assert (p.reserve_of(X), p.reserve_of(Y)) == (100.0, 200.0)

    def test_repr_mentions_weights(self):
        pool = WeightedPool(X, Y, 100.0, 200.0, weight0=0.8, weight1=0.2)
        assert "@0.8" in repr(pool)


class TestChainOptimizerEdges:
    def test_unprofitable_loop_returns_zero(self):
        loop = synthetic_loop(3, edge_rate=0.95, jitter=0.0)
        result = optimize_rotation_chain(loop.rotations()[0])
        assert result.x == 0.0
        assert result.value == 0.0

    def test_chain_rate_decreasing(self):
        loop = synthetic_loop(4, seed=2)
        rotation = loop.rotations()[0]
        rates = [chain_rate(rotation, t) for t in (0.0, 10.0, 1000.0, 1e5)]
        assert rates == sorted(rates, reverse=True)

    def test_long_loop(self):
        loop = synthetic_loop(12, seed=5)
        result = optimize_rotation_chain(loop.rotations()[0])
        assert result.x > 0
        assert result.converged
