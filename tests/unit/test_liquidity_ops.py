"""Unit tests for ``TwoTokenPool.add_liquidity`` / ``remove_liquidity``
(V2 mint/burn), on every pool family."""

from __future__ import annotations

import pytest

from repro.amm.events import BurnEvent, MintEvent
from repro.core import InvalidReserveError, Token

X, Y = Token("X"), Token("Y")


@pytest.fixture
def pool(family_pool):
    """100 X / 200 Y in each family (``family_pool`` in conftest)."""
    return family_pool


class TestAddLiquidity:
    def test_proportional_deposit(self, pool):
        pool.add_liquidity(10.0, 20.0)
        assert pool.reserve_of(X) == pytest.approx(110.0)
        assert pool.reserve_of(Y) == pytest.approx(220.0)

    def test_price_unchanged(self, pool):
        price = pool.spot_price(X)
        pool.add_liquidity(50.0, 100.0)
        assert pool.spot_price(X) == pytest.approx(price, rel=1e-12)

    def test_depth_reduces_slippage(self, pool):
        quote_before = pool.quote_out(X, 10.0)
        pool.add_liquidity(100.0, 200.0)
        quote_after = pool.quote_out(X, 10.0)
        assert quote_after > quote_before  # deeper pool, less slippage

    def test_ratio_mismatch_rejected(self, pool):
        with pytest.raises(InvalidReserveError, match="ratio"):
            pool.add_liquidity(10.0, 10.0)

    def test_nonpositive_rejected(self, pool):
        with pytest.raises(InvalidReserveError, match="positive"):
            pool.add_liquidity(0.0, 20.0)
        with pytest.raises(InvalidReserveError, match="positive"):
            pool.add_liquidity(10.0, -1.0)


class TestRemoveLiquidity:
    def test_proportional_withdrawal(self, pool):
        out0, out1 = pool.remove_liquidity(0.25)
        assert out0 == pytest.approx(25.0)
        assert out1 == pytest.approx(50.0)
        assert pool.reserve_of(X) == pytest.approx(75.0)
        assert pool.reserve_of(Y) == pytest.approx(150.0)

    def test_price_unchanged(self, pool):
        price = pool.spot_price(X)
        pool.remove_liquidity(0.5)
        assert pool.spot_price(X) == pytest.approx(price, rel=1e-12)

    def test_fraction_bounds(self, pool):
        with pytest.raises(InvalidReserveError, match="fraction"):
            pool.remove_liquidity(0.0)
        with pytest.raises(InvalidReserveError, match="fraction"):
            pool.remove_liquidity(1.0)
        with pytest.raises(InvalidReserveError, match="fraction"):
            pool.remove_liquidity(-0.5)

    def test_mint_burn_roundtrip(self, pool):
        pool.add_liquidity(100.0, 200.0)  # double the pool
        pool.remove_liquidity(0.5)  # halve it again
        assert pool.reserve_of(X) == pytest.approx(100.0)
        assert pool.reserve_of(Y) == pytest.approx(200.0)

    def test_mint_and_burn_are_logged(self, pool):
        pool.add_liquidity(10.0, 20.0)
        assert pool.last_event == MintEvent(pool_id="t-xy", amount0=10.0, amount1=20.0)
        out0, out1 = pool.remove_liquidity(0.25)
        assert pool.last_event == BurnEvent(
            pool_id="t-xy", fraction=0.25, amount0=out0, amount1=out1
        )
        assert pool.event_count == 2
