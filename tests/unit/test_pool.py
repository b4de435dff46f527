"""Unit tests for the stateful Pool, and for the behaviour every
family shares through ``TwoTokenPool`` (``family_pool`` in conftest)."""

from __future__ import annotations

import pytest

from repro.amm import DEFAULT_FEE, Pool, StableSwapPool, WeightedPool
from repro.core import (
    InvalidReserveError,
    Token,
    UnknownTokenError,
)

X, Y = Token("X"), Token("Y")


@pytest.fixture
def pool():
    return Pool(X, Y, 100.0, 200.0, pool_id="t-xy")


class TestConstruction:
    def test_tokens_normalized_by_symbol(self):
        pool = Pool(Y, X, 200.0, 100.0)
        assert pool.token0 == X
        assert pool.reserve_of(X) == 100.0
        assert pool.reserve_of(Y) == 200.0

    def test_same_token_twice_rejected(self):
        with pytest.raises(InvalidReserveError, match="distinct"):
            Pool(X, X, 100.0, 100.0)

    def test_nonpositive_reserves_rejected(self):
        with pytest.raises(InvalidReserveError):
            Pool(X, Y, 0.0, 100.0)
        with pytest.raises(InvalidReserveError):
            Pool(X, Y, 100.0, -1.0)

    def test_default_fee(self, pool):
        assert pool.fee == DEFAULT_FEE == 0.003

    @pytest.mark.parametrize(
        "cls, prefix",
        [(Pool, "pool-"), (WeightedPool, "wpool-"), (StableSwapPool, "spool-")],
    )
    def test_auto_pool_ids_unique_with_family_prefix(self, cls, prefix):
        a = cls(X, Y, 1.0, 1.0)
        b = cls(X, Y, 1.0, 1.0)
        assert a.pool_id != b.pool_id
        for pool in (a, b):
            assert pool.pool_id.startswith(prefix)
            assert pool.pool_id[len(prefix):].isdigit()

    def test_contains(self, pool):
        assert X in pool and Y in pool
        assert Token("Q") not in pool

    def test_other(self, pool):
        assert pool.other(X) == Y
        assert pool.other(Y) == X
        with pytest.raises(UnknownTokenError):
            pool.other(Token("Q"))

    def test_reserve_of_unknown_token(self, pool):
        with pytest.raises(UnknownTokenError):
            pool.reserve_of(Token("Q"))

    def test_k(self, pool):
        assert pool.k == pytest.approx(20_000.0)


class TestQuotes:
    def test_quote_does_not_mutate(self, pool):
        before = (pool.reserve_of(X), pool.reserve_of(Y))
        pool.quote_out(X, 10.0)
        pool.quote_in(Y, 10.0)
        pool.spot_price(X)
        assert (pool.reserve_of(X), pool.reserve_of(Y)) == before

    def test_quote_out_in_roundtrip(self, pool):
        out = pool.quote_out(X, 10.0)
        assert pool.quote_in(Y, out) == pytest.approx(10.0, rel=1e-12)

    def test_spot_price_direction(self, pool):
        # X is scarce, so X is worth ~2 Y
        assert pool.spot_price(X) == pytest.approx(0.997 * 2.0)
        assert pool.spot_price(Y) == pytest.approx(0.997 * 0.5)

    def test_marginal_rate_at_zero_equals_spot(self, pool):
        assert pool.marginal_rate(X, 0.0) == pytest.approx(pool.spot_price(X))


class TestSwap:
    def test_swap_mutates_reserves(self, pool):
        out = pool.swap(X, 10.0)
        assert pool.reserve_of(X) == pytest.approx(110.0)
        assert pool.reserve_of(Y) == pytest.approx(200.0 - out)

    def test_swap_returns_quote(self, pool):
        quote = pool.quote_out(X, 10.0)
        assert pool.swap(X, 10.0) == pytest.approx(quote)

    def test_k_never_decreases_with_fee(self, pool):
        k0 = pool.k
        pool.swap(X, 10.0)
        k1 = pool.k
        pool.swap(Y, 5.0)
        k2 = pool.k
        assert k1 >= k0 * (1 - 1e-12)
        assert k2 >= k1 * (1 - 1e-12)
        # With a positive fee k strictly grows.
        assert k1 > k0

    def test_swap_records_event(self, pool):
        pool.swap(X, 10.0)
        assert len(pool.events) == 1
        event = pool.events[0]
        assert event.token_in == X
        assert event.token_out == Y
        assert event.amount_in == 10.0
        assert event.pool_id == "t-xy"
        assert "X" in str(event)

    def test_sequential_swaps_use_updated_state(self, pool):
        out1 = pool.swap(X, 10.0)
        out2 = pool.swap(X, 10.0)
        assert out2 < out1  # slippage: second trade gets a worse price

    @pytest.mark.parametrize("token_in", [X, Y], ids=["x-in", "y-in"])
    def test_draining_swap_rejected_and_pool_unchanged(self, family_pool, token_in):
        """A swap so large its output rounds to the whole out-side
        reserve is rejected before either reserve is written, on every
        family; the pool still quotes."""
        before = repr(family_pool)
        with pytest.raises(InvalidReserveError, match="would leave"):
            family_pool.swap(token_in, 1e300)
        assert repr(family_pool) == before
        assert (family_pool.reserve0, family_pool.reserve1) == (100.0, 200.0)
        assert family_pool.event_count == 0
        assert family_pool.quote_out(token_in, 1.0) > 0.0


class TestSnapshotRestore:
    def test_restore_roundtrip(self, family_pool):
        snap = family_pool.snapshot()
        family_pool.swap(X, 25.0)
        family_pool.restore(snap)
        assert family_pool.reserve_of(X) == 100.0
        assert family_pool.reserve_of(Y) == 200.0

    def test_restore_wrong_pool_rejected(self, family_pool):
        other = type(family_pool)(X, Y, 1.0, 1.0, pool_id="other")
        with pytest.raises(ValueError, match="cannot restore"):
            family_pool.restore(other.snapshot())
        with pytest.raises(ValueError, match="t-xy cannot restore other"):
            other.restore(family_pool.snapshot())

    def test_copy_is_independent(self, family_pool):
        family_pool.swap(Y, 5.0)
        clone = family_pool.copy()
        # same family, id, reserves, fee and family parameters (the
        # repr shows weights and amplification), but no event log
        assert type(clone) is type(family_pool)
        assert repr(clone) == repr(family_pool)
        assert (clone.reserve0, clone.reserve1, clone.fee) == (
            family_pool.reserve0, family_pool.reserve1, family_pool.fee
        )
        assert clone.event_count == 0
        reserve_x = family_pool.reserve_of(X)
        clone.swap(X, 10.0)
        assert family_pool.reserve_of(X) == reserve_x

    def test_snapshot_tvl(self, family_pool, simple_prices):
        snap = family_pool.snapshot()
        # 100 X * 2$ + 200 Y * 10.2$
        assert snap.tvl(simple_prices) == pytest.approx(100 * 2 + 200 * 10.2)
        assert family_pool.tvl(simple_prices) == snap.tvl(simple_prices)


class TestSnapshotTvlDirect:
    """Direct unit coverage for ``PoolSnapshot.tvl`` — a proper
    ``Mapping[Token, float]`` parameter, not a duck-typed object."""

    def test_exact_value_with_plain_dict(self, pool):
        snap = pool.snapshot()
        prices = {X: 3.0, Y: 0.5}
        assert snap.tvl(prices) == 100.0 * 3.0 + 200.0 * 0.5

    def test_accepts_price_map(self, pool):
        from repro.core import PriceMap

        snap = pool.snapshot()
        prices = PriceMap({X: 1.25, Y: 4.0})
        assert snap.tvl(prices) == 100.0 * 1.25 + 200.0 * 4.0
        assert snap.tvl(prices) == pool.tvl(prices)

    def test_missing_token_surfaces_mapping_error(self, pool):
        from repro.core import MissingPriceError, PriceMap

        snap = pool.snapshot()
        with pytest.raises(KeyError):
            snap.tvl({X: 3.0})
        with pytest.raises(MissingPriceError):
            snap.tvl(PriceMap({X: 3.0}))

    def test_zero_price_zeroes_that_side(self, pool):
        snap = pool.snapshot()
        assert snap.tvl({X: 0.0, Y: 2.0}) == 400.0


class TestRepr:
    def test_repr_mentions_reserves_and_tokens(self, pool):
        text = repr(pool)
        assert "100" in text and "200" in text
        assert "X" in text and "Y" in text
