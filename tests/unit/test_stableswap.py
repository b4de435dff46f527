"""Unit tests for the stableswap family (:mod:`repro.amm.stableswap`).

Covers the invariant math (``calculate_d`` / ``calculate_y`` /
``invariant_rate``), the :class:`StableSwapPool` curve (quotes,
swaps; the mint/burn, snapshot/restore and copy every family shares
are tested in ``test_liquidity_ops.py`` and ``test_pool.py``), the
batched lockstep solvers' bit-parity with the scalar iterations, the family columns of
:class:`~repro.market.MarketArrays`, the descriptor registry, and the
JSON snapshot / synthetic-generator integration points.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.amm import FAMILY_CPMM, FAMILY_G3M, Pool, PoolRegistry
from repro.amm.events import SwapEvent
from repro.amm.families import FAMILY_STABLESWAP, pool_family
from repro.amm.stableswap import (
    DEFAULT_AMPLIFICATION,
    DEFAULT_STABLESWAP_FEE,
    StableSwapPool,
    calculate_d,
    calculate_y,
    invariant_rate,
)
from repro.amm.weighted import WeightedPool
from repro.core import Token
from repro.core.errors import InvalidReserveError, SnapshotFormatError, UnknownTokenError
from repro.market import (
    MarketArrays,
    batched_stableswap_d,
    batched_stableswap_y,
    family_descriptor,
    needs_chain_kernel,
)

USDC, USDT, DAI = Token("USDC"), Token("USDT"), Token("DAI")


@pytest.fixture
def pool():
    return StableSwapPool(USDC, USDT, 1_000_000.0, 900_000.0, pool_id="ss")


# ----------------------------------------------------------------------
# invariant math
# ----------------------------------------------------------------------


class TestInvariantMath:
    def test_d_satisfies_invariant_equation(self):
        x, y, amp = 1_000.0, 700.0, 50.0
        d = calculate_d(x, y, amp)
        ann = 4.0 * amp
        # 4A(x+y) + D == 4A D + D^3 / (4xy)
        lhs = ann * (x + y) + d
        rhs = ann * d + d**3 / (4.0 * x * y)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_d_is_homogeneous_degree_one(self):
        d1 = calculate_d(800.0, 1_200.0, 30.0)
        d2 = calculate_d(8_000.0, 12_000.0, 30.0)
        assert d2 == pytest.approx(10.0 * d1, rel=1e-12)

    def test_d_balanced_pool_is_constant_sum(self):
        # at perfect balance the invariant degenerates to x + y exactly
        assert calculate_d(500.0, 500.0, 80.0) == pytest.approx(1_000.0, rel=1e-12)

    def test_d_zero_reserves(self):
        assert calculate_d(0.0, 0.0, 80.0) == 0.0

    def test_high_amplification_approaches_constant_sum(self):
        x, y = 1_000.0, 400.0
        d_low = calculate_d(x, y, 1.0)
        d_high = calculate_d(x, y, 1e6)
        assert abs(d_high - (x + y)) < abs(d_low - (x + y))
        assert d_high == pytest.approx(x + y, rel=1e-4)

    def test_y_inverts_d(self):
        x, y, amp = 1_500.0, 900.0, 60.0
        d = calculate_d(x, y, amp)
        assert calculate_y(x, d, amp) == pytest.approx(y, rel=1e-10)

    def test_invariant_rate_matches_finite_difference(self):
        x, y, amp = 2_000.0, 1_500.0, 40.0
        d = calculate_d(x, y, amp)
        h = 1e-4
        dy = calculate_y(x + h, d, amp) - calculate_y(x - h, d, amp)
        assert invariant_rate(x, y, d, amp) == pytest.approx(
            -dy / (2.0 * h), rel=1e-6
        )

    def test_rate_near_one_when_balanced(self):
        x = y = 10_000.0
        d = calculate_d(x, y, 100.0)
        assert invariant_rate(x, y, d, 100.0) == pytest.approx(1.0, rel=1e-9)


# ----------------------------------------------------------------------
# pool behaviour
# ----------------------------------------------------------------------


class TestStableSwapPool:
    def test_token_order_normalized(self):
        pool = StableSwapPool(USDT, DAI, 10.0, 20.0, pool_id="n")
        assert pool.token0 == DAI  # DAI < USDT
        assert pool.reserve_of(DAI) == 20.0
        assert pool.reserve_of(USDT) == 10.0

    def test_validation(self):
        with pytest.raises(InvalidReserveError, match="distinct"):
            StableSwapPool(USDC, USDC, 1.0, 1.0)
        with pytest.raises(InvalidReserveError, match="amplification"):
            StableSwapPool(USDC, USDT, 1.0, 1.0, amplification=0.5)
        with pytest.raises(InvalidReserveError, match="amplification"):
            StableSwapPool(USDC, USDT, 1.0, 1.0, amplification=float("nan"))

    def test_family_markers(self, pool):
        assert pool.family == FAMILY_STABLESWAP
        assert pool_family(pool) == FAMILY_STABLESWAP
        assert pool.fee == DEFAULT_STABLESWAP_FEE
        assert pool.amplification == DEFAULT_AMPLIFICATION

    def test_quote_zero_is_exactly_zero(self, pool):
        assert pool.quote_out(USDC, 0.0) == 0.0

    def test_quote_rejects_bad_input(self, pool):
        with pytest.raises(ValueError):
            pool.quote_out(USDC, -1.0)
        with pytest.raises(ValueError):
            pool.quote_out(USDC, float("inf"))
        with pytest.raises(UnknownTokenError):
            pool.quote_out(DAI, 1.0)

    def test_quote_near_parity_for_pegged_sizes(self, pool):
        # an amplified pool near balance trades close to 1:1 minus fee
        out = pool.quote_out(USDC, 1_000.0)
        assert out == pytest.approx(1_000.0 * (1.0 - pool.fee), rel=5e-3)

    def test_quote_monotone_and_concave(self, pool):
        sizes = [10.0, 100.0, 1_000.0, 10_000.0, 100_000.0]
        outs = [pool.quote_out(USDC, s) for s in sizes]
        assert all(b > a for a, b in zip(outs, outs[1:]))
        # concavity: average output rate decreases with size
        rates = [o / s for o, s in zip(outs, sizes)]
        assert all(b <= a + 1e-15 for a, b in zip(rates, rates[1:]))

    def test_spot_price_is_marginal_rate_at_zero(self, pool):
        assert pool.spot_price(USDC) == pool.marginal_rate(USDC, 0.0)

    def test_marginal_rate_matches_quote_derivative(self, pool):
        t, h = 5_000.0, 0.5
        numeric = (pool.quote_out(USDC, t + h) - pool.quote_out(USDC, t - h)) / (
            2.0 * h
        )
        assert pool.marginal_rate(USDC, t) == pytest.approx(numeric, rel=1e-6)

    def test_swap_mutates_and_logs(self, pool):
        d_before = pool.invariant()
        out = pool.swap(USDT, 10_000.0)
        assert pool.reserve_of(USDT) == 900_000.0 + 10_000.0
        assert pool.reserve_of(USDC) == 1_000_000.0 - out
        event = pool.last_event
        assert isinstance(event, SwapEvent)
        assert event.token_in == USDT and event.amount_out == out
        # the fee accretes to the pool: the invariant never shrinks
        assert pool.invariant() >= d_before * (1.0 - 1e-12)

    def test_feeless_swap_preserves_invariant(self):
        pool = StableSwapPool(USDC, USDT, 50_000.0, 70_000.0, fee=0.0, pool_id="f0")
        d_before = pool.invariant()
        pool.swap(USDC, 2_500.0)
        assert pool.invariant() == pytest.approx(d_before, rel=1e-10)


# ----------------------------------------------------------------------
# batched solver bit-parity
# ----------------------------------------------------------------------


class TestBatchedSolverParity:
    def test_d_bit_identical_to_scalar(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(10.0, 1e7, 300)
        y = rng.uniform(10.0, 1e7, 300)
        amp = rng.uniform(1.0, 500.0, 300)
        batched = batched_stableswap_d(x, y, amp)
        scalar = np.array(
            [calculate_d(float(a), float(b), float(c)) for a, b, c in zip(x, y, amp)]
        )
        assert np.array_equal(batched, scalar)  # bits, not approx

    def test_y_bit_identical_to_scalar(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(10.0, 1e6, 300)
        y = rng.uniform(10.0, 1e6, 300)
        amp = rng.uniform(1.0, 300.0, 300)
        d = batched_stableswap_d(x, y, amp)
        x_new = x * rng.uniform(1.0, 1.2, 300)
        batched = batched_stableswap_y(x_new, d, amp)
        scalar = np.array(
            [
                calculate_y(float(a), float(b), float(c))
                for a, b, c in zip(x_new, d, amp)
            ]
        )
        assert np.array_equal(batched, scalar)

    def test_empty_batch(self):
        empty = np.array([])
        assert len(batched_stableswap_d(empty, empty, empty)) == 0


# ----------------------------------------------------------------------
# market arrays & the family registry
# ----------------------------------------------------------------------


class TestMarketIntegration:
    @pytest.fixture
    def registry(self):
        registry = PoolRegistry()
        registry.create(USDC, USDT, 1_000.0, 2_000.0, pool_id="cp")
        registry.add(
            WeightedPool(USDC, DAI, 3_000.0, 1_500.0, 0.8, 0.2, pool_id="w")
        )
        registry.add(
            StableSwapPool(
                USDT, DAI, 5_000.0, 4_000.0, amplification=120.0, pool_id="ss"
            )
        )
        return registry

    def test_family_and_amp_columns(self, registry):
        arrays = MarketArrays(registry)
        i_cp = arrays.pool_index["cp"]
        i_w = arrays.pool_index["w"]
        i_ss = arrays.pool_index["ss"]
        assert arrays.family[i_cp] == FAMILY_CPMM
        assert arrays.family[i_w] == FAMILY_G3M
        assert arrays.family[i_ss] == FAMILY_STABLESWAP
        assert arrays.amp[i_ss] == 120.0
        assert arrays.amp[i_cp] == 0.0 and arrays.amp[i_w] == 0.0
        # non-G3M rows carry neutral weights (the bit-exact no-op)
        assert arrays.weight0[i_ss] == 1.0 and arrays.weight1[i_ss] == 1.0
        assert "stableswap" in repr(arrays)

    def test_to_registry_round_trip(self, registry):
        arrays = MarketArrays(registry)
        rebuilt = arrays.to_registry()
        ss = rebuilt["ss"]
        assert isinstance(ss, StableSwapPool)
        assert ss.amplification == 120.0
        assert ss.reserve_of(DAI) == 4_000.0
        assert isinstance(rebuilt["cp"], Pool)
        assert isinstance(rebuilt["w"], WeightedPool)

    def test_descriptor_registry(self):
        cpmm = family_descriptor(FAMILY_CPMM)
        ss = family_descriptor(FAMILY_STABLESWAP)
        assert cpmm.closed_form and cpmm.integer_exact
        assert not ss.closed_form and not ss.integer_exact
        assert ss.chain_lanes is not None and ss.bound_factor is not None
        assert family_descriptor(np.int8(FAMILY_G3M)).name == "g3m"
        with pytest.raises(KeyError, match="known"):
            family_descriptor(77)
        assert not needs_chain_kernel([FAMILY_CPMM])
        assert needs_chain_kernel([FAMILY_CPMM, FAMILY_STABLESWAP])


# ----------------------------------------------------------------------
# snapshot & synthetic integration
# ----------------------------------------------------------------------


class TestSerialization:
    def test_snapshot_json_round_trip(self):
        from repro.core import PriceMap
        from repro.data.snapshot import MarketSnapshot

        registry = PoolRegistry()
        registry.add(
            StableSwapPool(
                USDC, USDT, 750.0, 800.0, amplification=42.0, fee=0.001,
                pool_id="ss",
            )
        )
        snap = MarketSnapshot(
            registry=registry, prices=PriceMap({USDC: 1.0, USDT: 1.0})
        )
        back = MarketSnapshot.from_json(snap.to_json())
        pool = back.registry["ss"]
        assert isinstance(pool, StableSwapPool)
        assert pool.amplification == 42.0
        assert pool.fee == 0.001
        assert back.to_json() == snap.to_json()

    def test_unknown_pool_type_rejected(self):
        from repro.data.snapshot import MarketSnapshot

        data = {
            "version": 1,
            "tokens": [{"symbol": "USDC"}, {"symbol": "USDT"}],
            "prices": {},
            "pools": [
                {
                    "pool_id": "x",
                    "token0": "USDC",
                    "token1": "USDT",
                    "reserve0": 1.0,
                    "reserve1": 1.0,
                    "fee": 0.0,
                    "type": "concentrated",
                }
            ],
        }
        with pytest.raises(SnapshotFormatError, match="concentrated"):
            MarketSnapshot.from_dict(data)

    def test_generator_mix_knob(self):
        from repro.data.synthetic import SyntheticMarketGenerator

        mixed = SyntheticMarketGenerator(
            n_tokens=10, n_pools=30, seed=5, stableswap_fraction=0.4
        ).generate()
        families = {pool_family(p) for p in mixed.registry}
        assert FAMILY_STABLESWAP in families and FAMILY_CPMM in families
        assert mixed.metadata["stableswap_fraction"] == 0.4
        # fraction 0 must not perturb the RNG stream of existing seeds
        plain = SyntheticMarketGenerator(n_tokens=10, n_pools=30, seed=5)
        assert plain.generate().to_json() == SyntheticMarketGenerator(
            n_tokens=10, n_pools=30, seed=5, stableswap_fraction=0.0
        ).generate().to_json()
        assert "stableswap_fraction" not in plain.generate().metadata
        with pytest.raises(ValueError, match="stableswap_fraction"):
            SyntheticMarketGenerator(stableswap_fraction=1.5)

    def test_stableswap_pools_pass_paper_filters(self):
        from repro.data.synthetic import SyntheticMarketGenerator
        from repro.graph.filters import PAPER_MIN_RESERVE, PAPER_MIN_TVL_USD

        snap = SyntheticMarketGenerator(
            n_tokens=10, n_pools=30, seed=5, stableswap_fraction=0.4
        ).generate()
        for pool in snap.registry:
            if pool_family(pool) != FAMILY_STABLESWAP:
                continue
            assert min(pool.reserve0, pool.reserve1) >= PAPER_MIN_RESERVE
            assert pool.tvl(snap.prices) >= PAPER_MIN_TVL_USD


def test_extreme_imbalance_still_converges():
    # deep off-peg pools (1000:1) must still quote without divergence
    pool = StableSwapPool(USDC, USDT, 1_000_000.0, 1_000.0, pool_id="depeg")
    out = pool.quote_out(USDC, 100.0)
    assert 0.0 < out < 100.0
    assert math.isfinite(pool.spot_price(USDC))
