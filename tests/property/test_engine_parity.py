"""Property tests: batched / vectorized evaluation == scalar evaluation.

The engine's whole contract is that caching, batching, and the numpy
grid kernels change *when* work happens but never *what* is computed.
Hypothesis hammers that with random reserves, random prices, random
grids, and all three pool families (constant-product, weighted,
stableswap).  The grid kernels quote through the same rotation
optimizer as the scalar ``evaluate``, so on loops mixing the families
they are asserted equal bit for bit; the rest is held to 1e-9
relative tolerance.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amm import Pool
from repro.amm.stableswap import StableSwapPool
from repro.amm.weighted import WeightedPool
from repro.core import ArbitrageLoop, PriceMap, Token
from repro.engine import EvaluationEngine, PoolStateCache
from repro.strategies import (
    MaxMaxStrategy,
    MaxPriceStrategy,
    TraditionalStrategy,
)

X, Y, Z = Token("X"), Token("Y"), Token("Z")

reserve = st.floats(min_value=50.0, max_value=1e5)
price = st.floats(min_value=0.01, max_value=1e4)
weight = st.floats(min_value=0.2, max_value=0.8)
amplification = st.floats(min_value=1.0, max_value=300.0)
families = st.lists(
    st.sampled_from(["cpmm", "weighted", "stableswap"]), min_size=3, max_size=3
)
grid_values = st.lists(
    st.floats(min_value=1e-9, max_value=1e4), min_size=1, max_size=8
)
loop_params = st.tuples(reserve, reserve, reserve, reserve, reserve, reserve)
price_params = st.tuples(price, price, price)


def make_cp_loop(x0, y0, y1, z1, z2, x2):
    return ArbitrageLoop(
        [X, Y, Z],
        [
            Pool(X, Y, x0, y0, pool_id="p-xy"),
            Pool(Y, Z, y1, z1, pool_id="p-yz"),
            Pool(Z, X, z2, x2, pool_id="p-zx"),
        ],
    )


def make_weighted_loop(x0, y0, y1, z1, z2, x2, w):
    return ArbitrageLoop(
        [X, Y, Z],
        [
            Pool(X, Y, x0, y0, pool_id="w-xy"),
            WeightedPool(Y, Z, y1, z1, w, 1.0 - w, pool_id="w-yz"),
            Pool(Z, X, z2, x2, pool_id="w-zx"),
        ],
    )


def make_mixed_loop(params, kinds, w, amp):
    """An X -> Y -> Z loop whose hop ``i`` is of family ``kinds[i]``."""
    pools = []
    for i, (kind, (a, b)) in enumerate(zip(kinds, ((X, Y), (Y, Z), (Z, X)))):
        ra, rb, pool_id = params[2 * i], params[2 * i + 1], f"m-{i}"
        if kind == "weighted":
            pools.append(WeightedPool(a, b, ra, rb, w, 1.0 - w, pool_id=pool_id))
        elif kind == "stableswap":
            pools.append(
                StableSwapPool(a, b, ra, rb, amplification=amp, pool_id=pool_id)
            )
        else:
            pools.append(Pool(a, b, ra, rb, pool_id=pool_id))
    return ArbitrageLoop([X, Y, Z], pools)


def assert_identical(got, ref):
    assert got.monetized_profit == ref.monetized_profit
    assert got.start_token == ref.start_token
    assert got.amount_in == ref.amount_in
    assert got.hop_amounts == ref.hop_amounts
    assert got.details.get("per_rotation") == ref.details.get("per_rotation")
    assert got.details["iterations"] == ref.details["iterations"]


def assert_close(got, ref):
    assert got.monetized_profit == pytest.approx(
        ref.monetized_profit, rel=1e-9, abs=1e-9
    )
    assert got.start_token == ref.start_token
    assert got.amount_in == pytest.approx(ref.amount_in, rel=1e-9, abs=1e-9)


def all_strategies(loop):
    strategies = {
        f"start_{token.symbol}": TraditionalStrategy(start_token=token)
        for token in loop.tokens
    }
    strategies["maxmax"] = MaxMaxStrategy()
    strategies["maxprice"] = MaxPriceStrategy()
    return strategies


@given(params=loop_params, prices=price_params, grid=grid_values)
@settings(max_examples=40, deadline=None)
def test_vectorized_grid_matches_scalar_on_cp_loops(params, prices, grid):
    loop = make_cp_loop(*params)
    base = PriceMap({X: prices[0], Y: prices[1], Z: prices[2]})
    results = EvaluationEngine().sweep_results(
        all_strategies(loop), loop, base, X, grid
    )
    for label, strategy in all_strategies(loop).items():
        for j, p in enumerate(grid):
            ref = strategy.evaluate(loop, base.with_price(X, float(p)))
            assert_close(results[label][j], ref)


@given(
    params=loop_params,
    prices=price_params,
    grid=grid_values,
    kinds=families,
    w=weight,
    amp=amplification,
)
@settings(max_examples=25, deadline=None)
def test_grid_kernels_match_scalar_on_mixed_loops(
    params, prices, grid, kinds, w, amp
):
    loop = make_mixed_loop(params, kinds, w, amp)
    base = PriceMap({X: prices[0], Y: prices[1], Z: prices[2]})
    strategies = all_strategies(loop)
    results = EvaluationEngine().sweep_results(strategies, loop, base, X, grid)
    for label, strategy in strategies.items():
        for j, p in enumerate(grid):
            ref = strategy.evaluate(loop, base.with_price(X, float(p)))
            assert_identical(results[label][j], ref)


@given(params=loop_params, prices=price_params)
@settings(max_examples=40, deadline=None)
def test_cached_evaluate_many_matches_scalar(params, prices):
    loop = make_cp_loop(*params)
    loops = [loop, loop.reversed()]
    price_map = PriceMap({X: prices[0], Y: prices[1], Z: prices[2]})
    cache = PoolStateCache()
    for strategy in (MaxMaxStrategy(), MaxPriceStrategy(), TraditionalStrategy()):
        batched = [strategy.evaluate_cached(one, price_map, cache) for one in loops]
        rerun = [  # warm
            strategy.evaluate_cached(one, price_map, cache) for one in loops
        ]
        for one, two, ref_loop in zip(batched, rerun, loops):
            ref = strategy.evaluate(ref_loop, price_map)
            assert_close(one, ref)
            assert_close(two, ref)
    assert cache.hits > 0


@given(params=loop_params, prices=price_params, w=weight)
@settings(max_examples=25, deadline=None)
def test_cache_is_sound_on_weighted_loops(params, prices, w):
    loop = make_weighted_loop(*params, w)
    price_map = PriceMap({X: prices[0], Y: prices[1], Z: prices[2]})
    cache = PoolStateCache()
    strategy = MaxMaxStrategy()
    cached = strategy.evaluate_cached(loop, price_map, cache)
    assert_close(cached, strategy.evaluate(loop, price_map))
