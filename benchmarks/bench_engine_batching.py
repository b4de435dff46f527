"""Bench + check the batched evaluation engine against the seed path.

Two timings on the acceptance workload — a Fig. 2-style full-grid
sweep (101 price points × 4 strategies: three traditional anchors +
MaxMax) over the §V loop:

* ``scalar``   — the seed code path: one ``strategy.evaluate`` per
  (strategy, point), no cache, no vectorization;
* ``batched``  — ``EvaluationEngine`` with the vectorized numpy grid
  kernels and the shared rotation cache (the default everywhere now).

Checks: batched matches scalar within 1e-9 relative tolerance at every
point (in practice they are bit-identical) and is >= 3x faster — the
acceptance floor.

Also micro-benchmarks ``rotation_state_key``: the static prefix (pool
ids, symbols, fees) is precomputed per loop, so a cache lookup only
gathers reserves — asserted no slower than the seed implementation
that rebuilt the whole key from the hops every call.
"""

from __future__ import annotations

import time

import numpy as np

from repro.data.example import TOKEN_X, section5_loop, section5_prices
from repro.engine import EvaluationEngine
from repro.strategies import MaxMaxStrategy, TraditionalStrategy

GRID = np.linspace(0.0, 20.0, 101)
GRID[0] = 1e-9


def _strategies():
    loop = section5_loop()
    strategies = {
        f"start_{token.symbol}": TraditionalStrategy(start_token=token)
        for token in loop.tokens
    }
    strategies["maxmax"] = MaxMaxStrategy()
    return loop, strategies


def _scalar_sweep(loop, strategies, base_prices):
    """The seed path: a fresh evaluate per (strategy, grid point)."""
    out = {}
    for label, strategy in strategies.items():
        series = []
        for price in GRID:
            prices = base_prices.with_price(TOKEN_X, float(price))
            series.append(strategy.evaluate(loop, prices))
        out[label] = series
    return out


def _engine_sweep(loop, strategies, base_prices):
    engine = EvaluationEngine()
    return engine.sweep_results(strategies, loop, base_prices, TOKEN_X, GRID)


def _best_of(fn, repeats=3):
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_engine_batching_speedup(benchmark):
    loop, strategies = _strategies()
    base_prices = section5_prices()

    scalar_s, scalar = _best_of(lambda: _scalar_sweep(loop, strategies, base_prices))
    batched = benchmark.pedantic(
        _engine_sweep,
        args=(loop, strategies, base_prices),
        rounds=3,
        iterations=1,
    )
    batched_s, _ = _best_of(lambda: _engine_sweep(loop, strategies, base_prices))

    # parity: every point of every series agrees to 1e-9 relative
    for label in strategies:
        for ref, got in zip(scalar[label], batched[label]):
            assert got.monetized_profit == (
                ref.monetized_profit
            ) or abs(got.monetized_profit - ref.monetized_profit) <= 1e-9 * max(
                1.0, abs(ref.monetized_profit)
            )
            assert got.start_token == ref.start_token
            assert got.amount_in == ref.amount_in

    speedup = scalar_s / batched_s
    print(
        f"\nfull-grid sweep ({GRID.size} points x {len(strategies)} strategies): "
        f"scalar {scalar_s * 1e3:.1f} ms, batched {batched_s * 1e3:.1f} ms "
        f"({speedup:.1f}x)"
    )
    # acceptance criterion: >= 3x on the vectorizable strategies
    assert speedup >= 3.0


def _rebuild_state_key(rotation, method):
    """The seed implementation of ``rotation_state_key``: rebuild the
    full key — statics included — from the hops on every call."""
    parts = [method]
    for token_in, _token_out, pool in rotation.hops():
        x, y = pool.reserves_oriented(token_in)
        parts.append((pool.pool_id, token_in.symbol, x, y, pool.fee))
    return tuple(parts)


def test_rotation_state_key_static_prefix_speedup():
    from repro.engine.cache import rotation_state_key

    loop = section5_loop()
    rotation = loop.rotations()[0]
    rotation_state_key(rotation, "closed_form")  # warm the loop statics
    iterations = 20_000

    def best_of(fn, repeats=5):
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(iterations):
                fn(rotation, "closed_form")
            best = min(best, time.perf_counter() - t0)
        return best

    before_s = best_of(_rebuild_state_key)
    after_s = best_of(rotation_state_key)
    print(
        f"\nrotation_state_key x{iterations}: rebuild {before_s * 1e3:.1f} ms, "
        f"static-prefix {after_s * 1e3:.1f} ms "
        f"({before_s / after_s:.2f}x)"
    )
    # the new key does strictly less work per call (reserve gather
    # only); the 5% slack absorbs timer noise
    assert after_s <= before_s * 1.05
