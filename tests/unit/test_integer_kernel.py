"""The columnar integer kernel and the BatchEvaluator exact mode.

The central claim is *bit-identity*: the batched object-dtype kernel
produces exactly the integers the sequential :class:`IntegerPool`
path does — no tolerance, no platform caveat, because integer
arithmetic has no rounding mode to pin.  On top of that sit the exact
mode's plumbing guarantees: every fixed-start result gets a
``details["exact"]`` audit, bounds go ``+inf`` (never prune an exact
quote), and weighted loops — which have no floor-arithmetic twin —
stay unannotated.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.amm import Pool, PoolRegistry
from repro.amm.integer import IntegerPool, execute_loop, loop_quote_out
from repro.amm.weighted import WeightedPool
from repro.core import ArbitrageLoop, PriceMap, Token
from repro.market import (
    FEE_PPM_DENOMINATOR,
    WAD,
    BatchEvaluator,
    MarketArrays,
    base_units,
    compile_loops,
    exact_loop_quote,
    integer_batch_quotes,
    integer_hops,
    quantize_fee,
)
from repro.strategies import (
    MaxMaxStrategy,
    MaxPriceStrategy,
    TraditionalStrategy,
)

A, B, C, D = (Token(s) for s in "ABCD")


def triangle_registry(scale_shift: float = 1.0) -> tuple[PoolRegistry, list[ArbitrageLoop]]:
    registry = PoolRegistry()
    pools = [
        Pool(A, B, 100.0 * scale_shift, 200.0 * scale_shift, fee=0.003, pool_id="ab"),
        Pool(B, C, 300.0 * scale_shift, 150.0 * scale_shift, fee=0.01, pool_id="bc"),
        Pool(C, A, 80.0 * scale_shift, 120.0 * scale_shift, fee=0.0025, pool_id="ca"),
    ]
    for pool in pools:
        registry.add(pool)
    loop = ArbitrageLoop([A, B, C], pools)
    return registry, [loop]


def many_loops(count: int = 12) -> tuple[PoolRegistry, list[ArbitrageLoop]]:
    """`count` independent 3-loops with varied reserves and fees."""
    registry = PoolRegistry()
    loops = []
    for i in range(count):
        tokens = [Token(f"X{i}"), Token(f"Y{i}"), Token(f"Z{i}")]
        pools = []
        for j in range(3):
            a, b = tokens[j], tokens[(j + 1) % 3]
            pool = Pool(
                a, b,
                50.0 + 13.7 * i + j, 90.0 + 7.1 * i * (j + 1),
                fee=[0.003, 0.01, 0.0005][(i + j) % 3],
                pool_id=f"p{i}-{j}",
            )
            registry.add(pool)
            pools.append(pool)
        loops.append(ArbitrageLoop(tokens, pools))
    return registry, loops


def prices_for(loops) -> PriceMap:
    return PriceMap({
        token: 1.0 + 0.37 * k
        for k, token in enumerate(
            dict.fromkeys(t for loop in loops for t in loop.tokens)
        )
    })


class TestBatchedVsSequentialBitIdentity:
    def test_every_rotation_and_amount(self):
        registry, loops = triangle_registry()
        arrays = MarketArrays.from_registry(registry)
        groups, fallback = compile_loops(loops, arrays)
        assert fallback == []
        group = groups[0]
        loop = loops[0]
        for offset in range(3):
            rotation = loop.rotations()[offset]
            for amount in (0, 1, 10**12, 3 * WAD, 10**21):
                quotes = integer_batch_quotes(
                    arrays, group, offset, [amount]
                )
                sequential = loop_quote_out(integer_hops(rotation), amount)
                assert quotes.row(0) == sequential
                executed = execute_loop(integer_hops(rotation), amount)
                assert quotes.row(0) == executed

    def test_many_loops_per_row_offsets_and_amounts(self):
        registry, loops = many_loops()
        arrays = MarketArrays.from_registry(registry)
        groups, fallback = compile_loops(loops, arrays)
        assert fallback == [] and len(groups) == 1
        group = groups[0]
        offsets = np.array([k % 3 for k in range(len(group))], dtype=np.intp)
        amounts = [WAD * (k + 1) + k for k in range(len(group))]
        quotes = integer_batch_quotes(arrays, group, offsets, amounts)
        for k, loop in enumerate(group.loops):
            rotation = loop.rotations()[int(offsets[k])]
            assert quotes.row(k) == loop_quote_out(
                integer_hops(rotation), amounts[k]
            )

    def test_custom_scale(self):
        registry, loops = triangle_registry()
        arrays = MarketArrays.from_registry(registry)
        groups, _ = compile_loops(loops, arrays)
        scale = 10**6
        quotes = integer_batch_quotes(arrays, groups[0], 0, [5 * scale], scale=scale)
        rotation = loops[0].rotations()[0]
        assert quotes.row(0) == loop_quote_out(
            integer_hops(rotation, scale=scale), 5 * scale
        )
        assert quotes.scale == scale

    def test_profit_and_detail(self):
        registry, loops = triangle_registry()
        arrays = MarketArrays.from_registry(registry)
        groups, _ = compile_loops(loops, arrays)
        quotes = integer_batch_quotes(arrays, groups[0], 0, [2 * WAD])
        row = quotes.row(0)
        detail = quotes.detail(0)
        assert detail["amount_in"] == row[0] == 2 * WAD
        assert detail["amount_out"] == row[-1]
        assert detail["profit"] == row[-1] - row[0]
        assert detail["scale"] == WAD
        assert int(quotes.profit[0]) == detail["profit"]

    def test_input_length_mismatch_rejected(self):
        registry, loops = triangle_registry()
        arrays = MarketArrays.from_registry(registry)
        groups, _ = compile_loops(loops, arrays)
        with pytest.raises(ValueError, match="one input per loop"):
            integer_batch_quotes(arrays, groups[0], 0, [1, 2])

    def test_negative_amount_rejected(self):
        registry, loops = triangle_registry()
        arrays = MarketArrays.from_registry(registry)
        groups, _ = compile_loops(loops, arrays)
        with pytest.raises(ValueError, match=">= 0"):
            integer_batch_quotes(arrays, groups[0], 0, [-1])


class TestBaseUnits:
    def test_truncates(self):
        assert base_units(1.5, 10) == 15
        assert base_units(1.56, 10) == 15
        assert base_units(0.0) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            base_units(-1.0)

    def test_overflow_seam(self):
        # the same degenerate-magnitude seam as pinned_pow: a value
        # whose base-unit conversion leaves the float range raises
        # instead of silently saturating
        with pytest.raises(OverflowError):
            base_units(1e300, WAD)
        # a smaller scale keeps the same value convertible
        assert base_units(1e300, 1) == int(1e300)


class TestIntegerHops:
    def test_fee_quantization_matches_arrays_column(self):
        registry, loops = triangle_registry()
        arrays = MarketArrays.from_registry(registry)
        rotation = loops[0].rotations()[0]
        for (pool_int, _), (_, _, pool) in zip(
            integer_hops(rotation), rotation.hops()
        ):
            i = arrays.pool_index[pool.pool_id]
            assert pool_int.fee_fraction == (
                int(arrays.fee_num[i]), FEE_PPM_DENOMINATOR
            )
            assert pool_int.fee_fraction[0] == quantize_fee(pool.fee)

    def test_orientation_follows_token_in(self):
        registry, loops = triangle_registry()
        rotation = loops[0].rotations()[1]  # start at B
        hops = integer_hops(rotation)
        for (pool_int, zero_for_one), (token_in, _, pool) in zip(
            hops, rotation.hops()
        ):
            assert zero_for_one == (token_in == pool.token0)


class TestEvaluatorExactMode:
    def test_annotations_match_sequential(self):
        registry, loops = many_loops()
        prices = prices_for(loops)
        evaluator = BatchEvaluator(
            loops, arrays=MarketArrays.from_registry(registry),
            min_batch=1, exact=True,
        )
        for strategy in (
            TraditionalStrategy(), MaxPriceStrategy(), MaxMaxStrategy()
        ):
            results = evaluator.evaluate_many(strategy, prices)
            for loop, result in zip(loops, results):
                exact = result.details["exact"]
                rotation = loop.rotation_from(result.start_token)
                sequential = exact_loop_quote(rotation, result.amount_in)
                assert exact == sequential

    def test_small_group_scalar_fallback_also_annotated(self):
        registry, loops = triangle_registry()
        prices = prices_for(loops)
        evaluator = BatchEvaluator(
            loops, arrays=MarketArrays.from_registry(registry),
            min_batch=64, exact=True,  # force the scalar quote path
        )
        result = evaluator.evaluate_many(MaxMaxStrategy(), prices)[0]
        assert "exact" in result.details
        assert evaluator.stats.scalar_loops == 1

    def test_exact_profit_sign_tracks_float(self):
        registry, loops = many_loops()
        prices = prices_for(loops)
        evaluator = BatchEvaluator(
            loops, arrays=MarketArrays.from_registry(registry),
            min_batch=1, exact=True,
        )
        results = evaluator.evaluate_many(MaxMaxStrategy(), prices)
        for result in results:
            exact = result.details["exact"]
            if result.amount_in and result.amount_in > 1e-9:
                # a clearly profitable float quote stays profitable in
                # base units (floor cuts < 1 unit per hop)
                float_profit_units = (
                    result.hop_amounts[-1][1] - result.amount_in
                ) * WAD
                if float_profit_units > 100:
                    assert exact["profit"] > 0

    def test_bounds_are_vacuous_in_exact_mode(self):
        registry, loops = many_loops()
        prices = prices_for(loops)
        evaluator = BatchEvaluator(
            loops, arrays=MarketArrays.from_registry(registry),
            min_batch=1, exact=True,
        )
        bounds = evaluator.monetized_bounds(MaxMaxStrategy(), prices)
        assert np.isposinf(bounds).all()

    def test_float_results_unchanged_by_exact_mode(self):
        registry, loops = many_loops()
        prices = prices_for(loops)
        plain = BatchEvaluator(
            loops, arrays=MarketArrays.from_registry(registry), min_batch=1
        )
        exact = BatchEvaluator(
            loops, arrays=MarketArrays.from_registry(registry),
            min_batch=1, exact=True,
        )
        for strategy in (TraditionalStrategy(), MaxMaxStrategy()):
            for a, b in zip(
                plain.evaluate_many(strategy, prices),
                exact.evaluate_many(strategy, prices),
            ):
                assert a.amount_in == b.amount_in
                assert a.monetized_profit == b.monetized_profit
                assert a.hop_amounts == b.hop_amounts

    def test_weighted_loops_not_annotated(self):
        registry = PoolRegistry()
        pools = [
            WeightedPool(A, B, 100.0, 200.0, 0.3, 0.7, fee=0.003, pool_id="w0"),
            Pool(B, C, 300.0, 150.0, fee=0.003, pool_id="p1"),
            Pool(C, A, 80.0, 120.0, fee=0.003, pool_id="p2"),
        ]
        for pool in pools:
            registry.add(pool)
        loop = ArbitrageLoop([A, B, C], pools)
        prices = prices_for([loop])
        evaluator = BatchEvaluator(
            [loop], arrays=MarketArrays.from_registry(registry),
            min_batch=1, exact=True,
        )
        result = evaluator.evaluate_many(MaxMaxStrategy(), prices)[0]
        assert "exact" not in result.details

    def test_exact_quote_reflects_fee_refresh(self):
        """A fee change pulled from the pool objects must flow into the
        integer column the kernel reads."""
        registry, loops = triangle_registry()
        prices = prices_for(loops)
        arrays = MarketArrays.from_registry(registry)
        evaluator = BatchEvaluator(loops, arrays=arrays, min_batch=1, exact=True)
        before = evaluator.evaluate_many(MaxMaxStrategy(), prices)[0]
        old = registry["ab"]
        refreshed = PoolRegistry()
        refreshed.add(
            Pool(old.token0, old.token1, old.reserve0, old.reserve1,
                 fee=0.25, pool_id="ab")
        )
        arrays.pull(refreshed, ["ab"])
        after = evaluator.evaluate_many(MaxMaxStrategy(), prices)[0]
        assert arrays.fee_num[arrays.pool_index["ab"]] == quantize_fee(0.25)
        assert before.details["exact"] != after.details["exact"]
