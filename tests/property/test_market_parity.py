"""Hypothesis: columnar quotes ↔ pool objects, bit-exact.

The contract of :mod:`repro.market` is not "close" — it is *the same
floats*.  Build :class:`~repro.market.MarketArrays` from a random
registry, drive a random valid Swap/Mint/Burn stream through the pool
objects, refresh the arrays with ``pull`` (the write path of the
replay driver and the service's ingest), and every strategy quote
produced by the cross-loop batch kernel must equal the scalar
object-path quote bit for bit (profit vector, optimal input, hop
amounts, monetized profit).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amm import PoolRegistry
from repro.core import ArbitrageLoop, PriceMap, Token
from repro.market import BatchEvaluator, MarketArrays
from repro.strategies import (
    MaxMaxStrategy,
    MaxPriceStrategy,
    TraditionalStrategy,
)

X, Y, Z, W = Token("X"), Token("Y"), Token("Z"), Token("W")
TOKENS = (X, Y, Z, W)

reserve = st.floats(min_value=100.0, max_value=1e6)
price = st.floats(min_value=0.01, max_value=1e4)

#: Per event: (pool pick, kind pick, magnitude in (0, 1), side pick)
event_specs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=10**6),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=1e-4, max_value=0.25),
        st.booleans(),
    ),
    min_size=1,
    max_size=40,
)


def build_registry(reserves) -> PoolRegistry:
    registry = PoolRegistry()
    pairs = [(X, Y), (Y, Z), (Z, X), (X, W), (Y, W)]
    for (a, b), (ra, rb) in zip(pairs, reserves):
        registry.create(a, b, ra, rb, pool_id=f"{a.symbol}{b.symbol}".lower())
    return registry


def loops_over(registry: PoolRegistry) -> list[ArbitrageLoop]:
    return [
        ArbitrageLoop([X, Y, Z], [registry["xy"], registry["yz"], registry["zx"]]),
        ArbitrageLoop([Z, Y, X], [registry["yz"], registry["xy"], registry["zx"]]),
        ArbitrageLoop([X, Y, W], [registry["xy"], registry["yw"], registry["xw"]]),
    ]


def drive_objects(registry: PoolRegistry, specs) -> None:
    """Apply a random-but-valid stream to the pool objects."""
    pools = sorted(registry, key=lambda p: p.pool_id)
    for pick, kind, magnitude, side in specs:
        pool = pools[pick % len(pools)]
        if kind < 0.6:
            token_in = pool.token0 if side else pool.token1
            pool.swap(token_in, magnitude * pool.reserve_of(token_in))
        elif kind < 0.8:
            pool.add_liquidity(
                pool.reserve0 * magnitude, pool.reserve1 * magnitude
            )
        else:
            pool.remove_liquidity(magnitude * 0.9 + 1e-6)


@given(
    reserves=st.tuples(*([st.tuples(reserve, reserve)] * 5)),
    prices=st.tuples(price, price, price, price),
    specs=event_specs,
)
@settings(max_examples=40, deadline=None)
def test_event_stream_quote_parity(reserves, prices, specs):
    registry = build_registry(reserves)
    arrays = MarketArrays.from_registry(registry)
    drive_objects(registry, specs)
    arrays.pull(registry)

    price_map = PriceMap(dict(zip(TOKENS, prices)))
    loops = loops_over(registry)
    evaluator = BatchEvaluator(loops, arrays=arrays, min_batch=1)
    strategies = [
        TraditionalStrategy(),
        TraditionalStrategy(start_token=Y),
        MaxPriceStrategy(),
        MaxMaxStrategy(),
    ]
    for strategy in strategies:
        batch = evaluator.evaluate_many(strategy, price_map)
        for got, loop in zip(batch, loops):
            ref = strategy.evaluate_cached(loop, price_map, None)
            assert got.monetized_profit == ref.monetized_profit
            assert got.amount_in == ref.amount_in
            assert got.hop_amounts == ref.hop_amounts
            assert got.profit == ref.profit
            assert got.start_token == ref.start_token
            assert got.details == ref.details
