"""Hypothesis: batched weighted quotes ↔ the scalar G3M optimizer.

The weighted kernel's G3M contract is the **documented tolerance**:
across random weights, fees, reserves, and loop lengths, the batched
chain-rule solver (:func:`repro.market.weighted_quotes`) agrees with
the scalar optimizer that :mod:`repro.amm.weighted` loops actually use
(:func:`repro.optimize.chain.optimize_rotation_chain`, reached via
``rotation_quote``) within :data:`repro.market.WEIGHTED_PARITY_RTOL`
relative.

An earlier revision of this suite additionally asserted bit-for-bit
"lockstep" equality between the two paths, on the theory that both
route every fractional power through the same ``np.power`` ufunc.
That assertion flaked on random draws with ulp-level diffs: NumPy does
not pin ``pow`` rounding, and its SIMD inner loops round the packed
vector lanes and the scalar/tail path independently, so the *same*
``(base, exponent)`` pair may differ by an ulp between the kernel's
array call and the scalar optimizer's 0-d call depending on the build,
the ISA level, and the element's position in the batch.  Bit-identity
across the two paths is therefore not a property NumPy offers; the
suite now asserts only the documented contract (see the pinned
regression case at the bottom).  IEEE-pinned families are different:
CPMM and stableswap hops use ``+ - * /`` only, and their scalar↔kernel
bit-identity is asserted in ``test_stableswap_parity.py``.

Same-path determinism (replay incremental-vs-full, shared-vs-private
books) is unaffected: those suites compare one code path against
itself on identical shapes, which *is* deterministic, and they keep
their bit-identity asserts.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.amm import Pool, PoolRegistry
from repro.amm.weighted import WeightedPool
from repro.core import ArbitrageLoop, PriceMap, Token
from repro.market import (
    WEIGHTED_PARITY_RTOL,
    BatchEvaluator,
    MarketArrays,
)
from repro.strategies import (
    MaxMaxStrategy,
    MaxPriceStrategy,
    TraditionalStrategy,
)
from repro.strategies.traditional import rotation_quote

TOKENS = tuple(Token(s) for s in ("A", "B", "C", "D"))

reserve = st.floats(min_value=50.0, max_value=1e6)
weight = st.floats(min_value=0.1, max_value=0.9)
fee = st.floats(min_value=0.0, max_value=0.05)
price = st.floats(min_value=0.01, max_value=1e4)
length = st.integers(min_value=2, max_value=4)
method = st.sampled_from(["closed_form", "bisection", "golden"])


@st.composite
def weighted_market(draw):
    """A single loop of random length whose hops mix CPMM and G3M
    pools (at least one weighted), plus prices for every token."""
    n = draw(length)
    tokens = list(TOKENS[:n])
    registry = PoolRegistry()
    pools = []
    weighted_slots = draw(
        st.lists(st.booleans(), min_size=n, max_size=n).filter(any)
    )
    for j in range(n):
        a, b = tokens[j], tokens[(j + 1) % n]
        ra, rb = draw(reserve), draw(reserve)
        f = draw(fee)
        if weighted_slots[j]:
            pool = WeightedPool(
                a, b, ra, rb, draw(weight), draw(weight),
                fee=f, pool_id=f"w{j}",
            )
        else:
            pool = Pool(a, b, ra, rb, fee=f, pool_id=f"p{j}")
        registry.add(pool)
        pools.append(pool)
    loop = ArbitrageLoop(tokens, pools)
    prices = PriceMap({t: draw(price) for t in tokens})
    return registry, loop, prices


def _assert_hops_match(got_hops, ref_hops) -> None:
    """Per-hop amounts within the documented tolerance (same shape)."""
    assert len(got_hops) == len(ref_hops)
    for got_hop, ref_hop in zip(got_hops, ref_hops):
        assert got_hop == pytest.approx(
            ref_hop, rel=WEIGHTED_PARITY_RTOL, abs=1e-12
        )


def _assert_results_match(got, ref) -> None:
    """Kernel vs scalar strategy results, documented-tolerance tier.

    ``pow`` rounding may differ by an ulp between the array and scalar
    paths (module docstring), which can also shift an iterative
    solver's bracket — and with it the iteration count — by one, so
    ``details`` is compared with slack on ``iterations``, float details
    (and each entry of MaxMax's ``per_rotation`` dict) to the
    documented tolerance, and everything else exactly.
    """
    assert got.amount_in == pytest.approx(
        ref.amount_in, rel=WEIGHTED_PARITY_RTOL, abs=1e-12
    )
    assert got.monetized_profit == pytest.approx(
        ref.monetized_profit, rel=WEIGHTED_PARITY_RTOL, abs=1e-9
    )
    _assert_hops_match(got.hop_amounts, ref.hop_amounts)
    assert set(got.details) == set(ref.details)
    for key, ref_value in ref.details.items():
        if key == "iterations":
            assert abs(got.details[key] - ref_value) <= 1
        elif isinstance(ref_value, float):
            assert got.details[key] == pytest.approx(
                ref_value, rel=WEIGHTED_PARITY_RTOL, abs=1e-9
            )
        elif key == "per_rotation":
            assert got.details[key].keys() == ref_value.keys()
            for start, profit in ref_value.items():
                assert got.details[key][start] == pytest.approx(
                    profit, rel=WEIGHTED_PARITY_RTOL, abs=1e-9
                )
        else:
            assert got.details[key] == ref_value


def ulp_apart_market():
    """A draw on which the kernel's and the scalar path's MaxMax
    ``per_rotation["A"]`` differ by an ulp (22.891113642646953 vs
    22.891113642646943) at equal monetized profit: every price 1.0."""
    a, b, c, d = TOKENS
    registry = PoolRegistry()
    pools = [
        WeightedPool(a, b, 50.0, 62528.0, 0.1, 0.2, fee=0.0, pool_id="w0"),
        WeightedPool(b, c, 50.0, 50.0, 0.25, 0.875, fee=0.0, pool_id="w1"),
        Pool(c, d, 50.0, 131.0, fee=0.0, pool_id="p2"),
        Pool(a, d, 50.0, 50.0, fee=0.0, pool_id="p3"),
    ]
    for pool in pools:
        registry.add(pool)
    return registry, ArbitrageLoop(TOKENS, pools), PriceMap(dict.fromkeys(TOKENS, 1.0))


@settings(max_examples=60, deadline=None)
@given(market=weighted_market(), m=method)
@example(market=ulp_apart_market(), m="closed_form")
def test_weighted_quotes_match_scalar_optimizer(market, m):
    registry, loop, prices = market
    evaluator = BatchEvaluator(
        [loop], arrays=MarketArrays.from_registry(registry), min_batch=1
    )
    assert evaluator.fallback_positions == []
    assert evaluator.groups[0].mixed
    for strategy in (
        TraditionalStrategy(method=m),
        MaxPriceStrategy(method=m),
        MaxMaxStrategy(method=m),
    ):
        got = evaluator.evaluate_many(strategy, prices)[0]
        ref = strategy.evaluate_cached(loop, prices, None)
        _assert_results_match(got, ref)
    assert evaluator.stats.scalar_loops == 0


@settings(max_examples=40, deadline=None)
@given(market=weighted_market())
def test_every_rotation_quote_matches_chain_optimizer(market):
    """Rotation-level parity, independent of any strategy: the kernel's
    per-rotation quote equals ``rotation_quote`` (which routes weighted
    rotations to the chain-rule bisection whatever the method)."""
    from repro.market.weighted_kernel import weighted_quotes
    from repro.market import compile_loops

    registry, loop, _prices = market
    arrays = MarketArrays.from_registry(registry)
    groups, fallback = compile_loops([loop], arrays)
    assert fallback == []
    for offset in range(len(loop)):
        quotes = weighted_quotes(arrays, groups[0], offset)
        ref = rotation_quote(loop.rotations()[offset])
        got = quotes.quote(0)
        assert got.amount_in == pytest.approx(
            ref.amount_in, rel=WEIGHTED_PARITY_RTOL, abs=1e-12
        )
        assert got.profit == pytest.approx(
            ref.profit, rel=WEIGHTED_PARITY_RTOL, abs=1e-12
        )
        _assert_hops_match(got.hop_amounts, ref.hop_amounts)
        assert abs(got.iterations - ref.iterations) <= 1


# ----------------------------------------------------------------------
# pinned regression: the flake's failure shape, deterministically
# ----------------------------------------------------------------------


def test_weighted_parity_regression_boundary_market():
    """Pinned boundary-value market for the former lockstep flake.

    The hypothesis suite used to assert bit-identical kernel-vs-scalar
    results and flaked with ulp diffs on draws like this one — the
    strategies' boundary values (reserve 50 / 1e6, weight 0.1 / 0.9,
    fee 0.05) maximize ``pow`` rounding sensitivity.  This case pins
    the market and asserts the *documented* contract over every
    strategy, method, and rotation, so the widened assertion itself is
    covered by a test that cannot rot with hypothesis's RNG.
    """
    a, b, c = TOKENS[:3]
    registry = PoolRegistry()
    pools = [
        WeightedPool(a, b, 50.0, 1e6, 0.1, 0.9, fee=0.05, pool_id="w0"),
        WeightedPool(b, c, 1e6, 50.0, 0.9, 0.1, fee=0.0, pool_id="w1"),
        Pool(c, a, 1e6, 1e6, fee=0.05, pool_id="p2"),
    ]
    for pool in pools:
        registry.add(pool)
    loop = ArbitrageLoop([a, b, c], pools)
    prices = PriceMap({a: 1e4, b: 0.01, c: 1.0})
    evaluator = BatchEvaluator(
        [loop], arrays=MarketArrays.from_registry(registry), min_batch=1
    )
    assert evaluator.fallback_positions == []
    for m in ("closed_form", "bisection", "golden"):
        for strategy in (
            TraditionalStrategy(method=m),
            MaxPriceStrategy(method=m),
            MaxMaxStrategy(method=m),
        ):
            got = evaluator.evaluate_many(strategy, prices)[0]
            ref = strategy.evaluate_cached(loop, prices, None)
            _assert_results_match(got, ref)
    assert evaluator.stats.scalar_loops == 0
