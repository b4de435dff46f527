"""Microbenchmarks of the hot kernels.

These are the operations a latency-sensitive searcher runs thousands
of times per block: single swap quotes (float and contract-int),
loop composition, the closed-form optimum, and one full MaxMax
evaluation — plus the float model's worst quoting discrepancy from
floor-division contract arithmetic at 18-decimal scale.
"""

from __future__ import annotations

import pytest

from repro.amm import amount_out, compose_hops, get_amount_out
from repro.data import section5_loop, section5_prices, synthetic_loop, synthetic_loop_prices
from repro.strategies import MaxMaxStrategy

S5_HOPS = [(100.0, 200.0, 0.003), (300.0, 200.0, 0.003), (200.0, 400.0, 0.003)]
WAD = 10**18


def test_amount_out(benchmark):
    result = benchmark(amount_out, 100.0, 200.0, 10.0, 0.003)
    assert result > 0


def test_integer_kernel(benchmark):
    out = benchmark(get_amount_out, 10 * WAD, 100 * WAD, 200 * WAD)
    assert out > 0


def test_worst_case_discrepancy(benchmark):
    def scan():
        worst = 0.0
        for ri in (10, 1_000, 1_000_000):
            for ro in (10, 1_000, 1_000_000):
                for frac in (0.001, 0.05, 0.5):
                    amount = max(1, int(ri * frac * WAD))
                    exact = get_amount_out(amount, ri * WAD, ro * WAD)
                    real = amount_out(float(ri * WAD), float(ro * WAD), float(amount), 0.003)
                    if exact > 0:
                        worst = max(worst, abs(exact - real) / exact)
        return worst

    worst = benchmark.pedantic(scan, rounds=1, iterations=1)
    assert worst < 1e-9  # the float model is 1e-9-faithful at WAD scale


def test_compose_three_hops(benchmark):
    comp = benchmark(compose_hops, S5_HOPS)
    assert comp.is_profitable


def test_closed_form_optimum(benchmark):
    comp = compose_hops(S5_HOPS)
    result = benchmark(comp.optimal_input)
    assert result == pytest.approx(26.96, abs=0.05)


def test_maxmax_single_loop(benchmark):
    loop = section5_loop()
    prices = section5_prices()
    strategy = MaxMaxStrategy()
    result = benchmark(strategy.evaluate, loop, prices)
    assert result.monetized_profit == pytest.approx(205.59, abs=0.05)


def test_maxmax_length10_loop(benchmark):
    """The paper's §VII claim: length-10 MaxMax is milliseconds."""
    loop = synthetic_loop(10)
    prices = synthetic_loop_prices(loop)
    strategy = MaxMaxStrategy()
    result = benchmark(strategy.evaluate, loop, prices)
    assert result.monetized_profit > 0
    assert benchmark.stats["mean"] < 0.05
