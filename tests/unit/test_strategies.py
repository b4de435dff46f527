"""Unit tests for the four strategies on the §V example.

These tests pin the *paper's published numbers*; the reproduction's
headline correctness evidence.
"""

from __future__ import annotations

import pytest

from repro.amm.weighted import WeightedPool
from repro.core import ArbitrageLoop, PriceMap, StrategyError, Token
from repro.data import section5_prices
from repro.strategies import (
    ConvexOptimizationStrategy,
    MaxMaxStrategy,
    MaxPriceStrategy,
    TraditionalStrategy,
    available_strategies,
    make_strategy,
)

X, Y, Z = Token("X"), Token("Y"), Token("Z")


class TestTraditional:
    def test_paper_numbers_from_each_start(self, s5_loop, s5_prices):
        expected = {
            X: (27.0, 16.8, 33.7),
            Y: (31.5, 19.7, 201.1),
            Z: (16.4, 10.3, 205.6),
        }
        # The paper truncates to one decimal (16.87 -> "16.8"), so the
        # tolerance is one decimal unit.
        for token, (inp, profit, monetized) in expected.items():
            result = TraditionalStrategy(start_token=token).evaluate(s5_loop, s5_prices)
            assert result.amount_in == pytest.approx(inp, abs=0.1)
            assert result.profit.as_mapping()[token] == pytest.approx(profit, abs=0.1)
            assert result.monetized_profit == pytest.approx(monetized, abs=0.1)

    def test_default_start_is_first_token(self, s5_loop, s5_prices):
        result = TraditionalStrategy().evaluate(s5_loop, s5_prices)
        assert result.start_token == X

    def test_foreign_start_token_rejected(self, s5_loop, s5_prices):
        with pytest.raises(StrategyError, match="not in"):
            TraditionalStrategy(start_token=Token("Q")).evaluate(s5_loop, s5_prices)

    def test_no_arbitrage_gives_zero(self, no_arb_loop, simple_prices):
        result = TraditionalStrategy().evaluate(no_arb_loop, simple_prices)
        assert result.monetized_profit == 0.0
        assert result.amount_in == 0.0
        assert result.hop_amounts == ()
        assert not result.is_profitable

    def test_hop_amounts_chain(self, s5_loop, s5_prices):
        result = TraditionalStrategy(start_token=Y).evaluate(s5_loop, s5_prices)
        hops = result.hop_amounts
        assert len(hops) == 3
        for (a_in, a_out), (b_in, _b_out) in zip(hops, hops[1:]):
            assert a_out == pytest.approx(b_in)
        assert hops[-1][1] - hops[0][0] == pytest.approx(19.7, abs=0.05)

    @pytest.mark.parametrize("method", ["closed_form", "bisection", "golden"])
    def test_methods_agree(self, s5_loop, s5_prices, method):
        result = TraditionalStrategy(start_token=Z, method=method).evaluate(
            s5_loop, s5_prices
        )
        assert result.monetized_profit == pytest.approx(205.59, abs=0.05)

    def test_invalid_method(self):
        with pytest.raises(ValueError, match="method"):
            TraditionalStrategy(method="newton")

    def test_repr(self):
        assert "Z" in repr(TraditionalStrategy(start_token=Z))


class TestMaxPrice:
    def test_picks_highest_price_token(self, s5_loop, s5_prices):
        result = MaxPriceStrategy().evaluate(s5_loop, s5_prices)
        assert result.start_token == Z  # Pz = 20 is the highest
        assert result.monetized_profit == pytest.approx(205.59, abs=0.05)

    def test_not_always_optimal(self, s5_loop):
        # Paper Fig. 2: with Px ~ 15 the X rotation beats the Z rotation.
        prices = section5_prices(px=15.0)
        maxprice = MaxPriceStrategy().evaluate(s5_loop, prices)
        from_x = TraditionalStrategy(start_token=X).evaluate(s5_loop, prices)
        assert maxprice.start_token == Z
        assert from_x.monetized_profit > maxprice.monetized_profit

    def test_strategy_name(self, s5_loop, s5_prices):
        assert MaxPriceStrategy().evaluate(s5_loop, s5_prices).strategy == "maxprice"


class TestMaxMax:
    def test_paper_value(self, s5_loop, s5_prices):
        result = MaxMaxStrategy().evaluate(s5_loop, s5_prices)
        assert result.monetized_profit == pytest.approx(205.59, abs=0.05)
        assert result.start_token == Z

    def test_dominates_each_rotation(self, s5_loop, s5_prices):
        mm = MaxMaxStrategy().evaluate(s5_loop, s5_prices)
        for token in s5_loop.tokens:
            trad = TraditionalStrategy(start_token=token).evaluate(s5_loop, s5_prices)
            assert mm.monetized_profit >= trad.monetized_profit - 1e-12

    def test_per_rotation_details(self, s5_loop, s5_prices):
        result = MaxMaxStrategy().evaluate(s5_loop, s5_prices)
        per = result.details["per_rotation"]
        assert set(per) == {"X", "Y", "Z"}
        assert per["Z"] == pytest.approx(205.59, abs=0.05)
        assert per["X"] == pytest.approx(33.74, abs=0.05)

    def test_no_arbitrage_zero(self, no_arb_loop, simple_prices):
        result = MaxMaxStrategy().evaluate(no_arb_loop, simple_prices)
        assert result.monetized_profit == 0.0


class TestConvexOptimization:
    @pytest.mark.parametrize("backend", ["barrier", "slsqp"])
    def test_paper_value(self, s5_loop, s5_prices, backend):
        result = ConvexOptimizationStrategy(backend=backend).evaluate(
            s5_loop, s5_prices
        )
        assert result.monetized_profit == pytest.approx(206.1, abs=0.1)
        net = {t.symbol: a for t, a in result.profit.as_mapping().items()}
        # paper: "The profit includes 5 token Y and 7.7 token Z."
        assert net.get("Y", 0.0) == pytest.approx(5.0, abs=0.05)
        assert net.get("Z", 0.0) == pytest.approx(7.76, abs=0.05)
        assert net.get("X", 0.0) == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("backend", ["barrier", "slsqp"])
    def test_dominates_maxmax(self, s5_loop, s5_prices, backend):
        convex = ConvexOptimizationStrategy(backend=backend).evaluate(
            s5_loop, s5_prices
        )
        maxmax = MaxMaxStrategy().evaluate(s5_loop, s5_prices)
        assert convex.monetized_profit >= maxmax.monetized_profit - 1e-9

    def test_paper_plan_amounts(self, s5_loop, s5_prices):
        # paper: input 31.3 X -> 47.6 Y; 42.6 Y -> 24.8 Z; 17.1 Z -> 31.3 X
        result = ConvexOptimizationStrategy(backend="slsqp").evaluate(
            s5_loop, s5_prices
        )
        hops = result.hop_amounts
        assert hops[0][0] == pytest.approx(31.3, abs=0.1)
        assert hops[0][1] == pytest.approx(47.6, abs=0.1)
        assert hops[1][0] == pytest.approx(42.6, abs=0.1)
        assert hops[1][1] == pytest.approx(24.8, abs=0.1)
        assert hops[2][0] == pytest.approx(17.1, abs=0.1)
        assert hops[2][1] == pytest.approx(31.3, abs=0.1)

    def test_zero_solution_theorem(self, no_arb_loop, simple_prices):
        """No arbitrage by traditional strategies => convex finds none."""
        for backend in ("barrier", "slsqp"):
            result = ConvexOptimizationStrategy(backend=backend).evaluate(
                no_arb_loop, simple_prices
            )
            assert result.monetized_profit == pytest.approx(0.0, abs=1e-9)

    def test_equality_linking_matches_maxmax_start(self, s5_loop, s5_prices):
        result = ConvexOptimizationStrategy(linking="equality").evaluate(
            s5_loop, s5_prices
        )
        # eq. (7) fixes the start to loop order (X); its optimum is the
        # X rotation's profit at best -- the floor lifts it to MaxMax.
        maxmax = MaxMaxStrategy().evaluate(s5_loop, s5_prices)
        assert result.monetized_profit == pytest.approx(
            maxmax.monetized_profit, rel=1e-6
        )

    def test_invalid_backend(self):
        with pytest.raises(ValueError, match="backend"):
            ConvexOptimizationStrategy(backend="cvxpy")

    def test_invalid_linking(self):
        with pytest.raises(ValueError, match="linking"):
            ConvexOptimizationStrategy(linking="bogus")

    def test_line_search_below_weighted_hop_domain(self):
        """A weighted triangle whose barrier line search tries a point
        where a hop's input is below -x/gamma (its G3M value complex
        there): the barrier rejects the point, and the strategy returns
        a result at or above MaxMax instead of raising ``TypeError``."""
        a, b, c = Token("A"), Token("B"), Token("C")

        def pool(t0, t1, x, y, w0):
            return WeightedPool(t0, t1, x, y, w0, 1 - w0)

        ab = pool(a, b, 65410.94957000626, 1284.2014839851279, 0.7637930400484418)
        bc = pool(b, c, 71015.11927695472, 23785.92065149661, 0.40170140094613693)
        ca = pool(c, a, 45835.87861205251, 1096.592852575822, 0.5512927240927501)
        prices = PriceMap(
            {a: 1.9874363188949322, b: 1.6991750454816528, c: 0.8100951563738263}
        )
        loop = ArbitrageLoop([a, c, b], [ca, bc, ab])
        convex = ConvexOptimizationStrategy().evaluate(loop, prices)
        maxmax = MaxMaxStrategy().evaluate(loop, prices)
        assert convex.monetized_profit >= maxmax.monetized_profit > 0.0

    def test_details_record_backend(self, s5_loop, s5_prices):
        result = ConvexOptimizationStrategy(backend="slsqp").evaluate(
            s5_loop, s5_prices
        )
        assert result.details["backend"] == "slsqp"
        assert result.start_token is None


class TestRegistry:
    def test_available(self):
        assert available_strategies() == ("convex", "maxmax", "maxprice", "traditional")

    def test_make_strategy(self):
        assert isinstance(make_strategy("maxmax"), MaxMaxStrategy)
        strategy = make_strategy("convex", backend="slsqp")
        assert isinstance(strategy, ConvexOptimizationStrategy)
        assert strategy.backend == "slsqp"

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            make_strategy("gradient-descent")


class TestStrategyResult:
    def test_str(self, s5_loop, s5_prices):
        result = MaxMaxStrategy().evaluate(s5_loop, s5_prices)
        text = str(result)
        assert "maxmax" in text and "$" in text
