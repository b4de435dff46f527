"""Unit tests for the eq.-(7)/(8) loop program builder."""

from __future__ import annotations

import numpy as np
import pytest

from repro.amm import Pool
from repro.core import ArbitrageLoop, InfeasibleProgramError, MissingPriceError, PriceMap
from repro.core.errors import UnsupportedPoolFamilyError
from repro.optimize import build_loop_program, solve_slsqp


@pytest.fixture
def lp(s5_loop, s5_prices):
    return build_loop_program(s5_loop, s5_prices)


class TestBuild:
    def test_variable_layout(self, lp):
        assert lp.program.n_vars == 6
        assert lp.program.var_names == (
            "in0[X]", "out0[Y]", "in1[Y]", "out1[Z]", "in2[Z]", "out2[X]",
        )

    def test_constraint_counts_eq8(self, lp):
        # 3 hop constraints + 3 linking inequalities, no equalities
        assert len(lp.program.inequalities) == 6
        assert len(lp.program.equalities) == 0

    def test_constraint_counts_eq7(self, s5_loop, s5_prices):
        lp7 = build_loop_program(s5_loop, s5_prices, linking="equality")
        # 3 hops + start-token linking inequality; 2 equalities
        assert len(lp7.program.inequalities) == 4
        assert len(lp7.program.equalities) == 2

    def test_objective_coefficients(self, lp, s5_prices):
        # out2 receives X (price 2), in0 spends X; out0 receives Y ...
        obj = lp.program.objective
        assert obj[0] == pytest.approx(-2.0)    # in0 spends X
        assert obj[1] == pytest.approx(10.2)    # out0 yields Y
        assert obj[2] == pytest.approx(-10.2)   # in1 spends Y
        assert obj[3] == pytest.approx(20.0)    # out1 yields Z
        assert obj[4] == pytest.approx(-20.0)   # in2 spends Z
        assert obj[5] == pytest.approx(2.0)     # out2 yields X

    def test_missing_price_raises_early(self, s5_loop):
        partial = PriceMap.from_symbols({"X": 2.0, "Y": 10.2})
        with pytest.raises(MissingPriceError):
            build_loop_program(s5_loop, partial)

    def test_invalid_linking(self, s5_loop, s5_prices):
        with pytest.raises(ValueError, match="linking"):
            build_loop_program(s5_loop, s5_prices, linking="bogus")


class TestUnsupportedFamily:
    @pytest.fixture
    def stableswap_loop(self, tokens_xyz):
        from repro.amm.stableswap import StableSwapPool

        x, y, z = tokens_xyz
        pools = [
            Pool(x, y, 100.0, 210.0, pool_id="ss-xy"),
            Pool(y, z, 200.0, 100.0, pool_id="ss-yz"),
            StableSwapPool(z, x, 100.0, 104.0, amplification=50.0,
                           pool_id="ss-zx"),
        ]
        return ArbitrageLoop([x, y, z], pools)

    def test_stableswap_hop_raises_typed_error(
        self, stableswap_loop, simple_prices
    ):
        with pytest.raises(UnsupportedPoolFamilyError) as exc_info:
            build_loop_program(stableswap_loop, simple_prices)
        message = str(exc_info.value)
        assert "stableswap" in message and "'ss-zx'" in message
        # a ValueError, so the CLI's one-line exit path catches it
        assert isinstance(exc_info.value, ValueError)

    def test_convex_strategy_surfaces_the_typed_error(
        self, stableswap_loop, simple_prices
    ):
        from repro.strategies import ConvexOptimizationStrategy

        with pytest.raises(UnsupportedPoolFamilyError, match="ss-zx"):
            ConvexOptimizationStrategy().evaluate(stableswap_loop, simple_prices)


class TestInteriorPoint:
    def test_interior_point_strictly_feasible(self, lp):
        v0 = lp.interior_point()
        assert lp.program.is_strictly_feasible(v0)

    def test_no_interior_for_no_arb_loop(self, no_arb_loop, simple_prices):
        lp = build_loop_program(no_arb_loop, simple_prices)
        with pytest.raises(InfeasibleProgramError, match="no strictly feasible"):
            lp.interior_point()


class TestDecoding:
    def test_hop_amounts_shape(self, lp):
        v = np.arange(6, dtype=float)
        assert lp.hop_amounts(v) == [(0.0, 1.0), (2.0, 3.0), (4.0, 5.0)]

    def test_profit_vector_zero_solution(self, lp):
        profit = lp.profit_vector(np.zeros(6))
        assert all(a.amount == 0 for a in profit.amounts)
        assert lp.monetized_profit(np.zeros(6)) == 0.0

    def test_profit_vector_tracks_surpluses(self, lp, s5_loop):
        # Feed 10 X; keep 1 Y back; pass the rest through.
        x, y, z = s5_loop.tokens
        pools = s5_loop.pools
        out0 = pools[0].quote_out(x, 10.0)
        in1 = out0 - 1.0
        out1 = pools[1].quote_out(y, in1)
        out2 = pools[2].quote_out(z, out1)
        v = np.array([10.0, out0, in1, out1, out1, out2])
        net = lp.profit_vector(v).as_mapping()
        assert net[y] == pytest.approx(1.0)
        assert net[z] == pytest.approx(0.0, abs=1e-12)
        assert net[x] == pytest.approx(out2 - 10.0)

    def test_monetized_profit_matches_objective(self, lp):
        v = lp.interior_point()
        assert lp.monetized_profit(v) == pytest.approx(
            lp.program.objective_value(v), rel=1e-12
        )


class TestEq7ReducesToFixedStart:
    def test_eq7_solution_matches_traditional(self, s5_loop, s5_prices):
        """Eq. (7) with equality linking collapses to the 1-D fixed-start
        problem (the paper's reduction argument)."""
        from repro.strategies import TraditionalStrategy

        lp7 = build_loop_program(s5_loop, s5_prices, linking="equality")
        trad = TraditionalStrategy(start_token=s5_loop.tokens[0]).evaluate(
            s5_loop, s5_prices
        )
        v0 = np.zeros(6)
        v0[0] = trad.amount_in
        for i, (a_in, a_out) in enumerate(trad.hop_amounts):
            v0[2 * i] = a_in
            v0[2 * i + 1] = a_out
        result = solve_slsqp(lp7.program, initial_point=v0)
        assert result.objective == pytest.approx(trad.monetized_profit, rel=1e-5)
