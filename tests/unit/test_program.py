"""Unit tests for the convex-program IR."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optimize import (
    AffineConstraint,
    ConvexProgram,
    HopConstraint,
    LinearEquality,
    WeightedHopConstraint,
)


class TestAffineConstraint:
    def test_value_and_grad(self):
        con = AffineConstraint(coeffs=np.array([1.0, -2.0]), offset=3.0)
        v = np.array([2.0, 1.0])
        assert con.value(v) == pytest.approx(3.0)
        assert np.allclose(con.grad(v), [1.0, -2.0])
        assert np.allclose(con.hess(v), np.zeros((2, 2)))


class TestHopConstraint:
    def make(self):
        return HopConstraint(x=100.0, y=200.0, gamma=0.997, idx_in=0, idx_out=1, n_vars=2)

    def test_value_zero_on_exact_swap(self):
        con = self.make()
        t = 10.0
        out = 200.0 * 0.997 * t / (100.0 + 0.997 * t)
        assert con.value(np.array([t, out])) == pytest.approx(0.0, abs=1e-12)

    def test_value_positive_below_curve(self):
        con = self.make()
        assert con.value(np.array([10.0, 1.0])) > 0

    def test_value_negative_above_curve(self):
        con = self.make()
        assert con.value(np.array([10.0, 100.0])) < 0

    def test_grad_matches_finite_difference(self):
        con = self.make()
        v = np.array([10.0, 5.0])
        g = con.grad(v)
        h = 1e-6
        for k in range(2):
            vp, vm = v.copy(), v.copy()
            vp[k] += h
            vm[k] -= h
            fd = (con.value(vp) - con.value(vm)) / (2 * h)
            assert g[k] == pytest.approx(fd, rel=1e-6)

    def test_hess_matches_finite_difference(self):
        con = self.make()
        v = np.array([10.0, 5.0])
        hess = con.hess(v)
        h = 1e-5
        vp, vm = v.copy(), v.copy()
        vp[0] += h
        vm[0] -= h
        fd = (con.grad(vp)[0] - con.grad(vm)[0]) / (2 * h)
        assert hess[0, 0] == pytest.approx(fd, rel=1e-4)
        assert hess[0, 0] < 0  # concavity in the input direction

    def test_validation(self):
        with pytest.raises(ValueError, match="reserves"):
            HopConstraint(x=0.0, y=1.0, gamma=0.997, idx_in=0, idx_out=1, n_vars=2)
        with pytest.raises(ValueError, match="gamma"):
            HopConstraint(x=1.0, y=1.0, gamma=0.0, idx_in=0, idx_out=1, n_vars=2)
        for idx_in, idx_out in ((1, 1), (0, 2), (-1, 0)):
            with pytest.raises(ValueError, match="distinct indices"):
                HopConstraint(
                    x=1.0, y=1.0, gamma=0.997, idx_in=idx_in, idx_out=idx_out, n_vars=2
                )


class TestLinearEquality:
    def test_residual(self):
        eq = LinearEquality(coeffs=np.array([1.0, 1.0]), rhs=2.0)
        assert eq.residual(np.array([1.0, 1.0])) == pytest.approx(0.0)
        assert eq.residual(np.array([2.0, 1.0])) == pytest.approx(1.0)


class TestConvexProgram:
    def make(self):
        return ConvexProgram(
            n_vars=2,
            objective=np.array([1.0, 1.0]),
            inequalities=[
                AffineConstraint(coeffs=np.array([-1.0, 0.0]), offset=5.0),  # v0 <= 5
                AffineConstraint(coeffs=np.array([0.0, -1.0]), offset=5.0),  # v1 <= 5
            ],
        )

    def test_objective_value(self):
        program = self.make()
        assert program.objective_value([2.0, 3.0]) == pytest.approx(5.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="objective"):
            ConvexProgram(n_vars=3, objective=np.array([1.0, 1.0]))

    def test_var_names_validation(self):
        with pytest.raises(ValueError, match="names"):
            ConvexProgram(
                n_vars=2, objective=np.zeros(2), var_names=("only-one",)
            )

    def test_feasibility(self):
        program = self.make()
        assert program.is_feasible([1.0, 1.0])
        assert not program.is_feasible([6.0, 1.0])
        assert not program.is_feasible([-1.0, 1.0])  # nonneg bound

    def test_strict_feasibility(self):
        program = self.make()
        assert program.is_strictly_feasible([1.0, 1.0])
        assert not program.is_strictly_feasible([5.0, 1.0])  # boundary
        assert not program.is_strictly_feasible([0.0, 1.0])  # bound boundary

    def test_inequality_values(self):
        program = self.make()
        vals = program.inequality_values([1.0, 2.0])
        assert np.allclose(vals, [4.0, 3.0])

    def test_equality_residuals(self):
        program = ConvexProgram(
            n_vars=2,
            objective=np.zeros(2),
            equalities=[LinearEquality(coeffs=np.array([1.0, -1.0]), rhs=0.0)],
        )
        assert np.allclose(program.equality_residuals([2.0, 2.0]), [0.0])
        assert not program.is_feasible([2.0, 1.0])


# ----------------------------------------------------------------------
# each constraint's formulas, written out: the sparse terms, the value
# and the dense grad/hess built from the terms equal them bit for bit
# ----------------------------------------------------------------------

reserve = st.floats(min_value=1e-3, max_value=1e9)
gammas = st.floats(min_value=0.5, max_value=1.0, exclude_min=True)
ratios = st.floats(min_value=0.05, max_value=20.0)
amount = st.floats(min_value=0.0, max_value=1e9)


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


def assert_bits_equal(got, want) -> None:
    assert np.array_equal(bits(got), bits(want)), (got, want)


@st.composite
def hop_points(draw):
    """``(n_vars, idx_in, idx_out, v)`` with two distinct hop variables."""
    n = draw(st.integers(min_value=2, max_value=8))
    idx_in, idx_out = draw(
        st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    )
    v = np.array(draw(st.lists(amount, min_size=n, max_size=n)))
    return n, idx_in, idx_out, v


def assert_hop_terms(con, v, value, g_in, h_in_in) -> None:
    """``con``'s terms, value, grad and hess carry exactly these floats."""
    got_value, got_grad, got_hess = con.terms(v)
    assert [i for i, _g in got_grad] == [con.idx_in, con.idx_out]
    assert_bits_equal(
        [got_value, *(g for _i, g in got_grad), *got_hess[0], *got_hess[1]],
        [value, g_in, -1.0, h_in_in, 0.0, 0.0, 0.0],
    )
    assert_bits_equal(con.value(v), value)
    grad = np.zeros(con.n_vars)
    grad[con.idx_in] = g_in
    grad[con.idx_out] = -1.0
    assert_bits_equal(con.grad(v), grad)
    hess = np.zeros((con.n_vars, con.n_vars))
    hess[con.idx_in, con.idx_in] = h_in_in
    assert_bits_equal(con.hess(v), hess)


class TestFormulas:
    @given(point=hop_points(), x=reserve, y=reserve, gamma=gammas)
    @settings(max_examples=200)
    def test_cpmm_hop(self, point, x, y, gamma):
        n, idx_in, idx_out, v = point
        con = HopConstraint(
            x=x, y=y, gamma=gamma, idx_in=idx_in, idx_out=idx_out, n_vars=n
        )
        t = float(v[idx_in])
        denom = x + gamma * t
        assert_hop_terms(
            con,
            v,
            value=y * gamma * t / (x + gamma * t) - float(v[idx_out]),
            g_in=y * gamma * x / (denom * denom),
            h_in_in=-2.0 * y * gamma * gamma * x / (denom ** 3),
        )

    @given(point=hop_points(), x=reserve, y=reserve, gamma=gammas, ratio=ratios)
    @settings(max_examples=200)
    def test_g3m_hop(self, point, x, y, gamma, ratio):
        n, idx_in, idx_out, v = point
        con = WeightedHopConstraint(
            x=x, y=y, gamma=gamma, ratio=ratio, idx_in=idx_in, idx_out=idx_out, n_vars=n
        )
        t = float(v[idx_in])
        denom = x + gamma * t
        base = x / (x + gamma * t)
        assert_hop_terms(
            con,
            v,
            value=y * (1.0 - base ** ratio) - float(v[idx_out]),
            g_in=(
                y * ratio * gamma * (x ** ratio) / (denom ** (ratio + 1.0))
            ),
            h_in_in=(
                -y * ratio * (ratio + 1.0) * gamma * gamma
                * (x ** ratio) / (denom ** (ratio + 2.0))
            ),
        )

    @given(
        coeffs=st.lists(
            st.one_of(st.sampled_from([0.0, 1.0, -1.0]), st.floats(-1e3, 1e3)),
            min_size=1,
            max_size=8,
        ),
        offset=st.floats(-1e6, 1e6),
        data=st.data(),
    )
    @settings(max_examples=200)
    def test_affine(self, coeffs, offset, data):
        n = len(coeffs)
        v = np.array(data.draw(st.lists(amount, min_size=n, max_size=n)))
        con = AffineConstraint(coeffs=np.array(coeffs), offset=offset)
        a = np.array(coeffs)
        value = float(a @ v + offset)
        got_value, got_grad, got_hess = con.terms(v)
        support = [i for i, c in enumerate(coeffs) if c != 0.0]
        assert [i for i, _c in got_grad] == support
        assert_bits_equal([c for _i, c in got_grad], a[support])
        assert_bits_equal([h for row in got_hess for h in row], np.zeros(len(support) ** 2))
        assert_bits_equal(got_value, value)
        assert_bits_equal(con.value(v), value)
        # a -0.0 coefficient is not an entry, so its dense slot holds +0.0
        assert_bits_equal(con.grad(v), a + 0.0)
        assert_bits_equal(con.hess(v), np.zeros((n, n)))
