"""Unit tests for the barrier and SLSQP solvers on known programs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import InfeasibleProgramError, SolverConvergenceError
from repro.optimize import (
    AffineConstraint,
    BarrierSolver,
    ConvexProgram,
    HopConstraint,
    LinearEquality,
    solve_barrier,
    solve_slsqp,
)


def box_program():
    """maximize v0 + 2*v1  s.t.  v <= (3, 4), v >= 0  -> optimum (3, 4)."""
    return ConvexProgram(
        n_vars=2,
        objective=np.array([1.0, 2.0]),
        inequalities=[
            AffineConstraint(coeffs=np.array([-1.0, 0.0]), offset=3.0),
            AffineConstraint(coeffs=np.array([0.0, -1.0]), offset=4.0),
        ],
    )


def simplex_program():
    """maximize 2*v0 + v1  s.t.  v0 + v1 <= 1, v >= 0  -> optimum (1, 0)."""
    return ConvexProgram(
        n_vars=2,
        objective=np.array([2.0, 1.0]),
        inequalities=[AffineConstraint(coeffs=np.array([-1.0, -1.0]), offset=1.0)],
    )


def single_hop_program():
    """maximize out - in over one CPMM hop: the 1-pool 'round trip'.

    With x=100, y=300, gamma=0.997 the 'loop' X->Y has rate 2.991 > 1 at
    zero, optimum at t* = (sqrt(a*b)-b)/c with a=299.1, b=100, c=0.997.
    """
    return ConvexProgram(
        n_vars=2,
        objective=np.array([-1.0, 1.0]),
        inequalities=[
            HopConstraint(x=100.0, y=300.0, gamma=0.997, idx_in=0, idx_out=1, n_vars=2)
        ],
    )


def single_hop_optimum():
    a, b, c = 300.0 * 0.997, 100.0, 0.997
    t = (np.sqrt(a * b) - b) / c
    out = a * t / (b + c * t)
    return t, out


class TestBarrier:
    def test_box(self):
        result = solve_barrier(box_program(), np.array([1.0, 1.0]))
        assert result.converged
        assert np.allclose(result.x, [3.0, 4.0], atol=1e-6)
        assert result.objective == pytest.approx(11.0, abs=1e-5)
        assert result.backend == "barrier"

    def test_simplex(self):
        result = solve_barrier(simplex_program(), np.array([0.2, 0.2]))
        assert np.allclose(result.x, [1.0, 0.0], atol=1e-5)

    def test_hop_program(self):
        t_star, out_star = single_hop_optimum()
        result = solve_barrier(single_hop_program(), np.array([1.0, 1.0]))
        assert result.x[0] == pytest.approx(t_star, rel=1e-6)
        assert result.x[1] == pytest.approx(out_star, rel=1e-6)

    def test_rejects_infeasible_start(self):
        with pytest.raises(InfeasibleProgramError, match="strictly feasible"):
            solve_barrier(box_program(), np.array([10.0, 1.0]))

    def test_rejects_boundary_start(self):
        with pytest.raises(InfeasibleProgramError):
            solve_barrier(box_program(), np.array([3.0, 1.0]))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="shape"):
            solve_barrier(box_program(), np.array([1.0, 1.0, 1.0]))

    def test_unconstrained_rejected(self):
        program = ConvexProgram(
            n_vars=1, objective=np.array([1.0]), inequalities=[], nonneg=False
        )
        with pytest.raises(InfeasibleProgramError, match="unbounded"):
            solve_barrier(program, np.array([0.5]))

    def test_equality_constrained(self):
        # maximize v0 + v1 s.t. v0 = v1, v0 + v1 <= 1 -> (0.5, 0.5)
        program = ConvexProgram(
            n_vars=2,
            objective=np.array([1.0, 1.0]),
            inequalities=[AffineConstraint(coeffs=np.array([-1.0, -1.0]), offset=1.0)],
            equalities=[LinearEquality(coeffs=np.array([1.0, -1.0]), rhs=0.0)],
        )
        result = solve_barrier(program, np.array([0.2, 0.2]))
        assert np.allclose(result.x, [0.5, 0.5], atol=1e-5)

    def test_equality_start_violation_rejected(self):
        program = ConvexProgram(
            n_vars=2,
            objective=np.array([1.0, 1.0]),
            inequalities=[AffineConstraint(coeffs=np.array([-1.0, -1.0]), offset=1.0)],
            equalities=[LinearEquality(coeffs=np.array([1.0, -1.0]), rhs=0.0)],
        )
        with pytest.raises(InfeasibleProgramError, match="equality"):
            solve_barrier(program, np.array([0.3, 0.1]))

    @pytest.mark.parametrize(
        "offset, nonneg, start",
        [(1.0, True, 1e-170), (1e-160, False, 1e-160 - 1e-170)],
        ids=["bound", "constraint"],
    )
    def test_slack_squaring_to_zero_stops_the_solve(self, offset, nonneg, start):
        """maximize v s.t. v <= offset, started where the bound's or the
        constraint's slack squares to 0.0, which phi_t's Hessian divides
        by: the solve stops rather than return its start as optimal."""
        program = ConvexProgram(
            n_vars=1,
            objective=np.array([1.0]),
            inequalities=[AffineConstraint(coeffs=np.array([-1.0]), offset=offset)],
            nonneg=nonneg,
        )
        with pytest.raises(SolverConvergenceError, match="square underflows"):
            solve_barrier(program, np.array([start]))

    @pytest.mark.parametrize(
        "name, value",
        [
            ("mu", 1.0),
            ("t0", 0.0),
            ("t0", -1.0),
            ("tol", 0.0),
            ("max_newton", 0),
            ("alpha", 0.0),
            ("alpha", 0.5),
            ("beta", 0.0),
            ("beta", 1.0),
        ],
    )
    def test_parameter_validation(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must"):
            BarrierSolver(**{name: value})

    def test_tight_tolerance_more_outer_iterations(self):
        loose = BarrierSolver(tol=1e-3).solve(box_program(), np.array([1.0, 1.0]))
        tight = BarrierSolver(tol=1e-12).solve(box_program(), np.array([1.0, 1.0]))
        assert tight.iterations > loose.iterations


class TestSlsqp:
    def test_box(self):
        result = solve_slsqp(box_program())
        assert result.converged
        assert np.allclose(result.x, [3.0, 4.0], atol=1e-6)
        assert result.backend == "slsqp"

    def test_simplex(self):
        result = solve_slsqp(simplex_program())
        assert np.allclose(result.x, [1.0, 0.0], atol=1e-6)

    def test_hop_program(self):
        t_star, out_star = single_hop_optimum()
        result = solve_slsqp(single_hop_program(), initial_point=np.array([50.0, 50.0]))
        assert result.x[0] == pytest.approx(t_star, rel=1e-5)
        assert result.x[1] == pytest.approx(out_star, rel=1e-5)

    def test_equality_constraint(self):
        program = ConvexProgram(
            n_vars=2,
            objective=np.array([1.0, 1.0]),
            inequalities=[AffineConstraint(coeffs=np.array([-1.0, -1.0]), offset=1.0)],
            equalities=[LinearEquality(coeffs=np.array([1.0, -1.0]), rhs=0.0)],
        )
        result = solve_slsqp(program)
        assert np.allclose(result.x, [0.5, 0.5], atol=1e-6)

    def test_wrong_shape_start(self):
        with pytest.raises(ValueError, match="shape"):
            solve_slsqp(box_program(), initial_point=np.zeros(5))

    def test_result_clipped_nonnegative(self):
        result = solve_slsqp(simplex_program())
        assert np.all(result.x >= 0)


class TestBackendsAgree:
    @pytest.mark.parametrize("program_factory", [box_program, simplex_program, single_hop_program])
    def test_same_objective(self, program_factory):
        program = program_factory()
        b = solve_barrier(program, np.array([0.1, 0.1]))
        s = solve_slsqp(program, initial_point=np.array([0.1, 0.1]))
        assert b.objective == pytest.approx(s.objective, rel=1e-5, abs=1e-8)
