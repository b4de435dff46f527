"""Hypothesis: ``BarrierSolver`` matches the reference barrier bit for bit.

``BarrierSolver`` ends a centering stage at the first line search that
leaves the iterate unchanged, starts each line search from the phi_t
its predecessor computed at the same point, sums phi_t's gradient and
Hessian from each constraint's sparse ``terms``, and regularises the
Hessian's diagonal in place.  ``ReferenceBarrier`` keeps the dense
method those changes replaced, verbatim: its own copy of phi_t and its
derivatives (dense n-vectors and n x n matrices summed over every
constraint object's ``value``/``grad``/``hess``), its own Newton step
(``hess - reg * np.eye(n)``), every stage run to ``max_newton`` Newton
iterations, and phi_t evaluated afresh at the start of every line
search.  The two must give each solve's ``x`` and ``iterations`` bit
for bit, or the same error.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.amm import Pool
from repro.amm.weighted import WeightedPool
from repro.core import ArbitrageLoop, InfeasibleProgramError, PriceMap, Token
from repro.core.errors import OptimizationError, SolverConvergenceError
from repro.data.example import section5_loop, section5_prices
from repro.optimize import (
    AffineConstraint,
    BarrierSolver,
    ConvexProgram,
    HopConstraint,
    LinearEquality,
    build_loop_program,
)


class ReferenceBarrier(BarrierSolver):
    """The barrier without the stall rule or phi reuse: every centering
    stage runs to ``max_newton`` iterations."""

    def _phi(self, program: ConvexProgram, v: np.ndarray, t: float) -> float:
        total = t * program.objective_value(v)
        for c in program.inequalities:
            val = c.value(v)
            if val <= 0.0:
                return -np.inf
            total += np.log(val)
        if program.nonneg:
            if np.any(v <= 0.0):
                return -np.inf
            total += float(np.sum(np.log(v)))
        return total

    def _grad_hess(self, program: ConvexProgram, v: np.ndarray, t: float):
        n = program.n_vars
        grad = t * program.objective.copy()
        hess = np.zeros((n, n))
        for c in program.inequalities:
            val = c.value(v)
            g = c.grad(v)
            h = c.hess(v)
            grad += g / val
            hess += h / val - np.outer(g, g) / (val * val)
        if program.nonneg:
            grad += 1.0 / v
            hess[np.diag_indices(n)] -= 1.0 / (v * v)
        return grad, hess

    def _newton_step(self, hess: np.ndarray, grad: np.ndarray, a_eq):
        n = grad.shape[0]
        # Tiny regularization keeps the system solvable when a
        # constraint is nearly linear in some direction.
        reg = 1e-12 * max(1.0, float(np.max(np.abs(hess))))
        h_reg = hess - reg * np.eye(n)
        if a_eq is None:
            return np.linalg.solve(-h_reg, grad)
        p = a_eq.shape[0]
        kkt = np.zeros((n + p, n + p))
        kkt[:n, :n] = h_reg
        kkt[:n, n:] = a_eq.T
        kkt[n:, :n] = a_eq
        rhs = np.concatenate([-grad, np.zeros(p)])
        sol = np.linalg.solve(kkt, rhs)
        return sol[:n]

    def _center(self, program: ConvexProgram, v: np.ndarray, t: float, a_eq):
        for _ in range(self.max_newton):
            grad, hess = self._grad_hess(program, v, t)
            step = self._newton_step(hess, grad, a_eq)
            decrement_sq = float(grad @ step)
            # For a concave problem grad @ step >= 0; tiny value means
            # we are centered.
            if decrement_sq / 2.0 <= self.newton_tol:
                return v
            v = self._line_search(program, v, step, grad, t)
        # Not fully centered; the outer loop's gap bound still holds
        # approximately — warn via exception only if badly off.
        grad, hess = self._grad_hess(program, v, t)
        step = self._newton_step(hess, grad, a_eq)
        if float(grad @ step) / 2.0 > 1e-4:
            raise SolverConvergenceError(
                f"Newton centering stalled at barrier weight t={t}"
            )
        return v

    def _line_search(
        self,
        program: ConvexProgram,
        v: np.ndarray,
        step: np.ndarray,
        grad: np.ndarray,
        t: float,
    ) -> np.ndarray:
        phi0 = self._phi(program, v, t)
        slope = float(grad @ step)
        s = 1.0
        for _ in range(100):
            candidate = v + s * step
            phi = self._phi(program, v + s * step, t)
            if np.isfinite(phi) and phi >= phi0 + self.alpha * s * slope:
                return candidate
            s *= self.beta
        # Step direction failed to improve — numerical floor reached.
        return v


TOKENS = (Token("X"), Token("Y"), Token("Z"), Token("W"))

# the ranges of test_strategy_properties.py
reserve = st.floats(min_value=50.0, max_value=1e5)
price = st.floats(min_value=0.01, max_value=1e4)
weight = st.floats(min_value=0.1, max_value=0.9)


@st.composite
def loop_programs(draw):
    """The eq.-(8) program of a CPMM, weighted or mixed triangle or
    4-hop loop (the length Figs. 9-10 solve), in a direction that has a
    strict interior, and its barrier start."""
    family = draw(st.sampled_from(["cpmm", "weighted", "mixed"]))
    tokens = TOKENS[:draw(st.sampled_from([3, 4]))]
    pools = []
    for j, a in enumerate(tokens):
        b = tokens[(j + 1) % len(tokens)]
        if family == "weighted" or (family == "mixed" and draw(st.booleans())):
            pools.append(WeightedPool(
                a, b, draw(reserve), draw(reserve), draw(weight), draw(weight),
                pool_id=f"w{j}",
            ))
        else:
            pools.append(Pool(a, b, draw(reserve), draw(reserve), pool_id=f"p{j}"))
    prices = PriceMap({token: draw(price) for token in tokens})
    loop = ArbitrageLoop(list(tokens), pools)
    for direction in (loop, loop.reversed()):
        loop_program = build_loop_program(direction, prices)
        try:
            return loop_program.program, loop_program.interior_point()
        except InfeasibleProgramError:
            continue
    assume(False)


def _affine(coeffs, offset):
    return AffineConstraint(coeffs=np.array(coeffs), offset=offset)


def unit_programs():
    """(program, start) cases: the programs of tests/unit/test_solvers.py."""
    hop = HopConstraint(x=100.0, y=300.0, gamma=0.997, idx_in=0, idx_out=1, n_vars=2)
    return [
        pytest.param(ConvexProgram(
            n_vars=2, objective=np.array([1.0, 2.0]),
            inequalities=[_affine([-1.0, 0.0], 3.0), _affine([0.0, -1.0], 4.0)],
        ), np.array([1.0, 1.0]), id="box"),
        pytest.param(ConvexProgram(
            n_vars=2, objective=np.array([2.0, 1.0]),
            inequalities=[_affine([-1.0, -1.0], 1.0)],
        ), np.array([0.2, 0.2]), id="simplex"),
        pytest.param(ConvexProgram(
            n_vars=2, objective=np.array([-1.0, 1.0]), inequalities=[hop],
        ), np.array([1.0, 1.0]), id="single-hop"),
        pytest.param(ConvexProgram(
            n_vars=2, objective=np.array([1.0, 1.0]),
            inequalities=[_affine([-1.0, -1.0], 1.0)],
            equalities=[LinearEquality(coeffs=np.array([1.0, -1.0]), rhs=0.0)],
        ), np.array([0.2, 0.2]), id="equality"),
    ]


def solve_outcome(solver, program, start):
    try:
        result = solver.solve(program, start)
    except Exception as exc:  # the error itself is part of the outcome
        return type(exc), str(exc)
    return result.x.tobytes(), result.iterations, result.message


def weighted_domain_case():
    """A weighted triangle on which the reference's line search tries
    a hop input below -x/gamma (1 of 600 random directed triangles)."""
    a, b, c = Token("A"), Token("B"), Token("C")
    w_ab, w_bc, w_ca = 0.7637930400484418, 0.40170140094613693, 0.5512927240927501
    pools = [
        WeightedPool(c, a, 45835.87861205251, 1096.592852575822, w_ca, 1 - w_ca),
        WeightedPool(b, c, 71015.11927695472, 23785.92065149661, w_bc, 1 - w_bc),
        WeightedPool(a, b, 65410.94957000626, 1284.2014839851279, w_ab, 1 - w_ab),
    ]
    prices = PriceMap(
        {a: 1.9874363188949322, b: 1.6991750454816528, c: 0.8100951563738263}
    )
    loop_program = build_loop_program(ArbitrageLoop([a, c, b], pools), prices)
    return loop_program.program, loop_program.interior_point()


@given(case=loop_programs())
@example(case=weighted_domain_case())
@settings(max_examples=30, deadline=None)
def test_loop_program_solve_is_bitwise(case):
    """Bitwise, except where the reference raises ``TypeError``: its
    line search compared a weighted hop's complex value (input below
    -x/gamma), a point ``BarrierSolver`` rejects before evaluating any
    constraint, so it returns or raises an ``OptimizationError``."""
    program, start = case
    got = solve_outcome(BarrierSolver(), program, start)
    want = solve_outcome(ReferenceBarrier(), program, start)
    if want[0] is TypeError and "complex" in want[1]:
        assert isinstance(got[0], bytes) or issubclass(got[0], OptimizationError)
    else:
        assert got == want


@pytest.mark.parametrize("program, start", unit_programs())
@pytest.mark.parametrize("max_newton", [5, 80])
def test_unit_programs_are_bitwise(program, start, max_newton):
    """At ``max_newton=5`` some stages run out of iterations a step
    before they are centered, so the stall check decides the outcome."""
    assert solve_outcome(BarrierSolver(max_newton=max_newton), program, start) == (
        solve_outcome(ReferenceBarrier(max_newton=max_newton), program, start)
    )


def test_section5_solve_does_less_work():
    """The paper's §V loop: the same ``x`` bytes from fewer evaluations."""
    loop_program = build_loop_program(section5_loop(), section5_prices())
    start = loop_program.interior_point()
    counts, outcomes = [], []
    for solver in (BarrierSolver(), ReferenceBarrier()):
        count = {"_grad_hess": 0, "_phi": 0}
        for name in count:
            def counted(*args, _inner=getattr(solver, name), _name=name, _count=count):
                _count[_name] += 1
                return _inner(*args)
            setattr(solver, name, counted)
        outcomes.append(solve_outcome(solver, loop_program.program, start))
        counts.append(count)
    assert outcomes[0] == outcomes[1]
    assert counts[0]["_grad_hess"] < counts[1]["_grad_hess"]
    assert counts[0]["_phi"] < counts[1]["_phi"]
