"""Log-barrier interior-point solver (from scratch).

Solves the :class:`~repro.optimize.program.ConvexProgram`

    maximize    c . v
    subject to  g_i(v) >= 0   (concave)
                v >= 0

by the standard barrier method (Boyd & Vandenberghe ch. 11): for an
increasing sequence of barrier weights ``t``, maximize

    phi_t(v) = t * c.v + sum_i log g_i(v) + sum_k log v_k

with damped Newton steps, starting from a caller-supplied strictly
feasible point.  Concavity of every ``g_i`` makes ``phi_t`` strictly
concave, so the Newton direction is well defined (the Hessian is
negative definite; we add a tiny Tikhonov term for float safety).

Linear *equality* constraints are supported through a KKT system:
each Newton step solves

    [ H   A^T ] [dv]   [-grad]
    [ A    0  ] [nu] = [  0  ]

which keeps iterates on the affine subspace ``A v = b`` provided the
starting point satisfies it.

The duality gap of the barrier method is ``m / t`` with ``m`` the
total number of inequality terms, which gives the stopping rule.

Three rules keep a solve cheap without moving an iterate by one bit:

* A centering stage ends at the first Newton iteration whose line
  search leaves the iterate bitwise unchanged, and goes straight to
  the end-of-stage stall check.  The rule is exact: every later
  iteration of the stage would start from the same bits, so it would
  recompute the same gradient, step and search, and the stage would
  reach the same stall check on the same iterate after ``max_newton``
  iterations.
* A line search starts from the ``phi_t`` that the previous search
  computed at the point it accepted, instead of evaluating it again.
* phi_t's gradient and Hessian are summed in Python floats from each
  constraint's sparse ``terms`` (see :mod:`repro.optimize.program`),
  not from an n-vector, an n x n matrix and an outer product per
  constraint.  An entry a constraint touches gets the dense sum's own
  term, ``g_i / val`` or ``h_ij / val - g_i * g_j / (val * val)``, in
  constraint order; an entry it does not touch would get +0.0, which
  changes no sum but -0.0.  A Hessian sum starts at +0.0 and a
  gradient sum at ``t * c_k``, so only a -0.0 objective coefficient in
  a program without bounds could see a difference, in the sign of a
  zero.  The Tikhonov term is subtracted from the diagonal in place.

A slack (a constraint value or a ``v_k``) whose square underflows to
0.0 stops the solve with :class:`SolverConvergenceError`, since the
Hessian divides by that square.  Summed densely, the Hessian turned
infinite there, the Newton step NaN, and the solve returned an
iterate that had stopped moving as if it were optimal.
"""

from __future__ import annotations

import numpy as np

from ..core.errors import InfeasibleProgramError, SolverConvergenceError
from .program import ConvexProgram
from .result import SolveResult

__all__ = ["BarrierSolver", "solve_barrier"]


class BarrierSolver:
    """Reusable barrier-method solver with tunable parameters.

    Parameters
    ----------
    t0:
        Initial barrier weight.
    mu:
        Multiplicative increase of ``t`` per outer stage.
    tol:
        Target duality gap ``m / t``.
    newton_tol:
        Newton-decrement^2 / 2 threshold that ends a centering stage.
    max_newton:
        Newton iterations allowed per centering stage.
    alpha, beta:
        Backtracking line-search parameters (sufficient increase /
        step shrink).
    """

    def __init__(
        self,
        t0: float = 1.0,
        mu: float = 20.0,
        tol: float = 1e-9,
        newton_tol: float = 1e-10,
        max_newton: int = 80,
        alpha: float = 0.05,
        beta: float = 0.5,
    ):
        if not t0 > 0.0:
            raise ValueError(f"t0 must be positive, got {t0}")
        if not mu > 1.0:
            raise ValueError(f"mu must exceed 1, got {mu}")
        if not tol > 0.0:
            raise ValueError(f"tol must be positive, got {tol}")
        if not max_newton >= 1:
            raise ValueError(f"max_newton must be at least 1, got {max_newton}")
        if not 0.0 < alpha < 0.5:
            raise ValueError(f"alpha must be in (0, 0.5), got {alpha}")
        if not 0.0 < beta < 1.0:
            raise ValueError(f"beta must be in (0, 1), got {beta}")
        self.t0 = t0
        self.mu = mu
        self.tol = tol
        self.newton_tol = newton_tol
        self.max_newton = max_newton
        self.alpha = alpha
        self.beta = beta

    # ------------------------------------------------------------------

    def solve(self, program: ConvexProgram, initial_point: np.ndarray) -> SolveResult:
        """Run the barrier method from a strictly feasible start."""
        v = np.array(initial_point, dtype=float)
        if v.shape != (program.n_vars,):
            raise ValueError(
                f"initial point has shape {v.shape}, expected ({program.n_vars},)"
            )
        if not program.is_strictly_feasible(v):
            raise InfeasibleProgramError(
                "barrier method needs a strictly feasible starting point; "
                f"got inequality values {program.inequality_values(v)} "
                f"and v={v}"
            )
        a_eq, b_eq = self._equality_matrices(program)
        if a_eq is not None:
            residual = a_eq @ v - b_eq
            if np.max(np.abs(residual)) > 1e-8 * max(1.0, float(np.max(np.abs(v)))):
                raise InfeasibleProgramError(
                    f"starting point violates equality constraints by {residual}"
                )

        m = len(program.inequalities) + (program.n_vars if program.nonneg else 0)
        if m == 0:
            raise InfeasibleProgramError(
                "unconstrained linear maximization is unbounded"
            )
        t = self.t0
        outer = 0
        while m / t > self.tol:
            v = self._center(program, v, t, a_eq)
            t *= self.mu
            outer += 1
            if outer > 200:
                raise SolverConvergenceError(
                    "barrier method exceeded 200 outer stages"
                )
        return SolveResult(
            x=v,
            objective=program.objective_value(v),
            converged=True,
            iterations=outer,
            backend="barrier",
            message=f"duality gap <= {m / t:.3e}",
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    @staticmethod
    def _equality_matrices(program: ConvexProgram):
        if not program.equalities:
            return None, None
        a = np.vstack([e.coeffs for e in program.equalities])
        b = np.array([e.rhs for e in program.equalities])
        return a, b

    def _phi(self, program: ConvexProgram, v: np.ndarray, t: float) -> float:
        # rejected before any constraint is evaluated: below -x/gamma a
        # weighted hop's value is complex, and comparing it would raise
        if program.nonneg and (v <= 0.0).any():
            return -np.inf
        total = t * program.objective_value(v)
        for c in program.inequalities:
            val = c.value(v)
            if val <= 0.0:
                return -np.inf
            total += np.log(val)
        if program.nonneg:
            total += float(np.log(v).sum())
        return total

    def _grad_hess(self, program: ConvexProgram, v: np.ndarray, t: float):
        n = program.n_vars
        terms = [c.terms(v) for c in program.inequalities]
        grad = (t * program.objective).tolist()
        hess = [[0.0] * n for _ in range(n)]
        try:
            for val, c_grad, c_hess in terms:
                val_sq = val * val
                for (i, gi), c_row in zip(c_grad, c_hess):
                    grad[i] += gi / val
                    row = hess[i]
                    for (j, gj), hij in zip(c_grad, c_row):
                        row[j] += hij / val - gi * gj / val_sq
            if program.nonneg:
                for k, vk in enumerate(v.tolist()):
                    grad[k] += 1.0 / vk
                    hess[k][k] -= 1.0 / (vk * vk)
        except ZeroDivisionError:  # every slack is positive: a square underflowed
            raise SolverConvergenceError(
                f"a barrier term's square underflows to 0.0 at barrier weight t={t}"
            ) from None
        return np.array(grad), np.array(hess)

    def _newton_step(self, hess: np.ndarray, grad: np.ndarray, a_eq):
        """The Newton step at a point; regularises ``hess`` in place."""
        n = grad.shape[0]
        # Tiny regularization keeps the system solvable when a
        # constraint is nearly linear in some direction.  Only the
        # diagonal changes: off it, ``hess - reg * eye`` subtracts
        # ``reg * 0.0``, which is 0.0 unless reg, and with it some
        # Hessian entry, is infinite.
        reg = 1e-12 * max(1.0, float(np.abs(hess).max()))
        hess.flat[:: n + 1] -= reg
        if a_eq is None:
            return np.linalg.solve(-hess, grad)
        p = a_eq.shape[0]
        kkt = np.zeros((n + p, n + p))
        kkt[:n, :n] = hess
        kkt[:n, n:] = a_eq.T
        kkt[n:, :n] = a_eq
        rhs = np.concatenate([-grad, np.zeros(p)])
        sol = np.linalg.solve(kkt, rhs)
        return sol[:n]

    def _center(self, program: ConvexProgram, v: np.ndarray, t: float, a_eq):
        phi = None  # phi_t(v), from the line search that reached v
        for _ in range(self.max_newton):
            grad, hess = self._grad_hess(program, v, t)
            step = self._newton_step(hess, grad, a_eq)
            decrement_sq = float(grad @ step)
            # For a concave problem grad @ step >= 0; tiny value means
            # we are centered.
            if decrement_sq / 2.0 <= self.newton_tol:
                return v
            if phi is None:
                phi = self._phi(program, v, t)
            moved, phi = self._line_search(program, v, phi, step, grad, t)
            if moved.tobytes() == v.tobytes():
                # Stalled: the rest of the stage would repeat this
                # iteration bit for bit, so its decrement stands.
                break
            v = moved
        else:
            grad, hess = self._grad_hess(program, v, t)
            step = self._newton_step(hess, grad, a_eq)
            decrement_sq = float(grad @ step)
        # Not fully centered; the outer loop's gap bound still holds
        # approximately — warn via exception only if badly off.
        if decrement_sq / 2.0 > 1e-4:
            raise SolverConvergenceError(
                f"Newton centering stalled at barrier weight t={t}"
            )
        return v

    def _line_search(
        self,
        program: ConvexProgram,
        v: np.ndarray,
        phi0: float,
        step: np.ndarray,
        grad: np.ndarray,
        t: float,
    ) -> tuple[np.ndarray, float]:
        """Backtrack along ``step`` from ``v``, where phi_t is ``phi0``;
        return the point reached and its phi_t."""
        slope = float(grad @ step)
        s = 1.0
        for _ in range(100):
            candidate = v + s * step
            phi = self._phi(program, candidate, t)
            if np.isfinite(phi) and phi >= phi0 + self.alpha * s * slope:
                return candidate, phi
            s *= self.beta
        # Step direction failed to improve — numerical floor reached.
        return v, phi0


def solve_barrier(
    program: ConvexProgram,
    initial_point: np.ndarray,
    **kwargs,
) -> SolveResult:
    """One-shot convenience wrapper around :class:`BarrierSolver`."""
    return BarrierSolver(**kwargs).solve(program, initial_point)
