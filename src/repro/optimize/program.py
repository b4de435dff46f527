"""A small convex-program intermediate representation.

The paper solves its eq. (8) with an off-the-shelf convex solver; that
stack (cvxpy + ECOS/SCS) is unavailable offline, so we define a minimal
IR rich enough for the loop program and solve it with two independent
backends (:mod:`repro.optimize.barrier` from scratch, and
:mod:`repro.optimize.slsqp` on top of scipy).

A :class:`ConvexProgram` is:

    maximize    objective . v
    subject to  g_i(v) >= 0        (g_i concave, smooth)
                A_eq v = b_eq      (optional linear equalities)
                v >= 0             (componentwise)

Concavity of every ``g_i`` makes the feasible set convex and the
log-barrier of the inequalities convex, which is what both backends
rely on.

Each inequality writes its formulas once, in ``terms(v)``: its value
and its gradient and Hessian restricted to the variables it touches,
as Python floats.  The barrier sums phi_t's derivatives from those
terms; ``grad``/``hess`` scatter them into the dense arrays that
SLSQP's ``jac`` and the tests use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = ["AffineConstraint", "HopConstraint", "WeightedHopConstraint", "LinearEquality", "ConvexProgram"]


class _SparseTerms:
    """Dense ``grad``/``hess`` of an inequality, built from its ``terms``.

    ``terms(v)`` returns ``(value, grad, hess)``: ``grad`` holds one
    ``(index, derivative)`` pair per variable the constraint touches,
    and ``hess`` the square block over those variables, ``hess[a][b]``
    being the second derivative in ``grad[a]``'s and ``grad[b]``'s.
    Every gradient and Hessian entry outside them is zero.
    """

    n_vars: int

    def grad(self, v: np.ndarray) -> np.ndarray:
        g = np.zeros(self.n_vars)
        for i, gi in self.terms(v)[1]:
            g[i] = gi
        return g

    def hess(self, v: np.ndarray) -> np.ndarray:
        h = np.zeros((self.n_vars, self.n_vars))
        _value, grad, block = self.terms(v)
        for (i, _gi), row in zip(grad, block):
            for (j, _gj), hij in zip(grad, row):
                h[i, j] = hij
        return h


def _check_hop(x: float, y: float, gamma: float, idx_in: int, idx_out: int, n_vars: int) -> None:
    if x <= 0 or y <= 0:
        raise ValueError(f"reserves must be positive, got x={x}, y={y}")
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must be in (0, 1], got {gamma}")
    if idx_in == idx_out or not (0 <= idx_in < n_vars and 0 <= idx_out < n_vars):
        raise ValueError(
            f"hop variables must be two distinct indices below {n_vars}, "
            f"got {idx_in} and {idx_out}"
        )


@dataclass(frozen=True)
class AffineConstraint(_SparseTerms):
    """Linear inequality ``coeffs . v + offset >= 0`` (trivially concave)."""

    coeffs: np.ndarray
    offset: float = 0.0
    name: str = ""
    _grad: tuple = field(init=False, repr=False, compare=False)
    _hess: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # a private read-only copy, so the terms below stay its gradient
        coeffs = np.array(self.coeffs, dtype=float)
        coeffs.setflags(write=False)
        grad = tuple((i, c) for i, c in enumerate(coeffs.tolist()) if c != 0.0)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_grad", grad)
        object.__setattr__(self, "_hess", ((0.0,) * len(grad),) * len(grad))

    @property
    def n_vars(self) -> int:
        return self.coeffs.shape[0]

    def value(self, v: np.ndarray) -> float:
        return float(self.coeffs @ v + self.offset)

    def terms(self, v: np.ndarray) -> tuple:
        return self.value(v), self._grad, self._hess


@dataclass(frozen=True)
class HopConstraint(_SparseTerms):
    """CPMM hop feasibility ``y*g*v_in/(x + g*v_in) - v_out >= 0``.

    ``g`` is gamma = 1 - fee.  The left side is concave in
    ``(v_in, v_out)`` because ``t -> y*g*t/(x+g*t)`` is concave and
    ``-v_out`` is linear.  Equivalent to the paper's product form
    ``(x + g*dx)(y - dy) >= x*y`` on the box ``0 <= dy < y``, but with
    a concave constraint function, which the log-barrier needs.
    """

    x: float
    y: float
    gamma: float
    idx_in: int
    idx_out: int
    n_vars: int
    name: str = ""

    def __post_init__(self) -> None:
        _check_hop(self.x, self.y, self.gamma, self.idx_in, self.idx_out, self.n_vars)

    def _forward(self, t: float) -> float:
        return self.y * self.gamma * t / (self.x + self.gamma * t)

    def value(self, v: np.ndarray) -> float:
        return self._forward(float(v[self.idx_in])) - float(v[self.idx_out])

    def terms(self, v: np.ndarray) -> tuple:
        denom = self.x + self.gamma * float(v[self.idx_in])
        return (
            self.value(v),
            (
                (self.idx_in, self.y * self.gamma * self.x / (denom * denom)),
                (self.idx_out, -1.0),
            ),
            (
                (-2.0 * self.y * self.gamma * self.gamma * self.x / (denom ** 3), 0.0),
                (0.0, 0.0),
            ),
        )


@dataclass(frozen=True)
class WeightedHopConstraint(_SparseTerms):
    """G3M hop feasibility ``y*(1 - (x/(x+g*v_in))^r) - v_out >= 0``.

    ``r = w_in / w_out`` is the weight ratio; ``r == 1`` coincides with
    :class:`HopConstraint`.  The swap function is concave increasing
    for any ``r > 0``, so the constraint set stays convex and the
    barrier applies unchanged.
    """

    x: float
    y: float
    gamma: float
    ratio: float
    idx_in: int
    idx_out: int
    n_vars: int
    name: str = ""

    def __post_init__(self) -> None:
        _check_hop(self.x, self.y, self.gamma, self.idx_in, self.idx_out, self.n_vars)
        if self.ratio <= 0:
            raise ValueError(f"weight ratio must be positive, got {self.ratio}")

    def _forward(self, t: float) -> float:
        base = self.x / (self.x + self.gamma * t)
        return self.y * (1.0 - base ** self.ratio)

    def value(self, v: np.ndarray) -> float:
        return self._forward(float(v[self.idx_in])) - float(v[self.idx_out])

    def terms(self, v: np.ndarray) -> tuple:
        denom = self.x + self.gamma * float(v[self.idx_in])
        return (
            self.value(v),
            (
                (
                    self.idx_in,
                    self.y * self.ratio * self.gamma * (self.x ** self.ratio)
                    / (denom ** (self.ratio + 1.0)),
                ),
                (self.idx_out, -1.0),
            ),
            (
                (
                    -self.y * self.ratio * (self.ratio + 1.0) * self.gamma * self.gamma
                    * (self.x ** self.ratio) / (denom ** (self.ratio + 2.0)),
                    0.0,
                ),
                (0.0, 0.0),
            ),
        )


@dataclass(frozen=True)
class LinearEquality:
    """Linear equality ``coeffs . v = rhs``."""

    coeffs: np.ndarray
    rhs: float = 0.0
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))

    def residual(self, v: np.ndarray) -> float:
        return float(self.coeffs @ v - self.rhs)


@dataclass
class ConvexProgram:
    """Maximize ``objective . v`` over the convex feasible set."""

    n_vars: int
    objective: np.ndarray
    inequalities: list = field(default_factory=list)
    equalities: list = field(default_factory=list)
    nonneg: bool = True
    var_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        self.objective = np.asarray(self.objective, dtype=float)
        if self.objective.shape != (self.n_vars,):
            raise ValueError(
                f"objective has shape {self.objective.shape}, expected ({self.n_vars},)"
            )
        if self.var_names and len(self.var_names) != self.n_vars:
            raise ValueError(
                f"{len(self.var_names)} names for {self.n_vars} variables"
            )

    # ------------------------------------------------------------------
    # evaluation helpers shared by backends and tests
    # ------------------------------------------------------------------

    def objective_value(self, v: Sequence[float]) -> float:
        return float(self.objective @ np.asarray(v, dtype=float))

    def inequality_values(self, v: Sequence[float]) -> np.ndarray:
        arr = np.asarray(v, dtype=float)
        return np.array([c.value(arr) for c in self.inequalities])

    def equality_residuals(self, v: Sequence[float]) -> np.ndarray:
        arr = np.asarray(v, dtype=float)
        return np.array([e.residual(arr) for e in self.equalities])

    def is_feasible(self, v: Sequence[float], tol: float = 1e-8) -> bool:
        """Feasibility within ``tol`` (scaled by constraint magnitude)."""
        arr = np.asarray(v, dtype=float)
        if self.nonneg and np.any(arr < -tol * max(1.0, float(np.max(np.abs(arr), initial=0.0)))):
            return False
        for c in self.inequalities:
            if c.value(arr) < -tol * max(1.0, abs(c.value(np.zeros_like(arr)))):
                return False
        for e in self.equalities:
            scale = max(1.0, float(np.max(np.abs(e.coeffs))) * float(np.max(np.abs(arr), initial=0.0)))
            if abs(e.residual(arr)) > tol * scale:
                return False
        return True

    def is_strictly_feasible(self, v: Sequence[float], margin: float = 0.0) -> bool:
        """Strict feasibility of inequalities and bounds (barrier start)."""
        arr = np.asarray(v, dtype=float)
        if self.nonneg and np.any(arr <= margin):
            return False
        return all(c.value(arr) > margin for c in self.inequalities)
