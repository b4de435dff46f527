"""The ConvexOptimization strategy (paper eq. 8).

Relaxes the flow-conservation equalities of the fixed-start problem to
inequalities, letting the arbitrage *keep a surplus of every loop
token*, and maximizes the CEX-priced sum of surpluses over the
resulting convex set.  The paper proves (and our property tests check):

* ConvexOptimization >= MaxMax on every loop;
* if no rotation is profitable, ConvexOptimization finds exactly the
  zero solution (the "zero-solution theorem").

Two backends solve the program:

* ``"barrier"`` (default) — the from-scratch log-barrier interior
  point, warm-started from the best MaxMax path;
* ``"slsqp"`` — scipy SLSQP, same warm start.

Whatever the backend returns, the result is *floored at the MaxMax
solution*: the MaxMax path is a feasible point of eq. (8), so if the
numerical solver lands slightly below it (or fails), returning the
MaxMax result is both mathematically sound and closer to the true
optimum.  The ``details`` dict records when the floor was applied.
"""

from __future__ import annotations

import logging

import numpy as np

from ..core.errors import InfeasibleProgramError, OptimizationError
from ..core.loop import ArbitrageLoop
from ..core.types import PriceMap
from ..optimize.barrier import BarrierSolver
from ..optimize.loop_program import LINKINGS, LoopProgram, build_loop_program
from ..optimize.slsqp import solve_slsqp
from .base import Strategy, StrategyResult
from .maxmax import MaxMaxStrategy

__all__ = ["ConvexOptimizationStrategy"]

logger = logging.getLogger("repro.strategies.convexopt")

_BACKENDS = ("barrier", "slsqp")


class ConvexOptimizationStrategy(Strategy):
    """Solve eq. (8) for the loop's stored direction.

    Parameters
    ----------
    backend:
        ``"barrier"`` or ``"slsqp"``.
    linking:
        ``"inequality"`` (eq. 8, default) or ``"equality"`` (eq. 7,
        which provably collapses to the fixed-start problem; kept for
        the ablation benchmark).  The equality variant is solved with
        SLSQP regardless of ``backend`` because the barrier method
        needs a strictly feasible interior that equality linking
        rarely leaves room for.
    profit_tol:
        Components of the profit vector with absolute value at or
        below ``profit_tol * scale`` are clipped to zero when
        reporting (solver noise suppression).
    """

    name = "convex"

    def __init__(
        self,
        backend: str = "barrier",
        linking: str = "inequality",
        profit_tol: float = 1e-9,
    ):
        if backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {_BACKENDS}, got {backend!r}")
        if linking not in LINKINGS:
            raise ValueError(f"linking must be one of {LINKINGS}, got {linking!r}")
        self.backend = backend
        self.linking = linking
        self.profit_tol = profit_tol
        self._maxmax = MaxMaxStrategy()

    # ------------------------------------------------------------------

    def evaluate(self, loop: ArbitrageLoop, prices: PriceMap) -> StrategyResult:
        return self.evaluate_cached(loop, prices, None)

    def evaluate_cached(
        self, loop: ArbitrageLoop, prices: PriceMap, cache=None
    ) -> StrategyResult:
        """The convex solve itself is price-dependent and never cached,
        but the MaxMax warm start / floor reuses the rotation cache."""
        loop_program = build_loop_program(loop, prices, linking=self.linking)
        maxmax = self._maxmax.evaluate_cached(loop, prices, cache)

        solution, backend_used, solve_info = self._solve(loop_program, maxmax)

        if solution is not None:
            monetized = loop_program.monetized_profit(solution)
        else:
            monetized = -np.inf

        if solution is None or monetized < maxmax.monetized_profit:
            # MaxMax's path is feasible for eq. (8); floor the answer.
            result = StrategyResult(
                strategy=self.name,
                loop=loop,
                profit=maxmax.profit,
                monetized_profit=maxmax.monetized_profit,
                start_token=None,
                amount_in=None,
                hop_amounts=maxmax.hop_amounts,
                details={
                    "backend": backend_used,
                    "floored_to_maxmax": True,
                    **solve_info,
                },
            )
            return result

        # solver produced >= MaxMax: report its solution
        profit = loop_program.profit_vector(solution, tol=self.profit_tol)
        return StrategyResult(
            strategy=self.name,
            loop=loop,
            profit=profit,
            # monetize the *clipped* vector so the reported profit and
            # number agree (clipping only removes solver noise)
            monetized_profit=profit.monetize(prices),
            start_token=None,
            amount_in=None,
            hop_amounts=tuple(loop_program.hop_amounts(solution)),
            details={
                "backend": backend_used,
                "floored_to_maxmax": False,
                **solve_info,
            },
        )

    # ------------------------------------------------------------------

    def _solve(self, loop_program: LoopProgram, maxmax: StrategyResult):
        """Run the configured backend; return (x | None, backend, info)."""
        program = loop_program.program
        if self.linking == "equality":
            x0 = self._warm_start(loop_program, maxmax)
            result = solve_slsqp(program, initial_point=x0)
            return result.x, "slsqp", {"iterations": result.iterations}

        if self.backend == "barrier":
            try:
                x0 = loop_program.interior_point()
            except InfeasibleProgramError:
                # Zero-solution theorem: no interior <=> no arbitrage.
                return None, "barrier", {"no_interior": True}
            try:
                result = BarrierSolver().solve(program, x0)
                return result.x, "barrier", {"iterations": result.iterations}
            except OptimizationError as exc:
                # Fall back to SLSQP rather than fail the evaluation.
                logger.warning(
                    "barrier solver failed on loop %s (%s); "
                    "falling back to SLSQP",
                    loop_program.loop.canonical_id,
                    exc,
                )
                fallback = solve_slsqp(
                    program, initial_point=self._warm_start(loop_program, maxmax)
                )
                return (
                    fallback.x,
                    "slsqp-fallback",
                    {"barrier_error": str(exc), "iterations": fallback.iterations},
                )

        x0 = self._warm_start(loop_program, maxmax)
        result = solve_slsqp(program, initial_point=x0)
        return result.x, "slsqp", {"iterations": result.iterations}

    @staticmethod
    def _warm_start(loop_program: LoopProgram, maxmax: StrategyResult) -> np.ndarray:
        """Start SLSQP from the MaxMax hop amounts (feasible for eq. 8)."""
        n = len(loop_program.loop)
        v = np.zeros(2 * n)
        if maxmax.amount_in and maxmax.amount_in > 0 and maxmax.hop_amounts:
            offset = loop_program.loop.tokens.index(maxmax.start_token)
            for k, (a_in, a_out) in enumerate(maxmax.hop_amounts):
                hop_index = (offset + k) % n
                v[2 * hop_index] = a_in
                v[2 * hop_index + 1] = a_out
        return v
