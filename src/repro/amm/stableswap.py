"""Curve-style amplified-invariant stableswap pools (two-asset).

The paper's strategies only need each hop's swap map to be increasing
and concave; that also holds for Curve's *stableswap* family, which
interpolates between constant-sum (``x + y = const``, ideal for pegged
assets) and constant-product as reserves drift off balance.  For two
assets with amplification ``A`` (``ann = A * n**n = 4A``) the invariant
``D`` satisfies

    4A * (x + y) + D  =  4A * D + D**3 / (4 * x * y)

``D`` is found by the classic fixed-point/Newton iteration
(:func:`calculate_d`); the out-side reserve on the curve, given the new
in-side reserve, by the companion iteration :func:`calculate_y`.  An
exact-in swap is then ``dy = y - Y(x + gamma * dx)`` and the marginal
rate is ``gamma`` times the curve slope

    -dy/dx  =  (4A + D^3/(4 x^2 y)) / (4A + D^3/(4 x y^2))

(:func:`invariant_rate`).

Parity contract with the columnar kernel
----------------------------------------
Both iterations use **only** ``+ - * /`` — correctly-rounded IEEE-754
operations — and the batched lockstep twins in
:mod:`repro.market.solvers` replay the *same operation order* per row,
freezing converged rows with the PR-5 converged-mask pattern.  Unlike
the weighted family (whose ``pow`` is not correctly rounded), scalar
and batched stableswap quotes therefore agree bit for bit wherever
float64 arithmetic is IEEE-compliant; ``STABLESWAP_PARITY_RTOL`` in
:mod:`repro.market.weighted_kernel` documents the portable contract.
Keep every expression here in lockstep with
``batched_stableswap_d`` / ``batched_stableswap_y`` — reordering an
operand is a parity break, not a style fix.
"""

from __future__ import annotations

import math

from ..core.errors import InvalidReserveError, SolverConvergenceError
from ..core.types import Token
from .families import FAMILY_STABLESWAP
from .pool import TwoTokenPool

__all__ = [
    "DEFAULT_AMPLIFICATION",
    "DEFAULT_STABLESWAP_FEE",
    "STABLESWAP_MAX_ITER",
    "STABLESWAP_TOL",
    "StableSwapPool",
    "calculate_d",
    "calculate_y",
    "invariant_rate",
]

#: Curve mainnet stable pools commonly run A in the tens-to-hundreds.
DEFAULT_AMPLIFICATION = 80.0
#: Curve's classic stable-pool fee (4 bps) — lower than CPMM's 30 bps.
DEFAULT_STABLESWAP_FEE = 0.0004

#: Relative convergence tolerance shared by the scalar and batched
#: solvers (the iterations are Newton-quadratic; a handful of steps
#: reach it from the ``x + y`` / ``D`` warm starts).
STABLESWAP_TOL = 1e-14
#: Iteration cap shared by the scalar and batched solvers.
STABLESWAP_MAX_ITER = 256


def calculate_d(x: float, y: float, amp: float) -> float:
    """Invariant ``D`` of a two-asset stableswap pool.

    Fixed-point iteration on ``D`` (Curve's ``get_D``, specialized to
    ``n = 2`` so ``ann = 4 * amp``), starting from the constant-sum
    solution ``x + y``.  Operation order is pinned — the batched twin
    ``repro.market.solvers.batched_stableswap_d`` replays it per row.
    """
    s = x + y
    if s == 0.0:
        return 0.0
    ann = 4.0 * amp
    d = s
    for _ in range(STABLESWAP_MAX_ITER):
        d_p = d * d / (2.0 * x) * d / (2.0 * y)
        d_prev = d
        d = (ann * s + 2.0 * d_p) * d / ((ann - 1.0) * d + 3.0 * d_p)
        if abs(d - d_prev) <= STABLESWAP_TOL * max(1.0, d):
            return d
    raise SolverConvergenceError(
        f"stableswap D iteration did not converge for "
        f"x={x!r}, y={y!r}, amp={amp!r}"
    )


def calculate_y(x: float, d: float, amp: float) -> float:
    """Out-side reserve on the invariant curve, given in-side ``x``.

    Newton iteration on ``y**2 + (b - D) * y = c`` with
    ``b = x + D/ann`` and ``c = D**3 / (4 * x * ann)`` (Curve's
    ``get_y``, ``n = 2``), starting from ``D``.  Operation order is
    pinned — ``repro.market.solvers.batched_stableswap_y`` replays it.
    """
    ann = 4.0 * amp
    c = d * d / (2.0 * x) * d / (2.0 * ann)
    b = x + d / ann
    y = d
    for _ in range(STABLESWAP_MAX_ITER):
        y_prev = y
        y = (y * y + c) / (2.0 * y + b - d)
        if abs(y - y_prev) <= STABLESWAP_TOL * max(1.0, y):
            return y
    raise SolverConvergenceError(
        f"stableswap Y iteration did not converge for "
        f"x={x!r}, d={d!r}, amp={amp!r}"
    )


def invariant_rate(x: float, y: float, d: float, amp: float) -> float:
    """Curve slope ``-dy/dx`` at ``(x, y)`` on the invariant ``d``.

    ``(4A + D^3/(4 x^2 y)) / (4A + D^3/(4 x y^2))`` — implicit
    differentiation of the invariant.  The shared factor is computed as
    ``d/x * d/y * d/4`` so magnitudes stay near the reserve scale
    instead of cubing ``d`` (which overflows first); the batched twin
    uses the identical grouping.
    """
    ann = 4.0 * amp
    term = d / x * d / y * d / 4.0
    return (ann + term / x) / (ann + term / y)


class StableSwapPool(TwoTokenPool):
    """A two-token amplified-invariant (Curve-style) pool.

    A :class:`~repro.amm.pool.TwoTokenPool` that supplies the
    stableswap curve, so loops, strategies, replay, and the columnar
    market layer take it without special cases; the linear-fractional
    composition algebra is constant-product-specific and refuses it (its
    ``family`` is ``FAMILY_STABLESWAP``), routing scalar optimization
    through the generic chain-rule path.  The base's ratio-matched
    mint/burn keeps the pool's balance point, since ``D`` is homogeneous
    of degree 1 (scaling both reserves by ``k`` scales ``D`` by ``k``).

    Construction as :class:`~repro.amm.pool.TwoTokenPool`, plus:

    amplification:
        Curve's ``A`` (>= 1); higher values hug constant-sum longer.
        ``A -> inf`` is constant-sum, ``A`` small approaches
        constant-product behaviour.

    ``fee`` defaults to 4 bps and auto ids read ``spool-N``.
    """

    family = FAMILY_STABLESWAP
    id_prefix = "spool"

    __slots__ = ("_amplification",)

    def __init__(
        self,
        token0: Token,
        token1: Token,
        reserve0: float,
        reserve1: float,
        amplification: float = DEFAULT_AMPLIFICATION,
        fee: float = DEFAULT_STABLESWAP_FEE,
        pool_id: str | None = None,
    ):
        super().__init__(token0, token1, reserve0, reserve1, fee, pool_id)
        if not (math.isfinite(amplification) and amplification >= 1.0):
            raise InvalidReserveError(
                f"amplification must be finite and >= 1, got {amplification}"
            )
        self._amplification = float(amplification)

    def _params(self) -> dict:
        return {"amplification": self._amplification}

    @property
    def amplification(self) -> float:
        return self._amplification

    def __repr__(self) -> str:
        return (
            f"StableSwapPool({self._pool_id}: {self._reserve0:g} "
            f"{self._token0.symbol} / {self._reserve1:g} {self._token1.symbol}, "
            f"A={self._amplification:g}, fee={self._fee})"
        )

    # ------------------------------------------------------------------
    # quotes
    # ------------------------------------------------------------------

    def invariant(self) -> float:
        """Current invariant ``D`` of the pool."""
        return calculate_d(self._reserve0, self._reserve1, self._amplification)

    def quote_out(self, token_in: Token, amount_in: float) -> float:
        """Exact-in: ``dy = y - Y(x + gamma * dx)`` on the invariant.

        ``amount_in == 0`` short-circuits to exactly ``0.0`` — the
        Newton residual (~``STABLESWAP_TOL * y``) would otherwise make
        a zero-size quote nonzero; the batched kernel replicates the
        guard with a ``where`` mask so the paths stay in lockstep.
        """
        if not math.isfinite(amount_in) or amount_in < 0:
            raise ValueError(f"input amount must be >= 0 and finite, got {amount_in}")
        if amount_in == 0.0:
            return 0.0
        x, y = self.reserves_oriented(token_in)
        gamma = 1.0 - self._fee
        d = calculate_d(x, y, self._amplification)
        y_new = calculate_y(x + gamma * amount_in, d, self._amplification)
        return y - y_new

    def spot_price(self, token_in: Token) -> float:
        """Fee-adjusted marginal price at zero size: ``gamma * (-dy/dx)``."""
        x, y = self.reserves_oriented(token_in)
        d = calculate_d(x, y, self._amplification)
        return (1.0 - self._fee) * invariant_rate(x, y, d, self._amplification)

    def marginal_rate(self, token_in: Token, amount_in: float) -> float:
        """``d(amount_out)/d(amount_in)`` at trade size ``amount_in``:
        ``gamma`` times the curve slope at ``(x + gamma*t, Y(x + gamma*t))``.
        """
        if not math.isfinite(amount_in) or amount_in < 0:
            raise ValueError(f"input amount must be >= 0 and finite, got {amount_in}")
        x, y = self.reserves_oriented(token_in)
        gamma = 1.0 - self._fee
        d = calculate_d(x, y, self._amplification)
        x_cur = x + gamma * amount_in
        if amount_in == 0.0:
            y_cur = y
        else:
            y_cur = calculate_y(x_cur, d, self._amplification)
        return gamma * invariant_rate(x_cur, y_cur, d, self._amplification)
