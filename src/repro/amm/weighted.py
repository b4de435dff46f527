"""Weighted constant-mean pools (Balancer-style G3M) — an extension.

The paper treats Uniswap V2's constant-product rule.  Its strategies,
however, only rely on each hop's swap function being concave and
increasing — which holds for the wider *geometric-mean* family used by
Balancer:

    invariant:  x^(w_x) * y^(w_y) = const
    exact-in:   dy = y * (1 - (x / (x + gamma*dx))^(w_x / w_y))
    spot price: gamma * (y / w_y) / (x / w_x)

With ``w_x == w_y`` this reduces exactly to the V2 formula (the test
suite pins that).  A :class:`WeightedPool` is a
:class:`~repro.amm.pool.TwoTokenPool` that supplies this curve and its
weights; the base holds the reserves, events, swaps, liquidity and
snapshots, so :class:`~repro.core.loop.ArbitrageLoop` and the
strategies work on mixed loops — *except* the linear-fractional
composition algebra, which is constant-product-specific; the generic
chain-rule optimizer (:mod:`repro.optimize.chain`) covers weighted
hops.  The pool's ``family`` code (``FAMILY_G3M``) lets the
composition path refuse weighted pools instead of silently
mis-pricing them.

All fractional powers route through :func:`pinned_pow` — the same
``np.power`` ufunc the columnar weighted kernel
(:mod:`repro.market.weighted_kernel`) applies array-wide — so the
scalar object path and the batched path agree bit for bit on any one
platform (see ``pinned_pow`` for why ``**`` would not).
"""

from __future__ import annotations

import logging
import math

import numpy as np

from ..core.errors import InvalidReserveError, UnknownTokenError
from ..core.types import Token
from .families import FAMILY_G3M
from .pool import DEFAULT_FEE, TwoTokenPool

__all__ = ["WeightedPool", "pinned_pow"]

logger = logging.getLogger("repro.amm.weighted")


def pinned_pow(base: float, exponent: float) -> float:
    """``base ** exponent`` via numpy's ``power`` ufunc.

    Unlike the other arithmetic in the AMM layer (whose ``+ - * /`` and
    ``sqrt`` are IEEE-754-pinned, making the constant-product kernels
    *bit-exact* against the object path), ``pow`` is not correctly
    rounded, and CPython's ``**`` and numpy's ``power`` can disagree by
    an ulp.  Every scalar weighted-pool quote therefore calls the same
    ufunc the batched weighted kernel applies array-wide: on any one
    platform the two paths then produce identical bits (the replay
    incremental-vs-full and service parity suites assert ``==``), while
    *cross*-platform reproducibility of weighted quotes is only
    guaranteed to the documented kernel tolerance.

    ``**``'s overflow contract is preserved: a non-finite result from
    finite operands raises ``OverflowError`` (where ``np.power`` alone
    would return ``inf`` and let a later ``inf/inf`` poison quotes
    with silent NaNs) — absurd-magnitude markets fail loudly on the
    scalar path, like the composition algebra's finiteness check does
    for constant-product coefficients.

    Callers pass ``base > 0`` (reserves and reserve ratios).  The
    common can't-overflow case — ``exponent * log2(base)`` safely
    under float64's 1024 exponent cap — skips the ``np.errstate``
    guard entirely; entering that context costs more than the pow
    itself, and this function sits inside the scalar chain
    optimizer's innermost loop.
    """
    if exponent * math.log2(base) < 1023.0:
        return float(np.power(base, exponent))
    with np.errstate(over="ignore"):
        result = float(np.power(base, exponent))
    if not math.isfinite(result) and math.isfinite(base) and math.isfinite(exponent):
        logger.warning(
            "pinned_pow(%r, %r) overflowed a float64; "
            "degenerate-magnitude market state fails loudly",
            base,
            exponent,
        )
        raise OverflowError(
            f"pow({base!r}, {exponent!r}) overflows a float64"
        )
    return result


class WeightedPool(TwoTokenPool):
    """A two-token weighted constant-mean pool.

    Construction as :class:`~repro.amm.pool.TwoTokenPool`, plus:

    weight0, weight1:
        Positive weights matching the argument order (re-mapped with
        the tokens if normalization swapped them); only their ratio
        matters (Balancer uses fractions summing to 1, e.g. an 80/20
        pool).

    ``fee`` defaults to 0.003 and auto ids read ``wpool-N``.
    """

    family = FAMILY_G3M
    id_prefix = "wpool"

    __slots__ = ("_weight0", "_weight1")

    def __init__(
        self,
        token0: Token,
        token1: Token,
        reserve0: float,
        reserve1: float,
        weight0: float = 0.5,
        weight1: float = 0.5,
        fee: float = DEFAULT_FEE,
        pool_id: str | None = None,
    ):
        super().__init__(token0, token1, reserve0, reserve1, fee, pool_id)
        if weight0 <= 0 or weight1 <= 0:
            raise InvalidReserveError(
                f"weights must be positive, got ({weight0}, {weight1})"
            )
        if self._token0 is not token0:  # normalization swapped the tokens
            weight0, weight1 = weight1, weight0
        self._weight0 = float(weight0)
        self._weight1 = float(weight1)

    def _params(self) -> dict:
        return {"weight0": self._weight0, "weight1": self._weight1}

    def weight_of(self, token: Token) -> float:
        if token == self._token0:
            return self._weight0
        if token == self._token1:
            return self._weight1
        raise UnknownTokenError(f"{token} is not in {self!r}")

    def weight_ratio(self, token_in: Token) -> float:
        """``w_in / w_out`` — the exponent in the swap formula."""
        return self.weight_of(token_in) / self.weight_of(self.other(token_in))

    def __repr__(self) -> str:
        return (
            f"WeightedPool({self._pool_id}: {self._reserve0:g} {self._token0.symbol}"
            f"@{self._weight0:g} / {self._reserve1:g} {self._token1.symbol}"
            f"@{self._weight1:g}, fee={self._fee})"
        )

    # ------------------------------------------------------------------
    # quotes
    # ------------------------------------------------------------------

    def quote_out(self, token_in: Token, amount_in: float) -> float:
        """Exact-in: ``dy = y * (1 - (x/(x + gamma*dx))^(w_x/w_y))``."""
        if not math.isfinite(amount_in) or amount_in < 0:
            raise ValueError(f"input amount must be >= 0 and finite, got {amount_in}")
        if amount_in == 0.0:
            return 0.0
        x, y = self.reserves_oriented(token_in)
        gamma = 1.0 - self._fee
        ratio = self.weight_ratio(token_in)
        base = x / (x + gamma * amount_in)
        return y * (1.0 - pinned_pow(base, ratio))

    def spot_price(self, token_in: Token) -> float:
        """Fee-adjusted marginal price at zero size:
        ``gamma * (y / w_y) / (x / w_x)``."""
        x, y = self.reserves_oriented(token_in)
        w_in = self.weight_of(token_in)
        w_out = self.weight_of(self.other(token_in))
        return (1.0 - self._fee) * (y / w_out) / (x / w_in)

    def marginal_rate(self, token_in: Token, amount_in: float) -> float:
        """``d(amount_out)/d(amount_in)`` at trade size ``amount_in``:
        ``y * r * gamma * x^r / (x + gamma*t)^(r+1)`` with
        ``r = w_in/w_out``."""
        if not math.isfinite(amount_in) or amount_in < 0:
            raise ValueError(f"input amount must be >= 0 and finite, got {amount_in}")
        x, y = self.reserves_oriented(token_in)
        gamma = 1.0 - self._fee
        r = self.weight_ratio(token_in)
        return (
            y * r * gamma * pinned_pow(x, r)
            / pinned_pow(x + gamma * amount_in, r + 1.0)
        )
