"""The traditional fixed-start strategy.

Prior work (paper refs [4], [5]) picks one start token — usually ETH —
and optimizes the input amount for the rotation that starts there.
The monetized profit is then ``P_start * (delta_out - delta_in)``.

Three interchangeable 1-D optimizers are exposed (`method=`):

* ``"closed_form"`` (default) — exact optimum via the composition
  algebra, the fastest and the reference for the others;
* ``"bisection"`` — the paper's stated method: bisect on the composed
  marginal rate crossing 1 (Fig. 1);
* ``"golden"`` — derivative-free golden-section search.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.errors import StrategyError
from ..core.loop import ArbitrageLoop, Rotation
from ..core.types import PriceMap, ProfitVector, Token
from ..optimize.bisection import maximize_by_derivative
from ..optimize.closed_form import optimize_composition
from ..optimize.golden import golden_section_maximize
from ..optimize.result import ScalarOptResult
from .base import Strategy, StrategyResult

__all__ = [
    "RotationQuote",
    "TraditionalStrategy",
    "optimize_rotation_by",
    "quote_profit_vector",
    "result_from_quote",
    "rotation_quote",
    "rotation_result",
]

_METHODS = ("closed_form", "bisection", "golden")


def optimize_rotation_by(rotation: Rotation, method: str = "closed_form") -> ScalarOptResult:
    """Optimal input for one rotation using the chosen 1-D optimizer.

    Rotations containing non-constant-product hops (weighted pools)
    always use the generic chain-rule bisection, whatever ``method``
    says — the composition algebra does not apply to them.
    """
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    try:
        comp = rotation.composition()
    except TypeError:
        from ..optimize.chain import optimize_rotation_chain

        return optimize_rotation_chain(rotation)
    if method == "closed_form":
        return optimize_composition(comp)
    if method == "bisection":
        # Start the bracket expansion near the input-side reserve scale
        # so only a few doublings are needed.
        first_pool = rotation.pools[0]
        hint = max(first_pool.reserve_of(rotation.start_token) * 1e-3, 1e-9)
        return maximize_by_derivative(
            profit=comp.profit, rate=comp.derivative, initial_hi=hint
        )
    # golden: bracket [0, hi] where hi generously exceeds the optimum.
    if not comp.is_profitable:
        return ScalarOptResult(x=0.0, value=0.0, iterations=0, converged=True)
    hi = comp.optimal_input() * 4.0 + 1.0  # safe unimodal bracket
    return golden_section_maximize(comp.profit, 0.0, hi)


@dataclass(frozen=True)
class RotationQuote:
    """The price-independent part of a fixed-start evaluation.

    Given fixed reserves, the optimal input, the per-hop amounts, and
    the single-token profit of a rotation do not depend on CEX prices
    — only the *monetization* does.  Splitting the two lets the
    engine's :class:`~repro.engine.cache.PoolStateCache` reuse this
    object across price points and across repeated evaluations of an
    unchanged loop.
    """

    amount_in: float
    hop_amounts: tuple[tuple[float, float], ...]
    profit: float
    iterations: int


def rotation_quote(rotation: Rotation, method: str = "closed_form") -> RotationQuote:
    """Optimize one rotation and capture its price-independent outcome."""
    opt = optimize_rotation_by(rotation, method=method)
    if opt.x <= 0.0:
        return RotationQuote(
            amount_in=opt.x, hop_amounts=(), profit=0.0, iterations=opt.iterations
        )
    amounts = rotation.simulate(opt.x)
    hops = tuple((amounts[i], amounts[i + 1]) for i in range(len(amounts) - 1))
    return RotationQuote(
        amount_in=opt.x,
        hop_amounts=hops,
        profit=amounts[-1] - amounts[0],
        iterations=opt.iterations,
    )


def quote_profit_vector(rotation: Rotation, quote: RotationQuote) -> ProfitVector:
    """The profit vector a quote implies (zero when no profitable input)."""
    if quote.amount_in <= 0.0:
        return ProfitVector.zero()
    return ProfitVector.single(rotation.start_token, quote.profit)


def result_from_quote(
    rotation: Rotation,
    quote: RotationQuote,
    prices: PriceMap | None,
    strategy_name: str = "traditional",
    method: str = "closed_form",
    *,
    profit: ProfitVector | None = None,
    monetized: float | None = None,
    extra_details: dict | None = None,
) -> StrategyResult:
    """Monetize a :class:`RotationQuote` into a full result.

    The single assembly point for both the scalar and the vectorized
    paths, so the result shape cannot diverge between them.  The
    vectorized grid kernels pass ``profit`` (one shared vector per
    rotation) and ``monetized`` (already computed in the array pass);
    ``prices`` may then be ``None``.
    """
    if profit is None:
        profit = quote_profit_vector(rotation, quote)
    if monetized is None:
        assert prices is not None, "need prices when monetized is not given"
        monetized = profit.monetize(prices)
    details = {"method": method, "iterations": quote.iterations}
    if extra_details:
        details.update(extra_details)
    return StrategyResult(
        strategy=strategy_name,
        loop=rotation.loop,
        profit=profit,
        monetized_profit=monetized,
        start_token=rotation.start_token,
        amount_in=quote.amount_in,
        hop_amounts=quote.hop_amounts,
        details=details,
    )


def rotation_result(
    rotation: Rotation,
    prices: PriceMap,
    strategy_name: str = "traditional",
    method: str = "closed_form",
    cache=None,
) -> StrategyResult:
    """Full :class:`StrategyResult` for a fixed rotation.

    When ``cache`` (a :class:`~repro.engine.cache.PoolStateCache`) is
    given, the optimization reuses a memoized quote whenever the
    rotation's reserves are unchanged.
    """
    if cache is not None:
        quote = cache.rotation_quote(rotation, method)
    else:
        quote = rotation_quote(rotation, method)
    return result_from_quote(
        rotation, quote, prices, strategy_name=strategy_name, method=method
    )


class TraditionalStrategy(Strategy):
    """Fixed-start arbitrage: optimize one rotation only.

    Parameters
    ----------
    start_token:
        The token to start from.  When ``None`` the loop's first token
        is used (matching how prior work always starts from a fixed
        numeraire).  Loops that do not contain the start token raise
        :class:`~repro.core.errors.StrategyError`.
    method:
        1-D optimizer: ``closed_form`` / ``bisection`` / ``golden``.
    """

    name = "traditional"

    def __init__(self, start_token: Token | None = None, method: str = "closed_form"):
        if method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
        self.start_token = start_token
        self.method = method

    def evaluate(self, loop: ArbitrageLoop, prices: PriceMap) -> StrategyResult:
        return self.evaluate_cached(loop, prices, None)

    def evaluate_cached(
        self, loop: ArbitrageLoop, prices: PriceMap, cache=None
    ) -> StrategyResult:
        rotation = self.rotation(loop)
        return rotation_result(
            rotation, prices, strategy_name=self.name, method=self.method, cache=cache
        )

    def rotation(self, loop: ArbitrageLoop) -> Rotation:
        """The rotation of ``loop`` this strategy trades: the one
        starting at its numeraire."""
        start = self.start_token if self.start_token is not None else loop.tokens[0]
        if start not in loop.tokens:
            raise StrategyError(
                f"start token {start} is not in {loop!r}; the traditional "
                "strategy needs a loop through its numeraire"
            )
        return loop.rotation_from(start)

    def __repr__(self) -> str:
        start = self.start_token.symbol if self.start_token else None
        return f"TraditionalStrategy(start_token={start!r}, method={self.method!r})"
