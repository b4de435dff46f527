"""Cross-loop batch quote kernel (closed-form, constant-product).

One vectorized pass evaluates a *rotation* of every compiled loop at
once: compose the linear-fractional hop maps down the hop axis (the
same ``a, b, c`` recurrence as
:meth:`repro.amm.composition.SwapComposition.then`, with numpy arrays
over loops instead of scalars), take the closed-form optimal input
``t* = (sqrt(a*b) - b) / c``, and re-simulate the hop amounts with the
exact-in swap formula.

Bit-exactness with the scalar path is by construction, not by
tolerance: every elementwise numpy operation executes the same
IEEE-754 double operation in the same order as the corresponding
Python-float expression in :mod:`repro.amm.composition` /
:mod:`repro.amm.swap` (and ``np.sqrt`` is correctly rounded exactly
like ``math.sqrt``).  The parity suites assert ``==``, never
``approx``.  Transcendental functions whose rounding is *not*
IEEE-pinned (``np.log`` vs ``math.log``) are deliberately kept out of
this kernel.

The closed form is computed *masked*: ``sqrt(a*b)`` runs only on the
rows where ``a > b`` (a profitable input exists).  The scalar path
never evaluates the formula for unprofitable rotations either, so the
masking both matches it op-for-op and keeps degenerate reserves (for
example products overflowing on hopeless rows) from raising spurious
``RuntimeWarning``s — the market-layer test modules escalate those to
errors.

Weighted (G3M) hops never reach this module: loops containing one are
compiled into ``weighted`` groups and quoted by
:mod:`repro.market.weighted_kernel` instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.errors import MissingPriceError
from ..strategies.traditional import RotationQuote
from .arrays import MarketArrays
from .compile import CompiledLoopGroup

__all__ = [
    "BatchQuotes",
    "batch_quotes",
    "compose_group",
    "gather_hops",
    "monetize_rotations",
    "oriented_reserves",
    "simulate_hops",
]


def oriented_reserves(
    arrays: MarketArrays, pool_col: np.ndarray, orient_col: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather one hop column's oriented ``(x, y, gamma)``: input-side
    reserve, output-side reserve, and fee retention of each pool, with
    the orientation flag selecting which physical reserve is which.
    Shared by the composing kernels and the bounds layer so every
    consumer reads reserves through the same gather."""
    pr0 = arrays.reserve0[pool_col]
    pr1 = arrays.reserve1[pool_col]
    x = np.where(orient_col, pr0, pr1)
    y = np.where(orient_col, pr1, pr0)
    gamma = 1.0 - arrays.fee[pool_col]
    return x, y, gamma


@dataclass(frozen=True)
class BatchQuotes:
    """Price-independent quotes for one rotation of each compiled loop.

    Row ``k`` quotes rotation ``offsets[k]`` (or the shared offset) of
    the group's ``k``-th loop: optimal input, round-trip profit in the
    start token, and the per-hop amounts ``amounts[k] = [in, after hop
    1, ..., out]``.  Rows with no profitable input hold zeros, exactly
    like :func:`repro.strategies.traditional.rotation_quote`.
    ``iterations`` carries the per-row solver iteration counts when an
    iterative kernel produced the quotes (``None`` — reported as 0 —
    for the closed form, matching the scalar solvers).
    """

    length: int
    amount_in: np.ndarray
    profit: np.ndarray
    amounts: np.ndarray
    iterations: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.amount_in)

    def quote(self, k: int) -> RotationQuote:
        """Materialize row ``k`` as the scalar path's RotationQuote."""
        amount_in = float(self.amount_in[k])
        iterations = (
            int(self.iterations[k]) if self.iterations is not None else 0
        )
        if amount_in <= 0.0:
            return RotationQuote(
                amount_in=amount_in, hop_amounts=(), profit=0.0,
                iterations=iterations,
            )
        row = self.amounts[k]
        hops = tuple(
            (float(row[j]), float(row[j + 1])) for j in range(self.length)
        )
        return RotationQuote(
            amount_in=amount_in,
            hop_amounts=hops,
            profit=float(self.profit[k]),
            iterations=iterations,
        )


def gather_hops(
    group: CompiledLoopGroup, offsets: int | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pool / orientation matrices with hop ``j`` = base hop ``offset+j``."""
    n = group.length
    if isinstance(offsets, (int, np.integer)):
        cols = (np.arange(n) + int(offsets)) % n
        return group.pool_idx[:, cols], group.orient[:, cols]
    offs = np.asarray(offsets, dtype=np.intp)
    cols = (offs[:, None] + np.arange(n)) % n
    rows = np.arange(len(group))[:, None]
    return group.pool_idx[rows, cols], group.orient[rows, cols]


def compose_group(
    arrays: MarketArrays,
    group: CompiledLoopGroup,
    offsets: int | np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray,
           list[np.ndarray], list[np.ndarray], list[np.ndarray]]:
    """Compose the rotation's linear-fractional coefficients per loop.

    Returns ``(a, b, c, xs, ys, gammas)``: the composed map
    ``t -> a*t / (b + c*t)`` for the requested rotation of every loop,
    plus the per-hop oriented reserve / fee gathers (hop ``j`` of the
    rotation) the callers reuse for re-simulation and bracket hints.
    Constant-product groups only — the recurrence mirrors
    ``SwapComposition.then`` op for op.
    """
    n = group.length
    count = len(group)
    pool_g, orient_g = gather_hops(group, offsets)

    xs: list[np.ndarray] = []
    ys: list[np.ndarray] = []
    gammas: list[np.ndarray] = []
    # compose IDENTITY.then(hop_0).then(hop_1)...: per hop, with
    # (a_h, b_h, c_h) = (y*gamma, x, gamma), the recurrence is
    #   c <- b_h*c + c_h*a ;  a <- a*a_h ;  b <- b*b_h
    # (c first: it reads the pre-update a, exactly like `then`).
    a = np.ones(count, dtype=np.float64)
    b = np.ones(count, dtype=np.float64)
    c = np.zeros(count, dtype=np.float64)
    for j in range(n):
        x, y, gamma = oriented_reserves(arrays, pool_g[:, j], orient_g[:, j])
        xs.append(x)
        ys.append(y)
        gammas.append(gamma)
        a_h = y * gamma
        c = x * c + gamma * a
        a = a * a_h
        b = b * x
    return a, b, c, xs, ys, gammas


def simulate_hops(
    t: np.ndarray,
    xs: list[np.ndarray],
    ys: list[np.ndarray],
    gammas: list[np.ndarray],
) -> np.ndarray:
    """Exact-in re-simulation of every hop at input ``t`` per loop;
    returns the ``(count, n+1)`` amounts matrix ``[in, after hop 1,
    ..., out]`` with the same per-element IEEE-754 sequence as
    :func:`repro.amm.swap.amount_out`."""
    n = len(xs)
    amounts = np.empty((t.shape[0], n + 1), dtype=np.float64)
    amounts[:, 0] = t
    current = t
    for j in range(n):
        eff = gammas[j] * current
        current = ys[j] * eff / (xs[j] + eff)
        amounts[:, j + 1] = current
    return amounts


def batch_quotes(
    arrays: MarketArrays,
    group: CompiledLoopGroup,
    offsets: int | np.ndarray,
) -> BatchQuotes:
    """Quote one rotation of every loop in ``group`` in one pass.

    ``offsets`` is either one shared rotation offset or a per-loop
    array of offsets (fixed-start strategies pick different rotations
    for different loops).
    """
    a, b, c, xs, ys, gammas = compose_group(arrays, group, offsets)

    # closed form: t* = (sqrt(a*b) - b) / c when a > b, else 0 —
    # evaluated only on the profitable rows (see module docstring)
    t = np.zeros(len(group), dtype=np.float64)
    profitable = np.nonzero(a > b)[0]
    if profitable.size:
        ap, bp = a[profitable], b[profitable]
        t[profitable] = (np.sqrt(ap * bp) - bp) / c[profitable]

    amounts = simulate_hops(t, xs, ys, gammas)
    profit = amounts[:, group.length] - amounts[:, 0]
    return BatchQuotes(
        length=group.length, amount_in=t, profit=profit, amounts=amounts
    )


def monetize_rotations(
    group: CompiledLoopGroup,
    rows: np.ndarray,
    offsets: np.ndarray,
    amount_in: np.ndarray,
    profit: np.ndarray,
    price_vec: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Monetize quoted rotations and pick each loop's best one.

    The one place the monetization rules live, shared by the batch
    evaluator's group passes and the service's shard re-monetization.
    Row ``k`` is the group's loop ``rows[k]``; its column ``c`` quotes
    the rotation starting at ``loop.tokens[offsets[k, c]]`` with
    ``amount_in[k, c]`` in and ``profit[k, c]`` (start-token units) out.
    ``price_vec`` holds USD prices aligned with the arrays' tokens
    (NaN = unquoted).

    Returns ``(best, monetized)``: ``monetized[k, c]`` is ``P_start *
    profit`` where a profitable input exists and 0.0 otherwise (the
    scalar path's empty profit vector never touches the price map, so
    rows without a profitable input must not read — or propagate NaN
    from — the price), and ``best[k]`` is the first maximal column,
    like the scalar strict-``>`` scan.  A profitable rotation whose
    start has no price raises :class:`MissingPriceError`, as the scalar
    path does.
    """
    start_prices = price_vec[group.token_idx[rows[:, None], offsets]]
    monetized = np.where(amount_in > 0.0, start_prices * profit, 0.0)
    bad = np.isnan(monetized)
    if bad.any():
        k = int(np.argmax(bad.any(axis=1)))
        token = group.loops[rows[k]].tokens[offsets[k, int(np.argmax(bad[k]))]]
        raise MissingPriceError(f"no CEX price for token {token.symbol!r}")
    return np.argmax(monetized, axis=1), monetized
