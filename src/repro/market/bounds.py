"""Cheap, sound upper bounds on per-loop monetized profit.

The pruning layer's contract is a one-sided inequality: for every
compiled loop and every fixed-start strategy,

    ``monetized_bounds(...)[k]  >=  exact monetized profit of loop k``

whatever solver method produces the exact number.  The bound must be
*sound* (never below the exact value, so pruning can never hide a
book entry) but is free to be loose — it exists so the evaluator can
skip the expensive kernel/solver pass for loops that provably cannot
beat a threshold.

Derivation.  Every hop map ``f_j`` (CPMM, G3M, or stableswap) is
increasing, concave on ``[0, inf)``, and ``f_j(0) = 0``, so the
composed round-trip output satisfies two global inequalities:

* ``out(t) <= R * t`` where ``R = prod_j f_j'(0)`` — concavity puts
  every chord under the tangent at 0, and the slope at 0 composes
  multiplicatively.  The slope at 0 is per-family
  (``gamma * y/x`` for CPMM, scaled by ``w_in/w_out`` for G3M,
  ``gamma`` times the invariant-curve slope for stableswap); each
  family's rule is its descriptor's ``bound_factor`` hook in
  :mod:`repro.market.families`;
* ``out(t) < y_last`` — no hop can emit more than its out-side
  reserve.

Hence ``profit(t) = out(t) - t <= y_last * (R - 1) / R`` for every
``t`` (the two lines cross at ``t = y_last / R``), and ``R <= 1``
means no rotation of the loop is profitable at all.  ``R`` is a
*rotation invariant*: every rotation crosses the same hops in the
same orientation, so one product serves all rotations, and only the
out-side reserve feeding the start token (``y`` of the hop *before*
the start) varies per rotation.

For purely constant-product loops the composed map is exactly
``t -> a*t/(b + c*t)`` with ``R = a/b`` and ``c >= a / y_last``
(``c`` is a sum of positive terms of which ``gamma_1..gamma_n *
y_1..y_{n-1} = a / y_last`` is one), so the closed-form optimum
``(sqrt(a) - sqrt(b))^2 / c`` is itself bounded by

    ``profit* <= y_last * (1 - 1/sqrt(R))^2``

— quadratic in ``sqrt(R) - 1`` near the break-even point, far
tighter than the generic chord bound where it matters most (the sea
of barely-unprofitable loops).

Float soundness.  The inequalities above hold in real arithmetic;
two guards make them hold for the float64 numbers the kernels
actually produce.  ``R`` is first inflated by ``BOUND_RATE_MARGIN``
(the bound-side product and the kernel-side composed coefficients
round differently; their relative divergence is orders of magnitude
below the margin), and a loop is declared unprofitable — bound
exactly 0.0 — only when even the inflated rate stays <= 1, in which
case the kernel provably computes a non-positive profit and the
scalar assembly reports exactly 0.  Positive bounds are then widened
by ``BOUND_SLACK_RTOL`` relative + ``BOUND_SLACK_ABS`` absolute,
dominating the rounding of the bound expression itself.  NaN bounds
(degenerate reserves, missing prices) are *not* prunable: callers
must write prune masks as ``bound < threshold`` so NaN always falls
through to the exact path, which owns raising (or not) exactly like
the unpruned run.

Two halves.  :func:`rotation_profit_bounds` is the reserve half: one
flattened pass over every hop lane of the requested rows gives each
rotation's bound in start-token units, valid until a pool of the loop
moves.  :func:`monetized_bounds` is the price half: it values those
rotation bounds at a price vector for the rotation(s) a strategy
monetizes.  :meth:`~repro.market.BatchEvaluator.monetized_bounds` runs
both on every call; a service shard keeps the reserve half per loop and
re-runs only the price half while the loop's pools stand still.
"""

from __future__ import annotations

import numpy as np

from .arrays import MarketArrays
from .compile import CompiledLoopGroup
from .families import family_descriptor
from .kernel import oriented_reserves

__all__ = [
    "BOUND_RATE_MARGIN",
    "BOUND_SLACK_ABS",
    "BOUND_SLACK_RTOL",
    "below_threshold",
    "group_rate_bound",
    "monetized_bounds",
    "rotation_profit_bounds",
]

#: Relative inflation of the spot-rate product before the ``R <= 1``
#: unprofitability test.  The kernel derives its profitability test
#: (``a > b``) from the same per-hop factors multiplied in a different
#: order; the paths diverge by ~1 ulp per hop (~1e-15 relative for the
#: longest loops we compile), so a 1e-9 margin makes "inflated rate
#: <= 1" imply "kernel profit is exactly zero" with a wide moat.
BOUND_RATE_MARGIN = 1e-9

#: Slack widening every positive bound: the bound formulas round too,
#: and soundness must survive their own float evaluation.
BOUND_SLACK_RTOL = 1e-9
BOUND_SLACK_ABS = 1e-12

#: Arithmetic here mirrors the kernels' Python-float silence on
#: degenerate magnitudes (overflow to inf, 0/0 NaN): a NaN/inf bound
#: simply fails every prune test and the exact path decides.
_SILENT = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}


def group_rate_bound(
    arrays: MarketArrays, group: CompiledLoopGroup, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-loop spot-rate product and out-side reserve gathers of the
    group's loops at ``rows``.

    Returns ``(rate, y_out)`` where ``rate[k] = prod_j f_j'(0)`` over
    the base rotation's hops of loop ``rows[k]`` (a rotation invariant)
    and ``y_out[k, j]`` is the oriented out-side reserve of its base
    hop ``j`` — the reserve capping the token that rotation ``j+1``
    starts from.

    One flattened pass covers every hop lane (lane ``k*n + j`` is hop
    ``j`` of loop ``rows[k]``): the CPMM spot slope ``gamma * y/x`` is
    the vectorized base case, and each non-CPMM family present adjusts
    its own lanes through its descriptor's ``bound_factor`` hook (in
    family-code order, like the chain kernel's lanes), so a mixed
    group's stableswap ``D`` iteration runs once per pass.  Every lane
    sees the float operations a per-hop-column pass would apply, and
    the rate multiplies the hop columns in order, so each row's result
    does not depend on which other rows share the pass.
    """
    n = group.length
    pool_lanes = group.pool_idx[rows].ravel()
    orient_lanes = group.orient[rows].ravel()
    with np.errstate(**_SILENT):
        x, y, gamma = oriented_reserves(arrays, pool_lanes, orient_lanes)
        hop = gamma * y / x
        if group.mixed:
            fam = arrays.family[pool_lanes]
            for code in sorted(int(c) for c in np.unique(fam)):
                bound_factor = family_descriptor(code).bound_factor
                if bound_factor is not None:
                    hop = bound_factor(
                        arrays, fam == code, pool_lanes, orient_lanes,
                        x, y, gamma, hop,
                    )
        hop = hop.reshape(-1, n)
        rate = np.ones(len(hop), dtype=np.float64)
        for j in range(n):
            rate = rate * hop[:, j]
    return rate, y.reshape(-1, n)


def rotation_profit_bounds(
    arrays: MarketArrays, group: CompiledLoopGroup, rows: np.ndarray
) -> np.ndarray:
    """Upper bound on the single-token profit of every rotation of the
    group's loops at ``rows``.

    Returns a ``(len(rows), length)`` matrix whose column ``o`` bounds
    the start-token profit of rotation ``o`` (the rotation starting at
    ``loop.tokens[o]``).  Exactly 0.0 where the inflated rate product
    proves no profitable input exists; NaN (unprunable) where the rate
    is NaN, e.g. a stableswap ``D`` iteration that did not converge.
    The bounds read reserves only,
    so they hold until a pool of the loop moves, at any prices.
    """
    rate, y_out = group_rate_bound(arrays, group, rows)
    n = group.length
    with np.errstate(**_SILENT):
        r_eff = rate * (1.0 + BOUND_RATE_MARGIN)
        if group.mixed:
            # generic chord bound: y * (R - 1) / R
            factor = (r_eff - 1.0) / r_eff
        else:
            # CPMM closed-form bound: y * (1 - 1/sqrt(R))^2
            root = np.sqrt(np.maximum(r_eff, 1.0))
            factor = np.square(1.0 - 1.0 / root)
        # written so a NaN rate keeps a NaN (unprunable) factor
        factor = np.where(r_eff <= 1.0, 0.0, factor)
        # rotation o is fed by base hop (o - 1) mod n: its start token
        # is capped by that hop's out-side reserve
        y_into = y_out[:, np.arange(n) - 1]
        bounds = factor[:, None] * y_into
        positive = bounds > 0.0
        bounds = np.where(
            positive,
            bounds * (1.0 + BOUND_SLACK_RTOL) + BOUND_SLACK_ABS,
            bounds,
        )
    return bounds


def monetized_bounds(
    kind: str,
    strategy,
    group: CompiledLoopGroup,
    rows: np.ndarray,
    per_rotation: np.ndarray,
    price_vec: np.ndarray,
) -> np.ndarray:
    """Per-loop upper bound on the *monetized* profit under ``kind`` of
    the group's loops at ``rows``, from their rotation bounds
    ``per_rotation`` (:func:`rotation_profit_bounds` of those rows).

    This is the price half of the bound: ``per_rotation`` depends on
    reserves alone, so a caller that kept it may monetize it again at
    every new price vector.  ``kind`` is the evaluator's dispatch kind
    (``"traditional"`` / ``"maxprice"`` / ``"maxmax"``, see
    :func:`repro.market.batch.batch_kind`); the bound covers the
    rotation(s) that strategy would monetize.  ``price_vec`` holds the
    USD prices aligned with the arrays' tokens.  NaN where a price the
    strategy needs is missing — unprunable by construction, so the
    exact path keeps ownership of raising ``MissingPriceError``.
    """
    count = len(rows)
    price_matrix = price_vec[group.token_idx[rows]]
    k = np.arange(count)
    with np.errstate(**_SILENT):
        if kind == "traditional":
            start = strategy.start_token
            if start is None:
                offsets = np.zeros(count, dtype=np.intp)
            else:
                # missing start tokens raise in the exact pass; bound
                # those rows NaN so they always reach it
                token_offset = [group.token_offset[row] for row in rows.tolist()]
                offsets = np.asarray(
                    [offs.get(start, 0) for offs in token_offset], dtype=np.intp
                )
                absent = np.asarray([start not in offs for offs in token_offset])
            bounds = price_matrix[k, offsets] * per_rotation[k, offsets]
            if start is not None and absent.any():
                bounds = np.where(absent, np.nan, bounds)
            return bounds
        if kind == "maxprice":
            # the exact pass raises on *any* missing loop price; a NaN
            # anywhere in the row must make the row unprunable
            offsets = group.max_price_offsets(price_matrix, rows)
            bounds = price_matrix[k, offsets] * per_rotation[k, offsets]
            any_nan = np.isnan(price_matrix).any(axis=1)
            return np.where(any_nan, np.nan, bounds)
        # maxmax: the best monetized rotation is below the best
        # monetized per-rotation bound; a rotation bounded at exactly
        # 0.0 contributes 0.0 whatever its price, so NaN prices
        # propagate through max() only when their rotation's bound is
        # positive — the same rows where the exact pass would raise
        monetized = np.where(per_rotation == 0.0, 0.0, price_matrix * per_rotation)
        return np.max(monetized, axis=1)


def below_threshold(values: np.ndarray, threshold: float) -> np.ndarray:
    """The prune predicate: provably unable to enter a book whose
    K-th profit is ``threshold``.

    ``values <= 0`` is always prunable (the book only ranks strictly
    positive profits); otherwise the value must be strictly under the
    threshold.  Written so NaN compares False on both sides — NaN is
    never prunable.
    """
    values = np.asarray(values, dtype=np.float64)
    return (values < threshold) | (values <= 0.0)
