"""Per-family dispatch for the columnar market layer.

Every pool row in a :class:`~repro.market.arrays.MarketArrays` carries
an integer family code (:data:`~repro.amm.families.FAMILY_CPMM` /
``FAMILY_G3M`` / ``FAMILY_STABLESWAP``); this module maps each code to
a :class:`FamilyDescriptor` bundling everything the stack needs to
handle that family without branching on type flags:

* ``chain_lanes`` — the hop-state builder the generic chain kernel
  (:mod:`repro.market.weighted_kernel`) instantiates per hop column
  for the family's lanes (``None`` for CPMM, whose formula is the
  kernel's vectorized base case);
* ``bound_factor`` — the per-hop spot-slope rule
  (``gamma * f'(0)`` per lane) the soundness bounds
  (:mod:`repro.market.bounds`) fold into the rate product;
* ``to_pool`` — the object-path factory that materializes a row as a
  pool object (``MarketArrays.to_registry``, and the batch evaluator's
  scalar route over reserve-less handles);
* flags: ``closed_form`` (the family composes linear-fractionally, so
  pure groups keep the closed-form kernel and the tighter sqrt profit
  bound), ``integer_exact`` (the family has an integer-arithmetic twin
  for ``--exact`` audits).

No hook applies events: swaps, mints and burns move reserves in the
:class:`~repro.amm.pool.TwoTokenPool` base alone, and the columns copy
the results (:meth:`~repro.market.MarketArrays.pull`).  Adding a family
= adding a ``TwoTokenPool`` subclass with its curve and parameters in
``amm/``, one descriptor here, and (if its math is iterative) a batched
lockstep solver in :mod:`repro.market.solvers`.
Nothing else in the market layer — not the arrays, the compiler, the
kernels, the bounds, nor the shared-memory layout — needs to know the
new family exists.

Parity policy per family
------------------------
* **CPMM** — ``+ - * / sqrt`` only: batch quotes are bit-exact against
  the scalar path by construction.
* **G3M** — routes through ``np.power``; array and scalar ``pow`` code
  paths may differ by an ulp (pow is not correctly rounded), so the
  portable contract is ``WEIGHTED_PARITY_RTOL``.
* **STABLESWAP** — the Newton iterations use only ``+ - * /`` and the
  batched twins replay the scalar operation order per row, so batch
  and scalar agree bit-for-bit on IEEE-754-compliant float64; the
  portable contract is ``STABLESWAP_PARITY_RTOL`` (both in
  :mod:`repro.market.weighted_kernel`).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..amm.families import (
    FAMILY_CPMM,
    FAMILY_G3M,
    FAMILY_NAMES,
    FAMILY_STABLESWAP,
    pool_family,
)
from ..amm.pool import Pool
from ..amm.stableswap import StableSwapPool, invariant_rate
from ..amm.weighted import WeightedPool
from .solvers import batched_stableswap_d, batched_stableswap_y

__all__ = [
    "FAMILY_DESCRIPTORS",
    "FamilyDescriptor",
    "family_descriptor",
    "needs_chain_kernel",
    "pool_family",
]

logger = logging.getLogger("repro.market.families")

#: Kernel arithmetic mirrors *Python-float* semantics, which are silent
#: on inf/NaN propagation (``1e308 * 10`` is ``inf``, not a warning);
#: numpy would emit RuntimeWarnings for the identical operations, so
#: expressions the scalar twin also computes run under this state.
_SCALAR_SILENCE = {"over": "ignore", "invalid": "ignore"}


def _pow(
    base: np.ndarray, exponent: np.ndarray, loud: np.ndarray | None = None
) -> np.ndarray:
    """Array twin of :func:`repro.amm.weighted.pinned_pow`: the same
    ``np.power`` ufunc with the same loud-overflow contract — a
    non-finite result from finite operands raises ``OverflowError``
    instead of seeding silent NaN quotes.

    ``loud`` restricts the overflow check to the rows whose *scalar*
    twin is the loud ``pinned_pow`` — in a mixed hop column the other
    families' lanes have plain Python-float scalar twins (``denom *
    denom`` overflowing silently to inf), so their lanes must stay
    silent here too for exception parity.
    """
    out = np.power(base, exponent)
    bad = ~np.isfinite(out)
    if loud is not None:
        bad &= loud
    if bad.any():
        bad &= np.isfinite(base) & np.isfinite(np.asarray(exponent))
        if bad.any():
            k = int(np.argmax(bad))
            logger.warning(
                "weighted-kernel pow overflowed in %d of %d lanes "
                "(first at row %d); degenerate-magnitude reserves fail "
                "loudly instead of seeding NaN quotes",
                int(bad.sum()),
                bad.size,
                k,
            )
            raise OverflowError(
                f"pow({float(np.ravel(base)[k])!r}, "
                f"{float(np.ravel(np.broadcast_to(exponent, out.shape))[k])!r}) "
                "overflows a float64"
            )
    return out


# ----------------------------------------------------------------------
# chain-kernel lane states
#
# The generic chain kernel computes the CPMM rate/out full-width as its
# base case, then asks each non-CPMM family present in the hop column
# for a lane state built here.  A lane state receives the *full-width*
# oriented gathers plus the boolean mask of its rows and combines its
# family's formula into the kernel's base arrays — the G3M lanes keep
# the historical full-width-then-``where`` evaluation (so existing
# weighted parity bits are untouched), the stableswap lanes gather to a
# packed subset (pure ``+ - * /``, bit-stable under any packing).
# ----------------------------------------------------------------------


class _G3MChainLanes:
    """G3M lanes of one hop column, loop-invariant rate factors
    precomputed: ``rate = y*r*γ*x^r / (x+γt)^(r+1)``,
    ``out = y*(1 - (x/(x+γt))^r)`` with ``r = w_in/w_out``."""

    __slots__ = ("mask", "x", "y", "gamma", "ratio", "w_num", "w_exp")

    def __init__(self, arrays, mask, pool_col, orient_col, x, y, gamma):
        self.mask = mask
        self.x, self.y, self.gamma = x, y, gamma
        w0, w1 = arrays.weight0, arrays.weight1
        w_in = np.where(orient_col, w0[pool_col], w1[pool_col])
        w_out = np.where(orient_col, w1[pool_col], w0[pool_col])
        self.ratio = w_in / w_out  # one division, like weight_ratio
        with np.errstate(**_SCALAR_SILENCE):
            self.w_num = y * self.ratio * gamma * _pow(x, self.ratio, loud=mask)
        self.w_exp = self.ratio + 1.0

    def rate_out(self, rate, out, current):
        """Fold this family's lanes into the hop's (rate, out) arrays.

        Runs under the kernel's ``_SCALAR_SILENCE`` errstate; ``rate``
        and ``out`` are kernel-owned temporaries.
        """
        eff = self.gamma * current
        denom = self.x + eff
        w_rate = self.w_num / _pow(denom, self.w_exp, loud=self.mask)
        # x/denom <= 1, so this pow can only underflow
        w_out = self.y * (1.0 - np.power(self.x / denom, self.ratio))
        return np.where(self.mask, w_rate, rate), np.where(self.mask, w_out, out)

    def out_only(self, out, current):
        eff = self.gamma * current
        denom = self.x + eff
        w_out = self.y * (1.0 - np.power(self.x / denom, self.ratio))
        return np.where(self.mask, w_out, out)


class _StableSwapChainLanes:
    """Stableswap lanes of one hop column.

    The invariant ``D`` depends only on the hop's (fixed) reserves, so
    it is solved once per kernel pass (batched, lockstep with the
    scalar ``calculate_d`` the object path re-runs per probe — same
    inputs, same bits); each rate/out probe then solves the out-side
    reserve ``Y(x + γt)`` with the batched lockstep Newton twin.  The
    ``t == 0`` lanes are masked to the scalar path's exact guards
    (``out = 0.0``, slope evaluated at the untouched reserves).
    """

    __slots__ = ("mask", "x", "y", "gamma", "amp", "d")

    def __init__(self, arrays, mask, pool_col, orient_col, x, y, gamma):
        self.mask = mask
        self.x = x[mask]
        self.y = y[mask]
        self.gamma = gamma[mask]
        self.amp = arrays.amp[pool_col[mask]]
        self.d = batched_stableswap_d(self.x, self.y, self.amp)

    def rate_out(self, rate, out, current):
        c = current[self.mask]
        x_c = self.x + self.gamma * c
        y_c = batched_stableswap_y(x_c, self.d, self.amp)
        zero = c == 0.0
        y_c = np.where(zero, self.y, y_c)
        r = self.gamma * invariant_rate(x_c, y_c, self.d, self.amp)
        o = np.where(zero, 0.0, self.y - y_c)
        rate[self.mask] = r
        out[self.mask] = o
        return rate, out

    def out_only(self, out, current):
        c = current[self.mask]
        x_c = self.x + self.gamma * c
        y_c = batched_stableswap_y(x_c, self.d, self.amp)
        out[self.mask] = np.where(c == 0.0, 0.0, self.y - y_c)
        return out


# ----------------------------------------------------------------------
# bound rate factors (gamma * f'(0) per lane)
# ----------------------------------------------------------------------


def _g3m_bound_factor(arrays, mask, pool_col, orient_col, x, y, gamma, hop):
    """Scale the spot slope by ``w_in/w_out``; rows of other families
    carry weights 1.0/1.0, so the ratio is an exact no-op for them
    (the historical full-width evaluation, bit-preserved)."""
    w0, w1 = arrays.weight0, arrays.weight1
    w_in = np.where(orient_col, w0[pool_col], w1[pool_col])
    w_out = np.where(orient_col, w1[pool_col], w0[pool_col])
    return hop * (w_in / w_out)


def _stableswap_bound_factor(arrays, mask, pool_col, orient_col, x, y, gamma, hop):
    """Replace the CPMM slope with ``gamma`` times the invariant-curve
    slope at zero size on this family's lanes.

    The stableswap hop map is increasing and concave with
    ``f(0) = 0`` (``Y`` is convex decreasing in ``x``), so the chord
    bound derivation carries over with this slope.  Non-convergent
    rows (degenerate-magnitude reserves) become NaN — unprunable, by
    the bounds module's contract.
    """
    x_s, y_s, gamma_s = x[mask], y[mask], gamma[mask]
    amp = arrays.amp[pool_col[mask]]
    d = batched_stableswap_d(x_s, y_s, amp, raise_on_fail=False)
    hop[mask] = gamma_s * invariant_rate(x_s, y_s, d, amp)
    return hop


# ----------------------------------------------------------------------
# object-path factories: row ``i`` of the columns as a fresh pool object
# (MarketArrays.to_registry, and the batch evaluator's scalar route over
# reserve-less handles — the caller names the pool, since a segment view
# carries no pool ids)
# ----------------------------------------------------------------------


def _cpmm_to_pool(arrays, i, pool_id, token0, token1):
    return Pool(
        token0,
        token1,
        float(arrays.reserve0[i]),
        float(arrays.reserve1[i]),
        fee=float(arrays.fee[i]),
        pool_id=pool_id,
    )


def _g3m_to_pool(arrays, i, pool_id, token0, token1):
    return WeightedPool(
        token0,
        token1,
        float(arrays.reserve0[i]),
        float(arrays.reserve1[i]),
        float(arrays.weight0[i]),
        float(arrays.weight1[i]),
        fee=float(arrays.fee[i]),
        pool_id=pool_id,
    )


def _stableswap_to_pool(arrays, i, pool_id, token0, token1):
    return StableSwapPool(
        token0,
        token1,
        float(arrays.reserve0[i]),
        float(arrays.reserve1[i]),
        amplification=float(arrays.amp[i]),
        fee=float(arrays.fee[i]),
        pool_id=pool_id,
    )


@dataclass(frozen=True)
class FamilyDescriptor:
    """Everything the market layer needs to dispatch one pool family.

    See the module docstring for the role of each hook.  ``None`` hooks
    mean "the kernel's base case handles it" and only occur for CPMM.
    """

    code: int
    name: str
    closed_form: bool
    integer_exact: bool
    chain_lanes: Callable | None
    bound_factor: Callable | None
    to_pool: Callable

    def __repr__(self) -> str:
        return f"FamilyDescriptor({self.name}, code={self.code})"


FAMILY_DESCRIPTORS: dict[int, FamilyDescriptor] = {
    FAMILY_CPMM: FamilyDescriptor(
        code=FAMILY_CPMM,
        name=FAMILY_NAMES[FAMILY_CPMM],
        closed_form=True,
        integer_exact=True,
        chain_lanes=None,
        bound_factor=None,
        to_pool=_cpmm_to_pool,
    ),
    FAMILY_G3M: FamilyDescriptor(
        code=FAMILY_G3M,
        name=FAMILY_NAMES[FAMILY_G3M],
        closed_form=False,
        integer_exact=False,
        chain_lanes=_G3MChainLanes,
        bound_factor=_g3m_bound_factor,
        to_pool=_g3m_to_pool,
    ),
    FAMILY_STABLESWAP: FamilyDescriptor(
        code=FAMILY_STABLESWAP,
        name=FAMILY_NAMES[FAMILY_STABLESWAP],
        closed_form=False,
        integer_exact=False,
        chain_lanes=_StableSwapChainLanes,
        bound_factor=_stableswap_bound_factor,
        to_pool=_stableswap_to_pool,
    ),
}


def family_descriptor(code: int) -> FamilyDescriptor:
    """The descriptor for a family code; raises on unknown codes so a
    corrupt family column fails loudly instead of mis-pricing."""
    try:
        return FAMILY_DESCRIPTORS[int(code)]
    except KeyError:
        raise KeyError(
            f"unknown pool family code {code!r}; known: "
            f"{sorted(FAMILY_DESCRIPTORS)}"
        ) from None


def needs_chain_kernel(families) -> bool:
    """True when a loop crossing exactly ``families`` must be quoted by
    the generic chain kernel (any family without a linear-fractional
    closed form breaks the composition algebra for the whole loop)."""
    return any(not family_descriptor(code).closed_form for code in families)
