"""Columnar market state and the cross-loop batch quote kernels.

The :mod:`repro.market` layer sits between the object-level AMM model
(:mod:`repro.amm`) and the consumers that evaluate many loops per
step (:mod:`repro.engine`, :mod:`repro.replay`, :mod:`repro.service`):

* :class:`MarketArrays` — structure-of-arrays reserves/fees/weights/
  amplifications with pool and token index maps and a per-row family
  code, built from and round-trippable to a
  :class:`~repro.amm.registry.PoolRegistry` and refreshed from its
  pool objects with ``pull`` (events move reserves in :mod:`repro.amm`
  only);
* :func:`family_descriptor` / :class:`FamilyDescriptor`
  (:mod:`repro.market.families`) — the per-family dispatch registry
  (chain-kernel lanes, bound rule, object factory) every market-layer
  consumer routes through;
* :func:`compile_loops` / :class:`CompiledLoopGroup` — loops × hops
  pool-index and orientation matrices over a fixed arrays instance,
  grouped by (length, mixed);
* :func:`batch_quotes` — the closed-form kernel: optimal input, hop
  amounts, and single-token profit for one rotation of every compiled
  constant-product loop in a single vectorized pass, bit-identical to
  the scalar path;
* :func:`chain_quotes` / the ``cp_*`` iterative kernels — the same
  contract for loops crossing non-closed-form hops (G3M, stableswap,
  any mix) and the bisection/golden solver methods, built on the
  batched lockstep solvers of :mod:`repro.market.solvers` (parity
  documented at :data:`WEIGHTED_PARITY_RTOL` /
  :data:`STABLESWAP_PARITY_RTOL`);
* :class:`BatchEvaluator` — strategy dispatch (traditional / MaxPrice
  / MaxMax on any of the three solvers) with built-in scalar fallback
  only for non-batchable strategies, foreign pools, and tiny dirty
  sets;
* :class:`SharedMarketArrays` / :class:`SharedMarketView` — the same
  columns backed by a named ``multiprocessing.shared_memory`` segment
  under a single-writer seqlock, so N process shards map one market
  instead of copying it N times (see :mod:`repro.market.shm`).
"""

from .arrays import FEE_PPM_DENOMINATOR, MarketArrays, quantize_fee
from .batch import BatchEvaluator, EvaluatorStats, batch_kind
from .bounds import (
    BOUND_RATE_MARGIN,
    below_threshold,
    monetized_bounds,
    rotation_profit_bounds,
)
from .compile import CompiledLoopGroup, compile_loops
from .families import (
    FAMILY_DESCRIPTORS,
    FamilyDescriptor,
    family_descriptor,
    needs_chain_kernel,
)
from .integer_kernel import (
    WAD,
    IntegerBatchQuotes,
    base_units,
    exact_loop_quote,
    integer_batch_quotes,
    integer_hops,
)
from .kernel import BatchQuotes, batch_quotes, monetize_rotations, oriented_reserves
from .oracle import (
    ORACLE_DPS,
    OracleQuote,
    have_mpmath,
    oracle_monetized,
    oracle_quote,
    rel_error,
)
from .shm import (
    PoolHandle,
    SegmentLayoutError,
    SharedMarketArrays,
    SharedMarketView,
    pool_handles,
)
from .solvers import (
    batched_golden_section,
    batched_maximize_by_derivative,
    batched_stableswap_d,
    batched_stableswap_y,
)
from .weighted_kernel import (
    STABLESWAP_PARITY_RTOL,
    WEIGHTED_PARITY_RTOL,
    chain_quotes,
    cp_bisection_quotes,
    cp_golden_quotes,
    stableswap_quotes,
    weighted_quotes,
)

__all__ = [
    "BOUND_RATE_MARGIN",
    "BatchEvaluator",
    "BatchQuotes",
    "CompiledLoopGroup",
    "EvaluatorStats",
    "FAMILY_DESCRIPTORS",
    "FEE_PPM_DENOMINATOR",
    "FamilyDescriptor",
    "IntegerBatchQuotes",
    "MarketArrays",
    "ORACLE_DPS",
    "OracleQuote",
    "PoolHandle",
    "SharedMarketArrays",
    "SharedMarketView",
    "STABLESWAP_PARITY_RTOL",
    "SegmentLayoutError",
    "WAD",
    "WEIGHTED_PARITY_RTOL",
    "base_units",
    "batch_kind",
    "batch_quotes",
    "batched_golden_section",
    "batched_maximize_by_derivative",
    "batched_stableswap_d",
    "batched_stableswap_y",
    "below_threshold",
    "chain_quotes",
    "compile_loops",
    "cp_bisection_quotes",
    "cp_golden_quotes",
    "exact_loop_quote",
    "family_descriptor",
    "have_mpmath",
    "integer_batch_quotes",
    "integer_hops",
    "monetize_rotations",
    "monetized_bounds",
    "needs_chain_kernel",
    "oracle_monetized",
    "oracle_quote",
    "oriented_reserves",
    "pool_handles",
    "quantize_fee",
    "rel_error",
    "rotation_profit_bounds",
    "stableswap_quotes",
    "weighted_quotes",
]
