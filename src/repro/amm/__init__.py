"""Two-token AMM substrate: constant-product, weighted and stableswap
pools (DESIGN.md S2/S3).

Public surface:

* pure constant-product swap math — :mod:`repro.amm.swap`;
* stateful pools — the shared base :class:`~repro.amm.pool.TwoTokenPool`
  and its families :class:`~repro.amm.pool.Pool` (CPMM),
  :class:`~repro.amm.weighted.WeightedPool` (G3M) and
  :class:`~repro.amm.stableswap.StableSwapPool`, each its curve and
  parameters; the integer-exact CPMM twin
  :class:`~repro.amm.integer.IntegerPool`;
* pool collections — :class:`~repro.amm.registry.PoolRegistry`;
* the linear-fractional composition algebra that makes single-rotation
  optimization closed-form — :class:`~repro.amm.composition.SwapComposition`.
"""

from .composition import IDENTITY, SwapComposition, compose_hops
from .events import (
    BlockEvent,
    BurnEvent,
    MarketEvent,
    MintEvent,
    PriceTickEvent,
    SwapEvent,
)
from .integer import (
    FEE_DENOMINATOR,
    FEE_NUMERATOR,
    IntegerPool,
    execute_loop,
    get_amount_in,
    get_amount_out,
    loop_quote_in,
    loop_quote_out,
)
from .families import (
    FAMILY_CPMM,
    FAMILY_G3M,
    FAMILY_NAMES,
    FAMILY_STABLESWAP,
    pool_family,
)
from .pool import DEFAULT_FEE, Pool, PoolSnapshot, TwoTokenPool
from .registry import PoolRegistry, RegistrySnapshot
from .stableswap import StableSwapPool
from .weighted import WeightedPool
from .swap import (
    amount_in,
    amount_out,
    effective_price,
    marginal_rate,
    max_amount_out,
    spot_price,
)

__all__ = [
    "BlockEvent",
    "BurnEvent",
    "DEFAULT_FEE",
    "FAMILY_CPMM",
    "FAMILY_G3M",
    "FAMILY_NAMES",
    "FAMILY_STABLESWAP",
    "FEE_DENOMINATOR",
    "FEE_NUMERATOR",
    "IDENTITY",
    "IntegerPool",
    "MarketEvent",
    "MintEvent",
    "Pool",
    "PriceTickEvent",
    "PoolRegistry",
    "PoolSnapshot",
    "RegistrySnapshot",
    "StableSwapPool",
    "SwapComposition",
    "SwapEvent",
    "TwoTokenPool",
    "WeightedPool",
    "amount_in",
    "amount_out",
    "compose_hops",
    "effective_price",
    "execute_loop",
    "get_amount_in",
    "get_amount_out",
    "loop_quote_in",
    "loop_quote_out",
    "marginal_rate",
    "max_amount_out",
    "pool_family",
    "spot_price",
]
