"""Pool-family codes — the integer taxonomy behind columnar dispatch.

Every pool class advertises an integer ``family`` attribute; the market
layer stores it in a per-row ``MarketArrays.family`` column (and in the
shared-memory segment) and routes batch application, loop compilation,
kernel quoting, and bound rules through the per-family descriptor
registry in :mod:`repro.market.families`.  Adding a pool family means
adding a code here, a :class:`~repro.amm.pool.TwoTokenPool` subclass in
``amm/``, and one descriptor there — no per-layer boolean surgery.

Codes are part of the shared-memory layout contract (``np.int8``
column), so they are append-only: never renumber an existing family.
"""

from __future__ import annotations

__all__ = [
    "FAMILY_CPMM",
    "FAMILY_G3M",
    "FAMILY_NAMES",
    "FAMILY_STABLESWAP",
    "pool_family",
]

#: Constant-product (Uniswap-V2-style) pools — ``x * y = k``.
FAMILY_CPMM = 0
#: Weighted constant-mean (Balancer-style G3M) pools — ``x^wx * y^wy = k``.
FAMILY_G3M = 1
#: Amplified-invariant (Curve-style stableswap) pools.
FAMILY_STABLESWAP = 2

FAMILY_NAMES = {
    FAMILY_CPMM: "cpmm",
    FAMILY_G3M: "g3m",
    FAMILY_STABLESWAP: "stableswap",
}


def pool_family(pool) -> int:
    """The family code of a pool-like object.

    Objects without a ``family`` attribute (plain duck-typed pools in
    tests) count as CPMM.
    """
    return getattr(pool, "family", FAMILY_CPMM)
