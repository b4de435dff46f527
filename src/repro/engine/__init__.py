"""Batched evaluation engine (DESIGN: one pipeline for loops ×
strategies × scenarios).

Public surface:

* :class:`EvaluationEngine` — the orchestrator every consumer routes
  through (sweeps, figures, harvest, simulation, CLI);
* :class:`PoolStateCache` — reserve-keyed memoization of
  price-independent rotation quotes;
* :class:`LoopUniverse` — topology-cached candidate loops with cheap
  per-block profitability re-filtering;
* the price-grid kernels in :mod:`repro.engine.vectorized`.
"""

from .cache import PoolStateCache, RotationQuote, rotation_state_key
from .core import EvaluationEngine, LoopUniverse
from .vectorized import maxmax_grid, maxprice_grid, traditional_grid

__all__ = [
    "EvaluationEngine",
    "LoopUniverse",
    "PoolStateCache",
    "RotationQuote",
    "maxmax_grid",
    "maxprice_grid",
    "rotation_state_key",
    "traditional_grid",
]
