"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class.  Sub-hierarchies mirror the
subsystem layout described in ``DESIGN.md``:

* :class:`AmmError` — constant-product pool violations (bad reserves,
  over-withdrawal, invariant breaches);
* :class:`GraphError` — token-graph construction and loop enumeration;
* :class:`OptimizationError` — solver failures and infeasible programs;
* :class:`StrategyError` — strategy-level misuse (missing prices, empty
  loops);
* :class:`ExecutionError` — atomic plan execution failures;
* :class:`DataError` — snapshot / serialization problems;
* :class:`ReplayError` — event-log and market-replay problems.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "AmmError",
    "InvalidReserveError",
    "InsufficientLiquidityError",
    "InvalidFeeError",
    "InvariantViolationError",
    "UnknownTokenError",
    "GraphError",
    "LoopError",
    "DegenerateLoopError",
    "OptimizationError",
    "InfeasibleProgramError",
    "UnsupportedPoolFamilyError",
    "SolverConvergenceError",
    "StrategyError",
    "MissingPriceError",
    "InvalidPriceError",
    "ExecutionError",
    "PlanValidationError",
    "ExecutionRevertedError",
    "DataError",
    "SnapshotFormatError",
    "ReplayError",
    "EventLogFormatError",
    "EventOrderError",
    "UnknownPoolError",
]


class ReproError(Exception):
    """Base class for every exception raised by the library."""


class AmmError(ReproError):
    """Base class for AMM / liquidity-pool errors."""


class InvalidReserveError(AmmError, ValueError):
    """A pool was created or mutated with a non-positive reserve."""


class InsufficientLiquidityError(AmmError, ValueError):
    """A swap asked for more output than the pool reserve can supply."""


class InvalidFeeError(AmmError, ValueError):
    """Fee (tax) rate outside the half-open interval ``[0, 1)``."""


class InvariantViolationError(AmmError, RuntimeError):
    """The constant-product invariant ``x*y >= k`` was violated.

    This is an internal consistency check: if it fires, the swap math
    itself is broken, not the caller's input.
    """


class UnknownTokenError(AmmError, KeyError):
    """A token was referenced that the pool / registry does not hold."""


class GraphError(ReproError):
    """Base class for token-graph errors."""


class LoopError(GraphError, ValueError):
    """An arbitrage-loop object is structurally invalid."""


class DegenerateLoopError(LoopError):
    """A loop with fewer than two hops, or hops that do not chain."""


class OptimizationError(ReproError):
    """Base class for optimizer errors."""


class InfeasibleProgramError(OptimizationError, ValueError):
    """A convex program has no feasible point (or no interior point)."""


class UnsupportedPoolFamilyError(OptimizationError, ValueError):
    """A loop crosses a pool family the convex program has no hop
    feasibility constraint for (stableswap, today)."""


class SolverConvergenceError(OptimizationError, RuntimeError):
    """A solver exhausted its iteration budget without converging."""


class StrategyError(ReproError):
    """Base class for strategy-layer errors."""


class MissingPriceError(StrategyError, KeyError):
    """A CEX price was required for a token the oracle does not quote."""


class InvalidPriceError(StrategyError, ValueError):
    """A CEX price that is not finite or is negative (a price map entry
    or a streamed price tick)."""


class ExecutionError(ReproError):
    """Base class for execution-simulator errors."""


class PlanValidationError(ExecutionError, ValueError):
    """An execution plan is malformed (hops do not chain, bad amounts)."""


class ExecutionRevertedError(ExecutionError, RuntimeError):
    """Atomic execution failed and all pool state was rolled back."""


class DataError(ReproError):
    """Base class for snapshot / data errors."""


class SnapshotFormatError(DataError, ValueError):
    """A serialized snapshot could not be parsed."""


class ReplayError(ReproError):
    """Base class for event-log / market-replay errors."""


class EventLogFormatError(ReplayError, ValueError):
    """A serialized event log (JSONL) could not be parsed."""


class EventOrderError(ReplayError, ValueError):
    """Events were appended out of block order (blocks must be
    non-decreasing; a log is a time-ordered stream)."""


class UnknownPoolError(ReplayError, KeyError):
    """A replayed event referenced a pool id the market does not hold."""
