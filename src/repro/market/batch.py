"""Strategy-level batch evaluation over columnar market state.

:class:`BatchEvaluator` is the piece the engine and the service's
shard workers (which incremental replay also runs) share: a fixed loop
list compiled once against a :class:`~repro.market.arrays.MarketArrays`,
plus ``evaluate_many``, which quotes every requested loop in one kernel
pass per rotation and returns
:class:`~repro.strategies.base.StrategyResult` objects bit-identical
to :meth:`~repro.strategies.base.Strategy.evaluate` loop by loop.
Every group pass is two steps: quote the rotations the strategy
monetizes (``quote_rotations`` stops there and hands the
price-independent half to the service's shards, which keep it), then
monetize and select through the shared
:func:`~repro.market.kernel.monetize_rotations`.  ``evaluate_many``
quotes every loop it is asked for; pruning belongs to the callers —
``monetized_bounds`` gives each loop a sound profit upper bound, and
``evaluate_top_k`` and the shard workers decide from it what to quote.
Bounds split the same way: ``rotation_bounds`` runs the kernel pass
for the reserve half, and :func:`~repro.market.bounds.monetized_bounds`
values it at a price vector.  ``monetized_bounds`` runs both; the
shards keep the reserve half per loop, like their quotes, and value it
again on every tick.

Dispatch is total over the paper's three fixed-start strategies: each
compiled group routes to the kernel matching its family and the
strategy's solver —

* constant-product group × ``closed_form`` → the bit-exact closed-form
  kernel (:func:`~repro.market.kernel.batch_quotes`);
* constant-product group × ``bisection`` / ``golden`` → the batched
  iterative kernels (:mod:`~repro.market.weighted_kernel`);
* weighted-containing group × any method → the chain-rule weighted
  kernel (the scalar path routes those rotations to the chain
  optimizer whatever the method says, and so does the batch path).

The remaining scalar fallbacks are structural, not family-based:

* strategies without a batch kind (convex, subclasses overriding
  evaluation, unknown solver strings) run loop by loop through
  ``evaluate_cached``;
* loops crossing pools outside the arrays stay scalar;
* dirty sets smaller than ``min_batch`` skip the kernel — below a few
  loops, fixed numpy dispatch overhead beats the win, and the scalar
  path can hit the reserve-keyed cache.

Loops compiled over reserve-less :class:`~repro.market.PoolHandle`
stand-ins (the service's shard workers) take the scalar route too:
their pool objects are materialised from the current column rows for
the duration of the call.

Whatever the route, the numbers are the same; only the wall-clock
differs.  :attr:`BatchEvaluator.stats` counts kernel-vs-scalar routing
so consumers can assert no loop is *forced* scalar.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..core.errors import MissingPriceError, StrategyError
from ..core.loop import ArbitrageLoop, Rotation
from ..core.types import PriceMap
from ..telemetry import trace
from ..strategies.base import Strategy, StrategyResult
from ..strategies.maxmax import MaxMaxStrategy
from ..strategies.maxprice import MaxPriceStrategy
from ..strategies.traditional import (
    TraditionalStrategy,
    quote_profit_vector,
    result_from_quote,
    rotation_quote,
)
from ..amm.families import pool_family
from .arrays import MarketArrays
from .bounds import monetized_bounds as _group_monetized_bounds, rotation_profit_bounds
from .compile import CompiledLoopGroup, compile_loops
from .families import family_descriptor
from .integer_kernel import (
    WAD,
    base_units,
    exact_loop_quote,
    integer_batch_quotes,
)
from .kernel import BatchQuotes, batch_quotes, monetize_rotations
from .shm import PoolHandle
from .weighted_kernel import (
    chain_quotes,
    cp_bisection_quotes,
    cp_golden_quotes,
)

__all__ = [
    "BatchEvaluator",
    "EvaluatorStats",
    "batch_kind",
]

#: Below this many loops per compiled group, the kernel's fixed numpy
#: dispatch overhead outweighs the vectorization win; such slices run
#: scalar (where they may also hit the rotation cache).
DEFAULT_MIN_BATCH = 8

#: Solver methods the batch kernels reproduce exactly (the scalar
#: optimizers' closed form, derivative bisection, and golden-section
#: search all have array-wide lockstep twins).
_BATCH_METHODS = ("closed_form", "bisection", "golden")

#: quote_fn(arrays, group, offsets) -> BatchQuotes
QuoteFn = Callable[
    [MarketArrays, CompiledLoopGroup, "int | np.ndarray"], BatchQuotes
]


def batch_kind(strategy: Strategy) -> str | None:
    """The kernel dispatch kind of a strategy, or ``None`` if it must
    stay scalar.

    Only the exact fixed-start classes qualify (subclasses may override
    evaluation arbitrarily), on any of the three solver methods — each
    method has a batched twin reproducing its optima *and* its reported
    iteration counts.
    """
    if type(strategy) is TraditionalStrategy and strategy.method in _BATCH_METHODS:
        return "traditional"
    if type(strategy) is MaxPriceStrategy and strategy.method in _BATCH_METHODS:
        return "maxprice"
    if type(strategy) is MaxMaxStrategy and strategy.method in _BATCH_METHODS:
        return "maxmax"
    return None


def _quote_fn(group: CompiledLoopGroup, method: str) -> QuoteFn:
    """The kernel quoting ``group`` under solver ``method`` (see module
    docstring for the dispatch table)."""
    if group.mixed:
        return chain_quotes
    if method == "closed_form":
        return batch_quotes
    if method == "bisection":
        return cp_bisection_quotes
    return cp_golden_quotes


@dataclass
class EvaluatorStats:
    """Cumulative routing counters of one :class:`BatchEvaluator`.

    ``kernel_loops`` / ``scalar_loops`` count loop evaluations answered
    by a batch kernel vs the per-loop object path (small-slice and
    non-batchable-strategy fallbacks land in the latter);
    ``kernel_passes`` counts vectorized group passes.  ``pruned_loops``
    counts evaluations answered by the bound pass alone (no exact
    quote ran) and ``bound_passes`` the kernel rotation-bound passes
    (:meth:`BatchEvaluator.rotation_bounds`, one per compiled group per
    call); re-monetizing bounds a caller kept adds none.
    """

    kernel_loops: int = 0
    scalar_loops: int = 0
    kernel_passes: int = 0
    pruned_loops: int = 0
    bound_passes: int = 0

    def reset(self) -> None:
        self.kernel_loops = self.scalar_loops = self.kernel_passes = 0
        self.pruned_loops = self.bound_passes = 0

    def to_dict(self) -> dict:
        return {
            "kernel_loops": self.kernel_loops,
            "scalar_loops": self.scalar_loops,
            "kernel_passes": self.kernel_passes,
            "pruned_loops": self.pruned_loops,
            "bound_passes": self.bound_passes,
        }

    def publish(self, registry, **labels) -> None:
        """Mirror these lifetime totals into ``registry`` counters
        (``evaluator_kernel_loops`` etc.).  The hot path keeps plain
        int attributes; syncing happens at publish points — scrapes,
        report generation — via :meth:`~repro.telemetry.Counter.set`."""
        for name, value in self.to_dict().items():
            registry.counter(f"evaluator_{name}", **labels).set(value)


class BatchEvaluator:
    """A fixed loop list compiled against columnar market state.

    Parameters
    ----------
    loops:
        The loop sequence this evaluator answers for; ``indices``
        passed to :meth:`evaluate_many` are positions into it.
    arrays:
        Columnar reserves the compiled hop matrices address.  When
        omitted, arrays are built over exactly the pools the loops
        cross, which must then be one object per pool id (two distinct
        objects sharing an id raise ``ValueError``).  The caller owns
        keeping them fresh (see :meth:`MarketArrays.pull`).
    min_batch:
        Smallest per-group slice worth a kernel pass.
    exact:
        Audit every float result in contract integer arithmetic: each
        returned result gains ``details["exact"]`` — the base-unit
        amounts the chain would actually pay and return for the
        float-optimal input, computed by the columnar integer kernel
        (:mod:`repro.market.integer_kernel`) for compiled loops and
        the sequential :class:`~repro.amm.integer.IntegerPool` path
        for fallbacks.  Exact mode also disables bound pruning — the
        bounds are float statements, so every row gets the ``+inf``
        vacuous bound and is always quoted in full.
    exact_scale:
        Base units per token in exact mode (default ``10**18``, wei).
    """

    def __init__(
        self,
        loops: Sequence[ArbitrageLoop],
        arrays: MarketArrays | None = None,
        min_batch: int = DEFAULT_MIN_BATCH,
        *,
        exact: bool = False,
        exact_scale: int = WAD,
    ):
        self.loops: tuple[ArbitrageLoop, ...] = tuple(loops)
        if arrays is None:
            pools: dict[str, object] = {}
            for loop in self.loops:
                for pool in loop.pools:
                    if pools.setdefault(pool.pool_id, pool) is not pool:
                        # one row per id: the second object's reserves
                        # would be quoted on the first one's
                        raise ValueError(
                            f"two distinct pool objects share id "
                            f"{pool.pool_id!r}; build the loops from one "
                            "registry or pass arrays"
                        )
            arrays = MarketArrays(pools.values())
        self.arrays = arrays
        self.min_batch = min_batch
        self.exact = exact
        self.exact_scale = exact_scale
        self.stats = EvaluatorStats()
        self.groups, self.fallback_positions = compile_loops(
            self.loops, arrays
        )
        self._where: dict[int, tuple[int, int]] = {}
        for gi, group in enumerate(self.groups):
            for row, position in enumerate(group.positions):
                self._where[int(position)] = (gi, row)

    def __repr__(self) -> str:
        compiled = sum(len(g) for g in self.groups)
        mixed = sum(len(g) for g in self.groups if g.mixed)
        return (
            f"BatchEvaluator({len(self.loops)} loops: {compiled} compiled "
            f"({mixed} mixed) in {len(self.groups)} group(s), "
            f"{len(self.fallback_positions)} scalar-only)"
        )

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def monetized_bounds(
        self,
        strategy: Strategy,
        prices: PriceMap | np.ndarray,
        indices: Sequence[int] | None = None,
    ) -> np.ndarray:
        """Sound upper bound on each loop's monetized profit under
        ``strategy`` (see :mod:`repro.market.bounds`): entry ``i``
        bounds ``indices[i]``.  ``prices`` is a price map or a price
        vector already aligned with the arrays' tokens (NaN =
        unquoted).  Both halves run: :meth:`rotation_bounds` on the
        current reserves, then :func:`~repro.market.bounds.monetized_bounds`
        at ``prices``.

        ``+inf`` — the vacuous bound — where no cheap sound bound
        exists: scalar-fallback loops and non-batchable strategies.
        NaN rows (degenerate reserves / missing prices) are likewise
        never prunable; callers must test ``bound < threshold`` (or
        :func:`~repro.market.bounds.below_threshold`) so both fall
        through to the exact path.
        """
        positions = (
            list(indices) if indices is not None else list(range(len(self.loops)))
        )
        out = np.full(len(positions), np.inf, dtype=np.float64)
        if self.exact:
            # the monotone bounds are float statements; integer rows
            # keep the +inf vacuous bound so pruning can never skip a
            # quote that exact mode must audit
            return out
        kind = batch_kind(strategy)
        if kind is None:
            return out
        by_group: dict[int, tuple[list[int], list[int]]] = {}
        for i, position in enumerate(positions):
            where = self._where.get(position)
            if where is not None:
                sel, rows = by_group.setdefault(where[0], ([], []))
                sel.append(i)
                rows.append(where[1])
        rows_by_group = {
            gi: np.asarray(rows, dtype=np.intp) for gi, (_, rows) in by_group.items()
        }
        per_rotation = self.rotation_bounds(rows_by_group)
        price_vec = self._price_vector(prices)
        for gi, (sel, _) in by_group.items():
            out[sel] = _group_monetized_bounds(
                kind, strategy, self.groups[gi], rows_by_group[gi],
                per_rotation[gi], price_vec,
            )
        return out

    def rotation_bounds(
        self, rows_by_group: dict[int, np.ndarray]
    ) -> dict[int, np.ndarray]:
        """The reserve half of the bounds: for each compiled group
        index, the :func:`~repro.market.bounds.rotation_profit_bounds`
        matrix of the group's loops at the given rows — one kernel pass
        per group, counted in ``stats.bound_passes``.  The matrices
        read reserves only, so they stay valid until a pool of the
        loop moves."""
        with trace.span(
            "kernel.bounds",
            loops=sum(len(rows) for rows in rows_by_group.values()),
            groups=len(rows_by_group),
        ):
            self.stats.bound_passes += len(rows_by_group)
            return {
                gi: rotation_profit_bounds(self.arrays, self.groups[gi], rows)
                for gi, rows in rows_by_group.items()
            }

    def _price_vector(self, prices: PriceMap | np.ndarray) -> np.ndarray:
        """``prices`` aligned with the arrays' tokens, built once per
        call (a vector passes through)."""
        if isinstance(prices, np.ndarray):
            return prices
        return self.arrays.price_vector(prices)

    def evaluate_many(
        self,
        strategy: Strategy,
        prices: PriceMap,
        indices: Sequence[int] | None = None,
        cache=None,
    ) -> list[StrategyResult]:
        """Evaluate ``strategy`` on the loops at ``indices`` (all loops
        when ``None``); result ``i`` answers ``indices[i]``.

        Bit-identical to ``[strategy.evaluate_cached(loops[i], prices,
        cache) for i in indices]`` — the kernels handle eligible
        slices, everything else falls back to exactly that call.
        """
        positions = (
            list(indices) if indices is not None else list(range(len(self.loops)))
        )
        kind = batch_kind(strategy)
        results: dict[int, StrategyResult] = {}
        if kind is not None and positions:
            with trace.span("kernel.batch_quotes", loops=len(positions)) as sp:
                price_vec = self._price_vector(prices)
                by_group: dict[int, list[int]] = {}
                for position in positions:
                    where = self._where.get(position)
                    if where is not None:
                        by_group.setdefault(where[0], []).append(where[1])
                for gi, rows in by_group.items():
                    if len(rows) < self.min_batch:
                        continue  # scalar fallback below
                    group = self.groups[gi]
                    sub = group if len(rows) == len(group) else group.rows(rows)
                    quote_fn = _quote_fn(group, strategy.method)
                    self.stats.kernel_passes += 1
                    for position, result in zip(
                        sub.positions,
                        _evaluate_group(
                            kind, strategy, self.arrays, sub, price_vec, quote_fn
                        ),
                    ):
                        results[int(position)] = result
                sp.set(kernel=len(results), passes=len(by_group))
        self.stats.kernel_loops += len(results)
        n_scalar = len(positions) - len(results)
        self.stats.scalar_loops += n_scalar
        with trace.span("kernel.scalar_quotes", loops=n_scalar) if n_scalar else trace.NOOP:
            for position in positions:
                if position not in results:
                    results[position] = strategy.evaluate_cached(
                        self._scalar_loop(position), prices, cache
                    )
        if self.exact:
            self._annotate_exact(results)
        return [results[position] for position in positions]

    def quote_rotations(
        self,
        strategy: Strategy,
        price_vec: np.ndarray,
        indices: Sequence[int],
    ) -> dict[int, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """The price-independent half of ``strategy`` on the loops at
        ``indices``: every rotation the strategy would monetize, quoted
        but not monetized.

        Returns ``{group index: (rows, offsets, amount_in, profit)}``
        over the compiled groups the loops fall in: row ``k`` is the
        group's loop ``rows[k]``, and column ``c`` quotes its rotation
        ``offsets[k, c]`` — every rotation under MaxMax, the fixed or
        max-price start under Traditional / MaxPrice (one column,
        chosen from ``price_vec``).  :func:`monetize_rotations` turns
        them into the monetized profit :meth:`evaluate_many` reports,
        at any later price vector.

        Routes like :meth:`evaluate_many`: a kernel pass per group
        slice of at least ``min_batch`` loops, :func:`rotation_quote`
        on pool objects materialized from the columns for the rest.
        Only for strategies with a :func:`batch_kind` over compiled
        loops.
        """
        kind = batch_kind(strategy)
        if kind is None:
            raise ValueError(
                f"{strategy!r} has no batch kind to quote rotations for"
            )
        by_group: dict[int, list[int]] = {}
        for position in indices:
            gi, row = self._where[position]
            by_group.setdefault(gi, []).append(row)
        kernel = {
            gi: rows
            for gi, rows in by_group.items()
            if len(rows) >= self.min_batch
        }
        n_kernel = sum(len(rows) for rows in kernel.values())
        n_scalar = len(indices) - n_kernel
        out = {}
        with (
            trace.span("kernel.batch_quotes", loops=n_kernel)
            if kernel
            else trace.NOOP
        ):
            for gi, rows in kernel.items():
                group = self.groups[gi]
                sub = group if _all_rows(rows, group) else group.rows(rows)
                offsets, _, amount_in, profit = _quote_group(
                    kind, strategy, self.arrays, sub, price_vec,
                    _quote_fn(group, strategy.method),
                )
                self.stats.kernel_passes += 1
                out[gi] = (
                    np.asarray(rows, dtype=np.intp), offsets, amount_in, profit
                )
        with (
            trace.span("kernel.scalar_quotes", loops=n_scalar)
            if n_scalar
            else trace.NOOP
        ):
            for gi, rows in by_group.items():
                if gi in kernel:
                    continue
                group = self.groups[gi]
                offsets = _rotation_offsets(
                    kind, strategy, group.rows(rows), price_vec
                )
                amount_in = np.empty(offsets.shape, dtype=np.float64)
                profit = np.empty(offsets.shape, dtype=np.float64)
                for k, row in enumerate(rows):
                    loop = self._scalar_loop(int(group.positions[row]))
                    for c, offset in enumerate(offsets[k]):
                        quote = rotation_quote(
                            Rotation(loop, int(offset)), strategy.method
                        )
                        amount_in[k, c] = quote.amount_in
                        profit[k, c] = quote.profit
                out[gi] = (
                    np.asarray(rows, dtype=np.intp), offsets, amount_in, profit
                )
        self.stats.kernel_loops += n_kernel
        self.stats.scalar_loops += n_scalar
        return out

    def _scalar_loop(self, position: int) -> ArbitrageLoop:
        """The loop the scalar route quotes at ``position``.

        Loops over live pool objects are quoted as they are.  Loops over
        reserve-less :class:`~repro.market.PoolHandle` stand-ins get
        pool objects materialised on demand from the current column
        rows, through each family's ``to_pool`` — so a caller reading
        the columns under a consistency bracket quotes the same state
        on both routes, and nothing reserve-carrying outlives the call.
        """
        loop = self.loops[position]
        if not isinstance(loop.pools[0], PoolHandle):
            return loop
        group, row = self._where[position]
        pools = [
            family_descriptor(handle.family).to_pool(
                self.arrays, int(i), handle.pool_id, handle.token0, handle.token1
            )
            for handle, i in zip(loop.pools, self.groups[group].pool_idx[row])
        ]
        return ArbitrageLoop(loop.tokens, pools)

    def _annotate_exact(self, results: dict[int, StrategyResult]) -> None:
        """Attach ``details["exact"]`` to every fixed-start result.

        Compiled loops go through the columnar integer kernel in one
        pass per group (per-row rotation offsets recovered from each
        result's start token); fallback loops take the sequential
        :class:`IntegerPool` path.  Both read the same conversions
        (:func:`base_units`, ppm fee quantization), so the two routes
        are bit-identical — the integer parity suite pins that.
        Results without a fixed start (convex strategy) are left
        unannotated: there is no single rotation to audit.
        """
        scale = self.exact_scale
        by_group: dict[int, list[int]] = {}
        scalar_positions: list[int] = []
        for position, result in results.items():
            if result.amount_in is None or result.start_token is None:
                continue
            # families without an integer-arithmetic twin (G3M's
            # fractional pow, stableswap's float Newton solve) keep
            # the float quote with the oracle error bar
            if any(
                not family_descriptor(pool_family(pool)).integer_exact
                for pool in result.loop.pools
            ):
                continue
            where = self._where.get(position)
            if where is not None:
                by_group.setdefault(where[0], []).append(position)
            else:
                scalar_positions.append(position)
        for gi, group_positions in by_group.items():
            group = self.groups[gi]
            rows = [self._where[p][1] for p in group_positions]
            sub = group if _all_rows(rows, group) else group.rows(rows)
            offsets = np.asarray(
                [
                    sub.token_offset[k][results[p].start_token]
                    for k, p in enumerate(group_positions)
                ],
                dtype=np.intp,
            )
            amounts_in = [
                base_units(results[p].amount_in, scale)
                for p in group_positions
            ]
            quotes = integer_batch_quotes(
                self.arrays, sub, offsets, amounts_in, scale=scale
            )
            for k, position in enumerate(group_positions):
                results[position].details["exact"] = quotes.detail(k)
        for position in scalar_positions:
            result = results[position]
            rotation = result.loop.rotation_from(result.start_token)
            result.details["exact"] = exact_loop_quote(
                rotation, result.amount_in, scale=scale
            )

    def evaluate_top_k(
        self,
        strategy: Strategy,
        prices: PriceMap,
        k: int,
        cache=None,
    ) -> tuple[list[tuple[float, int]], int]:
        """Exact top-K selection with bound-ordered lazy re-quoting.

        Quotes loops in descending bound order and stops as soon as
        every remaining bound is *strictly* below the K-th exact
        profit found so far (ties keep quoting: the book's loop-id
        tie-break could still reorder them).  Returns ``(scored,
        pruned)`` where ``scored`` lists ``(monetized_profit,
        position)`` for every loop that *was* exactly quoted — a
        superset of the true top-K whose best K entries are identical
        to an exhaustive pass — and ``pruned`` counts the loops whose
        bound proved they could not alter the top-K.
        """
        n = len(self.loops)
        if n == 0:
            return [], 0
        bounds = self.monetized_bounds(strategy, prices)
        # NaN is unprunable: surface those rows first so the exact
        # pass decides (and raises) exactly like an unpruned run
        keys = np.where(np.isnan(bounds), np.inf, bounds)
        order = np.argsort(-keys, kind="stable")
        chunk = max(k, self.min_batch, 64)
        scored: list[tuple[float, int]] = []
        top: list[float] = []  # min-heap of the best k exact profits
        i = 0
        while i < n:
            if len(top) >= k > 0:
                next_bound = keys[order[i]]
                # strict: a tie with the K-th exact profit could still
                # reorder by loop id, so only a strictly-lower bound
                # (or a provably-unprofitable tail under a positive
                # K-th) stops the scan
                if next_bound < top[0] or (next_bound <= 0.0 < top[0]):
                    break
            batch = [int(p) for p in order[i : i + chunk]]
            for position, result in zip(
                batch, self.evaluate_many(strategy, prices, batch, cache)
            ):
                profit = result.monetized_profit
                scored.append((profit, position))
                if k > 0:
                    if len(top) < k:
                        heapq.heappush(top, profit)
                    elif profit > top[0]:
                        heapq.heapreplace(top, profit)
            i += len(batch)
        self.stats.pruned_loops += n - len(scored)
        return scored, n - len(scored)


# ----------------------------------------------------------------------
# per-kind group evaluation
# ----------------------------------------------------------------------


def _assemble(
    group: CompiledLoopGroup,
    k: int,
    offset: int,
    quotes: BatchQuotes,
    monetized: float,
    strategy_name: str,
    method: str,
    extra_details: dict | None = None,
) -> StrategyResult:
    rotation = Rotation(group.loops[k], offset)
    quote = quotes.quote(k)
    return result_from_quote(
        rotation,
        quote,
        None,
        strategy_name,
        method,
        profit=quote_profit_vector(rotation, quote),
        monetized=monetized,
        extra_details=extra_details,
    )


def _all_rows(rows: list[int], group: CompiledLoopGroup) -> bool:
    """Whether ``rows`` is the whole group in order (lengths first, so
    the common partial slice never builds the comparison list)."""
    return len(rows) == len(group) and rows == list(range(len(group)))


def _raise_missing_price(group: CompiledLoopGroup, k: int, offset: int):
    token = group.loops[k].tokens[offset]
    raise MissingPriceError(f"no CEX price for token {token.symbol!r}")


def _rotation_offsets(
    kind: str,
    strategy: Strategy,
    group: CompiledLoopGroup,
    price_vec: np.ndarray,
) -> np.ndarray:
    """The ``(len(group), r)`` rotation offsets ``strategy`` quotes:
    every rotation under MaxMax, its start under Traditional (the
    numeraire, or each loop's first token) and MaxPrice (the
    max-price token)."""
    count = len(group)
    if kind == "maxmax":
        return np.broadcast_to(np.arange(group.length), (count, group.length))
    if kind == "maxprice":
        price_matrix = price_vec[group.token_idx]
        missing = np.isnan(price_matrix)
        if missing.any():
            k = int(np.argmax(missing.any(axis=1)))
            _raise_missing_price(group, k, int(np.argmax(missing[k])))
        return group.max_price_offsets(price_matrix)[:, None]
    start = strategy.start_token
    if start is None:
        return np.zeros((count, 1), dtype=np.intp)
    offsets = []
    for loop, token_offset in zip(group.loops, group.token_offset):
        offset = token_offset.get(start)
        if offset is None:
            raise StrategyError(
                f"start token {start} is not in {loop!r}; the traditional "
                "strategy needs a loop through its numeraire"
            )
        offsets.append(offset)
    return np.asarray(offsets, dtype=np.intp)[:, None]


def _quote_group(
    kind: str,
    strategy: Strategy,
    arrays: MarketArrays,
    group: CompiledLoopGroup,
    price_vec: np.ndarray,
    quote_fn: QuoteFn,
) -> tuple[np.ndarray, list[BatchQuotes], np.ndarray, np.ndarray]:
    """Quote the rotations ``strategy`` monetizes, one kernel pass per
    column: returns ``(offsets, quotes, amount_in, profit)`` where
    ``quotes[c]`` quotes rotation ``offsets[:, c]`` of every loop and
    the two matrices stack its optimal inputs and profits."""
    offsets = _rotation_offsets(kind, strategy, group, price_vec)
    if kind == "maxmax":
        # a shared offset per pass: the kernels' cheaper gather
        quotes = [quote_fn(arrays, group, c) for c in range(group.length)]
    else:
        quotes = [quote_fn(arrays, group, offsets[:, 0])]
    return (
        offsets,
        quotes,
        np.column_stack([column.amount_in for column in quotes]),
        np.column_stack([column.profit for column in quotes]),
    )


def _evaluate_group(
    kind: str,
    strategy: Strategy,
    arrays: MarketArrays,
    group: CompiledLoopGroup,
    price_vec: np.ndarray,
    quote_fn: QuoteFn,
) -> list[StrategyResult]:
    offsets, quotes, amount_in, profit = _quote_group(
        kind, strategy, arrays, group, price_vec, quote_fn
    )
    best, monetized = monetize_rotations(
        group, np.arange(len(group)), offsets, amount_in, profit, price_vec
    )
    results = []
    for k, c in enumerate(best.tolist()):
        extra = None
        if kind == "maxmax":
            symbols = [token.symbol for token in group.loops[k].tokens]
            extra = {
                "per_rotation": dict(zip(symbols, monetized[k].tolist()))
            }
        results.append(
            _assemble(
                group, k, int(offsets[k, c]), quotes[c],
                float(monetized[k, c]), strategy.name, strategy.method, extra,
            )
        )
    return results
