"""Property: stored rotation bounds change no number.

A pruning :class:`~repro.service.ShardWorker` keeps the reserve half of
each loop's bound (every rotation's start-token bound) until a pool of
the loop moves, and values it again at the current prices on every
block.  Two contracts pin that this is the bound the worker would
have computed from scratch:

* the flattened rotation-bound pass
  (:func:`~repro.market.rotation_profit_bounds` over row indices, one
  pass over every hop lane) equals a per-hop-column reference over a
  sub-group copy, bit for bit — NaN payloads and signed zeros included;
* on hypothesis streams over CPMM + G3M + stableswap markets, a worker
  equals a test-local reference worker whose bound step re-bounds every
  unready loop on every block through
  :meth:`~repro.market.BatchEvaluator.monetized_bounds`: the same
  ``ShardUpdate`` sequence (entries, evaluated, pruned, remonetized,
  restored) and the same profits.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.amm import Pool, PoolRegistry
from repro.amm.families import FAMILY_STABLESWAP
from repro.amm.weighted import WeightedPool
from repro.data import SyntheticMarketGenerator
from repro.data.snapshot import MarketSnapshot
from repro.engine import EvaluationEngine
from repro.market import (
    BOUND_RATE_MARGIN,
    MarketArrays,
    below_threshold,
    compile_loops,
    family_descriptor,
    oriented_reserves,
    rotation_profit_bounds,
)
from repro.market.bounds import BOUND_SLACK_ABS, BOUND_SLACK_RTOL, group_rate_bound
from repro.replay import apply_block_events, generate_event_stream
from repro.service import ShardPlan, ShardWorker
from repro.service.worker import BlockWork
from repro.strategies import MaxMaxStrategy, MaxPriceStrategy, TraditionalStrategy

_SILENT = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}


# ----------------------------------------------------------------------
# the flattened rotation-bound pass
# ----------------------------------------------------------------------


def reference_group_rate_bound(arrays, group, rows):
    """One pass per hop column over a ``group.rows(rows)`` copy."""
    sub = group.rows(rows)
    count, n = len(sub), sub.length
    rate = np.ones(count, dtype=np.float64)
    y_out = np.empty((count, n), dtype=np.float64)
    with np.errstate(**_SILENT):
        for j in range(n):
            pool_col = sub.pool_idx[:, j]
            orient_col = sub.orient[:, j]
            x, y, gamma = oriented_reserves(arrays, pool_col, orient_col)
            hop = gamma * y / x
            if sub.mixed:
                fam = arrays.family[pool_col]
                for code in sorted(int(c) for c in np.unique(fam)):
                    bound_factor = family_descriptor(code).bound_factor
                    if bound_factor is not None:
                        hop = bound_factor(
                            arrays, fam == code, pool_col, orient_col,
                            x, y, gamma, hop,
                        )
            rate = rate * hop
            y_out[:, j] = y
    return rate, y_out


def reference_rotation_profit_bounds(arrays, group, rows):
    """The bounds from the per-column pass, with ``np.roll`` feeding
    each rotation its start token's reserve."""
    rate, y_out = reference_group_rate_bound(arrays, group, rows)
    with np.errstate(**_SILENT):
        r_eff = rate * (1.0 + BOUND_RATE_MARGIN)
        if group.mixed:
            factor = (r_eff - 1.0) / r_eff
        else:
            root = np.sqrt(np.maximum(r_eff, 1.0))
            factor = np.square(1.0 - 1.0 / root)
        factor = np.where(r_eff <= 1.0, 0.0, factor)
        bounds = factor[:, None] * np.roll(y_out, 1, axis=1)
        return np.where(
            bounds > 0.0,
            bounds * (1.0 + BOUND_SLACK_RTOL) + BOUND_SLACK_ABS,
            bounds,
        )


def _same_bits(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def with_weighted_pools(market, fraction, seed):
    """A seeded ``fraction`` of the market's CPMM pools as 60/40 G3M
    pools (same tokens, reserves, fee and id)."""
    rng = np.random.default_rng(seed)
    registry = PoolRegistry()
    for pool in sorted(market.registry, key=lambda p: p.pool_id):
        if type(pool) is Pool and rng.random() < fraction:
            pool = WeightedPool(
                pool.token0, pool.token1, pool.reserve0, pool.reserve1,
                weight0=0.6, weight1=0.4, fee=pool.fee, pool_id=pool.pool_id,
            )
        else:
            pool = pool.copy()
        registry.add(pool)
    return MarketSnapshot(registry=registry, prices=market.prices)


def three_family_market(seed, n_tokens=8, n_pools=18):
    market = SyntheticMarketGenerator(
        n_tokens=n_tokens, n_pools=n_pools, seed=seed, price_noise=0.02,
        stableswap_fraction=0.3,
    ).generate()
    return with_weighted_pools(market, 0.3, seed)


#: reserves far enough apart that a stableswap hop's ``D`` iteration
#: does not converge (its rate lane becomes NaN) and a CPMM or G3M
#: hop's rate overflows to inf or underflows to 0
DEGENERATE = (1e-300, 1e300)


@given(
    seed=st.integers(0, 2**16),
    length=st.integers(3, 4),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_flattened_pass_equals_per_column_reference(seed, length, data):
    market = three_family_market(seed)
    loops = EvaluationEngine().loop_universe(market.registry, length).candidates
    arrays = MarketArrays.from_registry(market.registry)
    degenerate = data.draw(
        st.lists(st.integers(0, len(arrays.reserve0) - 1), max_size=3, unique=True)
    )
    for row in degenerate:
        arrays.reserve0[row], arrays.reserve1[row] = DEGENERATE
    groups, _ = compile_loops(loops, arrays)
    for group in groups:
        rows = np.asarray(
            data.draw(
                st.lists(
                    st.integers(0, len(group) - 1), min_size=1,
                    max_size=len(group), unique=True,
                )
            ),
            dtype=np.intp,
        )
        for subset in (rows, np.arange(len(group))):
            rate, y_out = group_rate_bound(arrays, group, subset)
            want_rate, want_y_out = reference_group_rate_bound(arrays, group, subset)
            _same_bits(rate, want_rate)
            _same_bits(y_out, want_y_out)
            bounds = rotation_profit_bounds(arrays, group, subset)
            assert bounds.shape == (len(subset), group.length)
            _same_bits(bounds, reference_rotation_profit_bounds(arrays, group, subset))


def test_degenerate_rows_reach_nan_lanes():
    """The degenerate reserves above do produce NaN: a stableswap
    pool's non-converging ``D`` makes its loops' rates NaN, and an
    overflowing hop makes a mixed loop's bounds NaN."""
    market = three_family_market(5)
    loops = EvaluationEngine().loop_universe(market.registry, 3).candidates
    arrays = MarketArrays.from_registry(market.registry)
    stable = np.flatnonzero(arrays.family == FAMILY_STABLESWAP)
    arrays.reserve0[stable], arrays.reserve1[stable] = DEGENERATE
    groups, _ = compile_loops(loops, arrays)
    mixed = [group for group in groups if group.mixed]
    assert mixed
    assert any(
        np.isnan(group_rate_bound(arrays, group, np.arange(len(group)))[0]).any()
        for group in mixed
    )
    arrays.reserve0[stable], arrays.reserve1[stable] = 1000.0, 1000.0
    others = np.flatnonzero(arrays.family != FAMILY_STABLESWAP)
    arrays.reserve0[others], arrays.reserve1[others] = DEGENERATE
    assert any(
        np.isnan(rotation_profit_bounds(arrays, group, np.arange(len(group)))).any()
        for group in mixed
    )


# ----------------------------------------------------------------------
# the worker against a re-bounding reference
# ----------------------------------------------------------------------


class ReferenceShardWorker(ShardWorker):
    """The bound step without stored bounds: every unready loop is
    bounded from the current reserves on every block."""

    def _select_requotes(self, unready, threshold):
        if not len(unready):
            return unready
        bounds = self._read(
            lambda: self._evaluator.monetized_bounds(
                self.strategy, self._prices, indices=unready.tolist()
            )
        )
        prunable = below_threshold(bounds, threshold) & below_threshold(
            self._profits[unready], threshold
        )
        self._bounds[unready[prunable]] = bounds[prunable]
        return unready[~prunable]


def _bits(update):
    """Everything a ``ShardUpdate`` publishes but its timings, with
    floats as their IEEE bits."""
    entries = tuple(
        (
            entry.loop_id,
            np.float64(entry.profit_usd).view(np.int64),
            None if entry.amount_in is None
            else np.float64(entry.amount_in).view(np.int64),
            entry.start_symbol,
            entry.block,
            entry.shard,
        )
        for entry in update.entries
    )
    return (
        update.shard, update.block, entries, update.evaluated, update.pruned,
        update.remonetized, update.restored,
    )


STRATEGIES = st.sampled_from([MaxMaxStrategy, MaxPriceStrategy, TraditionalStrategy])


@given(
    market_seed=st.integers(0, 2**16),
    stream_seed=st.integers(0, 2**16),
    n_blocks=st.integers(1, 8),
    events_per_block=st.integers(0, 4),
    ticks=st.integers(0, 4),
    tick_sigma=st.sampled_from([0.002, 0.3]),
    k=st.integers(1, 3),
    n_shards=st.integers(1, 3),
    strategy_cls=STRATEGIES,
)
@example(  # a MaxPrice start moves on loops that were never bounded
    market_seed=2, stream_seed=1, n_blocks=6, events_per_block=2, ticks=3,
    tick_sigma=0.3, k=1, n_shards=1, strategy_cls=MaxPriceStrategy,
)
@settings(max_examples=40, deadline=None)
def test_stored_bounds_match_rebounding_reference(
    market_seed, stream_seed, n_blocks, events_per_block, ticks, tick_sigma, k,
    n_shards, strategy_cls,
):
    """Wide ticks (sigma 0.3) move MaxPrice starts: a loop whose start
    moved is bounded from scratch when it never was."""
    market = three_family_market(market_seed)
    log = generate_event_stream(
        market, n_blocks=n_blocks, events_per_block=events_per_block,
        seed=stream_seed, price_ticks_per_block=ticks, tick_sigma=tick_sigma,
    )
    loops = EvaluationEngine().loop_universe(market.registry, 3).candidates
    plan = ShardPlan([pool.pool_id for pool in market.registry], loops, n_shards)
    private = market.copy()
    store = MarketArrays.from_registry(private.registry)
    pairs = [
        tuple(
            cls(
                shard, store, [loops[i] for i in plan.shard_loops[shard]],
                strategy_cls(), market.prices, top_k=k,
            )
            for cls in (ShardWorker, ReferenceShardWorker)
        )
        for shard in range(n_shards)
    ]
    for worker, reference in pairs:
        assert worker.initial_entries() == reference.initial_entries()
    for block, events in log.iter_blocks():
        _, dirty, _, _ = apply_block_events(private.registry, private.prices, events)
        store.pull(private.registry, dirty)
        for shard, routed in plan.route_block(events).items():
            work = BlockWork.from_events(block, routed, store)
            worker, reference = pairs[shard]
            assert _bits(worker.process_block(work)) == _bits(
                reference.process_block(work)
            )
            np.testing.assert_array_equal(
                worker.profits.view(np.int64), reference.profits.view(np.int64)
            )
