"""Multi-loop portfolio analysis: which loops can be harvested together?

The paper evaluates loops one at a time, but a searcher facing ~123
simultaneous opportunities must account for *interaction*: loops that
share a pool compete — executing one moves the reserves under the
other.  This module provides:

* :func:`conflict_graph` — loops as nodes, edges between loops sharing
  at least one pool;
* :func:`independent_bundle` — a greedy maximum-weight independent set
  of non-conflicting loops (safe to execute in one block without
  re-evaluation), greedy by monetized profit;
* :func:`greedy_harvest` — the sequential alternative: repeatedly
  execute the best remaining loop on the live market and re-detect,
  until profits fall below a floor (optionally a gas floor).

``greedy_harvest`` is also the library's answer to "what is the total
extractable value of a snapshot?", used by the harvest benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from ..core.loop import ArbitrageLoop
from ..core.types import PriceMap
from ..data.snapshot import MarketSnapshot
from ..engine import EvaluationEngine
from ..execution.plan import plan_from_result
from ..execution.simulator import ExecutionSimulator
from ..strategies.base import Strategy, StrategyResult

__all__ = [
    "conflict_graph",
    "independent_bundle",
    "HarvestRound",
    "HarvestReport",
    "greedy_harvest",
]


def conflict_graph(loops: list[ArbitrageLoop]) -> nx.Graph:
    """Graph with one node per loop; edges join loops sharing a pool."""
    graph = nx.Graph()
    graph.add_nodes_from(range(len(loops)))
    pool_users: dict[str, list[int]] = {}
    for index, loop in enumerate(loops):
        for pool in loop.pools:
            pool_users.setdefault(pool.pool_id, []).append(index)
    for users in pool_users.values():
        for i, a in enumerate(users):
            for b in users[i + 1:]:
                graph.add_edge(a, b)
    return graph


def independent_bundle(
    loops: list[ArbitrageLoop],
    results: list[StrategyResult],
) -> list[int]:
    """Greedy max-weight independent set: loop indices that share no
    pool, picked in descending monetized profit.

    The returned bundle can be executed in a single transaction
    without any trade invalidating another's prediction.
    """
    if len(loops) != len(results):
        raise ValueError(
            f"{len(loops)} loops but {len(results)} results"
        )
    conflicts = conflict_graph(loops)
    order = sorted(
        range(len(loops)), key=lambda i: -results[i].monetized_profit
    )
    chosen: list[int] = []
    blocked: set[int] = set()
    for index in order:
        if index in blocked or results[index].monetized_profit <= 0:
            continue
        chosen.append(index)
        blocked.add(index)
        blocked.update(conflicts.neighbors(index))
    return chosen


@dataclass(frozen=True)
class HarvestRound:
    """One round of sequential harvesting."""

    loop: ArbitrageLoop
    predicted_usd: float
    realized_usd: float
    reverted: bool


@dataclass(frozen=True)
class HarvestReport:
    """Outcome of a full greedy harvest."""

    rounds: tuple[HarvestRound, ...]
    total_usd: float
    remaining_loops: int

    def __str__(self) -> str:
        return (
            f"harvested ${self.total_usd:,.2f} over {len(self.rounds)} rounds; "
            f"{self.remaining_loops} sub-floor loops remain"
        )


def greedy_harvest(
    snapshot: MarketSnapshot,
    strategy: Strategy,
    length: int = 3,
    min_profit_usd: float = 0.0,
    max_rounds: int = 1000,
    prices: PriceMap | None = None,
    engine: EvaluationEngine | None = None,
) -> HarvestReport:
    """Repeatedly execute the best loop until none clears the floor.

    Operates on a *copy* of the snapshot's pools; the input snapshot is
    left untouched.  Each round re-detects loops on the mutated market
    (executing a loop can create or destroy others through shared
    pools), evaluates ``strategy`` on each, executes the best
    atomically, and records predicted vs realized profit.

    Both per-round steps go through the evaluation engine: candidate
    loops are enumerated once (topology never changes mid-harvest) and
    only re-filtered on live reserves.  Each round scores the
    profitable loops through one batch evaluator over them (kernels
    for batchable strategies); strategies on the scalar path reuse
    cached rotation quotes for every loop whose pools the previous
    round's execution did not touch.
    """
    prices = prices if prices is not None else snapshot.prices
    engine = engine if engine is not None else EvaluationEngine()
    registry = snapshot.registry.copy()
    simulator = ExecutionSimulator(registry=registry)
    rounds: list[HarvestRound] = []
    total = 0.0
    for _ in range(max_rounds):
        loops = engine.find_profitable_loops(registry, length)
        if not loops:
            break
        results = engine.evaluate_strategy(strategy, loops, prices)
        best_index = max(range(len(results)), key=lambda i: results[i].monetized_profit)
        best = results[best_index]
        if best.monetized_profit <= min_profit_usd:
            break
        receipt = simulator.execute(
            plan_from_result(best, slippage_tolerance=1e-9)
        )
        realized = 0.0 if receipt.reverted else receipt.monetized(prices)
        rounds.append(
            HarvestRound(
                loop=loops[best_index],
                predicted_usd=best.monetized_profit,
                realized_usd=realized,
                reverted=receipt.reverted,
            )
        )
        if receipt.reverted:
            break  # deterministic market: a revert means a logic bug
        total += realized
    remaining = engine.count_profitable_loops(registry, length)
    return HarvestReport(
        rounds=tuple(rounds), total_usd=total, remaining_loops=remaining
    )
