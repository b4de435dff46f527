"""repro — reproduction of "Profit Maximization In Arbitrage Loops" (ICDCS 2024).

A production-quality Python library for monetized cyclic arbitrage on
constant-product AMMs (Uniswap V2 style):

* an AMM substrate with exact V2 swap math and a linear-fractional
  composition algebra giving closed-form single-rotation optima;
* token-graph construction and loop detection (exhaustive length-k
  enumeration and Moore–Bellman–Ford negative cycles);
* the paper's four strategies — traditional, MaxPrice, MaxMax,
  ConvexOptimization — with two independent convex solver backends;
* deterministic synthetic market data calibrated to the paper's §VI
  snapshot, a CEX price-oracle layer, and an atomic execution
  simulator with flash-loan semantics;
* an experiment harness regenerating every figure in the paper.

Quickstart::

    from repro import (
        Token, Pool, PriceMap, ArbitrageLoop,
        MaxMaxStrategy, ConvexOptimizationStrategy,
    )

    X, Y, Z = Token("X"), Token("Y"), Token("Z")
    loop = ArbitrageLoop(
        [X, Y, Z],
        [Pool(X, Y, 100, 200), Pool(Y, Z, 300, 200), Pool(Z, X, 200, 400)],
    )
    prices = PriceMap.from_symbols({"X": 2.0, "Y": 10.2, "Z": 20.0})
    print(MaxMaxStrategy().evaluate(loop, prices))
    print(ConvexOptimizationStrategy().evaluate(loop, prices))
"""

from .amm import (
    DEFAULT_FEE,
    BlockEvent,
    BurnEvent,
    MarketEvent,
    MintEvent,
    Pool,
    PoolRegistry,
    PriceTickEvent,
    SwapComposition,
    SwapEvent,
    compose_hops,
)
from .cex import PriceOracle, RandomWalkOracle, StaticPriceOracle, lognormal_prices
from .core import (
    ArbitrageLoop,
    PriceMap,
    ProfitVector,
    ReproError,
    Rotation,
    Token,
    TokenAmount,
)
from .data import (
    MarketSnapshot,
    SyntheticMarketGenerator,
    paper_market,
    section5_loop,
    section5_prices,
    section5_snapshot,
    synthetic_loop,
)
from .engine import EvaluationEngine, PoolStateCache
from .execution import (
    ExecutionPlan,
    ExecutionReceipt,
    ExecutionSimulator,
    FlashLoanProvider,
    plan_from_result,
)
from .graph import (
    build_token_graph,
    find_arbitrage_loops,
    find_negative_cycle,
    graph_summary,
)
from .market import (
    BatchEvaluator,
    MarketArrays,
)
from .replay import (
    BlockReport,
    MarketEventLog,
    ReplayDriver,
    ReplayResult,
    generate_event_stream,
)
from .service import (
    Opportunity,
    OpportunityBook,
    OpportunityService,
    ServiceMetrics,
    ServiceReport,
    ShardPlan,
    ShardWorker,
)
from .strategies import (
    ConvexOptimizationStrategy,
    MaxMaxStrategy,
    MaxPriceStrategy,
    Strategy,
    StrategyResult,
    TraditionalStrategy,
    make_strategy,
)

__version__ = "1.5.0"

__all__ = [
    "ArbitrageLoop",
    "BlockEvent",
    "BlockReport",
    "BurnEvent",
    "BatchEvaluator",
    "ConvexOptimizationStrategy",
    "DEFAULT_FEE",
    "EvaluationEngine",
    "ExecutionPlan",
    "ExecutionReceipt",
    "ExecutionSimulator",
    "FlashLoanProvider",
    "MarketArrays",
    "MarketEvent",
    "MarketEventLog",
    "MarketSnapshot",
    "MaxMaxStrategy",
    "MintEvent",
    "MaxPriceStrategy",
    "Opportunity",
    "OpportunityBook",
    "OpportunityService",
    "Pool",
    "PoolRegistry",
    "PoolStateCache",
    "PriceMap",
    "PriceOracle",
    "PriceTickEvent",
    "ProfitVector",
    "RandomWalkOracle",
    "ReplayDriver",
    "ReplayResult",
    "ReproError",
    "Rotation",
    "ServiceMetrics",
    "ServiceReport",
    "ShardPlan",
    "ShardWorker",
    "StaticPriceOracle",
    "Strategy",
    "StrategyResult",
    "SwapComposition",
    "SwapEvent",
    "SyntheticMarketGenerator",
    "Token",
    "TokenAmount",
    "TraditionalStrategy",
    "__version__",
    "build_token_graph",
    "compose_hops",
    "find_arbitrage_loops",
    "find_negative_cycle",
    "generate_event_stream",
    "graph_summary",
    "lognormal_prices",
    "make_strategy",
    "paper_market",
    "plan_from_result",
    "section5_loop",
    "section5_prices",
    "section5_snapshot",
    "synthetic_loop",
]
