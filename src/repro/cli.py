"""Command-line interface: run any paper experiment from a shell.

Examples::

    repro-arb section5                 # the §V worked example numbers
    repro-arb fig2 --csv fig2.csv      # Px sweep behind Fig. 2
    repro-arb fig7 --length 3          # Convex vs MaxMax scatter
    repro-arb runtime --lengths 3,5,10
    repro-arb calibrate --seed 42      # synthetic snapshot §VI counts
    repro-arb detect --length 3        # list profitable loops
    repro-arb sweep --strategies maxmax,maxprice --step 0.1
    repro-arb replay --blocks 12       # stream a synthetic event log
    repro-arb replay --events stream.jsonl --snapshot market.json
    repro-arb serve --shards 4         # live top-K book off a stream
    repro-arb serve --rate 500 --json load.json  # paced; ev/s and p50/p99

(Equivalently ``python -m repro ...``.)

Every evaluation-heavy command routes through the batched
:class:`~repro.engine.EvaluationEngine`, or, for ``detect``, through one
:class:`~repro.market.BatchEvaluator` over the snapshot's loops.
"""

from __future__ import annotations

import argparse
import sys

from . import analysis
from .analysis import report
from .data.synthetic import paper_market

__all__ = ["main", "build_parser", "package_version"]


def package_version() -> str:
    """Version of the code actually running.

    The source tree's ``repro.__version__`` is authoritative — it
    travels with the executing code, whereas distribution metadata can
    describe a stale installed wheel when running via PYTHONPATH.  The
    metadata lookup is only a fallback for exotic repackaged installs
    that strip the attribute."""
    try:
        from . import __version__

        return __version__
    except ImportError:  # pragma: no cover - repackaged installs only
        from importlib.metadata import version

        return version("repro-arb")


# the synthetic-stream flags of ``replay`` and ``serve``:
# (flag, dest, type, default for a generated stream, help)
_STREAM_FLAGS = (
    ("--seed", "seed", int, 7, "synthetic stream seed"),
    ("--tokens", "tokens", int, 12, "synthetic market tokens"),
    ("--pools", "pools", int, 30, "synthetic market pools"),
    ("--blocks", "blocks", int, 12, "blocks in the synthetic stream"),
    ("--events-per-block", "events_per_block", int, 6,
     "pool events per synthetic block"),
    ("--stableswap-fraction", "stableswap_fraction", float, 0.0,
     "fraction of synthetic pools built as stableswap pools"),
)


def _add_stream_options(p: argparse.ArgumentParser) -> None:
    """Declare the stream options of ``replay`` and ``serve`` (read by ``_stream``)."""
    p.add_argument("--events", help="JSONL event log (needs --snapshot)")
    p.add_argument("--snapshot", help="market snapshot JSON the log starts from")
    # None = "not given", so combining them with --events can be
    # rejected instead of silently ignored; _stream fills the defaults
    for flag, dest, kind, default, text in _STREAM_FLAGS:
        p.add_argument(flag, type=kind, default=None, dest=dest,
                       metavar="FRAC" if kind is float else None,
                       help=f"{text} (default {default:g})")


def _add_trace_option(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", metavar="FILE",
                   help="record pipeline spans and write a trace on exit "
                   "(.jsonl = span lines, anything else = Chrome/Perfetto "
                   "JSON)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-arb",
        description="Reproduce experiments from 'Profit Maximization In Arbitrage Loops'",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {package_version()}"
    )
    parser.add_argument(
        "--log-level", default=None,
        choices=("debug", "info", "warning", "error"),
        help="enable structured 'repro.*' logging at this level "
        "(queue shedding, subscriber gaps, solver fallbacks, ...)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("section5", help="the §V worked-example numbers")

    p = sub.add_parser("fig1", help="profit curve of the §V example")
    p.add_argument("--points", type=int, default=200)

    for name, help_text in (
        ("fig2", "Px sweep: rotations + MaxMax envelope"),
        ("fig3", "Px sweep: Convex vs MaxMax"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--csv", help="write the series to a CSV file")

    p = sub.add_parser("fig4", help="Px sweep: convex profit composition")

    for name, help_text, has_length in (
        ("fig5", "scatter: MaxMax vs traditional", True),
        ("fig6", "scatter: MaxPrice vs MaxMax", True),
        ("fig7", "scatter: Convex vs MaxMax", True),
        ("fig9", "scatter: length-4 traditional vs Convex", False),
        ("fig10", "scatter: length-4 MaxMax vs Convex", False),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--seed", type=int, default=20230901)
        p.add_argument("--csv", help="write the scatter points to a CSV file")
        if has_length:
            p.add_argument("--length", type=int, default=3, choices=(3, 4))

    p = sub.add_parser("fig8", help="per-token profit overlap, Convex vs MaxMax")
    p.add_argument("--seed", type=int, default=20230901)

    p = sub.add_parser("runtime", help="§VII runtime scaling")
    p.add_argument("--lengths", default="3,4,5,6,8,10")
    p.add_argument("--repeats", type=int, default=3)

    p = sub.add_parser("calibrate", help="§VI snapshot calibration counts")
    p.add_argument("--seed", type=int, default=20230901)

    p = sub.add_parser("detect", help="list profitable loops in a snapshot")
    p.add_argument("--seed", type=int, default=20230901)
    p.add_argument("--stableswap-fraction", type=float, default=0.0,
                   dest="stableswap_fraction", metavar="FRAC",
                   help="fraction of synthetic pools built as amplified-"
                   "invariant stableswap pools (default 0 = pure "
                   "constant-product, byte-identical to older builds)")
    p.add_argument("--length", type=int, default=3)
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--csv", help="write the full ranked list to a CSV file "
                   "(deterministic: profit desc, canonical loop id asc)")
    p.add_argument("--no-prune", action="store_true",
                   help="quote every loop exactly instead of pruning the "
                   "ranking with profit upper bounds (identical top-K "
                   "either way; pruning is auto-disabled by --csv and "
                   "--exact)")
    p.add_argument("--exact", action="store_true",
                   help="audit every quote in contract integer arithmetic "
                   "(floor division, 18-decimal base units): adds the "
                   "base-unit profit the chain would actually pay next to "
                   "the float estimate")
    _add_trace_option(p)

    p = sub.add_parser(
        "sweep", help="price sweep of the §V loop through the batched engine"
    )
    p.add_argument("--strategies", default="maxmax,maxprice",
                   help="comma-separated registry names (see --help of figs)")
    p.add_argument("--token", default="X", help="loop token whose price sweeps")
    p.add_argument("--max", type=float, default=20.0, dest="max_price")
    p.add_argument("--step", type=float, default=0.2)
    p.add_argument("--csv", help="write the series to a CSV file")

    p = sub.add_parser("harvest", help="sequential greedy harvest of a snapshot")
    p.add_argument("--seed", type=int, default=20230901)
    p.add_argument("--rounds", type=int, default=25)
    p.add_argument("--floor", type=float, default=1.0, help="min profit per round ($)")
    p.add_argument("--gwei", type=float, default=None, help="gas price; overrides --floor with the gas breakeven")

    p = sub.add_parser(
        "discrepancy", help="Convex-vs-MaxMax gap vs mispricing level"
    )
    p.add_argument("--levels", default="0.01,0.15,0.4")

    p = sub.add_parser(
        "efficiency", help="market efficiency with vs without arbitrage"
    )
    p.add_argument("--blocks", type=int, default=8)
    p.add_argument("--seed", type=int, default=11)

    p = sub.add_parser(
        "replay",
        help="stream swap/mint/burn events through the engine, "
        "re-detecting arbitrage incrementally per block",
    )
    _add_stream_options(p)
    p.add_argument("--length", type=int, default=3, help="candidate loop length")
    p.add_argument("--strategies", default="maxmax",
                   help="comma-separated registry names to score loops with")
    p.add_argument("--mode", choices=("incremental", "full"), default="incremental")
    p.add_argument("--no-prune", action="store_true",
                   help="disable the two-phase bound pass that skips exact "
                   "quotes for provably-unprofitable dirty loops (reports "
                   "are bit-identical either way; --mode full never prunes)")
    p.add_argument("--save-events", help="write the replayed stream to a JSONL file")
    p.add_argument("--save-snapshot",
                   help="write the starting market to a JSON file "
                   "(a stream is only replayable together with its snapshot)")
    p.add_argument("--csv", help="write the per-block report to a CSV file")
    _add_trace_option(p)

    p = sub.add_parser(
        "serve",
        help="run the streaming opportunity service: sharded ingest of an "
        "event stream into a live top-K arbitrage book",
    )
    _add_stream_options(p)
    p.add_argument("--simulate", type=int, default=None, metavar="BLOCKS",
                   help="ingest live from a running simulation instead of a "
                   "prerecorded stream (retail flow over the synthetic market)")
    p.add_argument("--length", type=int, default=3, help="candidate loop length")
    p.add_argument("--strategy", default="maxmax",
                   help="registry name of the book's scoring strategy")
    p.add_argument("--shards", type=int, default=1)
    p.add_argument("--backend", choices=("inline", "process"), default="inline",
                   help="process = one worker process per shard (multi-core), "
                   "all mapping one shared-memory market segment")
    p.add_argument("--start-method", choices=("fork", "spawn"), default=None,
                   dest="start_method",
                   help="multiprocessing start method for --backend process "
                   "(default: platform default)")
    p.add_argument("--policy", choices=("block", "drop"), default="block",
                   help="full-queue behaviour: backpressure or shed blocks")
    p.add_argument("--queue-size", type=int, default=64, dest="queue_size")
    p.add_argument("--rate", type=float, default=0.0,
                   help="offered events/sec (0 = as fast as possible); "
                   "--json reports the sustained events/sec and end-to-end "
                   "latency percentiles, so a rate ladder is a shell loop")
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--no-prune", action="store_true",
                   help="disable bound-based re-quote pruning (by default "
                   "shards skip exact quotes for dirty loops provably below "
                   "the --top'th profit of their own loops; the displayed "
                   "book is identical either way)")
    p.add_argument("--json", help="write the full service report to a JSON file")
    p.add_argument("--csv", help="write the final book (top-K) to a CSV file")
    _add_trace_option(p)
    p.add_argument("--metrics-port", type=int, default=None, dest="metrics_port",
                   metavar="PORT",
                   help="serve a live Prometheus /metrics (and /json) "
                   "endpoint on this port for the duration of the run "
                   "(0 = ephemeral; the bound port is printed)")

    return parser


def _configure_logging(level: str) -> None:
    """Root handler + threshold for the ``repro.*`` logger hierarchy."""
    import logging

    logging.basicConfig(
        level=getattr(logging, level.upper()),
        format="%(levelname)s %(name)s: %(message)s",
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.log_level:
        _configure_logging(args.log_level)
    handler = _HANDLERS[args.command]
    trace_file = getattr(args, "trace", None)
    if not trace_file:
        handler(args)
        return 0

    from .telemetry import trace
    from .telemetry.export import write_trace

    trace.clear()
    trace.enable()
    try:
        handler(args)
    finally:
        trace.disable()
        recorded = trace.spans()
        path = write_trace(recorded, trace_file)
        trace.clear()
        print(f"wrote {path} ({len(recorded)} spans)")
    return 0


# ----------------------------------------------------------------------
# per-command handlers
# ----------------------------------------------------------------------


def _cmd_section5(args) -> None:
    numbers = analysis.section5_numbers()
    rows = sorted(numbers.items())
    print(report.format_table(["quantity", "value"], rows))


def _cmd_fig1(args) -> None:
    result = analysis.fig1_profit_curve(n_points=args.points)
    print("Fig. 1: profit vs input (X -> Y -> Z -> X)")
    print(report.sparkline(result.profits))
    print(
        f"optimal input = {result.optimal_input:.4f}, "
        f"optimal profit = {result.optimal_profit:.4f}, "
        f"d out/d in at optimum = {result.derivative_at_optimum:.6f}"
    )


def _cmd_fig2(args) -> None:
    series = analysis.fig2_rotation_sweep()
    print(report.render_sweep(series, title="Fig. 2: rotations + MaxMax vs Px"))
    if args.csv:
        report.sweep_to_csv(series, args.csv)
        print(f"wrote {args.csv}")


def _cmd_fig3(args) -> None:
    series = analysis.fig3_convex_vs_maxmax_sweep()
    print(report.render_sweep(series, title="Fig. 3: Convex vs MaxMax vs Px"))
    if args.csv:
        report.sweep_to_csv(series, args.csv)
        print(f"wrote {args.csv}")


def _cmd_fig4(args) -> None:
    grid, rows, monetized = analysis.fig4_profit_composition()
    print("Fig. 4: convex profit composition (X, Y, Z amounts) across Px")
    table_rows = [
        (f"{px:.1f}", *(f"{a:.4f}" for a in row), f"{m:.2f}")
        for px, row, m in zip(grid[::10], rows[::10], monetized[::10])
    ]
    print(report.format_table(["Px", "X", "Y", "Z", "monetized $"], table_rows))


def _scatter_command(fn):
    def handler(args):
        snapshot = paper_market(seed=args.seed)
        kwargs = {}
        if hasattr(args, "length"):
            kwargs["length"] = args.length
        result = fn(snapshot, **kwargs)
        print(report.render_scatter(result, title=fn.__name__))
        if getattr(args, "csv", None):
            report.scatter_to_csv(result, args.csv)
            print(f"wrote {args.csv}")

    return handler


def _cmd_fig8(args) -> None:
    snapshot = paper_market(seed=args.seed)
    result = analysis.fig8_token_profit_overlap(snapshot)
    print(
        f"Fig. 8: {len(result.loops)} loops; max per-token relative gap "
        f"between Convex and MaxMax profit vectors = {result.max_component_gap:.3e}"
    )


def _cmd_runtime(args) -> None:
    lengths = tuple(int(piece) for piece in args.lengths.split(","))
    result = analysis.runtime_scaling(lengths=lengths, repeats=args.repeats)
    print(report.render_runtime(result))


def _cmd_calibrate(args) -> None:
    result = analysis.snapshot_calibration(seed=args.seed)
    rows = [
        ("tokens", result.tokens, result.paper_tokens),
        ("pools", result.pools, result.paper_pools),
        ("profitable 3-loops", result.profitable_loops_len3, result.paper_loops_len3),
        ("profitable 4-loops", result.profitable_loops_len4, "n/a"),
    ]
    print(report.format_table(["quantity", "generated", "paper"], rows))


def _cmd_detect(args) -> None:
    if args.top < 1:
        raise SystemExit(f"--top must be >= 1, got {args.top}")
    snapshot = paper_market(
        seed=args.seed, stableswap_fraction=args.stableswap_fraction
    )
    from .market import BatchEvaluator, MarketArrays
    from .service.book import opportunity_sort_key
    from .strategies.maxmax import MaxMaxStrategy

    try:
        _snapshot, loops = analysis.profitable_loops(snapshot, args.length)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    evaluator = BatchEvaluator(
        loops,
        arrays=MarketArrays.from_registry(snapshot.registry),
        exact=args.exact,
    )
    # the bound-ordered pruned ranking only makes sense for the plain
    # top-K table: --csv needs the full exact list and --exact audits
    # every loop
    prune = not (args.no_prune or args.csv or args.exact) and bool(loops)
    pruned = 0
    exact_details: dict[int, dict | None] = {}
    if prune:
        topk, pruned = evaluator.evaluate_top_k(
            MaxMaxStrategy(), snapshot.prices, k=args.top
        )
        scored = [(profit, loops[position]) for profit, position in topk]
    else:
        results = evaluator.evaluate_many(MaxMaxStrategy(), snapshot.prices)
        scored = [
            (result.monetized_profit, loop) for result, loop in zip(results, loops)
        ]
        if args.exact:
            exact_details = {
                id(loop): result.details.get("exact")
                for result, loop in zip(results, loops)
            }
    # profit descending, canonical loop id ascending on ties: the same
    # total order the opportunity book uses, so output (and any CSV
    # golden file) is fully deterministic across runs
    scored.sort(
        key=lambda pair: opportunity_sort_key(pair[0], pair[1].canonical_id)
    )
    print(f"{len(loops)} profitable length-{args.length} loops; top {args.top}:")
    if args.exact:
        # integer base-unit profit next to the float estimate ("-" for
        # weighted loops, which have no floor-arithmetic twin)
        def _units(loop) -> str:
            detail = exact_details.get(id(loop))
            return str(detail["profit"]) if detail is not None else "-"

        rows = [
            (f"${profit:,.2f}", _units(loop), repr(loop))
            for profit, loop in scored[: args.top]
        ]
        print(report.format_table(
            ["maxmax profit", "exact profit (base units)", "loop"], rows
        ))
    else:
        rows = [
            (f"${profit:,.2f}", repr(loop))
            for profit, loop in scored[: args.top]
        ]
        print(report.format_table(["maxmax profit", "loop"], rows))
    if prune:
        print(
            f"bound pruning skipped {pruned}/{len(loops)} exact quotes "
            "(--no-prune for the exhaustive pass)"
        )
    if args.csv:
        import csv

        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            header = ["rank", "profit_usd", "loop_id", "path"]
            if args.exact:
                header += [
                    "exact_scale", "exact_amount_in", "exact_amount_out",
                    "exact_profit_units",
                ]
            writer.writerow(header)
            for rank, (profit, loop) in enumerate(scored, start=1):
                row = [rank, repr(profit), loop.canonical_id,
                       " -> ".join(t.symbol for t in loop.tokens)]
                if args.exact:
                    detail = exact_details.get(id(loop))
                    row += (
                        [detail["scale"], detail["amount_in"],
                         detail["amount_out"], detail["profit"]]
                        if detail is not None
                        else ["", "", "", ""]
                    )
                writer.writerow(row)
        print(f"wrote {args.csv}")


def _cmd_sweep(args) -> None:
    from .core.types import Token
    from .data.example import section5_loop, section5_prices
    from .strategies import make_strategy

    loop = section5_loop()
    token = Token(args.token)
    if token not in loop.tokens:
        raise SystemExit(
            f"token {args.token!r} is not in the §V loop "
            f"({', '.join(t.symbol for t in loop.tokens)})"
        )
    names = [name.strip() for name in args.strategies.split(",") if name.strip()]
    if not names:
        raise SystemExit("--strategies needs at least one strategy name")
    try:
        strategies = {name: make_strategy(name) for name in names}
        grid = analysis.paper_px_grid(max_price=args.max_price, step=args.step)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    series = analysis.price_sweep(loop, section5_prices(), token, grid, strategies)
    title = f"engine sweep of P{args.token} ({', '.join(strategies)})"
    print(report.render_sweep(series, title=title))
    if args.csv:
        report.sweep_to_csv(series, args.csv)
        print(f"wrote {args.csv}")


def _cmd_harvest(args) -> None:
    from .analysis import greedy_harvest
    from .strategies.maxmax import MaxMaxStrategy

    snapshot = paper_market(seed=args.seed)
    floor = args.floor
    if args.gwei is not None:
        from .execution import GasModel

        floor = GasModel(gas_price_gwei=args.gwei).breakeven_gross_usd(3)
        print(f"gas breakeven at {args.gwei:g} gwei: {floor:.2f}$ per 3-loop")
    harvest = greedy_harvest(
        snapshot, MaxMaxStrategy(), min_profit_usd=floor, max_rounds=args.rounds
    )
    rows = [
        (i, f"${r.predicted_usd:,.2f}", f"${r.realized_usd:,.2f}",
         " -> ".join(t.symbol for t in r.loop.tokens))
        for i, r in enumerate(harvest.rounds)
    ]
    print(report.format_table(["round", "predicted", "realized", "loop"], rows))
    print(harvest)


def _cmd_discrepancy(args) -> None:
    from .analysis import discrepancy_vs_noise

    levels = tuple(float(piece) for piece in args.levels.split(","))
    points = discrepancy_vs_noise(noise_levels=levels)
    rows = [
        (
            p.price_noise,
            p.n_loops,
            f"{p.mean_rel_gap:.5%}",
            f"{p.max_rel_gap:.5%}",
            f"{p.frac_loops_with_gap:.1%}",
            f"{p.mean_log_rate:.4f}",
        )
        for p in points
    ]
    print("Convex - MaxMax gap vs market mispricing:")
    print(
        report.format_table(
            ["noise", "loops", "mean gap", "max gap", "loops w/ gap", "mean log-rate"],
            rows,
        )
    )


def _cmd_efficiency(args) -> None:
    from .data.synthetic import SyntheticMarketGenerator
    from .simulation import efficiency_experiment

    market = SyntheticMarketGenerator(
        n_tokens=15, n_pools=40, seed=args.seed, price_noise=0.015
    ).generate()
    without, with_arb = efficiency_experiment(market, n_blocks=args.blocks, seed=args.seed)
    print(f"mean mispricing index over {args.blocks} blocks:")
    print(f"  without arbitrage: {without.mean_mispricing():.5f}")
    print(f"  with arbitrage:    {with_arb.mean_mispricing():.5f}")
    print(f"profitable loops at final block: "
          f"{without.loop_series()[-1]} vs {with_arb.loop_series()[-1]}")
    arb = with_arb.agents[1]
    print(f"arbitrageur: {arb.trades} trades, ${arb.cumulative_usd:,.2f} profit")


def _stream(args):
    """The ``(market, log)`` pair ``replay`` and ``serve`` run.

    With ``--events``/``--snapshot`` both files are loaded, and any
    synthetic flag given is rejected.  Otherwise the stream is generated,
    and each synthetic flag not given is set on ``args`` to its
    ``_STREAM_FLAGS`` default.  Bad sizes and unreadable or malformed
    files exit with one line.
    """
    from .data.snapshot import MarketSnapshot
    from .replay import MarketEventLog, make_workload

    if (args.events is None) != (args.snapshot is None):
        raise SystemExit("--events and --snapshot must be given together")
    given = [flag for flag, dest, *_ in _STREAM_FLAGS if getattr(args, dest) is not None]
    if args.events and given:
        raise SystemExit(
            f"{', '.join(given)} only shape generated streams; "
            "they cannot apply to a stream loaded with --events"
        )
    try:
        if args.events:
            return MarketSnapshot.load(args.snapshot), MarketEventLog.load(args.events)
        for _flag, dest, _kind, default, _text in _STREAM_FLAGS:
            if getattr(args, dest) is None:
                setattr(args, dest, default)
        return make_workload(
            args.tokens, args.pools, args.blocks, args.events_per_block,
            args.seed, price_noise=0.015,
            stableswap_fraction=args.stableswap_fraction,
        )
    except (OSError, ValueError) as exc:
        raise SystemExit(str(exc)) from None


def _cmd_replay(args) -> None:
    from .replay import ReplayDriver
    from .strategies import make_strategy

    market, log = _stream(args)
    if args.save_events:
        log.save(args.save_events)
        print(f"wrote {args.save_events}")
    if args.save_snapshot:
        market.save(args.save_snapshot)
        print(f"wrote {args.save_snapshot}")

    names = [name.strip() for name in args.strategies.split(",") if name.strip()]
    if not names:
        raise SystemExit("--strategies needs at least one strategy name")
    try:
        strategies = {name: make_strategy(name) for name in names}
    except ValueError as exc:
        raise SystemExit(str(exc)) from None

    prune = args.mode == "incremental" and not args.no_prune
    try:
        driver = ReplayDriver(
            market, strategies=strategies, length=args.length, mode=args.mode,
            prune=prune,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    result = driver.replay(log)

    header = ["block", "events", "dirty", "evaluated", "loops>0", "mispricing"]
    header += [f"{name} $" for name in strategies]
    rows = [
        (
            r.block,
            r.n_events,
            len(r.dirty_pools),
            f"{r.evaluated_loops}/{r.total_loops}",
            r.profitable_loops,
            f"{r.mispricing_index:.5f}",
            *(f"{r.profit_usd[name]:,.2f}" for name in strategies),
        )
        for r in result.reports
    ]
    print(
        f"{args.mode} replay: {result.events_applied} events over "
        f"{len(result.reports)} blocks, {driver.total_loops} candidate "
        f"length-{args.length} loops"
    )
    print(report.format_table(header, rows))
    totals = ", ".join(
        f"{name} ${result.total_profit(name):,.2f}" for name in strategies
    )
    print(f"cumulative profit surface: {totals}")
    print(
        f"loop evaluations: {result.evaluations()} "
        f"(full recompute would be {driver.total_loops * len(result.reports)})"
    )
    if prune:
        print(
            f"bound pruning skipped {driver.evaluator_stats.pruned_loops} "
            "exact quotes (--no-prune to disable; numbers are identical)"
        )
    if args.csv:
        import csv

        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["block", "n_events", "dirty_pools", "evaluated_loops",
                 "total_loops", "profitable_loops", "mispricing_index"]
                + [f"profit_usd_{name}" for name in strategies]
            )
            for r in result.reports:
                writer.writerow(
                    [r.block, r.n_events, len(r.dirty_pools), r.evaluated_loops,
                     r.total_loops, r.profitable_loops, r.mispricing_index]
                    + [r.profit_usd[name] for name in strategies]
                )
        print(f"wrote {args.csv}")


def _install_sigterm_exit() -> None:
    """Make SIGTERM unwind as SystemExit so ``finally`` blocks run.

    The serve process backend owns a shared-memory segment; a
    default SIGTERM would kill the process without running the cleanup
    that unlinks it from /dev/shm.  Raising SystemExit routes termination
    through the normal ``finally``/atexit path instead.  Main thread
    only; harmless to call twice.
    """
    import signal
    import threading

    if threading.current_thread() is not threading.main_thread():
        return

    def _exit(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, _exit)


def _cmd_serve(args) -> None:
    import asyncio

    from .service import OpportunityService, log_source, paced, simulation_source
    from .strategies import make_strategy

    if args.events and args.simulate is not None:
        raise SystemExit("--simulate and --events are mutually exclusive sources")
    try:
        strategy = make_strategy(args.strategy)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    if args.shards < 1:
        raise SystemExit(f"--shards must be >= 1, got {args.shards}")
    if args.top < 1:
        raise SystemExit(f"--top must be >= 1, got {args.top}")
    if not args.rate >= 0:  # a NaN rate fails this too
        raise SystemExit(f"--rate must be >= 0, got {args.rate:g}")
    if args.simulate is not None:
        if args.simulate < 0:
            raise SystemExit(f"--simulate must be >= 0, got {args.simulate}")
        given = [
            flag
            for flag, dest in (
                ("--blocks", "blocks"), ("--events-per-block", "events_per_block")
            )
            if getattr(args, dest) is not None
        ]
        if given:
            raise SystemExit(
                f"{', '.join(given)} only shape generated streams; "
                "they cannot apply to --simulate"
            )
        # the simulation makes its own blocks: build the market, no log
        args.blocks = args.events_per_block = 0

    market, log = _stream(args)
    if args.simulate is not None:
        from .simulation import SimulationEngine
        from .simulation.agents import RetailTrader

        source = simulation_source(
            SimulationEngine(
                market, [RetailTrader(seed=args.seed)], price_seed=args.seed
            ),
            args.simulate,
        )
        origin = f"live simulation ({args.simulate} blocks)"
    else:
        source = log_source(log)
        origin = (
            f"{args.events} ({len(log)} events)" if args.events
            else f"synthetic stream ({len(log)} events, {args.blocks} blocks)"
        )
    if args.rate > 0:
        source = paced(source, args.rate)

    _install_sigterm_exit()
    try:
        service = OpportunityService(
            market,
            n_shards=args.shards,
            length=args.length,
            strategy=strategy,
            backend=args.backend,
            queue_size=args.queue_size,
            ingest_policy=args.policy,
            prune_top_k=None if args.no_prune else args.top,
            start_method=args.start_method,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    print(
        f"serving {origin} over {service.total_loops} candidate "
        f"length-{args.length} loops, {args.shards} shard(s) "
        f"[{args.backend}], "
        f"loops per shard {service.plan.loops_per_shard()}"
    )

    async def _run():
        if args.metrics_port is None:
            return await service.run(source)
        from .telemetry.server import MetricsServer

        # scrapes hit the live run (window metrics + process registry);
        # the endpoint lives exactly as long as the stream
        async with MetricsServer(
            service.scrape_registry, port=args.metrics_port
        ) as server:
            print(f"metrics endpoint: http://{server.host}:{server.port}/metrics")
            return await service.run(source)

    try:
        result = asyncio.run(_run())
    finally:
        service.close()

    top = result.top(args.top)
    rows = [
        (i + 1, f"${o.profit_usd:,.2f}", o.path, o.block, o.shard)
        for i, o in enumerate(top)
    ]
    print(f"top {len(top)} opportunities (book seq {result.book.seq}):")
    print(report.format_table(["#", f"{args.strategy} $", "loop", "block", "shard"], rows))
    e2e = result.metrics["latencies"].get("end_to_end", {})
    print(
        f"{result.events_ingested} events ({result.events_dropped} dropped) in "
        f"{result.duration_s:.3f}s -> {result.events_per_s:,.0f} ev/s; "
        f"{result.evaluations} loop evaluations, "
        f"{result.loops_remonetized} of them re-monetised "
        f"({result.loops_pruned} pruned by bounds), "
        f"{result.loops_restored} kept entries restored; "
        f"end-to-end p50 {e2e.get('p50_ms', 0.0):.2f}ms / "
        f"p99 {e2e.get('p99_ms', 0.0):.2f}ms"
    )
    memory = result.memory
    counters = result.metrics.get("counters", {})
    print(
        f"market store: {memory['segment_name'] or 'in-process'} "
        f"({memory['store_nbytes']:,}B, held once), per-shard handles "
        f"{sum(memory['shard_handle_bytes']):,}B total; "
        f"seqlock epoch waits {counters.get('shm_epoch_waits', 0)}, "
        f"torn-read retries {counters.get('shm_torn_retries', 0)}"
    )
    if args.json:
        import json

        with open(args.json, "w") as fh:
            json.dump(result.to_dict(), fh, indent=2)
        print(f"wrote {args.json}")
    if args.csv:
        import csv

        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["rank", "profit_usd", "loop_id", "path", "amount_in",
                 "start", "block", "shard"]
            )
            for rank, o in enumerate(top, start=1):
                writer.writerow(
                    [rank, repr(o.profit_usd), o.loop_id, o.path,
                     "" if o.amount_in is None else repr(o.amount_in),
                     o.start_symbol or "", o.block, o.shard]
                )
        print(f"wrote {args.csv}")


_HANDLERS = {
    "section5": _cmd_section5,
    "fig1": _cmd_fig1,
    "fig2": _cmd_fig2,
    "fig3": _cmd_fig3,
    "fig4": _cmd_fig4,
    "fig5": _scatter_command(analysis.fig5_maxmax_vs_traditional),
    "fig6": _scatter_command(analysis.fig6_maxprice_vs_maxmax),
    "fig7": _scatter_command(analysis.fig7_convex_vs_maxmax),
    "fig9": _scatter_command(analysis.fig9_len4_traditional),
    "fig10": _scatter_command(analysis.fig10_len4_maxmax),
    "fig8": _cmd_fig8,
    "runtime": _cmd_runtime,
    "calibrate": _cmd_calibrate,
    "detect": _cmd_detect,
    "sweep": _cmd_sweep,
    "harvest": _cmd_harvest,
    "discrepancy": _cmd_discrepancy,
    "efficiency": _cmd_efficiency,
    "replay": _cmd_replay,
    "serve": _cmd_serve,
}


if __name__ == "__main__":
    sys.exit(main())
