"""Unit tests for the CLI (fast commands only; figures run in
integration tests via the harness functions directly)."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        sub = next(
            a for a in parser._actions if a.__class__.__name__ == "_SubParsersAction"
        )
        expected = {
            "section5", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
            "fig7", "fig8", "fig9", "fig10", "runtime", "calibrate", "detect",
            "harvest", "discrepancy", "efficiency", "sweep", "replay",
            "serve",
        }
        assert expected <= set(sub.choices)

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["figure-nine-hundred"])
        assert exc_info.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["detect", "--no-such-flag"])
        assert exc_info.value.code == 2

    def test_version_exits_0_and_prints(self, capsys):
        from repro.cli import package_version

        with pytest.raises(SystemExit) as exc_info:
            main(["--version"])
        assert exc_info.value.code == 0
        out = capsys.readouterr().out
        assert out.strip() == f"repro-arb {package_version()}"

    def test_package_version_matches_source_tree(self):
        import repro
        from repro.cli import package_version

        # uninstalled (PYTHONPATH) runs fall back to repro.__version__;
        # installed runs must agree with it anyway
        assert package_version() == repro.__version__


class TestCommands:
    def test_section5(self, capsys):
        assert main(["section5"]) == 0
        out = capsys.readouterr().out
        assert "maxmax" in out
        assert "206" in out  # convex ~ 206.1$

    def test_fig1(self, capsys):
        assert main(["fig1", "--points", "50"]) == 0
        out = capsys.readouterr().out
        assert "optimal input" in out
        assert "26.96" in out

    def test_runtime_small(self, capsys):
        assert main(["runtime", "--lengths", "3", "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        assert "loop length" in out

    def test_harvest(self, capsys):
        assert main(["harvest", "--rounds", "2"]) == 0
        out = capsys.readouterr().out
        assert "harvested $" in out

    def test_harvest_gas_floor(self, capsys):
        assert main(["harvest", "--rounds", "2", "--gwei", "20"]) == 0
        out = capsys.readouterr().out
        assert "gas breakeven" in out

    def test_sweep(self, capsys):
        assert main(["sweep", "--strategies", "maxmax,maxprice", "--step", "2"]) == 0
        out = capsys.readouterr().out
        assert "engine sweep of PX" in out
        assert "maxmax" in out and "maxprice" in out

    def test_sweep_csv(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        assert main(["sweep", "--step", "5", "--csv", str(target)]) == 0
        assert target.exists()
        assert "price" in target.read_text().splitlines()[0]

    def test_sweep_walks_convex_in_process(self, capsys, tmp_path):
        """``sweep`` with a strategy that has no grid kernel walks it
        point by point: each convex cell equals a direct ``evaluate``."""
        import csv

        from repro import analysis
        from repro.data.example import TOKEN_X, section5_loop, section5_prices
        from repro.strategies import make_strategy

        target = tmp_path / "sweep.csv"
        assert main(["sweep", "--strategies", "maxmax,convex", "--step", "4",
                     "--csv", str(target)]) == 0
        capsys.readouterr()
        with open(target, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["price_X", "maxmax", "convex"]
        grid = analysis.paper_px_grid(step=4)
        assert [float(row[0]) for row in rows[1:]] == [float(p) for p in grid]
        loop, prices = section5_loop(), section5_prices()
        convex = make_strategy("convex")
        for row, price in zip(rows[1:], grid):
            ref = convex.evaluate(loop, prices.with_price(TOKEN_X, float(price)))
            assert row[2] == str(ref.monetized_profit)

    def test_sweep_rejects_foreign_token(self):
        with pytest.raises(SystemExit, match="not in the"):
            main(["sweep", "--token", "Q"])

    @pytest.mark.parametrize("argv, message", [
        (["serve", "--shards", "0"], "--shards must be >= 1, got 0"),
        (["serve", "--top", "0"], "--top must be >= 1, got 0"),
        (["detect", "--top", "-3"], "--top must be >= 1, got -3"),
    ], ids=["serve-shards", "serve-top", "detect-top"])
    def test_rejects_count_below_one(self, argv, message):
        with pytest.raises(SystemExit, match=message):
            main(argv)

    @pytest.mark.parametrize("args, message", [
        (["--blocks", "2", "--rate", "-5"], "--rate must be >= 0, got -5"),
        (["--blocks", "2", "--rate", "nan"], "--rate must be >= 0, got nan"),
        (["--simulate", "-3"], "--simulate must be >= 0, got -3"),
    ], ids=["rate-negative", "rate-nan", "simulate-negative"])
    def test_serve_rejects_negative_value(self, args, message):
        with pytest.raises(SystemExit, match=message):
            main(["serve", "--pools", "15", "--tokens", "8"] + args)

    def test_detect_rejects_short_length(self):
        with pytest.raises(SystemExit, match="need length >= 3, got 2"):
            main(["detect", "--length", "2"])

    def test_detect_scalar_matches_kernel_path(self, capsys, tmp_path):
        """``detect --csv`` equals the rows built from the scalar
        reference, ``MaxMaxStrategy.evaluate`` called per loop."""
        import csv

        from repro import analysis
        from repro.data import paper_market
        from repro.service.book import opportunity_sort_key
        from repro.strategies import MaxMaxStrategy

        kernel = tmp_path / "kernel.csv"
        assert main(["detect", "--csv", str(kernel)]) == 0
        capsys.readouterr()
        snapshot = paper_market(seed=20230901)
        _snapshot, loops = analysis.profitable_loops(snapshot, 3)
        scored = sorted(
            (
                (MaxMaxStrategy().evaluate(loop, snapshot.prices).monetized_profit,
                 loop)
                for loop in loops
            ),
            key=lambda pair: opportunity_sort_key(pair[0], pair[1].canonical_id),
        )
        with open(kernel, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["rank", "profit_usd", "loop_id", "path"]
        assert rows[1:] == [
            [str(rank), repr(profit), loop.canonical_id,
             " -> ".join(t.symbol for t in loop.tokens)]
            for rank, (profit, loop) in enumerate(scored, start=1)
        ]

    def test_detect_csv_is_byte_stable_across_runs(self, capsys, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(["detect", "--csv", str(first)]) == 0
        assert main(["detect", "--csv", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()
        header, *rows = first.read_text().splitlines()
        assert header == "rank,profit_usd,loop_id,path"
        # ranked: profit descending with canonical-id tie-break
        profits = [float(row.split(",")[1]) for row in rows]
        assert profits == sorted(profits, reverse=True)

    def test_detect_exact_prints_base_unit_column(self, capsys):
        assert main(["detect", "--top", "2", "--exact"]) == 0
        out = capsys.readouterr().out
        assert "exact profit (base units)" in out

    def test_detect_exact_csv_columns_and_float_parity(self, capsys, tmp_path):
        """--exact appends integer columns without disturbing the float
        ranking: stripping them recovers the plain detect CSV byte for
        byte, and every exact row is internally consistent."""
        plain = tmp_path / "plain.csv"
        exact = tmp_path / "exact.csv"
        assert main(["detect", "--csv", str(plain)]) == 0
        assert main(["detect", "--exact", "--csv", str(exact)]) == 0
        capsys.readouterr()
        plain_lines = plain.read_text().splitlines()
        exact_lines = exact.read_text().splitlines()
        assert exact_lines[0] == (
            "rank,profit_usd,loop_id,path,exact_scale,exact_amount_in,"
            "exact_amount_out,exact_profit_units"
        )
        assert len(plain_lines) == len(exact_lines)
        for plain_row, exact_row in zip(plain_lines[1:], exact_lines[1:]):
            cells = exact_row.split(",")
            assert ",".join(cells[:4]) == plain_row
            scale, a_in, a_out, profit_units = cells[4:]
            assert scale == str(10**18)
            assert int(a_out) - int(a_in) == int(profit_units)

    def test_efficiency(self, capsys):
        assert main(["efficiency", "--blocks", "2"]) == 0
        out = capsys.readouterr().out
        assert "mispricing" in out
        assert "arbitrageur" in out

    def test_replay_synthetic(self, capsys):
        assert main([
            "replay", "--blocks", "3", "--pools", "18", "--tokens", "9",
            "--events-per-block", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "incremental replay" in out
        assert "loop evaluations" in out

    def test_replay_full_mode_and_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "replay.csv"
        assert main([
            "replay", "--blocks", "2", "--pools", "15", "--tokens", "8",
            "--mode", "full", "--csv", str(csv_path),
        ]) == 0
        assert "full replay" in capsys.readouterr().out
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("block,")
        assert "profit_usd_maxmax" in header

    def test_replay_save_and_reload_events(self, capsys, tmp_path):
        stream = tmp_path / "stream.jsonl"
        snapshot = tmp_path / "market.json"
        assert main([
            "replay", "--blocks", "2", "--pools", "15", "--tokens", "8",
            "--seed", "3", "--save-events", str(stream),
            "--save-snapshot", str(snapshot),
        ]) == 0
        capsys.readouterr()
        # round trip: replay the saved stream against the saved snapshot
        assert main([
            "replay", "--events", str(stream), "--snapshot", str(snapshot),
        ]) == 0
        assert "incremental replay" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["replay", "serve"])
    def test_events_requires_snapshot(self, command):
        with pytest.raises(SystemExit, match="together"):
            main([command, "--events", "stream.jsonl"])

    @pytest.mark.parametrize("command", ["replay", "serve"])
    def test_rejects_synthetic_flags_with_events(self, command):
        with pytest.raises(SystemExit, match="--seed, --blocks only shape"):
            main([command, "--events", "s.jsonl", "--snapshot", "m.json",
                  "--blocks", "5", "--seed", "3"])

    @pytest.mark.parametrize("command, args, message", [
        pytest.param(command, args, message, id=f"{command}-{name}")
        for command in ("replay", "serve")
        for name, args, message in (
            ("tokens", ["--tokens", "2"], "need >= 3 tokens, got 2"),
            ("pools", ["--pools", "0"], "0 pools cannot connect 12 tokens"),
            ("stableswap", ["--stableswap-fraction", "1.5"],
             r"stableswap_fraction must be in \[0, 1\], got 1.5"),
            ("events-per-block", ["--events-per-block", "-1"],
             "events_per_block must be >= 0, got -1"),
            ("blocks", ["--blocks", "-2"], "n_blocks must be >= 0, got -2"),
            ("length", ["--length", "2"], "need length >= 3, got 2"),
            ("missing-snapshot",
             ["--events", "{dir}/bad.jsonl", "--snapshot", "{dir}/none.json"],
             "No such file or directory"),
            ("malformed-events",
             ["--events", "{dir}/bad.jsonl", "--snapshot", "{dir}/market.json"],
             "malformed event record"),
        )
    ])
    def test_bad_stream_input_exits_with_one_line(
        self, tmp_path, command, args, message
    ):
        from repro.replay import make_workload

        (tmp_path / "bad.jsonl").write_text("{}\n")
        make_workload(4, 6, 0, 0, seed=1)[0].save(tmp_path / "market.json")
        with pytest.raises(SystemExit, match=message):
            main([command] + [arg.format(dir=tmp_path) for arg in args])

    def test_replay_rejects_unknown_strategy(self):
        with pytest.raises(SystemExit, match="unknown strategy"):
            main(["replay", "--blocks", "1", "--strategies", "oracle"])

    def test_serve_synthetic(self, capsys):
        assert main([
            "serve", "--pools", "18", "--tokens", "9", "--blocks", "4",
            "--shards", "2", "--top", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "2 shard(s) [inline]" in out
        assert "opportunities" in out
        assert "end-to-end p50" in out

    def test_serve_reports_and_csv(self, capsys, tmp_path):
        json_path = tmp_path / "report.json"
        csv_path = tmp_path / "book.csv"
        assert main([
            "serve", "--pools", "15", "--tokens", "8", "--blocks", "3",
            "--json", str(json_path), "--csv", str(csv_path),
        ]) == 0
        capsys.readouterr()
        import json

        data = json.loads(json_path.read_text())
        assert data["n_shards"] == 1 and data["events_ingested"] > 0
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("rank,profit_usd,loop_id")

    def test_serve_file_source_round_trip(self, capsys, tmp_path):
        stream = tmp_path / "stream.jsonl"
        snapshot = tmp_path / "market.json"
        assert main([
            "replay", "--blocks", "2", "--pools", "15", "--tokens", "8",
            "--seed", "3", "--save-events", str(stream),
            "--save-snapshot", str(snapshot),
        ]) == 0
        capsys.readouterr()
        assert main([
            "serve", "--events", str(stream), "--snapshot", str(snapshot),
            "--shards", "2",
        ]) == 0
        assert "serving" in capsys.readouterr().out

    def test_serve_simulation_source(self, capsys):
        assert main([
            "serve", "--simulate", "3", "--pools", "15", "--tokens", "8",
        ]) == 0
        assert "live simulation" in capsys.readouterr().out

    def test_serve_rejects_conflicting_sources(self, tmp_path):
        with pytest.raises(SystemExit, match="together"):
            main(["serve", "--events", "s.jsonl"])
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main(["serve", "--events", "s.jsonl", "--snapshot", "m.json",
                  "--simulate", "3"])

    @pytest.mark.parametrize("args, given", [
        (["--blocks", "3000"], "--blocks"),
        (["--events-per-block", "4"], "--events-per-block"),
        (["--blocks", "3", "--events-per-block", "4"],
         "--blocks, --events-per-block"),
    ], ids=["blocks", "events-per-block", "both"])
    def test_serve_simulate_rejects_stream_flags(self, args, given):
        with pytest.raises(SystemExit, match=f"{given} only shape generated"):
            main(["serve", "--simulate", "2"] + args)

    def test_serve_simulate_builds_no_event_log(self, capsys, monkeypatch):
        import repro.replay

        sizes = []
        make_workload = repro.replay.make_workload

        def spy(n_tokens, n_pools, n_blocks, events_per_block, *args, **kwargs):
            sizes.append((n_blocks, events_per_block))
            return make_workload(
                n_tokens, n_pools, n_blocks, events_per_block, *args, **kwargs
            )

        monkeypatch.setattr(repro.replay, "make_workload", spy)
        assert main(["serve", "--simulate", "2", "--pools", "15",
                     "--tokens", "8"]) == 0
        assert "live simulation (2 blocks)" in capsys.readouterr().out
        assert sizes == [(0, 0)]

    def test_serve_rejects_unknown_strategy(self):
        with pytest.raises(SystemExit, match="unknown strategy"):
            main(["serve", "--blocks", "1", "--strategy", "oracle"])

    def test_serve_convex_on_stableswap_exits_with_one_line(self):
        with pytest.raises(SystemExit, match="no hop constraint for stableswap"):
            main(["serve", "--blocks", "3", "--pools", "15", "--tokens", "8",
                  "--strategy", "convex", "--stableswap-fraction", "0.3"])

    def test_fig2_csv(self, capsys, tmp_path, monkeypatch):
        # shrink the grid for speed by monkeypatching the default grid
        import repro.analysis.experiments as exp
        import numpy as np

        monkeypatch.setattr(
            exp, "paper_px_grid", lambda: np.array([1.0, 2.0, 15.0])
        )
        csv_path = tmp_path / "fig2.csv"
        assert main(["fig2", "--csv", str(csv_path)]) == 0
        assert csv_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("price_X")

    def test_detect_pruned_table_matches_no_prune(self, capsys):
        """The bound-pruned default ranking is presentation-identical to
        the exhaustive pass; only the pruning summary line differs."""
        assert main(["detect", "--top", "3"]) == 0
        pruned_out = capsys.readouterr().out
        assert main(["detect", "--top", "3", "--no-prune"]) == 0
        exact_out = capsys.readouterr().out
        assert "bound pruning skipped" in pruned_out
        assert "bound pruning skipped" not in exact_out
        table = [
            line for line in pruned_out.splitlines()
            if "bound pruning" not in line
        ]
        assert table == exact_out.splitlines()

    def test_replay_no_prune_same_numbers(self, capsys):
        args = ["replay", "--blocks", "3", "--pools", "15", "--tokens", "8",
                "--events-per-block", "4", "--seed", "5"]
        assert main(args) == 0
        pruned_out = capsys.readouterr().out
        assert main(args + ["--no-prune"]) == 0
        exact_out = capsys.readouterr().out
        assert "bound pruning skipped" in pruned_out
        assert "bound pruning skipped" not in exact_out

        def profits(out):
            # the evaluated/cache counters are the only allowed deltas:
            # drop the summary lines and the per-row evaluated column
            rows = []
            for line in out.splitlines():
                if "evaluations" in line or "bound pruning" in line:
                    continue
                fields = line.split()
                if fields and fields[0].isdigit():
                    del fields[3]  # evaluated N/M
                rows.append(fields)
            return rows

        assert profits(pruned_out) == profits(exact_out)

    def test_serve_no_prune_matches_pruned_book(self, capsys):
        args = ["serve", "--pools", "15", "--tokens", "8", "--blocks", "3",
                "--shards", "2", "--top", "3", "--seed", "7"]
        assert main(args) == 0
        pruned_out = capsys.readouterr().out
        assert main(args + ["--no-prune"]) == 0
        exact_out = capsys.readouterr().out
        assert "pruned by bounds" in pruned_out
        assert "(0 pruned by bounds)" in exact_out

        def book(out):
            lines = out.splitlines()
            return [line for line in lines if "$" in line]

        assert book(pruned_out) == book(exact_out)
