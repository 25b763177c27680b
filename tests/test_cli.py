"""The command-line interface."""

import json

import pytest

from repro.__main__ import main, parse_graph
from repro.graphs import cycle_graph, paper_figure_1b, petersen_graph


class TestParseGraph:
    def test_families(self):
        assert parse_graph("cycle:5") == cycle_graph(5)
        assert parse_graph("petersen") == petersen_graph()
        assert parse_graph("fig1b") == paper_figure_1b()
        assert parse_graph("circulant:8:1,2") == paper_figure_1b()
        assert parse_graph("complete:4").n == 4
        assert parse_graph("harary:3:8").min_degree() == 3

    def test_unknown_family(self):
        with pytest.raises(SystemExit):
            parse_graph("doughnut:5")


class TestCommands:
    def test_check(self, capsys):
        assert main(["check", "--graph", "fig1a", "--f", "1"]) == 0
        out = capsys.readouterr().out
        assert "FEASIBLE" in out
        assert "max f (local broadcast): 1" in out

    def test_check_hybrid(self, capsys):
        assert main(["check", "--graph", "complete:4", "--f", "1", "--t", "1"]) == 0
        assert "hybrid" in capsys.readouterr().out

    def test_run_no_faults(self, capsys):
        assert main(["run", "--graph", "cycle:4", "--f", "1",
                     "--algorithm", "2"]) == 0
        assert "agreement     : True" in capsys.readouterr().out

    def test_run_with_fault(self, capsys):
        code = main([
            "run", "--graph", "cycle:5", "--f", "1", "--algorithm", "1",
            "--faulty", "2", "--adversary", "tamper-forward",
        ])
        assert code == 0
        assert "validity      : True" in capsys.readouterr().out

    def test_run_equivocate_adversary_replayable(self, capsys):
        """Hybrid sweep records name 'equivocate'; cmd_run must accept
        it so those scenarios replay."""
        code = main([
            "run", "--graph", "complete:4", "--f", "1", "--t", "1",
            "--algorithm", "3", "--faulty", "0", "--adversary", "equivocate",
        ])
        assert code == 0
        assert "outcome       : decided" in capsys.readouterr().out

    def test_run_unknown_adversary(self):
        with pytest.raises(SystemExit):
            main(["run", "--graph", "cycle:5", "--f", "1",
                  "--faulty", "0", "--adversary", "mind-control"])

    def test_compare(self, capsys):
        assert main(["compare", "--max-f", "2"]) == 0
        out = capsys.readouterr().out
        assert "kappa LB" in out

    def test_demo_impossibility_degree(self, capsys):
        assert main(["demo-impossibility", "--kind", "degree", "--f", "1"]) == 0
        out = capsys.readouterr().out
        assert "violation demonstrated" in out

    def test_demo_impossibility_connectivity(self, capsys):
        code = main(["demo-impossibility", "--kind", "connectivity",
                     "--f", "2"])
        assert code == 0


class TestSweepCommand:
    def test_sweep_json_to_stdout(self, capsys):
        code = main([
            "sweep", "--graph", "cycle:4", "--f", "1",
            "--patterns", "all-one", "--fault-limit", "2",
        ])
        assert code == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["all_consensus"] is True
        assert payload["graph"] == "cycle:4"
        assert payload["runs"] == len(payload["records"]) > 0

    def test_sweep_parallel_matches_serial(self, capsys):
        args = ["sweep", "--graph", "cycle:4", "--f", "1",
                "--patterns", "all-one,split", "--fault-limit", "2"]
        assert main(args) == 0
        serial_out = capsys.readouterr().out
        assert main(args + ["--workers", "2"]) == 0
        parallel_out = capsys.readouterr().out
        import json

        serial = json.loads(serial_out)
        parallel = json.loads(parallel_out)
        serial.pop("workers"), parallel.pop("workers")
        assert serial == parallel

    def test_sweep_writes_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main([
            "sweep", "--graph", "cycle:4", "--f", "1",
            "--patterns", "all-one", "--fault-limit", "1",
            "--output", str(out),
        ])
        assert code == 0
        import json

        payload = json.loads(out.read_text())
        assert payload["runs"] == len(payload["records"])
        assert "report.json" in capsys.readouterr().out


class TestSchedulerAxisParsing:
    """Malformed --scheduler lists fail loudly instead of silently
    duplicating (or emptying) slices of the work-list."""

    def sweep_args(self, scheduler):
        return ["sweep", "--graph", "cycle:4", "--f", "1",
                "--patterns", "all-one", "--fault-limit", "1",
                "--scheduler", scheduler]

    @pytest.mark.parametrize("spec", ["sync,", ",,sync", ",", ""])
    def test_empty_tokens_rejected(self, spec):
        with pytest.raises(SystemExit, match="empty scheduler token"):
            main(self.sweep_args(spec))

    @pytest.mark.parametrize("spec", ["sync,sync", "seeded-async,seeded-async",
                                      "sync,seeded-async,sync"])
    def test_duplicates_rejected(self, spec):
        with pytest.raises(SystemExit, match="duplicate scheduler"):
            main(self.sweep_args(spec))

    def test_valid_axis_still_parses(self, capsys):
        assert main(self.sweep_args("sync,seeded-async") + ["--exit-zero"]) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert {r["scheduler"] for r in payload["records"]} == {
            "sync", "seeded-async"
        }


class TestAlgorithm3HybridSweep:
    """Regression: `sweep --algorithm 3 --t` must run under the hybrid
    channel (cmd_run always did; cmd_sweep used to ignore --t and sweep
    pure local broadcast, where equivocation is physically impossible)."""

    def test_sweep_honors_t(self, capsys):
        code = main([
            "sweep", "--graph", "complete:4", "--f", "1", "--t", "1",
            "--algorithm", "3", "--patterns", "split",
        ])
        assert code == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        adversaries = {r["adversary"] for r in payload["records"]}
        # The equivocating behavior is only *runnable* once the per-task
        # hybrid channel grants the faulty node unicast — its presence
        # (and the sweep surviving it) is the fix, end to end.
        assert "equivocate" in adversaries
        assert payload["all_consensus"] is True

    def test_equivocator_prefix_is_canonical(self):
        """Both cmd_run and the sweep derive equivocators from the same
        canonical (repr-sorted) prefix of the fault set, so listing
        --faulty in a different order cannot change who may unicast and
        sweep records replay identically under cmd_run."""
        from repro.analysis import HybridEquivocatorPolicy

        policy = HybridEquivocatorPolicy(1)
        assert policy((2, 0)) == policy((0, 2))
        assert policy((2, 0)).equivocators == frozenset({0})
        assert policy((2, 0)).may_unicast(0)
        assert not policy((2, 0)).may_unicast(2)

    def test_without_t_battery_is_standard(self, capsys):
        code = main([
            "sweep", "--graph", "complete:4", "--f", "1",
            "--algorithm", "3", "--patterns", "split",
        ])
        assert code == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert "equivocate" not in {r["adversary"] for r in payload["records"]}


class TestSynchronizerFlag:
    def test_sweep_synchronizer_recovers_async_consensus(self, capsys):
        code = main([
            "sweep", "--graph", "cycle:4", "--f", "1", "--algorithm", "2",
            "--scheduler", "seeded-async", "--seed", "7",
            "--synchronizer", "alpha", "--patterns", "all-zero",
        ])
        assert code == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["synchronizer"] == "alpha"
        assert payload["all_consensus"] is True
        assert payload["outcomes"] == {"decided": payload["runs"]}

    def test_run_synchronizer_flag(self, capsys):
        code = main([
            "run", "--graph", "cycle:4", "--f", "1", "--algorithm", "2",
            "--faulty", "0", "--adversary", "tamper-forward",
            "--scheduler", "seeded-async", "--seed", "7",
            "--synchronizer", "alpha",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "synchronizer  : alpha" in out
        assert "outcome       : decided" in out


class TestAsyncAlgorithm:
    def test_check_reports_async_feasibility(self, capsys):
        assert main(["check", "--graph", "wheel:5", "--f", "1"]) == 0
        out = capsys.readouterr().out
        assert "async-local-broadcast (f=1): FEASIBLE" in out
        assert "max f (async LB):" in out

    def test_run_async(self, capsys):
        code = main([
            "run", "--graph", "wheel:5", "--f", "1", "--algorithm", "async",
            "--faulty", "1", "--adversary", "silent",
            "--scheduler", "seeded-async", "--seed", "7",
            "--declare-unbounded",
        ])
        assert code == 0
        assert "outcome       : decided" in capsys.readouterr().out

    def test_async_refuses_a_synchronizer(self):
        with pytest.raises(SystemExit, match="natively asynchronous"):
            main([
                "run", "--graph", "wheel:5", "--f", "1",
                "--algorithm", "async", "--synchronizer", "alpha",
            ])

    def test_sweep_async_unbounded_with_window_targeting(self, capsys):
        code = main([
            "sweep", "--graph", "wheel:5", "--f", "1", "--algorithm", "async",
            "--scheduler", "seeded-async,adversarial", "--seed", "5",
            "--declare-unbounded", "--target-window", "3",
            "--patterns", "split",
        ])
        assert code == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["all_consensus"] is True
        assert payload["outcomes"] == {"decided": payload["runs"]}
        assert {r["scheduler"] for r in payload["records"]} == {
            "seeded-async-unbounded", "adversarial-unbounded",
        }

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_unbounded_axis_refuses_fixed_round_algorithms(self, command):
        """A fixed-round algorithm cannot be budgeted with no declared
        bound — that must be a clean CLI error, not a mid-run traceback."""
        with pytest.raises(SystemExit, match="algorithm async"):
            main([
                command, "--graph", "cycle:4", "--f", "1", "--algorithm", "2",
                "--scheduler", "seeded-async", "--declare-unbounded",
            ])

    def test_unbounded_axis_refuses_a_synchronizer(self):
        # Caught by the same fixed-round guard, before any wrapping.
        with pytest.raises(SystemExit, match="algorithm async"):
            main([
                "sweep", "--graph", "cycle:4", "--f", "1", "--algorithm", "2",
                "--scheduler", "seeded-async", "--declare-unbounded",
                "--synchronizer", "alpha",
            ])

    def test_target_window_above_max_delay_rejected(self):
        with pytest.raises(SystemExit):
            main([
                "run", "--graph", "wheel:5", "--f", "1",
                "--algorithm", "async", "--scheduler", "adversarial",
                "--max-delay", "3", "--target-window", "4",
            ])

    def test_run_fixed_ack_decides_marker_withholding(self, capsys):
        """The CLI wires --f into ack mode's marker quorum, so the
        Byzantine-stall scenario now decides from the command line too."""
        code = main([
            "run", "--graph", "cycle:4", "--f", "1", "--algorithm", "2",
            "--faulty", "1", "--adversary", "silent",
            "--scheduler", "seeded-async", "--seed", "7",
            "--synchronizer", "ack",
        ])
        assert code == 0
        assert "outcome       : decided" in capsys.readouterr().out


class TestRandomGraphSpecs:
    def test_random_regular_spec(self):
        from repro.graphs import random_regular_graph

        assert parse_graph("random_regular:8:4:3") == random_regular_graph(8, 4, 3)
        assert parse_graph("random_regular:8:4") == random_regular_graph(8, 4, 0)

    @pytest.mark.parametrize("spec,fragment", [
        ("cycle:2", "at least three nodes"),
        ("random_regular:5:3", "n * d must be even"),
    ])
    def test_graph_error_exits_cleanly(self, spec, fragment):
        import re

        message = f"graph spec {spec!r}: .*{re.escape(fragment)}"
        with pytest.raises(SystemExit, match=message):
            parse_graph(spec)

    @pytest.mark.parametrize("spec", ["cycle:x", "wheel:x"])
    def test_non_integer_size_exits_cleanly(self, spec):
        with pytest.raises(
            SystemExit,
            match=f"graph spec {spec!r}: N must be an integer, got 'x'",
        ):
            main(["check", "--graph", spec, "--f", "1"])

    def test_gnp_spec(self):
        from repro.graphs import gnp_supercritical_graph

        assert parse_graph("gnp:12") == gnp_supercritical_graph(12, 2.0, 0)
        assert parse_graph("gnp:12:2.5:9") == gnp_supercritical_graph(12, 2.5, 9)
        assert parse_graph("gnp_supercritical:12:2.5:9") == parse_graph("gnp:12:2.5:9")


class TestMetricsFlags:
    def test_run_metrics_to_stdout(self, capsys):
        code = main(["run", "--graph", "cycle:4", "--f", "1",
                     "--algorithm", "2", "--metrics"])
        assert code == 0
        out = capsys.readouterr().out
        # The snapshot is the pretty-printed JSON block after the
        # summary lines (which also contain braces).
        payload = json.loads(out[out.index("\n{") :])
        assert payload["metrics"]["counters"]["net.ticks"] > 0
        assert "run" in payload["timings"]

    def test_run_metrics_to_file_and_events(self, tmp_path, capsys):
        metrics_file = tmp_path / "m.json"
        events_file = tmp_path / "e.ndjson"
        code = main(["run", "--graph", "cycle:4", "--f", "1",
                     "--algorithm", "2",
                     "--metrics", str(metrics_file),
                     "--events", str(events_file)])
        assert code == 0
        payload = json.loads(metrics_file.read_text())
        assert payload["metrics"]["counters"]["net.ticks"] > 0
        lines = events_file.read_text().splitlines()
        kinds = [json.loads(line)["event"] for line in lines]
        assert kinds[0] == "tick"
        assert kinds[-1] == "result"

    def test_unmetered_run_prints_no_snapshot(self, capsys):
        assert main(["run", "--graph", "cycle:4", "--f", "1",
                     "--algorithm", "2"]) == 0
        assert '"metrics"' not in capsys.readouterr().out

    def test_sweep_metrics_embedded_and_sidefile(self, tmp_path, capsys):
        metrics_file = tmp_path / "merged.json"
        report_file = tmp_path / "report.json"
        code = main(["sweep", "--graph", "cycle:4", "--f", "1",
                     "--algorithm", "2", "--patterns", "alternating",
                     "--metrics", str(metrics_file),
                     "--output", str(report_file)])
        assert code == 0
        report = json.loads(report_file.read_text())
        assert report["metrics"]["runs"] == report["runs"]
        assert report["timings"]["workers"] == 1
        merged = json.loads(metrics_file.read_text())
        assert merged["metrics"] == report["metrics"]

    def test_sweep_events_are_slot_ordered(self, tmp_path, capsys):
        events_file = tmp_path / "sweep.ndjson"
        code = main(["sweep", "--graph", "cycle:4", "--f", "1",
                     "--algorithm", "2", "--patterns", "alternating",
                     "--workers", "2", "--events", str(events_file)])
        assert code == 0
        lines = [json.loads(line)
                 for line in events_file.read_text().splitlines()]
        records = [e for e in lines if e["event"] == "record"]
        assert [e["index"] for e in records] == list(range(len(records)))
        assert lines[-1]["event"] == "summary"
        assert lines[-1]["runs"] == len(records)


class TestProfileCommand:
    def test_profile_checks_pass_and_bench_written(self, tmp_path, capsys):
        out_file = tmp_path / "BENCH_test.json"
        code = main(["profile", "--graph", "wheel:5", "--f", "1",
                     "--algorithm", "2", "--name", "test",
                     "--output", str(out_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "phase1_flood_accepted" in out
        assert "FAIL" not in out
        record = json.loads(out_file.read_text())
        assert record["bench"] == "test"
        assert all(c["ok"] for c in record["checks"])
        expected = record["predictions"]["expected_flood_deliveries"]
        accepted = next(c for c in record["checks"]
                        if c["name"] == "phase1_flood_accepted")
        assert accepted["actual"] == expected - record["spec"]["n"]

    def test_profile_async_has_no_round_checks(self, capsys):
        code = main(["profile", "--graph", "wheel:5", "--f", "1",
                     "--algorithm", "async", "--fault-limit", "2"])
        assert code == 0
        assert "round_budget" not in capsys.readouterr().out


class TestTraceCommand:
    DISAGREED = [
        "run", "--graph", "wheel:5", "--f", "1", "--algorithm", "2",
        "--faulty", "0", "--adversary", "tamper-forward",
        "--scheduler", "seeded-async", "--seed", "7", "--max-delay", "3",
    ]

    def _record(self, tmp_path, capsys, extra=()):
        path = tmp_path / "flight.ndjson"
        code = main(self.DISAGREED + list(extra) + ["--trace", str(path)])
        capsys.readouterr()
        assert code == 1  # disagreement, by design of the corpus
        return path

    def test_summary(self, tmp_path, capsys):
        path = self._record(tmp_path, capsys)
        assert main(["trace", "summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "outcome=disagreed" in out
        assert "causal_violations=0" in out

    def test_critical_path_consistent(self, tmp_path, capsys):
        path = self._record(tmp_path, capsys)
        assert main(["trace", "critical-path", str(path)]) == 0
        assert "consistent=True" in capsys.readouterr().out

    def test_blame_exit_codes(self, tmp_path, capsys):
        """The forensic contract: 0 = attributed (and only faulty nodes
        named), 1 = clean run, 2 would be unattributed."""
        path = self._record(tmp_path, capsys)
        assert main(["trace", "blame", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "attributed"
        assert report["blamed"] == [0]

        clean = tmp_path / "clean.ndjson"
        assert main(["run", "--graph", "cycle:4", "--f", "1",
                     "--algorithm", "2", "--trace", str(clean)]) == 0
        capsys.readouterr()
        assert main(["trace", "blame", str(clean)]) == 1
        assert "verdict : clean" in capsys.readouterr().out

    def test_replay_byte_identical(self, tmp_path, capsys):
        path = self._record(tmp_path, capsys)
        assert main(["trace", "replay", str(path)]) == 0
        assert "byte for byte" in capsys.readouterr().out

    def test_export_chrome(self, tmp_path, capsys):
        path = self._record(tmp_path, capsys)
        out_file = tmp_path / "trace.chrome.json"
        assert main(["trace", "export-chrome", str(path),
                     "--output", str(out_file)]) == 0
        payload = json.loads(out_file.read_text())
        assert payload["traceEvents"]
        phases = {e["ph"] for e in payload["traceEvents"]}
        assert {"X", "s", "f", "M"} <= phases

    def test_sweep_capture_writes_anomaly_flights(self, tmp_path, capsys):
        capture = tmp_path / "cap"
        code = main([
            "sweep", "--graph", "wheel:5", "--f", "1", "--algorithm", "2",
            "--scheduler", "seeded-async", "--seed", "7", "--max-delay", "3",
            "--patterns", "alternating", "--fault-limit", "2",
            "--workers", "2", "--exit-zero",
            "--capture", str(capture), "--output", str(tmp_path / "r.json"),
        ])
        capsys.readouterr()
        assert code == 0
        blobs = sorted(capture.glob("flight-*.ndjson"))
        assert blobs, "the corpus is known to contain anomalies"
        # Every captured blob is immediately analyzable and attributed.
        assert main(["trace", "blame", str(blobs[0])]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("action", ["summary", "replay"])
    @pytest.mark.parametrize("damage,fragment", [
        ("truncate-last", "is not valid JSON"),
        ("garble-middle", "line 3 is not valid JSON"),
        ("drop-outcome", "is not a flight outcome"),
    ])
    def test_malformed_flight_exits_2_with_one_line(
        self, tmp_path, capsys, action, damage, fragment
    ):
        lines = self._record(tmp_path, capsys).read_text().splitlines()
        if damage == "truncate-last":
            lines[-1] = lines[-1][: len(lines[-1]) // 2]
            fragment = f"line {len(lines)} {fragment}"
        elif damage == "garble-middle":
            lines[2] = "{not json"
        else:
            lines.pop()
        broken = tmp_path / "broken.ndjson"
        broken.write_text("\n".join(lines) + "\n")
        assert main(["trace", action, str(broken)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"trace {action}: {broken}: ")
        assert fragment in captured.err

    def test_profile_trace_records_metered_run(self, tmp_path, capsys):
        path = tmp_path / "prof.ndjson"
        assert main(["profile", "--graph", "cycle:5", "--f", "1",
                     "--algorithm", "2", "--trace", str(path)]) == 0
        capsys.readouterr()
        assert main(["trace", "replay", str(path)]) == 0
        assert "byte for byte" in capsys.readouterr().out

    def test_profile_trace_rejects_flood_receipt(self):
        with pytest.raises(SystemExit):
            main(["profile", "--graph", "wheel:9", "--f", "1",
                  "--flood-receipt", "--trace", "x.ndjson"])


class TestDirectedGraphSpecs:
    def test_oneway_spec(self):
        from repro.graphs import oneway_ring

        assert parse_graph("oneway:9:2") == oneway_ring(9, 2)
        assert parse_graph("oneway:5") == oneway_ring(5, 1)
        assert parse_graph("oneway:9:2").directed

    def test_random_digraph_spec(self):
        from repro.graphs import random_digraph

        assert parse_graph("random_digraph:8:0.3:7") == random_digraph(8, 0.3, 7)
        assert parse_graph("random_digraph:8:0.3") == random_digraph(8, 0.3, 0)

    @pytest.mark.parametrize("spec,fragment", [
        ("oneway", "takes N[:K]"),
        ("oneway:5:2:9", "takes N[:K]"),
        ("oneway:bad", "N must be an integer"),
        ("oneway:5:x", "K must be an integer"),
        ("oneway:2", "at least three nodes"),
        ("random_digraph", "takes N:P[:SEED]"),
        ("random_digraph:8", "takes N:P[:SEED]"),
        ("random_digraph:8:0.5:1:2", "takes N:P[:SEED]"),
        ("random_digraph:x:0.5", "N must be an integer"),
        ("random_digraph:8:high", "P must be a number"),
        ("random_digraph:8:0.5:soon", "SEED must be an integer"),
        ("random_digraph:8:1.5", "probability must lie in [0, 1]"),
    ])
    def test_malformed_directed_specs_fail_loudly(self, spec, fragment):
        import re

        with pytest.raises(SystemExit, match=re.escape(fragment)):
            parse_graph(spec)


class TestDirectedCommands:
    def test_check_digraph(self, capsys):
        assert main(["check", "--graph", "oneway:9:2", "--f", "1"]) == 0
        out = capsys.readouterr().out
        assert "digraph: n=9, arcs=18" in out
        assert "strong kappa=2" in out
        assert "directed-local-broadcast (f=1): FEASIBLE" in out
        assert "max f (directed local broadcast): 1" in out
        assert "max f (symmetric closure):        2" in out

    def test_check_infeasible_digraph(self, capsys):
        assert main(["check", "--graph", "oneway:5", "--f", "1"]) == 0
        out = capsys.readouterr().out
        assert "infeasible" in out
        assert "max f (directed local broadcast): 0" in out

    def test_run_on_digraph(self, capsys):
        code = main([
            "run", "--graph", "oneway:9:2", "--f", "1", "--algorithm", "2",
            "--faulty", "0", "--adversary", "tamper-forward",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "agreement     : True" in out

    def test_sweep_on_digraph_records_directed(self, tmp_path, capsys):
        out_file = tmp_path / "directed.json"
        code = main([
            "sweep", "--graph", "oneway:9:2", "--f", "1", "--algorithm", "2",
            "--fault-limit", "2", "--output", str(out_file),
        ])
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["all_consensus"]
        assert all(rec["directed"] for rec in payload["records"])
