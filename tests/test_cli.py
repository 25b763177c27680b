"""The command-line interface."""

import dataclasses
import json

import pytest

import repro.__main__ as cli
from repro.__main__ import UsageError, main, parse_graph
from repro.analysis import consensus_sweep
from repro.consensus import Algorithm1Protocol
from repro.graphs import cycle_graph, paper_figure_1b, petersen_graph


class SpeclessFactory:
    """A picklable factory without ``flight_spec()``: its flights are
    recorded as opaque."""

    def __init__(self, graph, f):
        self.graph, self.f = graph, f

    def __call__(self, node, input_value):
        return Algorithm1Protocol(self.graph, node, self.f, input_value)


class TestParseGraph:
    def test_families(self):
        assert parse_graph("cycle:5") == cycle_graph(5)
        assert parse_graph("petersen") == petersen_graph()
        assert parse_graph("fig1b") == paper_figure_1b()
        assert parse_graph("circulant:8:1,2") == paper_figure_1b()
        assert parse_graph("complete:4").n == 4
        assert parse_graph("harary:3:8").min_in_degree() == 3

    def test_unknown_family(self):
        with pytest.raises(UsageError):
            parse_graph("doughnut:5")


# The stdout of every supported ``demo-impossibility``: both kinds at
# f = 1 and 2.  Each demo breaks agreement in E2 and every honest node
# matches the copy of the covering network that models it.
DEMO_STDOUT = {
    ('connectivity', 1): (
        'scenario connectivity (f=1, t=0) on n=5\n'
        '  E1: faulty=[2] agreement=True validity=True [consensus ok]\n'
        '  E2: faulty=[2] agreement=False validity=True [VIOLATED]\n'
        '  E3: faulty=[] agreement=True validity=True [consensus ok]\n'
        '  => violation demonstrated\n'
        'indistinguishability: True\n'
    ),
    ('connectivity', 2): (
        'scenario connectivity (f=2, t=0) on n=7\n'
        '  E1: faulty=[3, 4] agreement=True validity=True [consensus ok]\n'
        '  E2: faulty=[2, 4] agreement=False validity=True [VIOLATED]\n'
        '  E3: faulty=[2, 3] agreement=True validity=True [consensus ok]\n'
        '  => violation demonstrated\n'
        'indistinguishability: True\n'
    ),
    ('degree', 1): (
        'scenario degree (f=1, t=0) on n=3\n'
        '  E1: faulty=[1] agreement=True validity=True [consensus ok]\n'
        '  E2: faulty=[] agreement=False validity=True [VIOLATED]\n'
        '  E3: faulty=[0] agreement=True validity=True [consensus ok]\n'
        '  => violation demonstrated\n'
        'indistinguishability: True\n'
    ),
    ('degree', 2): (
        'scenario degree (f=2, t=0) on n=3\n'
        '  E1: faulty=[1] agreement=True validity=True [consensus ok]\n'
        '  E2: faulty=[] agreement=False validity=True [VIOLATED]\n'
        '  E3: faulty=[0] agreement=True validity=True [consensus ok]\n'
        '  => violation demonstrated\n'
        'indistinguishability: True\n'
    ),
}


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

    def test_run_equivocate_on_hybrid_channel_still_runs(self, capsys):
        """C5 misses the hybrid bound, so an equivocator granted unicast
        by --t 1 breaks agreement (exit 1) instead of being refused."""
        code = main([
            "run", "--graph", "cycle:5", "--f", "1", "--t", "1",
            "--algorithm", "3", "--faulty", "2", "--adversary", "equivocate",
        ])
        assert code == 1
        assert "outcome       : disagreed" in capsys.readouterr().out

    def test_run_unknown_adversary(self):
        with pytest.raises(SystemExit):
            main(["run", "--graph", "cycle:5", "--f", "1",
                  "--faulty", "0", "--adversary", "mind-control"])

    def test_compare(self, capsys):
        assert main(["compare", "--max-f", "2"]) == 0
        out = capsys.readouterr().out
        assert "kappa LB" in out

    @pytest.mark.parametrize(
        "kind, f", sorted(DEMO_STDOUT), ids=lambda v: str(v))
    def test_demo_impossibility_stdout(self, kind, f, capsys):
        """Every supported demo, verbatim.  The degree demo runs on P3 at
        every f, so at f = 2 it returns in milliseconds."""
        assert main(["demo-impossibility", "--kind", kind,
                     "--f", str(f)]) == 0
        assert capsys.readouterr().out == DEMO_STDOUT[kind, f]

    def test_demo_impossibility_needs_indistinguishability(
            self, monkeypatch, capsys):
        """A violation whose honest nodes did not all match their model
        copies shows nothing: the demo exits 1."""
        real = cli.run_scenario

        def mismatched(scenario, factory):
            report = real(scenario, factory)
            first = dataclasses.replace(
                report.executions[0], indistinguishable=False)
            return dataclasses.replace(
                report, executions=(first, *report.executions[1:]))

        monkeypatch.setattr(cli, "run_scenario", mismatched)
        assert main(["demo-impossibility", "--kind", "degree",
                     "--f", "1"]) == 1
        out = capsys.readouterr().out
        assert "=> violation demonstrated\n" in out
        assert out.endswith("indistinguishability: False\n")

    @pytest.mark.parametrize("kind", ["degree", "connectivity"])
    @pytest.mark.parametrize("f", ["0", "3"])
    def test_demo_impossibility_f_outside_1_2_exits_2(self, kind, f, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["demo-impossibility", "--kind", kind, "--f", f])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [
            "python -m repro demo-impossibility: error: argument --f: "
            f"invalid choice: {f} (choose from 1, 2)"
        ]


class TestFaultBoundOption:
    """Every ``--f`` rejects a negative bound at parse time (exit 2)."""

    @pytest.mark.parametrize("argv", [
        ["check", "--graph", "cycle:5"],
        ["run", "--graph", "cycle:5"],
        ["sweep", "--graph", "cycle:5"],
        ["profile", "--graph", "wheel:5", "--flood-receipt"],
        ["demo-impossibility", "--kind", "degree"],
    ], ids=lambda argv: argv[0])
    def test_negative_f_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--f", "-1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "argument --f: must be non-negative, got -1" in captured.err
        assert captured.out == ""

    def test_non_integer_f_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--graph", "cycle:5", "--f", "one"])
        assert exc.value.code == 2
        assert "invalid int value: 'one'" in capsys.readouterr().err

    def test_zero_f_accepted(self, capsys):
        assert main(["check", "--graph", "cycle:5", "--f", "0"]) == 0


class TestUsageErrors:
    """Bad ``--faulty``/``--workers``/``--scheduler`` values exit 2 with
    one stderr line before anything runs — never a traceback."""

    @staticmethod
    def assert_usage_error(argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert message in captured.err

    def test_faulty_index_out_of_range(self, capsys):
        self.assert_usage_error(
            ["run", "--graph", "cycle:5", "--f", "1", "--faulty", "99"],
            "argument --faulty: node index 99 out of range 0..4", capsys,
        )

    def test_faulty_index_not_an_integer(self, capsys):
        self.assert_usage_error(
            ["run", "--graph", "cycle:5", "--f", "1", "--faulty", "x"],
            "argument --faulty: invalid node index 'x'", capsys,
        )

    def test_more_faulty_nodes_than_f(self, capsys):
        self.assert_usage_error(
            ["run", "--graph", "cycle:5", "--f", "1", "--faulty", "0,1"],
            "argument --faulty: 2 faulty nodes exceed f = 1", capsys,
        )

    @pytest.mark.parametrize("argv, node", [
        ("--graph cycle:5 --f 1 --algorithm 1 --faulty 2", 2),
        ("--graph oneway:5 --f 1 --algorithm 2 --faulty 0", 0),
        ("--graph complete:7 --f 2 --algorithm 3 --t 1 --faulty 0,1", 1),
    ], ids=["local-broadcast", "digraph", "beyond-t"])
    def test_equivocate_without_unicast(self, argv, node, capsys):
        self.assert_usage_error(
            ["run", *argv.split(), "--adversary", "equivocate"],
            f"python -m repro run: error: argument --adversary: equivocate "
            f"needs unicast, but faulty node {node} is restricted to local "
            "broadcast", capsys,
        )

    def test_sweep_zero_workers(self, capsys):
        self.assert_usage_error(
            ["sweep", "--graph", "cycle:5", "--f", "1", "--workers", "0"],
            "argument --workers: must be >= 1, got 0", capsys,
        )

    def test_sweep_negative_workers(self, capsys):
        self.assert_usage_error(
            ["sweep", "--graph", "cycle:5", "--f", "1", "--workers", "-3"],
            "argument --workers: must be >= 1, got -3", capsys,
        )

    def test_profile_zero_workers(self, capsys):
        self.assert_usage_error(
            ["profile", "--graph", "wheel:5", "--f", "1", "--workers", "0"],
            "argument --workers: must be >= 1, got 0", capsys,
        )

    @pytest.mark.parametrize("command", ["sweep", "profile"])
    @pytest.mark.parametrize("limit", ["-1", "0"])
    def test_fault_limit_below_one(self, command, limit, capsys):
        """No sample (or a negative one) is no sweep: not a traceback,
        and not ``all_consensus`` over zero runs."""
        self.assert_usage_error(
            [command, "--graph", "cycle:5", "--f", "1", "--fault-limit", limit],
            f"argument --fault-limit: must be positive, got {limit}", capsys,
        )

    # argparse's own errors take the same one-line path.
    GRAPHS = {"run": "cycle:5", "sweep": "cycle:5", "profile": "wheel:5",
              "check": "cycle:5"}

    @pytest.mark.parametrize("command", ["run", "sweep", "profile", "check"])
    def test_missing_required_option(self, command, capsys):
        self.assert_usage_error(
            [command, "--graph", self.GRAPHS[command]],
            f"python -m repro {command}: error: the following arguments "
            "are required: --f", capsys,
        )

    @pytest.mark.parametrize("command", ["run", "sweep", "profile", "check"])
    def test_bad_int_value(self, command, capsys):
        self.assert_usage_error(
            [command, "--graph", self.GRAPHS[command], "--f", "1",
             "--t", "x"],
            f"python -m repro {command}: error: argument --t: invalid int "
            "value: 'x'", capsys,
        )

    @pytest.mark.parametrize("command", ["run", "sweep", "profile"])
    def test_bad_choice(self, command, capsys):
        self.assert_usage_error(
            [command, "--graph", self.GRAPHS[command], "--f", "1",
             "--algorithm", "9"],
            f"python -m repro {command}: error: argument --algorithm: "
            "invalid choice: '9'", capsys,
        )

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_events_sink_is_gone(self, command, capsys):
        self.assert_usage_error(
            [command, "--graph", "cycle:4", "--f", "1", "--events", "x"],
            "python -m repro: error: unrecognized arguments: --events x",
            capsys,
        )

    @pytest.mark.parametrize("command", ["run", "sweep", "profile", "check"])
    @pytest.mark.parametrize("t", ["-1", "2"])
    def test_t_outside_zero_to_f(self, command, t, capsys):
        self.assert_usage_error(
            [command, "--graph", self.GRAPHS[command], "--f", "1", "--t", t],
            f"python -m repro {command}: error: argument --t: must be in "
            f"0..1, got {t}", capsys,
        )

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("algorithm", ["1", "2", "async"])
    def test_t_needs_algorithm_3(self, command, algorithm, capsys):
        self.assert_usage_error(
            [command, "--graph", "cycle:4", "--f", "1", "--t", "0",
             "--algorithm", algorithm],
            f"python -m repro {command}: error: argument --t: only "
            "--algorithm 3 takes t", capsys,
        )

    def test_profile_keeps_t_for_its_predictions(self, monkeypatch):
        """``profile`` reads ``--t`` for ``predicted_costs``, so it gets
        past validation to the metered run with any algorithm."""
        def started(*args, **kwargs):
            raise RuntimeError("run started")

        monkeypatch.setattr("repro.consensus.run_consensus", started)
        with pytest.raises(RuntimeError, match="run started"):
            main(["profile", "--graph", "cycle:4", "--f", "1", "--t", "1",
                  "--algorithm", "2"])

    def test_unknown_command(self, capsys):
        self.assert_usage_error(
            ["bogus"], "python -m repro: error: argument command: invalid "
            "choice: 'bogus'", capsys,
        )

    @pytest.mark.parametrize("command", ["run", "sweep", "profile", "check"])
    def test_help_still_prints_full_usage(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "-h"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: python -m repro {command}")
        assert "--graph GRAPH" in out and "show this help message" in out

    # Option values checked after parsing: graph specs, input patterns
    # and adversary names.
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_unknown_graph_spec(self, command, capsys):
        self.assert_usage_error(
            [command, "--graph", "bogus:3", "--f", "1"],
            "unknown graph spec 'bogus:3'", capsys,
        )

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_malformed_graph_spec_field(self, command, capsys):
        self.assert_usage_error(
            [command, "--graph", "cycle:x", "--f", "1"],
            "graph spec 'cycle:x': N must be an integer, got 'x'", capsys,
        )

    def test_sweep_unknown_patterns(self, capsys):
        self.assert_usage_error(
            ["sweep", "--graph", "cycle:5", "--f", "1", "--patterns", "nope"],
            "unknown input patterns ['nope']", capsys,
        )

    @pytest.mark.parametrize("faulty", [["--faulty", "0"], []],
                             ids=["faulty", "fault-free"])
    def test_run_unknown_adversary(self, faulty, capsys):
        self.assert_usage_error(
            ["run", "--graph", "cycle:5", "--f", "1", *faulty,
             "--adversary", "nope"],
            "unknown adversary 'nope'", capsys,
        )

    # Scheduler-axis errors: malformed lists would silently duplicate (or
    # empty) slices of the work-list, so they fail before anything runs.
    def scheduler_args(self, command, scheduler, *extra):
        return [command, "--graph", "cycle:4", "--f", "1",
                "--scheduler", scheduler, *extra]

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("spec", ["sync,", ",,sync", ",", ""])
    def test_empty_tokens_rejected(self, command, spec, capsys):
        self.assert_usage_error(
            self.scheduler_args(command, spec), "empty scheduler token", capsys
        )

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("spec", ["sync,sync", "seeded-async,seeded-async",
                                      "sync,seeded-async,sync"])
    def test_duplicates_rejected(self, command, spec, capsys):
        self.assert_usage_error(
            self.scheduler_args(command, spec), "duplicate scheduler", capsys
        )

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_unknown_scheduler_rejected(self, command, capsys):
        self.assert_usage_error(
            self.scheduler_args(command, "bogus"),
            "unknown scheduler 'bogus'; choose from ['sync', 'lockstep', "
            "'seeded-async', 'adversarial']",
            capsys,
        )

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("max_delay", ["0", "-2"])
    def test_max_delay_below_one_rejected(self, command, max_delay, capsys):
        self.assert_usage_error(
            self.scheduler_args(
                command, "seeded-async", "--max-delay", max_delay
            ),
            "max_delay must be >= 1",
            capsys,
        )

    def test_run_takes_one_scheduler(self, capsys):
        self.assert_usage_error(
            self.scheduler_args("run", "sync,seeded-async"),
            "run takes exactly one --scheduler",
            capsys,
        )


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
    """A well-formed --scheduler list builds the sweep's timing axis
    (malformed ones are usage errors, see :class:`TestUsageErrors`)."""

    def sweep_args(self, scheduler):
        return ["sweep", "--graph", "cycle:4", "--f", "1",
                "--patterns", "all-one", "--fault-limit", "1",
                "--scheduler", scheduler]

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

    def test_async_refuses_a_synchronizer(self, capsys):
        TestUsageErrors.assert_usage_error(
            [
                "run", "--graph", "wheel:5", "--f", "1",
                "--algorithm", "async", "--synchronizer", "alpha",
            ],
            "python -m repro run: error: the async algorithm is natively "
            "asynchronous; use --synchronizer none",
            capsys,
        )

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
    def test_unbounded_axis_refuses_fixed_round_algorithms(self, command, capsys):
        """A fixed-round algorithm cannot be budgeted with no declared
        bound — that must be a clean CLI error, not a mid-run traceback."""
        TestUsageErrors.assert_usage_error(
            [
                command, "--graph", "cycle:4", "--f", "1", "--algorithm", "2",
                "--scheduler", "seeded-async", "--declare-unbounded",
            ],
            "use --algorithm async",
            capsys,
        )

    def test_unbounded_axis_refuses_a_synchronizer(self, capsys):
        # Caught by the same fixed-round guard, before any wrapping.
        TestUsageErrors.assert_usage_error(
            [
                "sweep", "--graph", "cycle:4", "--f", "1", "--algorithm", "2",
                "--scheduler", "seeded-async", "--declare-unbounded",
                "--synchronizer", "alpha",
            ],
            "use --algorithm async",
            capsys,
        )

    def test_target_window_above_max_delay_rejected(self, capsys):
        TestUsageErrors.assert_usage_error(
            [
                "run", "--graph", "wheel:5", "--f", "1",
                "--algorithm", "async", "--scheduler", "adversarial",
                "--max-delay", "3", "--target-window", "4",
            ],
            "window must be in [1, max_delay]; got 4 with max_delay 3",
            capsys,
        )

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
        with pytest.raises(UsageError, match=message):
            parse_graph(spec)

    @pytest.mark.parametrize("spec", ["cycle:x", "wheel:x"])
    def test_non_integer_size_exits_cleanly(self, spec, capsys):
        TestUsageErrors.assert_usage_error(
            ["check", "--graph", spec, "--f", "1"],
            f"graph spec {spec!r}: N must be an integer, got 'x'", capsys,
        )

    @pytest.mark.parametrize("spec,fragment", [
        ("cycle", "cycle takes N (got 0 field(s))"),
        ("wheel:5:1", "wheel takes N (got 2 field(s))"),
        ("harary:3", "harary takes K:N (got 1 field(s))"),
        ("circulant:8", "circulant takes N:OFFSETS (got 1 field(s))"),
        ("circulant:8:1,x", "OFFSETS must be an integer, got 'x'"),
        ("random_regular:8", "random_regular takes N:D[:SEED]"),
        ("gnp", "gnp takes N[:C][:SEED] (got 0 field(s))"),
        ("petersen:3", "petersen takes no fields (got 1 field(s))"),
    ])
    def test_wrong_field_count_exits_cleanly(self, spec, fragment, capsys):
        """Missing fields once escaped as an ``IndexError`` traceback."""
        TestUsageErrors.assert_usage_error(
            ["check", "--graph", spec, "--f", "1"],
            f"graph spec {spec!r}: {fragment}", capsys,
        )

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

    def test_run_metrics_to_file(self, tmp_path, capsys):
        metrics_file = tmp_path / "m.json"
        code = main(["run", "--graph", "cycle:4", "--f", "1",
                     "--algorithm", "2", "--metrics", str(metrics_file)])
        assert code == 0
        payload = json.loads(metrics_file.read_text())
        assert payload["metrics"]["counters"]["net.ticks"] > 0
        assert "run" in payload["timings"]
        assert f"wrote metrics to {metrics_file}" in capsys.readouterr().out

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
        assert f"wrote merged metrics to {metrics_file}" in (
            capsys.readouterr().out
        )


class TestUnopenableFiles:
    """A file named on the command line that cannot be opened exits 2
    with one ``CMD: error: FILE: reason`` line on stderr."""

    @staticmethod
    def assert_file_error(argv, path, capsys,
                          reason="No such file or directory"):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err == f"python -m repro {argv[0]}: error: {path}: {reason}\n"

    def test_trace_reads_missing_flight(self, tmp_path, capsys):
        path = tmp_path / "missing.ndjson"
        self.assert_file_error(["trace", "summary", str(path)], path, capsys)

    def test_run_metrics_into_missing_directory(self, tmp_path, capsys):
        path = tmp_path / "missing" / "m.json"
        self.assert_file_error(
            ["run", "--graph", "cycle:4", "--f", "1", "--metrics", str(path)],
            path, capsys,
        )

    def test_sweep_output_into_missing_directory(self, tmp_path, capsys):
        path = tmp_path / "missing" / "r.json"
        self.assert_file_error(
            ["sweep", "--graph", "cycle:4", "--f", "1",
             "--patterns", "alternating", "--output", str(path)],
            path, capsys,
        )

    @pytest.mark.parametrize("command,option", [
        ("run", "--metrics"), ("run", "--trace"),
        ("sweep", "--output"), ("sweep", "--metrics"), ("sweep", "--capture"),
        ("profile", "--output"), ("profile", "--trace"),
    ])
    def test_missing_directory_refused_before_any_run(
        self, command, option, tmp_path, monkeypatch, capsys
    ):
        def started(*args, **kwargs):
            raise AssertionError("a run started before the output check")

        monkeypatch.setattr("repro.consensus.run_consensus", started)
        monkeypatch.setattr("repro.analysis.sweep.run_consensus", started)
        path = tmp_path / "missing" / "out"
        reason = "No such file or directory"
        if option == "--capture":
            # --capture makes its directory, parents too; only a regular
            # file in the way stops it.
            path.parent.write_text("")
            reason = "Not a directory"
        self.assert_file_error(
            [command, "--graph", "cycle:4", "--f", "1", option, str(path)],
            path, capsys, reason,
        )
        assert capsys.readouterr().out == ""


class TestSweepRowsReplayThroughRun:
    """Every row of a capture-all sweep reproduces through ``run`` with
    the same options: the flight matches the captured one except the
    header's ``spec`` (the sweep's task index)."""

    @staticmethod
    def _lines(path):
        header, *events = path.read_text().splitlines()
        header = json.loads(header)
        header.pop("spec", None)
        return header, events

    @pytest.mark.parametrize("problem,sample", [
        (["--graph", "cycle:5", "--f", "1", "--algorithm", "1"], []),
        (["--graph", "wheel:5", "--f", "1", "--algorithm", "2",
          "--scheduler", "seeded-async", "--seed", "3", "--max-delay", "2",
          "--synchronizer", "alpha"], ["--fault-limit", "2"]),
    ], ids=["c5-alg1", "w5-alg2-alpha"])
    def test_every_row_reproduces(self, problem, sample, tmp_path, capsys):
        capture, report = tmp_path / "cap", tmp_path / "r.json"
        assert main([
            "sweep", *problem, *sample, "--patterns", "alternating",
            "--capture-policy", "all",
            "--capture", str(capture), "--output", str(report),
        ]) == 0
        records = json.loads(report.read_text())["records"]
        nodes = sorted(parse_graph(problem[1]).nodes, key=repr)
        adversaries = {record["adversary"] for record in records}
        assert "random" in adversaries and len(adversaries) == 7
        for index, record in enumerate(records):
            flight = tmp_path / f"run-{index}.ndjson"
            faulty = ",".join(str(nodes.index(v)) for v in record["faulty"])
            main(["run", *problem, "--faulty", faulty,
                  "--adversary", record["adversary"], "--trace", str(flight)])
            captured = capture / f"flight-{index:05d}.ndjson"
            assert self._lines(flight) == self._lines(captured), record
        capsys.readouterr()


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

    @pytest.mark.parametrize(
        "adversary", ["lying-reporter", "silent-reporter", "decision-forge"]
    )
    def test_algorithm2_attacks_run_and_replay(self, adversary, tmp_path,
                                               capsys):
        path = tmp_path / "attack.ndjson"
        assert main(["run", "--graph", "wheel:5", "--f", "1",
                     "--algorithm", "2", "--faulty", "1",
                     "--adversary", adversary, "--trace", str(path)]) == 0
        capsys.readouterr()
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

    def test_sweep_capture_stdout_is_one_json_report(self, tmp_path, capsys):
        capture = tmp_path / "cap"
        code = main([
            "sweep", "--graph", "wheel:5", "--f", "1", "--algorithm", "2",
            "--scheduler", "seeded-async", "--seed", "7", "--max-delay", "3",
            "--patterns", "alternating", "--fault-limit", "2", "--exit-zero",
            "--capture", str(capture),
        ])
        captured = capsys.readouterr()
        assert code == 0
        report = json.loads(captured.out)
        blobs = len(list(capture.glob("flight-*.ndjson")))
        assert blobs and report["records"]
        assert captured.err == (
            f"captured {blobs} flight recordings (anomalies) to {capture}\n")

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

    @pytest.mark.parametrize("edit,fragment", [
        (lambda spec: spec.pop("window"), "missing 1 required positional"),
        (lambda spec: spec.update(window=0), "window must be >= 1"),
        (lambda spec: spec.update(extra=1), "unexpected keyword argument"),
        (lambda spec: spec["inner"].pop("f"), "missing 1 required positional"),
        (lambda spec: spec["inner"].update(extra=1),
         "unexpected keyword argument"),
        (lambda spec: spec.pop("inner"), "no inner spec"),
        (lambda spec: spec["inner"].update(kind="algorithm9"),
         "unknown protocol kind 'algorithm9'"),
        (lambda spec: spec.update(inner={"kind": "algorithm3", "f": 1}),
         "algorithm3 missing required argument 't'"),
    ], ids=["missing", "bad-value", "extra", "inner-missing", "inner-extra",
            "no-inner", "inner-unknown-kind", "inner-alg3-no-t"])
    def test_bad_factory_spec_is_not_replayable(
        self, tmp_path, capsys, edit, fragment
    ):
        """A header whose factory spec lacks a field, carries an unknown
        one or holds a bad value is not replayable (exit 2), not a
        traceback."""
        path = tmp_path / "flight.ndjson"
        assert main(["run", "--graph", "cycle:5", "--f", "1",
                     "--algorithm", "2", "--synchronizer", "alpha",
                     "--scheduler", "seeded-async", "--seed", "3",
                     "--max-delay", "2", "--trace", str(path)]) == 0
        capsys.readouterr()
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        edit(header["factory"])
        lines[0] = json.dumps(header, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        assert main(["trace", "replay", str(path)]) == 2
        out = capsys.readouterr().out
        assert out.startswith("not replayable: factory spec ")
        assert fragment in out

    @pytest.mark.parametrize("edit,fragment", [
        (lambda header: header.update(f=-1), "|faulty| = 1 exceeds f = -1"),
        (lambda header: header.update(inputs=[]),
         "missing inputs for [0, 1, 2, 3, 4]"),
        (lambda header: header["scheduler"].update(extra=1),
         "unexpected keyword argument 'extra'"),
        (lambda header: header["scheduler"].update(max_delay=0),
         "max_delay must be >= 1"),
        (lambda header: header["channel"].update(kind="radio"),
         "unknown channel kind 'radio'"),
    ], ids=["faulty-exceeds-f", "missing-inputs", "scheduler-extra-field",
            "scheduler-bad-value", "unknown-channel"])
    def test_unbuildable_recipe_is_not_replayable(
        self, tmp_path, capsys, edit, fragment
    ):
        """A well-typed header that describes no buildable run is not
        replayable (exit 2), not a traceback."""
        lines = self._record(tmp_path, capsys).read_text().splitlines()
        header = json.loads(lines[0])
        edit(header)
        lines[0] = json.dumps(header, sort_keys=True)
        path = tmp_path / "recipe.ndjson"
        path.write_text("\n".join(lines) + "\n")
        assert main(["trace", "replay", str(path)]) == 2
        out = capsys.readouterr().out
        assert out.startswith("not replayable: ")
        assert fragment in out

    def test_opaque_factory_flights_match_across_workers(
        self, tmp_path, capsys
    ):
        """An opaque factory is recorded by name, not by a ``repr`` with
        a memory address: its capture-all flights are the same bytes at
        any worker count, and replay refuses them (exit 2)."""
        graph = cycle_graph(5)
        serial, parallel = (
            consensus_sweep(
                graph, SpeclessFactory(graph, 1), f=1,
                patterns=["alternating"], capture="all", workers=workers,
            ).flights
            for workers in (1, 2)
        )
        assert serial and serial == parallel
        header = json.loads(serial[0].splitlines()[0])
        assert header["factory"] == {
            "kind": "opaque",
            "name": f"{__name__}.SpeclessFactory",
        }
        path = tmp_path / "flight.ndjson"
        path.write_text(serial[0])
        assert main(["trace", "replay", str(path)]) == 2
        out = capsys.readouterr().out
        assert out.startswith(
            f"not replayable: factory {__name__}.SpeclessFactory was "
            "recorded without a flight_spec()"
        )

    def test_profile_trace_records_metered_run(self, tmp_path, capsys):
        path = tmp_path / "prof.ndjson"
        assert main(["profile", "--graph", "cycle:5", "--f", "1",
                     "--algorithm", "2", "--trace", str(path)]) == 0
        capsys.readouterr()
        assert main(["trace", "replay", str(path)]) == 0
        assert "byte for byte" in capsys.readouterr().out

    def test_profile_trace_rejects_flood_receipt(self, capsys):
        TestUsageErrors.assert_usage_error(
            ["profile", "--graph", "wheel:9", "--f", "1",
             "--flood-receipt", "--trace", "x.ndjson"],
            "python -m repro profile: error: --trace records a simulated "
            "run; --flood-receipt is analytic (no network events to record)",
            capsys,
        )


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

        with pytest.raises(UsageError, match=re.escape(fragment)):
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

    def test_check_digraph_refuses_t(self, capsys):
        """Theorem 6.1 has no directed form: ``--t`` on a digraph exits 2
        with one stderr line before any report is printed."""
        TestUsageErrors.assert_usage_error(
            ["check", "--graph", "oneway:9:2", "--f", "1", "--t", "1"],
            "argument --t: the hybrid condition", capsys,
        )

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

    def test_run_on_digraph_adversarial_scheduler(self, capsys):
        """The adversary cuts a digraph on its symmetric closure."""
        code = main([
            "run", "--graph", "oneway:9:2", "--f", "1", "--algorithm", "2",
            "--scheduler", "adversarial",
        ])
        assert code == 0
        assert "outcome       : decided" in capsys.readouterr().out

    def test_adversarial_sweep_on_digraph_is_worker_independent(
        self, tmp_path, capsys,
    ):
        reports = []
        for workers in ("1", "2"):
            out_file = tmp_path / f"w{workers}.json"
            code = main([
                "sweep", "--graph", "oneway:9:2", "--f", "1",
                "--algorithm", "async", "--scheduler", "adversarial",
                "--fault-limit", "2", "--patterns", "split", "--exit-zero",
                "--workers", workers, "--output", str(out_file),
            ])
            assert code == 0
            report = json.loads(out_file.read_text())
            report.pop("workers")
            reports.append(report)
        assert reports[0] == reports[1]
        assert reports[0]["runs"] == len(reports[0]["records"]) > 0
        assert {r["scheduler"] for r in reports[0]["records"]} == {"adversarial"}

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


# The full stdout of ``check`` and ``compare`` for both graph kinds,
# verbatim: a report whose wording, model label or clause order drifts
# fails here even when every verdict still holds.
PINNED_OUTPUT = {
    'check --graph wheel:6 --f 1': (
        'graph: n=6, m=10, min degree=3, kappa=3\n'
        'local-broadcast (f=1): FEASIBLE\n'
        '  n > f (trivial solvability bound): need >= 2, have 6 [ok]\n'
        '  minimum degree >= 2f: need >= 2, have 3 [ok]\n'
        '  connectivity >= floor(3f/2) + 1: need >= 2, have 3 [ok]\n'
        'async-local-broadcast (f=1): FEASIBLE\n'
        '  n >= 3f + 1 (vote-quorum intersection): need >= 4, have 6 [ok]\n'
        '  connectivity >= 2f + 1: need >= 3, have 3 [ok]\n'
        '  minimum degree >= floor(3f/2) + 1: need >= 2, have 3 [ok]\n'
        'point-to-point (f=1): FEASIBLE\n'
        '  n >= 3f + 1: need >= 4, have 6 [ok]\n'
        '  connectivity >= 2f + 1: need >= 3, have 3 [ok]\n'
        'max f (local broadcast): 1\n'
        'max f (async LB):        1\n'
        'max f (point-to-point):  1\n'
    ),
    'check --graph complete:4 --f 1 --t 1': (
        'graph: n=4, m=6, min degree=3, kappa=3\n'
        'local-broadcast (f=1): FEASIBLE\n'
        '  n > f (trivial solvability bound): need >= 2, have 4 [ok]\n'
        '  minimum degree >= 2f: need >= 2, have 3 [ok]\n'
        '  connectivity >= floor(3f/2) + 1: need >= 2, have 3 [ok]\n'
        'async-local-broadcast (f=1): FEASIBLE\n'
        '  n >= 3f + 1 (vote-quorum intersection): need >= 4, have 4 [ok]\n'
        '  connectivity >= 2f + 1: need >= 3, have 3 [ok]\n'
        '  minimum degree >= floor(3f/2) + 1: need >= 2, have 3 [ok]\n'
        'point-to-point (f=1): FEASIBLE\n'
        '  n >= 3f + 1: need >= 4, have 4 [ok]\n'
        '  connectivity >= 2f + 1: need >= 3, have 3 [ok]\n'
        'hybrid (f=1, t=1): FEASIBLE\n'
        '  n > f (trivial solvability bound): need >= 2, have 4 [ok]\n'
        '  connectivity >= floor(3(f-t)/2) + 2t + 1: need >= 3, have 3 [ok]\n'
        '  every S with 0 < |S| <= t has >= 2f + 1 neighbors: need >= 3, have 3 [ok]\n'
        'max f (local broadcast): 1\n'
        'max f (async LB):        1\n'
        'max f (point-to-point):  1\n'
    ),
    'check --graph oneway:9:2 --f 1': (
        'digraph: n=9, arcs=18, min in-degree=2, min out-degree=2, strong kappa=2\n'
        'directed-local-broadcast (f=1): FEASIBLE\n'
        '  n > f (trivial solvability bound): need >= 2, have 9 [ok]\n'
        '  minimum in-degree >= 2f: need >= 2, have 2 [ok]\n'
        '  strong connectivity >= floor(3f/2) + 1: need >= 2, have 2 [ok]\n'
        'directed-decomposition (f=1): FEASIBLE\n'
        '  n > f (trivial solvability bound): need >= 2, have 9 [ok]\n'
        '  condensation has a unique source component (1 = yes): need >= 1, have 1 [ok]\n'
        '  core minimum in-degree >= 2f: need >= 2, have 2 [ok]\n'
        '  core strong connectivity >= floor(3f/2) + 1: need >= 2, have 2 [ok]\n'
        'max f (directed local broadcast): 1\n'
        'max f (symmetric closure):        2\n'
    ),
    'check --graph oneway:5 --f 1': (
        'digraph: n=5, arcs=5, min in-degree=1, min out-degree=1, strong kappa=1\n'
        'directed-local-broadcast (f=1): infeasible\n'
        '  n > f (trivial solvability bound): need >= 2, have 5 [ok]\n'
        '  minimum in-degree >= 2f: need >= 2, have 1 [FAIL]\n'
        '  strong connectivity >= floor(3f/2) + 1: need >= 2, have 1 [FAIL]\n'
        'directed-decomposition (f=1): infeasible\n'
        '  n > f (trivial solvability bound): need >= 2, have 5 [ok]\n'
        '  condensation has a unique source component (1 = yes): need >= 1, have 1 [ok]\n'
        '  core minimum in-degree >= 2f: need >= 2, have 1 [FAIL]\n'
        '  core strong connectivity >= floor(3f/2) + 1: need >= 2, have 1 [FAIL]\n'
        'max f (directed local broadcast): 0\n'
        'max f (symmetric closure):        1\n'
    ),
    'check --graph random_digraph:8:0.45:5 --f 2': (
        'digraph: n=8, arcs=24, min in-degree=1, min out-degree=1, strong kappa=1\n'
        'directed-local-broadcast (f=2): infeasible\n'
        '  n > f (trivial solvability bound): need >= 3, have 8 [ok]\n'
        '  minimum in-degree >= 2f: need >= 4, have 1 [FAIL]\n'
        '  strong connectivity >= floor(3f/2) + 1: need >= 4, have 1 [FAIL]\n'
        'directed-decomposition (f=2): infeasible\n'
        '  n > f (trivial solvability bound): need >= 3, have 8 [ok]\n'
        '  condensation has a unique source component (1 = yes): need >= 1, have 1 [ok]\n'
        '  core minimum in-degree >= 2f: need >= 4, have 1 [FAIL]\n'
        '  core strong connectivity >= floor(3f/2) + 1: need >= 4, have 1 [FAIL]\n'
        'max f (directed local broadcast): 0\n'
        'max f (symmetric closure):        2\n'
    ),
    'compare --max-f 5': (
        '  f  kappa p2p  kappa LB  min n p2p  min n LB\n'
        '  1          3         2          4         3\n'
        '  2          5         4          7         5\n'
        '  3          7         5         10         7\n'
        '  4          9         7         13         9\n'
        '  5         11         8         16        11\n'
    ),
}


class TestPinnedOutput:
    @pytest.mark.parametrize("command", sorted(PINNED_OUTPUT))
    def test_stdout_verbatim(self, command, capsys):
        assert main(command.split()) == 0
        assert capsys.readouterr().out == PINNED_OUTPUT[command]
