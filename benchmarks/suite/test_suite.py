"""Tests of the benchmark itself: ledger arithmetic, boundary patching,
the cProfile fold, and smoke-size runs of every workload.

Smoke runs shrink each workload's graphs through its class attributes,
so the whole module stays within a few seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ledger
import run
import workloads

SMOKE_SEED = 3


@pytest.fixture
def smoke(monkeypatch):
    """Tiny inputs for every workload and a single set-up probe."""
    battery = workloads.net.standard_adversaries
    monkeypatch.setattr(workloads.net, "standard_adversaries",
                        lambda seed: battery(seed)[-2:])
    monkeypatch.setattr(workloads.Alg1Battery, "GRAPHS", (("cycle", 4),))
    monkeypatch.setattr(workloads.Alg2Sweep, "GRAPH", ("wheel", 5))
    monkeypatch.setattr(workloads.FloodReceipt, "N", 10)
    monkeypatch.setattr(workloads.AsyncObserved, "GRAPH", ("wheel", 5))
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_subtracts_nested_spans():
    clock = FakeClock()
    book = ledger.Ledger(clock=clock)

    def leaf():
        clock.advance(3.0)

    def middle():
        clock.advance(1.0)
        inner()
        inner()
        clock.advance(0.5)

    def outer():
        clock.advance(2.0)
        mid()

    inner = book.timed("leaf", leaf)
    mid = book.timed("middle", middle)
    book.timed("outer", outer)()
    with book.span("outer"):
        clock.advance(0.25)

    assert book.self_seconds("leaf") == 6.0
    assert book.self_seconds("middle") == 1.5
    assert book.self_seconds("outer") == 2.25
    assert book.calls("leaf") == 2 and book.calls("outer") == 2
    # Self times add up to the outermost spans' inclusive time.
    assert sum(cell[0] for cell in book.cells.values()) == clock.now


def test_span_survives_an_exception():
    clock = FakeClock()
    book = ledger.Ledger(clock=clock)

    def boom():
        clock.advance(1.0)
        raise ValueError("x")

    wrapped = book.timed("boom", boom)
    with pytest.raises(ValueError):
        wrapped()
    assert book.self_seconds("boom") == 1.0 and book._stack == []


def test_missing_boundary_is_skipped_with_a_warning():
    from repro.consensus import runner

    original = runner.run_consensus
    book = ledger.Ledger()
    boundaries = (
        ("gone", "repro.no_such_module", "anything", None),
        ("gone", "repro.consensus.runner", "NoSuchClass.step", None),
        ("consensus.runner", "repro.consensus.runner", "run_consensus", None),
    )
    with pytest.warns(RuntimeWarning, match="not found"):
        book.install(boundaries=boundaries, adversary=None)
    try:
        assert runner.run_consensus is not original
        assert "gone" not in book.modules
    finally:
        book.uninstall()
    assert runner.run_consensus is original


def test_install_patches_every_module_that_bound_a_function():
    from repro import consensus
    from repro.analysis import sweep

    original = consensus.run_consensus
    book = ledger.Ledger()
    with book.installed():
        assert consensus.run_consensus is sweep.run_consensus
        assert consensus.run_consensus is not original
    assert consensus.run_consensus is original and sweep.run_consensus is original


def test_profile_fold_books_foreign_frames_to_their_callers():
    bench = "/bench"
    app = ("/x/src/repro/consensus/reliable.py", 10, "detect_faults")
    other = ("/x/src/repro/net/simulator.py", 5, "step")
    dataclass_hash = ("<string>", 2, "__hash__")
    builtin_hash = ("~", 0, "<built-in method builtins.hash>")
    stats = {
        # (cc, nc, tottime, cumtime, callers{caller: (cc, nc, tt, ct)})
        app: (1, 1, 1.0, 5.0, {}),
        other: (1, 1, 2.0, 3.0, {}),
        dataclass_hash: (4, 4, 1.5, 2.0, {app: (3, 3, 1.2, 1.5),
                                          other: (1, 1, 0.3, 0.5)}),
        builtin_hash: (4, 4, 1.0, 1.0, {dataclass_hash: (4, 4, 1.0, 1.0),
                                        builtin_hash: (1, 1, 0.1, 0.1)}),
    }
    folded = ledger.fold_profile(stats, bench)
    assert folded["consensus.reliable"] == pytest.approx(1.0 + 2.5 * 0.75)
    assert folded["net.simulator"] == pytest.approx(2.0 + 2.5 * 0.25)
    assert "other" not in folded
    assert sum(folded.values()) == pytest.approx(5.5)


def test_speed_factor_of_a_call_comes_from_the_samples_around_it(monkeypatch):
    monkeypatch.setattr(run, "SPEED_WINDOW", 1)
    ref = run.REFERENCE_S
    speed = run.Speedometer()
    # A sample at position p was taken after p calls had finished.
    speed.samples = [(0, ref), (1, ref), (2, 3 * ref), (3, 3 * ref)]
    assert speed.factors(3) == pytest.approx([1.0, 2.0, 3.0])


def test_golden_counts_match_and_catch_a_drift():
    workload = workloads.build("alg1-battery", run.DEFAULT_SEED)
    calls = [run.timed_call(workload, i, workloads.E2E, ledger.NULL_LEDGER)
             for i in (0, 1, 2)]
    assert run.golden_problems("alg1-battery", run.DEFAULT_SEED,
                               len(workload.calls), calls) == ([], 0)
    calls[1].outcome.signature["deliveries"] += 1
    problems, failed = run.golden_problems(
        "alg1-battery", run.DEFAULT_SEED, len(workload.calls), calls
    )
    assert len(problems) == 1 and failed == 1


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_smoke_run_emits_every_end_to_end_metric(smoke, name):
    result = run.run_end_to_end(name, SMOKE_SEED, seconds=1e-3)
    assert result["correct"], result["notes"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(
        run.END_TO_END
    )
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_smoke_traced_run_reproduces_untraced_counts(smoke, name):
    _, book, untraced, traced = run.measure_pairs(name, SMOKE_SEED, seconds=1e-3)
    assert traced and [c.outcome.signature for c in traced] == [
        c.outcome.signature for c in untraced
    ]
    assert all(not c.outcome.problems for c in traced)
    assert not book._patches, "ledger left a boundary patched"
    entry = {"alg1-battery": "consensus.runner",
             "flood-receipt-n40": "consensus.path_engine"}
    assert book.calls(entry.get(name, "analysis.sweep")) >= 1


def test_smoke_traced_run_emits_every_per_layer_metric(smoke):
    # A pooled workload, so the metered two-worker call and the pool
    # floor probe run too.
    result = run.run_traced("alg2-sweep", SMOKE_SEED, seconds=1e-3)
    assert result["correct"], result["notes"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(
        run.PER_LAYER
    )
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["consensus.algorithm2.self_ms"] > 0
    assert values["analysis.sweep.payload_bytes"] > 0
    assert 0 <= values["bench.unattributed_frac"] < 1


def test_benchmark_json_lists_what_the_runner_emits():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER
    )
    assert spec["run_seconds"] == run.DEFAULT_SECONDS


def test_refuses_to_run_without_the_program(tmp_path):
    here = Path(__file__).resolve().parent
    suite = tmp_path / "benchmarks" / "suite"
    suite.mkdir(parents=True)
    for name in ("run.py", "workloads.py", "ledger.py"):
        shutil.copy(here / name, suite / name)
    done = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload",
         "alg1-battery", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
