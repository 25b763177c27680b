"""Flight recorder: causal laws, byte-identical replay, and forensics.

Three layers of contract:

* **Causal laws** — every recording is a happened-before DAG: each
  parent edge points strictly backwards in the canonical event order
  (which proves acyclicity), delivery timestamps respect their send,
  and the stamped primary cause of each send is the last delivery its
  node drained at that tick.  ``CausalDag.check`` owns the laws; these
  tests assert it returns no violations across every engine and
  factory, and spot-check the laws independently so a bug in ``check``
  itself cannot hide one.

* **Replayability** — the header is a recipe, and re-executing it must
  reproduce the recording *byte for byte*.  Any drift is a determinism
  bug, so this is asserted on clean runs, faulty runs, async runs, and
  metered runs alike.

* **Forensics** — on a disagreed or stalled run, ``blame`` must name
  only faulty nodes.  Blaming an honest node would be a false
  accusation; the test asserts ``blamed ⊆ faulty`` and non-emptiness
  across the known disagreement corpus under both the seeded-async and
  adversarial schedulers.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.analysis import consensus_sweep, replay_flight
from repro.consensus import (
    OUTCOME_DECIDED,
    OUTCOME_DISAGREED,
    algorithm1_factory,
    algorithm2_factory,
    algorithm3_factory,
    async_factory,
    run_consensus,
)
from repro.consensus import runner
from repro.consensus.baselines import DolevEIGFactory, EIGFactory
from repro.graphs import complete_graph, cycle_graph, wheel_graph
from repro.net import standard_adversaries
from repro.net import trace as net_trace
from repro.net.sched import SchedulerSpec
from repro.obs import (
    CausalDag,
    FlightRecord,
    blame,
    critical_path,
    label_key,
    summarize,
)
from repro.obs import trace as obs_trace
from repro.obs.trace import event_order


def adversary(name: str, seed: int = 7):
    for candidate in standard_adversaries(seed):
        if candidate.name == name:
            return candidate
    raise LookupError(name)


def record_run(graph, factory, *, f=1, faulty=(), adversary=None,
               scheduler=None, metrics=False) -> FlightRecord:
    nodes = sorted(graph.nodes, key=repr)
    inputs = {v: i % 2 for i, v in enumerate(nodes)}
    result = run_consensus(
        graph, factory, inputs, f=f, faulty=list(faulty),
        adversary=adversary, scheduler=scheduler, metrics=metrics,
        flight=True,
    )
    assert result.flight is not None
    return result.flight


def scenario_factories(graph, k4):
    """Five fixed-round factories plus the native async algorithm."""
    return [
        ("alg1", graph, algorithm1_factory(graph, 1)),
        ("alg2", graph, algorithm2_factory(graph, 1)),
        ("alg3", graph, algorithm3_factory(graph, 1, 0)),
        ("async", graph, async_factory(graph, 1)),
        ("eig", k4, EIGFactory(k4, 1)),
        ("dolev-eig", k4, DolevEIGFactory(k4, 1)),
    ]


class TestCausalLaws:
    def test_cause_constants_match_engine(self):
        """obs re-declares the cause vocabulary to stay import-pure;
        the two copies must never drift."""
        assert obs_trace.CAUSE_DELIVERY == net_trace.CAUSE_DELIVERY
        assert obs_trace.CAUSE_INPUT == net_trace.CAUSE_INPUT
        assert obs_trace.CAUSE_TIMER == net_trace.CAUSE_TIMER

    @pytest.mark.parametrize("scheduler", [
        None, SchedulerSpec("lockstep"),
        SchedulerSpec("seeded-async", seed=7, max_delay=3),
    ], ids=["sync", "lockstep", "seeded-async"])
    def test_dag_laws_all_factories(self, scheduler):
        w5, k4 = wheel_graph(5), complete_graph(4)
        for name, graph, factory in scenario_factories(w5, k4):
            record = record_run(graph, factory, scheduler=scheduler)
            dag = CausalDag(record)
            assert dag.check() == [], name
            # Independent spot-checks of the laws check() enforces:
            # acyclicity via strictly-backward edges, and deliveries
            # that never precede their send.
            for event in record.events:
                for parent in dag.parents(event):
                    assert event_order(parent) < event_order(event), name
            for deliver in record.delivers:
                assert deliver["t"] >= deliver["sent"], name

    def test_dag_laws_under_faults(self):
        w5 = wheel_graph(5)
        record = record_run(
            w5, algorithm2_factory(w5, 1), faulty=[0],
            adversary=adversary("tamper-forward"),
            scheduler=SchedulerSpec("seeded-async", seed=7, max_delay=3),
        )
        assert record.outcome["outcome"] == OUTCOME_DISAGREED
        assert CausalDag(record).check() == []

    def test_sync_and_lockstep_record_identical_events(self):
        """The lockstep engine is trace-identical to the synchronous
        simulator — their flights differ only in the header's declared
        scheduler, never in the event stream or outcome."""
        w5, k4 = wheel_graph(5), complete_graph(4)
        for name, graph, factory in scenario_factories(w5, k4):
            sync = record_run(graph, factory, scheduler=None)
            lock = record_run(graph, factory, scheduler=SchedulerSpec("lockstep"))
            assert list(sync.lines())[1:] == list(lock.lines())[1:], name

    def test_critical_path_accounting(self):
        w5 = wheel_graph(5)
        record = record_run(w5, algorithm2_factory(w5, 1))
        data = critical_path(record)
        assert data["consistent"]
        assert data["span"] == data["latency_sum"]
        assert data["root_cause"] == obs_trace.CAUSE_INPUT
        # Lockstep timing: every delivery hop has latency exactly 1.
        hops = [h for h in data["hops"] if h["type"] == "deliver"]
        assert all(h["latency"] == 1 for h in hops)


class TestReplay:
    @pytest.mark.parametrize("scheduler", [
        None, SchedulerSpec("seeded-async", seed=7, max_delay=3),
    ], ids=["sync", "seeded-async"])
    def test_record_replay_byte_identical(self, scheduler):
        w5, k4 = wheel_graph(5), complete_graph(4)
        for name, graph, factory in scenario_factories(w5, k4):
            record = record_run(graph, factory, scheduler=scheduler)
            outcome = replay_flight(record)
            assert outcome.identical, (name, outcome.diff)

    def test_replay_of_disagreed_run(self):
        w5 = wheel_graph(5)
        record = record_run(
            w5, algorithm2_factory(w5, 1), faulty=[0],
            adversary=adversary("tamper-forward"),
            scheduler=SchedulerSpec("seeded-async", seed=7, max_delay=3),
        )
        assert record.outcome["outcome"] == OUTCOME_DISAGREED
        outcome = replay_flight(record)
        assert outcome.identical, outcome.diff
        assert outcome.result.outcome == OUTCOME_DISAGREED

    def test_replay_of_metered_run_keeps_spans(self):
        # The async algorithm is the span emitter (per-phase spans land
        # in the registry snapshot), so its metered flight pins the
        # spans-in-header path end to end.
        w5 = wheel_graph(5)
        record = record_run(w5, async_factory(w5, 1), metrics=True)
        assert record.header["metered"]
        assert record.header["spans"]
        outcome = replay_flight(record)
        assert outcome.identical, outcome.diff

    def test_save_load_round_trip(self, tmp_path):
        w5 = wheel_graph(5)
        record = record_run(w5, algorithm2_factory(w5, 1))
        path = tmp_path / "flight.ndjson"
        record.save(str(path))
        loaded = FlightRecord.load(str(path))
        assert loaded.to_ndjson() == record.to_ndjson()


class TestBlame:
    # The known-disagreement corpus: wheel:5/f=1, bare Algorithm 2.
    # Under seeded-async, alternating inputs with the hub faulty; under
    # the adversarial scheduler, one-hot inputs (hub=1, rim=0) with the
    # hub faulty — both empirically disagreed, pinned by assertion.
    def _flight(self, scheduler, inputs_kind):
        w5 = wheel_graph(5)
        nodes = sorted(w5.nodes, key=repr)
        if inputs_kind == "alternating":
            inputs = {v: i % 2 for i, v in enumerate(nodes)}
        else:
            inputs = {v: 1 if i == 0 else 0 for i, v in enumerate(nodes)}
        result = run_consensus(
            w5, algorithm2_factory(w5, 1), inputs, f=1, faulty=[0],
            adversary=adversary("tamper-forward"), scheduler=scheduler,
            flight=True,
        )
        assert result.outcome == OUTCOME_DISAGREED
        return result.flight

    @pytest.mark.parametrize("scheduler,inputs_kind", [
        (SchedulerSpec("seeded-async", seed=7, max_delay=3), "alternating"),
        (SchedulerSpec("adversarial", max_delay=2), "one-hot"),
    ], ids=["seeded-async", "adversarial"])
    def test_blame_names_only_faulty_nodes(self, scheduler, inputs_kind):
        record = self._flight(scheduler, inputs_kind)
        report = blame(record)
        assert report["verdict"] == "attributed"
        faulty = {label_key(x) for x in report["faulty"]}
        blamed = {label_key(x) for x in report["blamed"]}
        assert blamed, "a disagreed run must blame someone"
        assert blamed <= faulty, "an honest node was blamed"

    def test_blame_clean_run(self):
        w5 = wheel_graph(5)
        record = record_run(w5, algorithm2_factory(w5, 1))
        assert record.outcome["outcome"] == OUTCOME_DECIDED
        report = blame(record)
        assert report["verdict"] == "clean"
        assert report["blamed"] == []

    def test_blame_catches_silent_fault_by_omission(self):
        """A silent adversary leaves no sends to taint — attribution
        must come from the omission analysis, not the frontier."""
        w5 = wheel_graph(5)
        nodes = sorted(w5.nodes, key=repr)
        inputs = {v: 1 if i == 0 else 0 for i, v in enumerate(nodes)}
        result = run_consensus(
            w5, algorithm2_factory(w5, 1), inputs, f=1, faulty=[0],
            adversary=adversary("silent"),
            scheduler=SchedulerSpec("adversarial", max_delay=2),
            flight=True,
        )
        assert result.outcome == OUTCOME_DISAGREED
        report = blame(result.flight)
        assert report["verdict"] == "attributed"
        assert [label_key(x) for x in report["blamed"]] == [label_key(0)]
        assert report["omissions"], "silent fault must surface as omission"

    def test_summary_counts_and_roles(self):
        w5 = wheel_graph(5)
        record = record_run(
            w5, algorithm2_factory(w5, 1), faulty=[0],
            adversary=adversary("tamper-forward"),
            scheduler=SchedulerSpec("seeded-async", seed=7, max_delay=3),
        )
        data = summarize(record)
        assert data["run"]["causal_violations"] == 0
        assert data["run"]["sends"] == len(record.sends)
        assert data["run"]["deliveries"] == len(record.delivers)
        roles = {row["node"]: row["faulty"] for row in data["nodes"]}
        assert roles == {0: True, 1: False, 2: False, 3: False, 4: False}


class TestSweepCapture:
    def _sweep(self, workers):
        w5 = wheel_graph(5)
        return consensus_sweep(
            w5, algorithm2_factory(w5, 1), f=1, workers=workers,
            schedulers=[SchedulerSpec("seeded-async", seed=7, max_delay=3)],
            patterns=["alternating"], fault_limit=2, seed=7,
            capture="anomalies",
        )

    def test_capture_is_worker_count_invariant(self):
        serial = self._sweep(1)
        parallel = self._sweep(2)
        assert serial.flights, "corpus must contain at least one anomaly"
        assert serial.flights == parallel.flights
        assert serial.to_dict() == parallel.to_dict()
        assert "flights" not in serial.to_dict()

    def test_captured_blobs_replay_and_blame(self):
        report = self._sweep(1)
        for index, blob in sorted(report.flights.items()):
            record = FlightRecord.loads(blob)
            assert record.header["spec"] == {"task": index}
            assert replay_flight(record).identical
            verdict = blame(record)
            faulty = {label_key(x) for x in verdict["faulty"]}
            blamed = {label_key(x) for x in verdict["blamed"]}
            assert blamed <= faulty

    def test_flight_off_by_default(self):
        w5 = wheel_graph(5)
        nodes = sorted(w5.nodes, key=repr)
        inputs = {v: i % 2 for i, v in enumerate(nodes)}
        result = run_consensus(w5, algorithm2_factory(w5, 1), inputs, f=1)
        assert result.flight is None


def count_flight_builds(monkeypatch, tmp_path):
    """Wrap the runner's ``flight_from_trace`` with a call counter.

    The count lives in a file so forked sweep workers add to it too;
    returns a zero-argument reader of the current count."""
    ledger = tmp_path / "flight-builds"
    ledger.write_bytes(b"")
    real = runner.flight_from_trace

    def counting(*args, **kwargs):
        with open(ledger, "ab") as handle:
            handle.write(b".")
        return real(*args, **kwargs)

    monkeypatch.setattr(runner, "flight_from_trace", counting)
    return lambda: len(ledger.read_bytes())


class TestLazyFlight:
    """The event stream is serialized only when ``result.flight`` is
    read, so a sweep keeping only anomalies builds only those."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_anomaly_capture_builds_only_kept_flights(
        self, monkeypatch, tmp_path, workers
    ):
        if workers > 1 and multiprocessing.get_start_method() != "fork":
            pytest.skip("the counting patch reaches workers only by fork")
        builds = count_flight_builds(monkeypatch, tmp_path)
        report = TestSweepCapture()._sweep(workers)
        kept = [r for r in report.records if r.outcome != OUTCOME_DECIDED]
        assert kept, "corpus must contain at least one anomaly"
        assert builds() == len(kept) == len(report.flights)

    def test_all_decided_sweep_builds_nothing(self, monkeypatch, tmp_path):
        builds = count_flight_builds(monkeypatch, tmp_path)
        c5 = cycle_graph(5)
        report = consensus_sweep(
            c5, algorithm1_factory(c5, 1), f=1,
            patterns=["alternating"], seed=7, capture="anomalies",
        )
        assert report.records
        assert all(r.outcome == OUTCOME_DECIDED for r in report.records)
        assert builds() == 0
        assert report.flights == {}

    def test_lazy_flight_equals_eager_and_is_cached(
        self, monkeypatch, tmp_path
    ):
        builds = count_flight_builds(monkeypatch, tmp_path)
        w5 = wheel_graph(5)
        inputs = {v: i % 2 for i, v in enumerate(sorted(w5.nodes, key=repr))}
        result = run_consensus(
            w5, algorithm2_factory(w5, 1), inputs, f=1, faulty=[0],
            adversary=adversary("tamper-forward"),
            scheduler=SchedulerSpec("seeded-async", seed=7, max_delay=3),
            flight=True,
        )
        assert builds() == 0
        flight = result.flight
        assert builds() == 1
        assert result.flight is flight
        assert builds() == 1
        eager = obs_trace.flight_from_trace(
            result.trace, flight.header, flight.outcome
        )
        assert flight == eager
        assert "flight" not in repr(result)


class TestMessageEncoding:
    def _trace(self):
        sent = ("bundle", (1, 2))
        trace = net_trace.Trace()
        trace.record(net_trace.Transmission(
            round_no=1, sender=0, message=sent, target=None,
            recipients=(1, 2), sent_at=1, cause_kind=net_trace.CAUSE_INPUT,
        ))
        trace.record_delivery(net_trace.Delivery(
            send_index=0, sender=0, recipient=1, message=sent,
            sent_at=1, delivered_at=2,
        ))
        trace.record_delivery(net_trace.Delivery(
            send_index=0, sender=0, recipient=2, message=("forged", 9),
            sent_at=1, delivered_at=2,
        ))
        return trace

    def test_delivery_of_another_object_is_encoded_on_its_own(self):
        record = obs_trace.flight_from_trace(
            self._trace(), {"type": "header"}, {"type": "outcome"}
        )
        send, = record.sends
        same, other = record.delivers
        assert send["msg"] == same["msg"] == repr(("bundle", (1, 2)))
        assert other["msg"] == repr(("forged", 9))
