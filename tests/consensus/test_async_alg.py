"""Native asynchronous algorithm: equivalence, quorums, composition.

Four layers of claims:

* **fault-free equivalence** — across the same five factory scenarios
  the synchronizer suite covers, the asynchronous algorithm decides the
  same value under the lockstep scheduler as under the synchronous
  simulator (trace-identically, in fact), and that value is the
  majority (ties → 0) of all inputs — the same rule the synchronous
  Algorithm 2 applies;
* **quorum mechanics** — single-valued reliable receipt, the silent
  fault's patient-quorum escape, decision certificates, the stalled
  verdict on genuinely stuck topologies;
* **asynchrony for real** — everything works under a scheduler that
  *declares no delay bound* (the runner's ``bounded=False`` path), where
  the fixed-round protocols are refused outright;
* **composition** — picklable factory, byte-identical parallel sweeps,
  full battery × schedulers deciding on the headline wheel:5 point where
  bare Algorithm 2 demonstrably disagrees.
"""

import pickle

import pytest

from repro.analysis import consensus_sweep
from repro.consensus import (
    KINDS,
    AsyncConsensusProtocol,
    ProtocolFactory,
    algorithm2_factory,
    async_factory,
    check_async_local_broadcast,
    majority,
    run_consensus,
)
from repro.graphs import Graph, complete_graph, cycle_graph, paper_figure_1a, wheel_graph
from repro.net import (
    SchedulerSpec,
    SilentAdversary,
    TamperForwardAdversary,
    hybrid_model,
    point_to_point_model,
)

LOCKSTEP = SchedulerSpec("lockstep")
SEEDED = SchedulerSpec("seeded-async", seed=7, max_delay=3)
ADVERSARIAL = SchedulerSpec("adversarial", max_delay=3)
#: Same delays as SEEDED on the wire, but no bound declared anywhere.
UNBOUNDED = SchedulerSpec("seeded-async", seed=7, max_delay=3, unbounded=True)


def case_id(case):
    return case[0]


# The five scenario setups the lockstep-equivalence and synchronizer
# suites use — here they supply (graph, channel) environments for the
# asynchronous algorithm itself.
CASES = [
    ("algorithm1", paper_figure_1a, lambda g: None),
    ("algorithm2", lambda: cycle_graph(4), lambda g: None),
    ("algorithm3", lambda: complete_graph(4), lambda g: hybrid_model({0})),
    ("eig", lambda: complete_graph(4), lambda g: point_to_point_model()),
    ("dolev-eig", lambda: complete_graph(5), lambda g: point_to_point_model()),
]


def run_case(case, scheduler):
    _, graph_builder, channel_builder = case
    graph = graph_builder()
    inputs = {v: i % 2 for i, v in enumerate(sorted(graph.nodes, key=repr))}
    return run_consensus(
        graph,
        async_factory(graph, 1),
        inputs,
        f=1,
        channel=channel_builder(graph),
        scheduler=scheduler,
        flight=True,
    ), inputs


def verdict(result):
    return (
        result.outputs,
        result.decision,
        result.consensus,
        result.agreement,
        result.validity,
        result.outcome,
    )


class TestFaultFreeEquivalence:
    """The satellite property: async under lockstep == the synchronous
    run, for the five factory scenarios — and both equal the majority
    rule the synchronous algorithms share."""

    @pytest.mark.parametrize("case", CASES, ids=case_id)
    def test_lockstep_matches_synchronous_run(self, case):
        sync, _ = run_case(case, None)
        lockstep, _ = run_case(case, LOCKSTEP)
        assert verdict(lockstep) == verdict(sync)
        # Stronger: the two engines produce the same wire traffic.
        assert lockstep.trace.transmissions == sync.trace.transmissions

    @pytest.mark.parametrize("case", CASES, ids=case_id)
    def test_decision_is_the_synchronous_majority(self, case):
        sync, inputs = run_case(case, None)
        assert sync.consensus
        assert sync.decision == majority(sorted(inputs.values()))

    @pytest.mark.parametrize("case", CASES, ids=case_id)
    def test_seeded_async_decides_the_same_value(self, case):
        """Fault-free asynchrony changes the timing, never the value."""
        sync, _ = run_case(case, None)
        seeded, _ = run_case(case, SEEDED)
        assert seeded.consensus
        assert seeded.decision == sync.decision


class TestQuorumMechanics:
    def test_silent_fault_patient_quorum(self):
        """A never-initiating fault blocks the complete-table trigger
        forever; the ``n − f`` patient quorum must carry the run."""
        g = wheel_graph(5)
        inputs = {v: v % 2 for v in g.nodes}
        res = run_consensus(
            g, async_factory(g, 1), inputs, f=1,
            faulty=[1], adversary=SilentAdversary(), scheduler=UNBOUNDED,
        )
        assert res.consensus
        honest_values = [inputs[v] for v in sorted(res.honest, key=repr)]
        assert res.decision == majority(sorted(honest_values))

    def test_reliable_tables_are_pairwise_consistent(self):
        """Single-valuedness, observed: after an adversarial run, no two
        honest nodes hold conflicting entries for any origin — in the
        value table or any vote round."""
        from repro.net import EventDrivenNetwork
        from repro.net.adversary import FaultSpec
        from repro.net.channels import local_broadcast_model

        g = wheel_graph(5)
        factory = async_factory(g, 1)
        channel = local_broadcast_model()
        adversary = TamperForwardAdversary()
        protocols = {}
        for v in sorted(g.nodes, key=repr):
            if v == 2:
                protocols[v] = adversary.build(FaultSpec(
                    node=v, graph=g, channel=channel, input_value=v % 2,
                    f=1, faulty=frozenset([2]), honest_factory=factory,
                ))
            else:
                protocols[v] = factory(v, v % 2)
        net = EventDrivenNetwork(g, protocols, SEEDED.build(g), channel)
        net.run(60)
        honest = [protocols[v] for v in sorted(g.nodes, key=repr) if v != 2]
        for i, p in enumerate(honest):
            for q in honest[i + 1:]:
                shared = p.reliable_values.keys() & q.reliable_values.keys()
                assert all(p.reliable_values[w] == q.reliable_values[w]
                           for w in shared)
                for r in p.vote_tallies.keys() & q.vote_tallies.keys():
                    shared_votes = (p.vote_tallies[r].keys()
                                    & q.vote_tallies[r].keys())
                    assert all(p.vote_tallies[r][w] == q.vote_tallies[r][w]
                               for w in shared_votes)
        assert all(p.output() is not None for p in honest)
        assert len({p.output() for p in honest}) == 1

    def test_stalled_outcome_on_disconnected_graph(self):
        """No quorum can ever assemble across components: the run must
        go quiescent and be reported as *stalled*, not burn the whole
        tick budget as ``budget_exhausted``."""
        g = Graph(range(4), [(0, 1), (2, 3)])
        inputs = {0: 0, 1: 1, 2: 0, 3: 1}
        res = run_consensus(g, async_factory(g, 1), inputs, f=1,
                            scheduler=LOCKSTEP)
        assert not res.terminated
        assert res.stalled
        assert res.outcome == "stalled"
        # Quiescence detection stopped well before the tick cap.
        assert res.rounds < 40

    def test_decision_certificates_accelerate(self):
        """Every decided node floods exactly one decision certificate."""
        from repro.net.messages import DecisionPayload, FloodMessage

        g = wheel_graph(5)
        inputs = {v: v % 2 for v in g.nodes}
        res = run_consensus(g, async_factory(g, 1), inputs, f=1,
                            scheduler=SEEDED, flight=True)
        assert res.consensus
        initiations = [
            t for t in res.trace.transmissions
            if isinstance(t.message, FloodMessage)
            and isinstance(t.message.payload, DecisionPayload)
            and t.message.phase == ("async", "decide")
            and t.message.path == ()
        ]
        assert len(initiations) == g.n
        assert {t.message.payload.value for t in initiations} == {res.decision}

    def test_validation(self):
        g = cycle_graph(4)
        with pytest.raises(ValueError):
            AsyncConsensusProtocol(g, 0, 1, input_value=2)
        with pytest.raises(ValueError):
            AsyncConsensusProtocol(g, 0, -1, input_value=1)
        from repro.consensus import PathOracle

        with pytest.raises(ValueError):
            AsyncConsensusProtocol(
                g, 0, 1, 1, oracle=PathOracle(cycle_graph(5))
            )

    def test_feasibility_report(self):
        assert check_async_local_broadcast(wheel_graph(5), 1).feasible
        # C4 misses the 2f+1 connectivity clause.
        report = check_async_local_broadcast(cycle_graph(4), 1)
        assert not report.feasible
        assert any("connectivity" in c.name for c in report.failing())


class TestUnboundedScheduler:
    """The scheduler contract's ``bounded=False`` path, exercised for real."""

    def test_spec_contract(self):
        assert not UNBOUNDED.bounded
        assert UNBOUNDED.worst_case_delay is None
        assert UNBOUNDED.name == "seeded-async-unbounded"
        with pytest.raises(ValueError):
            UNBOUNDED.horizon(12)
        with pytest.raises(ValueError):
            SchedulerSpec("lockstep", unbounded=True)

    def test_same_delays_on_the_wire(self):
        """Withdrawing the declaration must not change the physics."""
        g = wheel_graph(5)
        inputs = {v: v % 2 for v in g.nodes}
        bounded = run_consensus(g, async_factory(g, 1), inputs, f=1,
                                scheduler=SEEDED, flight=True)
        unbounded = run_consensus(g, async_factory(g, 1), inputs, f=1,
                                  scheduler=UNBOUNDED, flight=True)
        assert unbounded.trace.deliveries == bounded.trace.deliveries
        assert verdict(unbounded) == verdict(bounded)

    def test_fixed_round_protocols_are_refused(self):
        """The runner cannot scale a round budget with no bound — the
        async algorithm is the only protocol that runs here."""
        g = cycle_graph(4)
        inputs = {v: 0 for v in g.nodes}
        with pytest.raises(ValueError, match="no delay bound"):
            run_consensus(g, algorithm2_factory(g, 1), inputs, f=1,
                          scheduler=UNBOUNDED)

    def test_async_decides_with_a_fault_and_no_bound(self):
        g = wheel_graph(5)
        inputs = {v: v % 2 for v in g.nodes}
        res = run_consensus(
            g, async_factory(g, 1), inputs, f=1,
            faulty=[3], adversary=TamperForwardAdversary(),
            scheduler=UNBOUNDED,
        )
        assert res.consensus


class TestComposition:
    @pytest.mark.parametrize("kind", list(KINDS))
    def test_factory_pickles(self, kind):
        params = {"t": 0} if kind == "algorithm3" else {}
        factory = ProtocolFactory(kind, complete_graph(4), 1, **params)
        clone = pickle.loads(pickle.dumps(factory))
        assert isinstance(clone, ProtocolFactory)
        assert clone.flight_spec() == factory.flight_spec()
        assert clone.graph == factory.graph
        first, second = clone(0, 1), clone(1, 0)
        assert type(first) is KINDS[kind][0]
        if kind != "eig":  # EIG reads no paths
            assert first.oracle is second.oracle is clone.oracle

    @pytest.mark.parametrize("workers", [2])
    def test_sweep_byte_identical_across_workers(self, workers):
        g = wheel_graph(5)

        def sweep(n):
            return consensus_sweep(
                g, async_factory(g, 1), f=1, patterns=["split"],
                workers=n, schedulers=[SEEDED, ADVERSARIAL],
            )

        serial, parallel = sweep(1), sweep(workers)
        assert parallel.records == serial.records
        assert parallel.to_json() == serial.to_json()
        assert serial.all_consensus

    def test_full_battery_decides_where_alg2_disagrees(self):
        """The headline point: wheel:5, f = 1.  Bare Algorithm 2
        demonstrably loses consensus there under seeded-async timing;
        the native asynchronous algorithm decides the *entire* battery
        under both asynchronous schedulers with no bound declared."""
        g = wheel_graph(5)
        # One concrete scenario the sweep flags for bare Algorithm 2.
        broken = run_consensus(
            g, algorithm2_factory(g, 1), {v: 0 for v in g.nodes}, f=1,
            faulty=[0], adversary=SilentAdversary(), scheduler=SEEDED,
        )
        assert broken.outcome == "disagreed"
        for spec in (UNBOUNDED, ADVERSARIAL):
            report = consensus_sweep(
                g, async_factory(g, 1), f=1, schedulers=[spec]
            )
            assert report.all_consensus, spec.name
            assert {r.outcome for r in report.records} == {"decided"}

    def test_oracle_wiring_sees_cache_hits(self):
        """The satellite: certificate checks route their packing
        feasibility through the factory's shared PathOracle."""
        g = wheel_graph(5)
        factory = async_factory(g, 1)
        inputs = {v: v % 2 for v in g.nodes}
        res = run_consensus(g, factory, inputs, f=1, faulty=[1],
                            adversary=SilentAdversary(), scheduler=SEEDED)
        assert res.consensus
        info = factory.oracle.cache_info()
        assert info["packings"] > 0
        assert info["hits"] > 0
