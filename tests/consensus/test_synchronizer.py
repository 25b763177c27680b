"""The α-synchronizer: degenerate equivalence, recovery, both modes.

Three layers of claims:

* **degenerate case** — wrapping with ``window=1`` under lockstep (max
  delay 1) is decision-identical to the unwrapped protocol, for every
  protocol factory in the library (the property the issue requires);
* **recovery** — under the asynchronous schedulers that break the bare
  fixed-round algorithms, the alpha-wrapped run reaches the *same*
  decisions as the synchronous run (time-division makes the wrapped
  execution simulate the synchronous one);
* **mechanics** — ack-mode marker handshake, factory pickling, sweep
  integration, validation.
"""

import pickle

import pytest

from repro.analysis import consensus_sweep
from repro.consensus import (
    AlphaSynchronizer,
    RoundMarker,
    SynchronizedFactory,
    algorithm1_factory,
    algorithm2_factory,
    algorithm3_factory,
    dolev_eig_factory,
    eig_factory,
    run_consensus,
    synchronize_factory,
)
from repro.graphs import complete_graph, cycle_graph, paper_figure_1a
from repro.net import (
    Protocol,
    SchedulerSpec,
    SilentAdversary,
    TamperForwardAdversary,
    hybrid_model,
    point_to_point_model,
)

LOCKSTEP = SchedulerSpec("lockstep")
SEEDED = SchedulerSpec("seeded-async", seed=7, max_delay=3)
ADVERSARIAL = SchedulerSpec("adversarial", max_delay=3)


def case_id(case):
    return case[0]


# (name, graph builder, factory builder, channel builder, faulty) — the
# same five factories the lockstep-equivalence suite covers.
CASES = [
    (
        "algorithm1",
        paper_figure_1a,
        lambda g: algorithm1_factory(g, 1),
        lambda g: None,
        [2],
    ),
    (
        "algorithm2",
        lambda: cycle_graph(4),
        lambda g: algorithm2_factory(g, 1),
        lambda g: None,
        [1],
    ),
    (
        "algorithm3",
        lambda: complete_graph(4),
        lambda g: algorithm3_factory(g, 1, 1),
        lambda g: hybrid_model({0}),
        [0],
    ),
    (
        "eig",
        lambda: complete_graph(4),
        lambda g: eig_factory(g, 1),
        lambda g: point_to_point_model(),
        [2],
    ),
    (
        "dolev-eig",
        lambda: complete_graph(5),
        lambda g: dolev_eig_factory(g, 1),
        lambda g: point_to_point_model(),
        [3],
    ),
]


def run_case(case, factory_wrap, scheduler, with_fault=True, flight=False):
    _, graph_builder, factory_builder, channel_builder, faulty = case
    graph = graph_builder()
    inputs = {v: i % 2 for i, v in enumerate(sorted(graph.nodes, key=repr))}
    return run_consensus(
        graph,
        factory_wrap(factory_builder(graph)),
        inputs,
        f=1,
        faulty=faulty if with_fault else [],
        adversary=TamperForwardAdversary() if with_fault else None,
        channel=channel_builder(graph),
        scheduler=scheduler,
        flight=flight,
    )


def verdict(result):
    return (
        result.outputs,
        result.decision,
        result.consensus,
        result.agreement,
        result.validity,
        result.outcome,
    )


class TestDegenerateLockstep:
    """window=1 under max-delay-1 timing == the unwrapped protocol."""

    @pytest.mark.parametrize("case", CASES, ids=case_id)
    @pytest.mark.parametrize("mode", ["alpha", "ack"])
    @pytest.mark.parametrize("with_fault", [False, True], ids=["honest", "faulty"])
    def test_decision_identical_to_bare(self, case, mode, with_fault):
        bare = run_case(case, lambda f: f, None, with_fault)
        wrapped = run_case(
            case,
            lambda f: SynchronizedFactory(f, window=1, mode=mode),
            LOCKSTEP,
            with_fault,
        )
        assert verdict(wrapped) == verdict(bare)

    @pytest.mark.parametrize("case", CASES, ids=case_id)
    def test_alpha_window_one_is_trace_identical(self, case):
        """Alpha with window=1 is a strict pass-through: even the wire
        traffic matches the bare lockstep run transmission-for-
        transmission (no extra messages, no reordering)."""
        bare = run_case(case, lambda f: f, LOCKSTEP, flight=True)
        wrapped = run_case(
            case, lambda f: SynchronizedFactory(f, window=1), LOCKSTEP,
            flight=True,
        )
        assert wrapped.trace.transmissions == bare.trace.transmissions
        assert wrapped.trace.deliveries == bare.trace.deliveries


class TestAlphaRecovery:
    """The headline: asynchrony breaks bare Algorithm 2, the wrapper
    restores it — with the synchronous run's exact decisions."""

    @pytest.mark.parametrize(
        "spec", [SEEDED, ADVERSARIAL], ids=["seeded-async", "adversarial"]
    )
    def test_alg2_c4_recovered(self, spec):
        # A scenario both async schedulers genuinely break (verified by
        # the sweep): node 0 tampering forwards, all-zero inputs.
        g = cycle_graph(4)
        inputs = {v: 0 for v in g.nodes}

        def run(factory_wrap, scheduler):
            return run_consensus(
                g,
                factory_wrap(algorithm2_factory(g, 1)),
                inputs,
                f=1,
                faulty=[0],
                adversary=TamperForwardAdversary(),
                scheduler=scheduler,
            )

        bare_async = run(lambda f: f, spec)
        sync = run(lambda f: f, None)
        wrapped = run(lambda f: synchronize_factory(f, spec), spec)
        assert sync.consensus
        assert not bare_async.consensus  # asynchrony genuinely bites
        assert bare_async.outcome == "disagreed"  # ...not clock exhaustion
        assert wrapped.consensus
        assert verdict(wrapped) == verdict(sync)

    @pytest.mark.parametrize("case", CASES, ids=case_id)
    def test_honest_runs_decision_identical_to_sync(self, case):
        """Fault-free alpha-wrapped asynchronous execution simulates the
        synchronous one exactly, for every factory in the library."""
        sync = run_case(case, lambda f: f, None, with_fault=False)
        wrapped = run_case(
            case,
            lambda f: synchronize_factory(f, SEEDED),
            SEEDED,
            with_fault=False,
        )
        assert verdict(wrapped) == verdict(sync)

    def test_wrapped_budget_scales_with_window(self):
        g = cycle_graph(4)
        inner = algorithm2_factory(g, 1)(0, 1)
        wrapper = AlphaSynchronizer(
            algorithm2_factory(g, 1)(0, 1), window=3
        )
        assert wrapper.total_rounds == inner.total_rounds * 3


class TestAckMode:
    def test_fault_free_async_decides(self):
        """The marker handshake needs no delay bound to terminate."""
        g = cycle_graph(4)
        inputs = {v: v % 2 for v in g.nodes}
        sync = run_consensus(g, algorithm2_factory(g, 1), inputs, f=1)
        ack = run_consensus(
            g,
            synchronize_factory(algorithm2_factory(g, 1), SEEDED, mode="ack"),
            inputs,
            f=1,
            scheduler=SEEDED,
        )
        assert ack.consensus
        assert ack.decision == sync.decision

    def test_silent_fault_stalls_the_classical_handshake(self):
        """With no fault allowance (f = 0, the pre-fix behavior), a
        Byzantine node that withholds markers blocks round advance —
        the classical synchronizer's documented fault-intolerance,
        surfaced as a budget_exhausted outcome (never as disagreement)."""
        g = cycle_graph(4)
        inputs = {v: v % 2 for v in g.nodes}
        res = run_consensus(
            g,
            synchronize_factory(
                algorithm2_factory(g, 1), SEEDED, mode="ack", f=0
            ),
            inputs,
            f=1,
            faulty=[1],
            adversary=SilentAdversary(),
            scheduler=SEEDED,
        )
        assert res.outcome == "budget_exhausted"
        assert not res.terminated

    @pytest.mark.parametrize(
        "spec", [SEEDED, ADVERSARIAL], ids=["seeded-async", "adversarial"]
    )
    def test_marker_withholding_fault_decides_with_quorum(self, spec):
        """The regression the fix exists for: alg2/C4 + ack + one
        marker-withholding Byzantine node must reach ``decided`` (with
        the synchronous run's exact decision), not ``budget_exhausted``.
        The ``deg − f`` marker quorum advances past the withholder; the
        α-window gate keeps honest payloads from ever being skipped."""
        g = cycle_graph(4)
        inputs = {v: v % 2 for v in g.nodes}
        sync = run_consensus(
            g, algorithm2_factory(g, 1), inputs, f=1,
            faulty=[1], adversary=SilentAdversary(),
        )
        fixed = run_consensus(
            g,
            synchronize_factory(
                algorithm2_factory(g, 1), spec, mode="ack", f=1
            ),
            inputs,
            f=1,
            faulty=[1],
            adversary=SilentAdversary(),
            scheduler=spec,
        )
        assert fixed.outcome == "decided"
        assert fixed.consensus
        assert fixed.decision == sync.decision

    def test_quorum_advance_never_skips_honest_payloads(self):
        """Fault-free, the fault-tolerant handshake must still be
        decision-identical to the synchronous run — the α-window gate is
        what guarantees slow honest neighbors are waited for."""
        g = cycle_graph(4)
        inputs = {v: v % 2 for v in g.nodes}
        sync = run_consensus(g, algorithm2_factory(g, 1), inputs, f=1)
        ack = run_consensus(
            g,
            synchronize_factory(
                algorithm2_factory(g, 1), SEEDED, mode="ack", f=1
            ),
            inputs,
            f=1,
            scheduler=SEEDED,
        )
        assert ack.consensus
        assert ack.decision == sync.decision

    def test_quorum_needs_the_declared_bound(self):
        """Under a scheduler that declares no delay bound there is no
        sound timeout gate, so the quorum path stays off and the
        withholding fault stalls the run even with f = 1 — the native
        asynchronous algorithm is the answer in that regime."""
        g = cycle_graph(4)
        inputs = {v: v % 2 for v in g.nodes}
        unbounded = SchedulerSpec("seeded-async", seed=7, max_delay=3,
                                  unbounded=True)
        factory = synchronize_factory(
            algorithm2_factory(g, 1), unbounded, mode="ack", window=3, f=1
        )
        assert not factory.ack_timeout
        res = run_consensus(
            g, factory, inputs, f=1,
            faulty=[1], adversary=SilentAdversary(), scheduler=unbounded,
        )
        assert res.outcome == "budget_exhausted"

    def test_shared_outbox_keeps_own_transcripts_exact(self):
        """The inner protocol's shadow context shares the tick's outbox,
        which already holds earlier logical rounds when the handshake
        advances several rounds in one tick.  Each node's own report —
        its record of every neighbor's phase-1 transmissions — must
        still equal the synchronous run's, round for round."""
        g = cycle_graph(4)
        inputs = {v: v % 2 for v in g.nodes}

        def recording(built):
            def factory(node, value):
                built[node] = algorithm2_factory(g, 1)(node, value)
                return built[node]

            return factory

        bare, wrapped = {}, {}
        run_consensus(g, recording(bare), inputs, f=1)
        ack = run_consensus(
            g,
            synchronize_factory(recording(wrapped), SEEDED, mode="ack"),
            inputs,
            f=1,
            scheduler=SEEDED,
        )
        assert ack.consensus
        for node in sorted(g.nodes):
            own = (node,)
            assert wrapped[node]._flood2.delivered[own] == (
                bare[node]._flood2.delivered[own]
            )

    def test_markers_trail_their_round_payloads(self):
        """Per-link FIFO: every round-r payload precedes marker r."""
        g = cycle_graph(4)
        inputs = {v: v % 2 for v in g.nodes}
        res = run_consensus(
            g,
            synchronize_factory(algorithm2_factory(g, 1), SEEDED, mode="ack"),
            inputs,
            f=1,
            scheduler=SEEDED,
            flight=True,
        )
        # Reconstruct per-link arrival order; markers partition payloads.
        per_link = {}
        for d in sorted(
            res.trace.deliveries, key=lambda d: (d.delivered_at, d.send_index)
        ):
            per_link.setdefault((d.sender, d.recipient), []).append(d.message)
        assert per_link
        for messages in per_link.values():
            marker_rounds = [
                m.round_no for m in messages if isinstance(m, RoundMarker)
            ]
            assert marker_rounds == sorted(marker_rounds)


class TestFactoryIntegration:
    def test_synchronized_factories_pickle(self):
        g = cycle_graph(4)
        factory = SynchronizedFactory(algorithm2_factory(g, 1), window=3)
        clone = pickle.loads(pickle.dumps(factory))
        assert isinstance(clone, SynchronizedFactory)
        assert (clone.window, clone.mode) == (3, "alpha")
        protocol = clone(0, 1)
        assert isinstance(protocol, AlphaSynchronizer)
        assert protocol.total_rounds == 3 * 3 * g.n

    @pytest.mark.parametrize("workers", [2])
    def test_wrapped_sweep_byte_identical_across_workers(self, workers):
        g = cycle_graph(4)

        def sweep(n):
            return consensus_sweep(
                g,
                synchronize_factory(algorithm2_factory(g, 1), SEEDED),
                f=1,
                patterns=["split"],
                workers=n,
                schedulers=[SEEDED],
            )

        serial, parallel = sweep(1), sweep(workers)
        assert parallel.records == serial.records
        assert parallel.to_json() == serial.to_json()
        assert serial.all_consensus

    def test_wrapped_sweep_full_battery_recovers_consensus(self):
        g = cycle_graph(4)
        bare = consensus_sweep(
            g, algorithm2_factory(g, 1), f=1, schedulers=[SEEDED]
        )
        wrapped = consensus_sweep(
            g,
            synchronize_factory(algorithm2_factory(g, 1), SEEDED),
            f=1,
            schedulers=[SEEDED],
        )
        assert not bare.all_consensus  # the jitter finding, still real
        assert wrapped.all_consensus  # ...and the synchronizer erases it
        assert {r.outcome for r in wrapped.records} == {"decided"}


class TestValidation:
    def test_bad_window(self):
        with pytest.raises(ValueError):
            AlphaSynchronizer(object(), window=0)
        with pytest.raises(ValueError):
            SynchronizedFactory(lambda v, x: None, window=0)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            AlphaSynchronizer(object(), window=1, mode="beta")
        with pytest.raises(ValueError):
            SynchronizedFactory(lambda v, x: None, window=1, mode="beta")

    def test_window_defaults_from_scheduler_spec(self):
        g = cycle_graph(4)
        factory = synchronize_factory(algorithm2_factory(g, 1), SEEDED)
        assert factory.window == SEEDED.worst_case_delay == 3
        bare = synchronize_factory(algorithm2_factory(g, 1), None)
        assert bare.window == 1
        explicit = synchronize_factory(
            algorithm2_factory(g, 1), SEEDED, window=5
        )
        assert explicit.window == 5

    def test_window_below_declared_bound_rejected(self):
        """A window smaller than the scheduler's worst-case delay would
        leak round-r messages into round r+2 — refused, not run."""
        g = cycle_graph(4)
        with pytest.raises(ValueError, match="below scheduler"):
            synchronize_factory(algorithm2_factory(g, 1), SEEDED, window=2)

    def test_wrapped_budget_not_double_scaled(self):
        """The wrapper's total_rounds is tick-denominated; the runner
        must take it as-is instead of multiplying by the delay bound
        again (R·d², triple the simulation for stalled runs)."""
        g = cycle_graph(4)
        inner_rounds = 3 * g.n
        res = run_consensus(
            g,
            synchronize_factory(algorithm2_factory(g, 1), SEEDED, mode="ack"),
            {v: v % 2 for v in g.nodes},
            f=1,
            faulty=[1],
            adversary=SilentAdversary(),
            scheduler=SEEDED,
        )
        assert res.outcome == "budget_exhausted"
        assert res.rounds == inner_rounds * SEEDED.worst_case_delay


class TestSchedulerContract:
    def test_declared_bounds(self):
        assert LOCKSTEP.bounded and LOCKSTEP.worst_case_delay == 1
        assert SEEDED.bounded and SEEDED.worst_case_delay == 3
        assert ADVERSARIAL.bounded and ADVERSARIAL.worst_case_delay == 3
        g = cycle_graph(4)
        for spec in (LOCKSTEP, SEEDED, ADVERSARIAL):
            scheduler = spec.build(g)
            assert scheduler.bounded
            assert scheduler.worst_case_delay == spec.worst_case_delay

    def test_horizon_scaling(self):
        assert LOCKSTEP.horizon(12) == 12
        assert SEEDED.horizon(12) == 36
        with pytest.raises(ValueError):
            SEEDED.horizon(-1)

    def test_overdeclared_delay_is_rejected(self):
        """A scheduler whose delays exceed its declared bound violates
        the contract the synchronizer and runner budget rely on."""
        from repro.net import EventDrivenNetwork, SchedulingError
        from repro.net.sched import LockstepScheduler

        class Liar(LockstepScheduler):
            def delay(self, send, recipient):
                return 2  # declared worst_case_delay is 1

        g = cycle_graph(4)

        class Chatter(Protocol):
            def on_round(self, ctx):
                ctx.broadcast("hi")

            def output(self):
                return None

        net = EventDrivenNetwork(g, {v: Chatter() for v in g.nodes}, Liar())
        with pytest.raises(SchedulingError):
            net.run(2)
