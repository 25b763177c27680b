"""Lockstep-scheduler equivalence: the event-driven core *is* the
synchronous simulator when every delay is one tick.

The property that licenses running every existing protocol unchanged on
the new core: for each protocol factory in the library, a run routed
through :class:`EventDrivenNetwork` + :class:`LockstepScheduler` is
byte-identical — transmissions, deliveries, outputs, decisions — to the
same run on :class:`SynchronousNetwork`.
"""

import pytest

from repro.consensus import (
    algorithm1_factory,
    algorithm2_factory,
    algorithm3_factory,
    dolev_eig_factory,
    eig_factory,
    run_consensus,
)
from repro.graphs import complete_graph, cycle_graph, paper_figure_1a
from repro.net import (
    EventDrivenNetwork,
    LockstepScheduler,
    Protocol,
    SchedulerSpec,
    SynchronousNetwork,
    TamperForwardAdversary,
    hybrid_model,
    point_to_point_model,
)

LOCKSTEP = SchedulerSpec("lockstep")


def case_id(case):
    return case[0]


# (name, graph builder, factory builder, channel builder, faulty, adversary)
# — one entry per protocol factory in the library; the paper's three
# algorithms under their native channel models plus both baselines.
CASES = [
    (
        "algorithm1",
        paper_figure_1a,
        lambda g: algorithm1_factory(g, 1),
        lambda g: None,
        [2],
        TamperForwardAdversary(),
    ),
    (
        "algorithm2",
        lambda: cycle_graph(4),
        lambda g: algorithm2_factory(g, 1),
        lambda g: None,
        [1],
        TamperForwardAdversary(),
    ),
    (
        "algorithm3",
        lambda: complete_graph(4),
        lambda g: algorithm3_factory(g, 1, 1),
        lambda g: hybrid_model({0}),
        [0],
        TamperForwardAdversary(),
    ),
    (
        "eig",
        lambda: complete_graph(4),
        lambda g: eig_factory(g, 1),
        lambda g: point_to_point_model(),
        [2],
        TamperForwardAdversary(),
    ),
    (
        "dolev-eig",
        lambda: complete_graph(5),
        lambda g: dolev_eig_factory(g, 1),
        lambda g: point_to_point_model(),
        [3],
        TamperForwardAdversary(),
    ),
]


def run_pair(case, with_fault, metered=False):
    """The same execution on both engines, with recorded traces;
    returns (sync, lockstep)."""
    _, graph_builder, factory_builder, channel_builder, faulty, adversary = case
    results = []
    for scheduler in (None, LOCKSTEP):
        graph = graph_builder()
        inputs = {v: i % 2 for i, v in enumerate(sorted(graph.nodes, key=repr))}
        results.append(
            run_consensus(
                graph,
                factory_builder(graph),
                inputs,
                f=1,
                faulty=faulty if with_fault else [],
                adversary=adversary if with_fault else None,
                channel=channel_builder(graph),
                scheduler=scheduler,
                metrics=metered,
                flight=True,
            )
        )
    return results


class TestTraceEquivalence:
    @pytest.mark.parametrize("case", CASES, ids=case_id)
    @pytest.mark.parametrize("with_fault", [False, True], ids=["honest", "faulty"])
    def test_byte_identical_traces_and_decisions(self, case, with_fault):
        sync, lockstep = run_pair(case, with_fault)
        assert lockstep.trace.transmissions == sync.trace.transmissions
        assert lockstep.trace.deliveries == sync.trace.deliveries
        assert repr(lockstep.trace) == repr(sync.trace)
        assert lockstep.outputs == sync.outputs
        assert lockstep.decision == sync.decision
        assert lockstep.rounds == sync.rounds
        assert (lockstep.consensus, lockstep.agreement, lockstep.validity) == (
            sync.consensus,
            sync.agreement,
            sync.validity,
        )

    @pytest.mark.parametrize("case", CASES, ids=case_id)
    def test_lockstep_latency_is_always_one(self, case):
        _, lockstep = run_pair(case, with_fault=True)
        assert lockstep.trace.max_latency == 1
        assert all(
            d.delivered_at == d.sent_at + 1 for d in lockstep.trace.deliveries
        )


class TestMetricEquivalence:
    """The observability layer preserves the equivalence: the canonical
    metric snapshot — counters, gauges, histograms, spans — is
    byte-identical between the two engines, tick for tick.  (The sync
    engine observes ``sched.delay = 1`` per delivery because it *is*
    the unit-delay scheduler, so even the delay histograms line up.)
    """

    @pytest.mark.parametrize("case", CASES, ids=case_id)
    @pytest.mark.parametrize(
        "with_fault", [False, True], ids=["honest", "faulty"]
    )
    def test_metric_snapshots_identical(self, case, with_fault):
        sync, lockstep = run_pair(case, with_fault, metered=True)
        assert sync.metrics is not None
        assert sync.metrics["counters"]  # instrumentation actually fired
        assert lockstep.metrics == sync.metrics

    def test_async_spans_identical_across_engines(self):
        from repro.consensus import async_factory
        from repro.graphs import wheel_graph

        graph = wheel_graph(5)
        inputs = {v: i % 2 for i, v in enumerate(sorted(graph.nodes))}
        results = []
        for scheduler in (None, LOCKSTEP):
            results.append(
                run_consensus(
                    graph,
                    async_factory(graph, 1),
                    inputs,
                    f=1,
                    scheduler=scheduler,
                    metrics=True,
                )
            )
        sync, lockstep = results
        assert sync.consensus and lockstep.consensus
        # The per-origin flood→vote→decide spans are virtual-time
        # content; both engines must anchor them to the same ticks.
        names = {span["name"] for span in sync.metrics["spans"]}
        assert {"async.flood", "async.vote", "async.decide"} <= names
        assert lockstep.metrics["spans"] == sync.metrics["spans"]
        assert lockstep.metrics == sync.metrics


class TestRawNetworkEquivalence:
    """Engine-level equality, independent of the consensus runner."""

    class Chatty(Protocol):
        def __init__(self, tag):
            self.tag = tag
            self.heard = []

        def on_round(self, ctx):
            self.heard.append(list(ctx.inbox))
            ctx.broadcast((self.tag, ctx.round_no))
            if ctx.round_no == 2:
                ctx.broadcast((self.tag, "extra"))

        def output(self):
            return None

    def test_multi_message_fifo_equality(self):
        g = cycle_graph(5)
        sync = SynchronousNetwork(g, {v: self.Chatty(v) for v in g.nodes})
        sync.run(4)
        ev = EventDrivenNetwork(
            g, {v: self.Chatty(v) for v in g.nodes}, LockstepScheduler()
        )
        ev.run(4)
        assert ev.trace.transmissions == sync.trace.transmissions
        assert ev.trace.deliveries == sync.trace.deliveries
        for v in g.nodes:
            assert ev.protocols[v].heard == sync.protocols[v].heard

    def test_context_carries_virtual_now(self):
        g = cycle_graph(4)

        class Probe(Protocol):
            def __init__(self):
                self.nows = []

            def on_round(self, ctx):
                self.nows.append((ctx.round_no, ctx.virtual_now))

            def output(self):
                return None

        probe = Probe()
        protocols = {v: (probe if v == 0 else Probe()) for v in g.nodes}
        EventDrivenNetwork(g, protocols, LockstepScheduler()).run(3)
        assert probe.nows == [(1, 1), (2, 2), (3, 3)]
