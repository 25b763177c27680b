"""Lockstep equivalence: the engine's unit-delay path *is* lockstep
scheduling.

Under :class:`LockstepScheduler` the engine files every delivery
straight under the next tick, without asking the scheduler per
recipient.  The property that licenses this shortcut: for each protocol
factory in the library, a run on that path is byte-identical —
transmissions, deliveries, outputs, decisions, cause stamps and metric
snapshots — to the same run forced through :meth:`Scheduler.schedule`
by a lockstep subclass whose overridden ``delay`` returns 1.
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
    TamperForwardAdversary,
    hybrid_model,
    point_to_point_model,
)


class ScheduledLockstep(LockstepScheduler):
    """Lockstep timing through ``schedule``: an overridden ``delay``
    keeps the engine off its unit-delay path."""

    def delay(self, send, recipient):
        return 1


class ScheduledLockstepSpec(SchedulerSpec):
    """A lockstep spec whose runs take the scheduled path."""

    def build(self, graph):
        return ScheduledLockstep()


SCHEDULED = ScheduledLockstepSpec("lockstep")


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
    """The same execution on both paths, with recorded traces;
    returns (unit-delay, scheduled)."""
    _, graph_builder, factory_builder, channel_builder, faulty, adversary = case
    results = []
    for scheduler in (None, SCHEDULED):
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
        unit, scheduled = run_pair(case, with_fault)
        assert scheduled.trace.transmissions == unit.trace.transmissions
        assert scheduled.trace.deliveries == unit.trace.deliveries
        assert scheduled.trace.decisions == unit.trace.decisions
        assert repr(scheduled.trace) == repr(unit.trace)
        assert scheduled.outputs == unit.outputs
        assert scheduled.decision == unit.decision
        assert scheduled.rounds == unit.rounds
        assert (scheduled.consensus, scheduled.agreement, scheduled.validity) == (
            unit.consensus,
            unit.agreement,
            unit.validity,
        )

    @pytest.mark.parametrize("case", CASES, ids=case_id)
    def test_lockstep_latency_is_always_one(self, case):
        for result in run_pair(case, with_fault=True):
            assert result.trace.max_latency == 1
            assert all(
                d.delivered_at == d.sent_at + 1 for d in result.trace.deliveries
            )


class TestMetricEquivalence:
    """The observability layer preserves the equivalence: the canonical
    metric snapshot — counters, gauges, histograms, spans — is
    byte-identical between the two paths, tick for tick.  (The unit-delay
    path observes ``sched.delay = 1`` in bulk once per tick, where
    ``schedule`` observes it per delivery, so even the delay histograms
    line up.)
    """

    @pytest.mark.parametrize("case", CASES, ids=case_id)
    @pytest.mark.parametrize(
        "with_fault", [False, True], ids=["honest", "faulty"]
    )
    def test_metric_snapshots_identical(self, case, with_fault):
        unit, scheduled = run_pair(case, with_fault, metered=True)
        assert unit.metrics is not None
        assert unit.metrics["counters"]  # instrumentation actually fired
        assert scheduled.metrics == unit.metrics

    def test_async_spans_identical_across_engines(self):
        from repro.consensus import async_factory
        from repro.graphs import wheel_graph

        graph = wheel_graph(5)
        inputs = {v: i % 2 for i, v in enumerate(sorted(graph.nodes))}
        results = []
        for scheduler in (None, SCHEDULED):
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
        unit, scheduled = results
        assert unit.consensus and scheduled.consensus
        # The per-origin flood→vote→decide spans are virtual-time
        # content; both paths must anchor them to the same ticks.
        names = {span["name"] for span in unit.metrics["spans"]}
        assert {"async.flood", "async.vote", "async.decide"} <= names
        assert scheduled.metrics["spans"] == unit.metrics["spans"]
        assert scheduled.metrics == unit.metrics


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
        unit = EventDrivenNetwork(g, {v: self.Chatty(v) for v in g.nodes})
        unit.run(4)
        ev = EventDrivenNetwork(
            g, {v: self.Chatty(v) for v in g.nodes}, ScheduledLockstep()
        )
        ev.run(4)
        assert ev.trace.transmissions == unit.trace.transmissions
        assert ev.trace.deliveries == unit.trace.deliveries
        for v in g.nodes:
            assert ev.protocols[v].heard == unit.protocols[v].heard

    def test_only_an_overridden_delay_is_scheduled(self):
        """The unit-delay path never calls ``schedule``; an overridden
        ``delay`` sends every transmission through it."""

        def count_schedules(scheduler_class):
            calls = []

            class Counting(scheduler_class):
                def schedule(self, send):
                    calls.append(send)
                    return super().schedule(send)

            g = cycle_graph(5)
            net = EventDrivenNetwork(
                g, {v: self.Chatty(v) for v in g.nodes}, Counting()
            )
            net.run(4)
            return len(calls), net.trace.transmission_count

        assert count_schedules(LockstepScheduler) == (0, 25)
        assert count_schedules(ScheduledLockstep) == (25, 25)

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
