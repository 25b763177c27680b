"""Trace levels: a counts-only run is the recorded run minus its records.

``run_consensus`` records per-message traffic only for flight runs; every
other run keeps counts.  The contract is that nothing observable besides
the per-message logs differs: outputs, rounds, transmission and delivery
counts, the maximum latency, every decision (cause stamps included) and
the metered snapshot are equal — under the default synchronous timing,
the lockstep scheduler (both on the engine's unit-delay path and forced
through ``schedule``) and seeded-async timing.  Reading the logs
of a counts-only trace raises instead of answering from an empty list.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis import input_patterns
from repro.consensus import (
    algorithm1_factory,
    algorithm2_factory,
    async_factory,
    run_consensus,
)
from repro.graphs import cycle_graph, wheel_graph
from repro.net import (
    Delivery,
    SchedulerSpec,
    Trace,
    TraceLevelError,
    Transmission,
    standard_adversaries,
)
from repro.net.sched import EventDrivenNetwork, LockstepScheduler
from repro.net.node import Protocol


class ScheduledLockstep(LockstepScheduler):
    """Lockstep timing through ``schedule``: an overridden ``delay``
    keeps the engine off its unit-delay path."""

    def delay(self, send, recipient):
        return 1

GRAPHS = {"C5": lambda: cycle_graph(5), "W6": lambda: wheel_graph(6)}
FACTORIES = {
    "alg1": algorithm1_factory,
    "alg2": algorithm2_factory,
    "async": async_factory,
}
SCHEDULERS = {
    "sync": None,
    "lockstep": SchedulerSpec("lockstep"),
    "seeded-async": SchedulerSpec("seeded-async", seed=11, max_delay=3),
}
#: Seeded battery draws per (graph, algorithm, timing) case.
DRAWS = 3


def battery(graph, seed):
    """A seeded sample of (inputs, faulty, adversary) scenarios: one
    fault-free run plus ``DRAWS`` single-fault runs."""
    rng = random.Random(seed)
    patterns = input_patterns(graph)
    names = sorted(patterns)
    nodes = sorted(graph.nodes, key=repr)
    adversaries = standard_adversaries(seed)
    out = [(patterns["alternating"], [], None)]
    for _ in range(DRAWS):
        out.append((
            patterns[rng.choice(names)],
            [rng.choice(nodes)],
            rng.choice(adversaries),
        ))
    return out


def observed(result):
    """Everything a counts-only run must reproduce."""
    trace = result.trace
    return (
        result.outputs,
        result.outcome,
        result.rounds,
        result.transmissions,
        result.deliveries,
        trace.rounds,
        trace.transmission_count,
        trace.delivery_count,
        trace.max_latency,
        trace.decisions,
        result.metrics,
    )


@pytest.mark.parametrize("timing", sorted(SCHEDULERS))
@pytest.mark.parametrize("algorithm", sorted(FACTORIES))
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_counts_only_run_matches_recorded_run(graph_name, algorithm, timing):
    graph = GRAPHS[graph_name]()
    factory = FACTORIES[algorithm](graph, 1)
    seed = sum(map(ord, graph_name + algorithm + timing))
    for inputs, faulty, adversary in battery(graph, seed):
        runs = [
            run_consensus(
                graph, factory, inputs, f=1, faulty=faulty,
                adversary=adversary, scheduler=SCHEDULERS[timing],
                metrics=True, flight=flight,
            )
            for flight in (True, False)
        ]
        recorded, counted = runs
        assert recorded.trace.record_messages
        assert not counted.trace.record_messages
        assert observed(counted) == observed(recorded)
        # The recorded level's counters agree with its own logs.
        trace = recorded.trace
        assert trace.transmission_count == len(trace.transmissions)
        assert trace.delivery_count == len(trace.deliveries) == sum(
            len(t.recipients) for t in trace.transmissions
        )
        assert trace.max_latency == max(
            (d.latency for d in trace.deliveries), default=0
        )
        with pytest.raises(TraceLevelError):
            counted.trace.transmissions
        with pytest.raises(TraceLevelError):
            counted.trace.deliveries


class Chatty(Protocol):
    """Broadcasts its round number every round."""

    def __init__(self, node):
        self.node = node

    def on_round(self, ctx):
        ctx.broadcast(("tick", self.node, ctx.round_no))

    def output(self):
        return None


class TestEngineLevels:
    def test_engines_record_by_default(self):
        g = cycle_graph(4)
        sync = EventDrivenNetwork(g, {v: Chatty(v) for v in g.nodes})
        ev = EventDrivenNetwork(
            g, {v: Chatty(v) for v in g.nodes}, ScheduledLockstep()
        )
        for net in (sync, ev):
            net.run(3)
            assert net.trace.record_messages
            assert len(net.trace.transmissions) == 12
            assert len(net.trace.deliveries) == 24

    @pytest.mark.parametrize("engine", ["sync", "event"])
    def test_counts_only_engine(self, engine):
        g = cycle_graph(4)

        def build(record):
            protocols = {v: Chatty(v) for v in g.nodes}
            if engine == "sync":
                return EventDrivenNetwork(g, protocols, record_messages=record)
            return EventDrivenNetwork(
                g, protocols, ScheduledLockstep(), record_messages=record
            )

        full, counts = build(True), build(False)
        full.run(3)
        counts.run(3)
        assert counts.trace.transmission_count == 12
        assert counts.trace.delivery_count == 24
        assert counts.trace.max_latency == 1
        assert counts.trace.rounds == full.trace.rounds == 3
        assert counts.in_flight == full.in_flight == 8

    def test_per_message_queries_raise_and_name_flight(self):
        g = cycle_graph(4)
        net = EventDrivenNetwork(
            g, {v: Chatty(v) for v in g.nodes}, record_messages=False
        )
        net.run(2)
        trace = net.trace
        for query in (
            lambda: trace.transmissions,
            lambda: trace.deliveries,
            lambda: trace.sent_by(0),
        ):
            with pytest.raises(TraceLevelError, match="flight=True"):
                query()

    def test_manual_trace_counts_follow_records(self):
        trace = Trace()
        trace.record(Transmission(2, "a", "m", None, ("b", "c"), 2))
        trace.record_delivery(Delivery(0, "a", "b", "m", 2, 3))
        trace.record_delivery(Delivery(0, "a", "c", "m", 2, 5))
        assert trace.rounds == 2
        assert trace.transmission_count == 1
        assert trace.delivery_count == 2
        assert trace.max_latency == 3
