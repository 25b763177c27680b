"""Synchronous simulator semantics: delivery, FIFO, enforcement, traces."""

import pytest

from repro.graphs import Graph, cycle_graph, star_graph
from repro.net import (
    Context,
    EquivocationError,
    EventDrivenNetwork,
    Protocol,
    SimulationError,
    hybrid_model,
    local_broadcast_model,
    point_to_point_model,
)


class Echo(Protocol):
    """Broadcasts a tag each round and records everything it hears."""

    def __init__(self, tag):
        self.tag = tag
        self.heard = []

    def on_round(self, ctx: Context) -> None:
        self.heard.append(list(ctx.inbox))
        ctx.broadcast((self.tag, ctx.round_no))

    def output(self):
        return None


class Quiet(Protocol):
    def __init__(self):
        self.heard = []

    def on_round(self, ctx: Context) -> None:
        self.heard.append(list(ctx.inbox))

    def output(self):
        return None


class UnicastOnce(Protocol):
    def __init__(self, target):
        self.target = target

    def on_round(self, ctx: Context) -> None:
        if ctx.round_no == 1:
            ctx.send(self.target, "psst")

    def output(self):
        return None


class Decider(Protocol):
    def __init__(self, decide_at):
        self.decide_at = decide_at
        self._out = None

    def on_round(self, ctx: Context) -> None:
        if ctx.round_no >= self.decide_at:
            self._out = 1

    def output(self):
        return self._out


def build(graph, protocols, channel=None):
    return EventDrivenNetwork(graph, protocols, channel=channel)


class TestDelivery:
    def test_broadcast_reaches_all_neighbors_next_round(self):
        g = star_graph(3)  # hub 0, leaves 1..3
        protos = {0: Echo("hub"), 1: Quiet(), 2: Quiet(), 3: Quiet()}
        net = build(g, protos)
        net.run(2)
        for leaf in (1, 2, 3):
            assert protos[leaf].heard[0] == []
            assert protos[leaf].heard[1] == [(0, ("hub", 1))]

    def test_non_neighbors_hear_nothing(self):
        g = cycle_graph(5)
        protos = {v: (Echo(v) if v == 0 else Quiet()) for v in g.nodes}
        net = build(g, protos)
        net.run(2)
        assert protos[2].heard[1] == []  # 2 is not adjacent to 0
        assert protos[1].heard[1] == [(0, (0, 1))]

    def test_fifo_order_per_sender(self):
        class Chatty(Protocol):
            def on_round(self, ctx):
                ctx.broadcast("first")
                ctx.broadcast("second")

            def output(self):
                return None

        g = Graph.from_edges([(0, 1)])
        listener = Quiet()
        net = build(g, {0: Chatty(), 1: listener})
        net.run(2)
        assert listener.heard[1] == [(0, "first"), (0, "second")]

    def test_deterministic_cross_sender_order(self):
        g = star_graph(2)
        hub = Quiet()
        net = build(g, {0: hub, 1: Echo("a"), 2: Echo("b")})
        net.run(2)
        assert hub.heard[1] == [(1, ("a", 1)), (2, ("b", 1))]

    def test_local_broadcast_identical_to_all(self):
        g = cycle_graph(4)
        protos = {v: (Echo("x") if v == 0 else Quiet()) for v in g.nodes}
        net = build(g, protos)
        net.run(2)
        assert protos[1].heard[1] == protos[3].heard[1]


class TestChannelEnforcement:
    def test_unicast_raises_under_local_broadcast(self):
        g = Graph.from_edges([(0, 1)])
        net = build(g, {0: UnicastOnce(1), 1: Quiet()})
        with pytest.raises(EquivocationError):
            net.run(1)

    def test_unicast_allowed_under_p2p(self):
        g = Graph.from_edges([(0, 1), (0, 2), (1, 2)])
        listener1, listener2 = Quiet(), Quiet()
        net = build(
            g, {0: UnicastOnce(1), 1: listener1, 2: listener2},
            point_to_point_model(),
        )
        net.run(2)
        assert listener1.heard[1] == [(0, "psst")]
        assert listener2.heard[1] == []  # unicast is private

    def test_hybrid_grants_only_listed_nodes(self):
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2)])
        net = build(
            g, {0: UnicastOnce(1), 1: Quiet(), 2: Quiet()}, hybrid_model({0})
        )
        net.run(2)  # allowed
        net2 = build(
            g, {0: Quiet(), 1: UnicastOnce(0), 2: Quiet()}, hybrid_model({0})
        )
        with pytest.raises(EquivocationError):
            net2.run(1)

    def test_send_to_non_neighbor_rejected(self):
        g = cycle_graph(4)
        net = build(
            g, {0: UnicastOnce(2), **{v: Quiet() for v in [1, 2, 3]}},
            point_to_point_model(),
        )
        with pytest.raises(ValueError):
            net.run(1)

    def test_outbox_injection_blocked_at_delivery(self):
        class Sneaky(Protocol):
            def on_round(self, ctx):
                ctx.outbox.append(("evil", 1))

            def output(self):
                return None

        g = Graph.from_edges([(0, 1)])
        net = build(g, {0: Sneaky(), 1: Quiet()})
        with pytest.raises(SimulationError):
            net.run(1)


class TestLifecycle:
    def test_protocol_coverage_validated(self):
        g = cycle_graph(3)
        with pytest.raises(SimulationError):
            EventDrivenNetwork(g, {0: Quiet()})
        with pytest.raises(SimulationError):
            EventDrivenNetwork(g, {v: Quiet() for v in [0, 1, 2, 99]})

    def test_run_until_decided(self):
        g = Graph.from_edges([(0, 1)])
        net = build(g, {0: Decider(2), 1: Decider(3)})
        net.run_until_decided(10)
        assert net.outputs() == {0: 1, 1: 1}
        assert net.round_no == 3

    def test_run_until_decided_timeout(self):
        g = Graph.from_edges([(0, 1)])
        net = build(g, {0: Decider(100), 1: Decider(1)})
        with pytest.raises(SimulationError):
            net.run_until_decided(5)

    def test_run_until_decided_watches_only_named(self):
        g = Graph.from_edges([(0, 1)])
        net = build(g, {0: Decider(100), 1: Decider(2)})
        net.run_until_decided(5, honest={1})
        assert net.outputs()[1] == 1

    def test_trace_accounting(self):
        g = cycle_graph(4)
        net = build(g, {v: Echo(v) for v in g.nodes})
        net.run(3)
        assert net.trace.rounds == 3
        assert net.trace.transmission_count == 12  # 4 nodes x 3 rounds
        assert net.trace.delivery_count == 24  # each broadcast reaches 2

    def test_trace_sent_by_and_received_by(self):
        g = cycle_graph(4)
        net = build(g, {v: Echo(v) for v in g.nodes})
        net.run(2)
        sent = net.trace.sent_by(0)
        assert [t.round_no for t in sent] == [1, 2]
        received = [t for t in net.trace.transmissions if 1 in t.recipients]
        assert sorted({t.sender for t in received}) == [0, 2]
