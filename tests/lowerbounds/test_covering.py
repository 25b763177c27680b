"""Covering network structure and execution ``E`` on the engine."""

import pytest

from repro.graphs import Graph, GraphError, cycle_graph, path_graph
from repro.lowerbounds import CoveringNetwork, degree_scenario, run_covering
from repro.net import Context, Protocol


class Probe(Protocol):
    """Records inbox and broadcasts its identity each round."""

    def __init__(self, tag):
        self.tag = tag
        self.heard = []

    def on_round(self, ctx: Context) -> None:
        self.heard.append(list(ctx.inbox))
        ctx.broadcast(self.tag)

    def output(self):
        return None


def tiny_network():
    """P3 (0-1-2) with node 2 doubled; copy (1,0) hears (2,0), and both
    copies of 2 hear 1."""
    g = path_graph(3)
    copies = {0: (0,), 1: (0,), 2: (0, 1)}
    listen = {
        (0, 0): {1: 0},
        (1, 0): {0: 0, 2: 0},
        (2, 0): {1: 0},
        (2, 1): {1: 0},
    }
    return CoveringNetwork(g, copies, listen)


class TestCoveringNetwork:
    def test_valid_network_constructs(self):
        net = tiny_network()
        assert len(net.all_copies()) == 4
        net.check_edge_property()

    def test_missing_copy_rejected(self):
        g = path_graph(2)
        with pytest.raises(GraphError):
            CoveringNetwork(g, {0: (0,)}, {(0, 0): {1: 0}})

    def test_listen_to_missing_copy_rejected(self):
        g = path_graph(2)
        with pytest.raises(GraphError):
            CoveringNetwork(
                g, {0: (0,), 1: (0,)},
                {(0, 0): {1: 5}, (1, 0): {0: 0}},
            )

    def test_listen_must_cover_neighbors(self):
        g = path_graph(3)
        with pytest.raises(GraphError):
            CoveringNetwork(
                g, {0: (0,), 1: (0,), 2: (0,)},
                {(0, 0): {1: 0}, (1, 0): {0: 0}, (2, 0): {1: 0}},
            )

    def test_digraph_arcs(self):
        """Each copy has an arc to every copy that listens to it."""
        g = tiny_network().digraph()
        assert g.nodes == frozenset(tiny_network().all_copies())
        assert g.sorted_neighbors((2, 0)) == ((1, 0),)
        assert g.sorted_neighbors((2, 1)) == ()  # nobody listens to copy 1
        assert set(g.neighbors((1, 0))) == {(0, 0), (2, 0), (2, 1)}

    def test_listen_entry_for_non_neighbor_carries_nothing(self):
        """Only G's edges make arcs: (0, 0) names non-neighbor 2 in its
        listen map, yet hears 1 alone."""
        g = path_graph(3)
        net = CoveringNetwork(
            g, {0: (0,), 1: (0,), 2: (0,)},
            {(0, 0): {1: 0, 2: 0}, (1, 0): {0: 0, 2: 0}, (2, 0): {1: 0}},
        )
        assert (0, 0) not in net.digraph().neighbors((2, 0))
        protos = {c: Probe(c) for c in net.all_copies()}
        run_covering(net, protos, 2)
        assert protos[(0, 0)].heard[1] == [(1, (1, 0))]


class TestRunCovering:
    def test_delivery_follows_listen_map(self):
        net = tiny_network()
        protos = {c: Probe(c) for c in net.all_copies()}
        run_covering(net, protos, 2)
        # (1,0) hears 0's copy and 2's copy 0 — not copy 1.
        heard = protos[(1, 0)].heard[1]
        assert (0, (0, 0)) in heard
        assert (2, (2, 0)) in heard
        assert (2, (2, 1)) not in heard
        # Both copies of 2 hear node 1 (as sender "1").
        assert protos[(2, 0)].heard[1] == [(1, (1, 0))]
        assert protos[(2, 1)].heard[1] == [(1, (1, 0))]

    def test_transcripts_returned_as_schedules(self):
        net = tiny_network()
        protos = {c: Probe(c) for c in net.all_copies()}
        outputs, schedules = run_covering(net, protos, 3)
        assert outputs == dict.fromkeys(net.all_copies())
        schedule = schedules[(2, 1)]
        assert set(schedule) == {1, 2, 3}
        assert schedule[1] == [((2, 1), None)]

    def test_unicast_rejected(self):
        class Rogue(Protocol):
            def on_round(self, ctx):
                ctx.outbox.append(("x", 1))

            def output(self):
                return None

        net = tiny_network()
        protos = {c: Probe(c) for c in net.all_copies()}
        protos[(0, 0)] = Rogue()
        with pytest.raises(GraphError):
            run_covering(net, protos, 1)

    def test_missing_protocols_rejected(self):
        net = tiny_network()
        with pytest.raises(GraphError):
            run_covering(net, {(0, 0): Probe("x")}, 1)

    def test_scenario_networks_pass_structure_check(self):
        sc = degree_scenario(path_graph(3), 1)
        sc.network.check_edge_property()
        # Exactly one copy of z and its neighbors; W doubled.
        z = sc.notes["z"]
        assert sc.network.copies[z] == (0,)
        for w in sc.notes["W"]:
            assert sc.network.copies[w] == (0, 1)
