"""The flooding rules (i)-(iv), defaults, and the local-broadcast lemma.

These tests drive :class:`FloodInstance` directly through hand-built
contexts, then check the emergent guarantees (Observation B.1,
equivocation prevention) through full simulator runs.
"""

from repro.consensus import FloodInstance, flood_rounds
from repro.consensus.runner import run_consensus
from repro.graphs import Graph, cycle_graph, is_path, oneway_ring, paper_figure_1a
from repro.net import (
    Context,
    EventDrivenNetwork,
    FloodMessage,
    Protocol,
    SilentAdversary,
    ValuePayload,
    local_broadcast_model,
)
from repro.obs import NULL_METRICS, MetricsRegistry


def ctx_for(graph, node, round_no, inbox, metrics=NULL_METRICS):
    return Context(
        node=node,
        graph=graph,
        round_no=round_no,
        channel=local_broadcast_model(),
        inbox=inbox,
        metrics=metrics,
    )


def msg(phase, value, path):
    return FloodMessage(phase, ValuePayload(value), tuple(path))


class TestRules:
    def test_initiate_records_trivial_path_and_broadcasts(self, c5):
        flood = FloodInstance(c5, 0, phase="p")
        ctx = ctx_for(c5, 0, 1, [])
        flood.initiate(ctx, ValuePayload(1))
        assert flood.delivered[(0,)] == ValuePayload(1)
        assert len(ctx.outbox) == 1
        sent, _target = ctx.outbox[0]
        assert sent.path == ()

    def test_accept_and_forward(self, c5):
        flood = FloodInstance(c5, 1, phase="p")
        ctx = ctx_for(c5, 1, 2, [(0, msg("p", 0, ()))])
        accepted = flood.process_round(ctx)
        assert accepted == 1
        assert flood.delivered[(0, 1)] == ValuePayload(0)
        forwarded = [message for message, _ in ctx.outbox]
        assert FloodMessage("p", ValuePayload(0), (0,)) in forwarded

    def test_rule_i_invalid_path_discarded(self, c5):
        flood = FloodInstance(c5, 1, phase="p")
        # (3, 0) claims path 3-0; but message comes from 0 with path (3,):
        # 3-0 is an edge... use a NON-path: (2, 0) — 2 and 0 not adjacent.
        ctx = ctx_for(c5, 1, 2, [(0, msg("p", 0, (2,)))])
        assert flood.process_round(ctx) == 0
        assert (2, 0, 1) not in flood.delivered

    def test_rule_i_nonexistent_node(self, c5):
        flood = FloodInstance(c5, 1, phase="p")
        ctx = ctx_for(c5, 1, 2, [(0, msg("p", 0, (99,)))])
        assert flood.process_round(ctx) == 0

    def test_rule_ii_duplicate_slot_discarded(self, c5):
        flood = FloodInstance(c5, 1, phase="p")
        first = msg("p", 0, ())
        second = msg("p", 1, ())  # same (sender, path) slot, flipped value
        ctx = ctx_for(c5, 1, 2, [(0, first), (0, second)])
        assert flood.process_round(ctx) == 1
        assert flood.delivered[(0, 1)] == ValuePayload(0)  # first wins

    def test_rule_iii_own_id_in_path_discarded(self, c5):
        flood = FloodInstance(c5, 1, phase="p")
        ctx = ctx_for(c5, 1, 2, [(0, msg("p", 0, (1, 2, 3, 4)))])
        assert flood.process_round(ctx) == 0

    def test_rule_iv_delivery_key_includes_self(self, c5):
        flood = FloodInstance(c5, 2, phase="p")
        ctx = ctx_for(c5, 2, 3, [(1, msg("p", 1, (0,)))])
        flood.process_round(ctx)
        assert flood.delivered[(0, 1, 2)] == ValuePayload(1)

    def test_wrong_phase_ignored(self, c5):
        flood = FloodInstance(c5, 1, phase="p")
        ctx = ctx_for(c5, 1, 2, [(0, msg("other", 0, ()))])
        assert flood.process_round(ctx) == 0

    def test_non_flood_junk_ignored(self, c5):
        flood = FloodInstance(c5, 1, phase="p")
        ctx = ctx_for(c5, 1, 2, [(0, "garbage"), (0, 42)])
        assert flood.process_round(ctx) == 0

    def test_validator_rejects_payload(self, c5):
        flood = FloodInstance(
            c5, 1, phase="p",
            validator=lambda payload, path: isinstance(payload, ValuePayload),
        )
        ctx = ctx_for(c5, 1, 2, [(0, FloodMessage("p", "junk", ()))])
        assert flood.process_round(ctx) == 0

    def test_invalid_message_does_not_burn_slot(self, c5):
        flood = FloodInstance(
            c5, 1, phase="p",
            validator=lambda payload, path: isinstance(payload, ValuePayload),
        )
        garbage = FloodMessage("p", "junk", ())
        good = msg("p", 0, ())
        ctx = ctx_for(c5, 1, 2, [(0, garbage), (0, good)])
        assert flood.process_round(ctx) == 1
        assert flood.delivered[(0, 1)] == ValuePayload(0)


class TestDefaults:
    def test_silent_neighbor_substituted(self, c5):
        flood = FloodInstance(c5, 1, phase="p", default_payload=ValuePayload(1))
        # Neighbor 0 initiates; neighbor 2 stays silent.
        ctx = ctx_for(c5, 1, 2, [(0, msg("p", 0, ()))])
        accepted = flood.process_round(ctx)
        assert accepted == 2
        assert flood.delivered[(0, 1)] == ValuePayload(0)
        assert flood.delivered[(2, 1)] == ValuePayload(1)  # substituted

    def test_substitute_is_forwarded(self, c5):
        flood = FloodInstance(c5, 1, phase="p", default_payload=ValuePayload(1))
        ctx = ctx_for(c5, 1, 2, [])
        flood.process_round(ctx)
        forwarded = {message for message, _ in ctx.outbox}
        assert FloodMessage("p", ValuePayload(1), (0,)) in forwarded
        assert FloodMessage("p", ValuePayload(1), (2,)) in forwarded

    def test_defaults_applied_once(self, c5):
        flood = FloodInstance(c5, 1, phase="p", default_payload=ValuePayload(1))
        flood.process_round(ctx_for(c5, 1, 2, []))
        ctx3 = ctx_for(c5, 1, 3, [])
        assert flood.process_round(ctx3) == 0

    def test_late_init_loses_to_default(self, c5):
        flood = FloodInstance(c5, 1, phase="p", default_payload=ValuePayload(1))
        flood.process_round(ctx_for(c5, 1, 2, []))  # substitution happens
        late = ctx_for(c5, 1, 3, [(0, msg("p", 0, ()))])
        assert flood.process_round(late) == 0
        assert flood.delivered[(0, 1)] == ValuePayload(1)

    def test_no_default_no_substitution(self, c5):
        flood = FloodInstance(c5, 1, phase="p", default_payload=None)
        flood.process_round(ctx_for(c5, 1, 2, []))
        assert (0, 1) not in flood.delivered

    def test_directed_substitutes_only_in_neighbors(self):
        # oneway:5 has arcs i -> i+1: node 1 hears 0 and is heard by 2.
        g = oneway_ring(5)
        flood = FloodInstance(g, 1, phase="p", default_payload=ValuePayload(1))
        ctx = ctx_for(g, 1, 2, [])
        assert flood.process_round(ctx) == 1
        assert flood.delivered[(0, 1)] == ValuePayload(1)  # silent in-neighbor
        assert (2, 1) not in flood.delivered  # out-only neighbor
        assert ctx.outbox == [(msg("p", 1, (0,)), None)]

    def test_directed_rule_i_garbage_does_not_burn_default_slot(self):
        g = oneway_ring(5)
        metrics = MetricsRegistry()
        flood = FloodInstance(g, 1, phase="p", default_payload=ValuePayload(1))
        garbage = [
            (0, msg("p", 0, (0,))),  # the sender already on its own path
            (0, msg("p", 0, (2,))),  # 2 -> 0 is no arc of the ring
        ]
        assert flood.process_round(ctx_for(g, 1, 2, garbage, metrics)) == 1
        assert flood.delivered[(0, 1)] == ValuePayload(1)
        assert metrics.snapshot()["counters"] == {
            "flood.accepted{phase=p}": 1,
            "flood.default_substituted{phase=p}": 1,
            "flood.rejected{phase=p,rule=i}": 2,
        }

    def test_bare_tuple_initiation_is_ignored_and_substituted(self, c5):
        # A record equals the bare tuple of its fields, so only the type
        # gate keeps a Byzantine look-alike out of the rules.
        metrics = MetricsRegistry()
        flood = FloodInstance(c5, 1, phase="p", default_payload=ValuePayload(1))
        bare = ("p", ValuePayload(0), ())
        assert bare == msg("p", 0, ())
        ctx = ctx_for(c5, 1, 2, [(0, bare)], metrics)
        assert flood.process_round(ctx) == 2
        assert flood.delivered[(0, 1)] == ValuePayload(1)  # substituted
        assert flood.delivered[(2, 1)] == ValuePayload(1)
        assert metrics.snapshot()["counters"] == {
            "flood.accepted{phase=p}": 2,
            "flood.default_substituted{phase=p}": 2,
        }
        forwarded = [message for message, _ in ctx.outbox]
        assert forwarded == [msg("p", 1, (0,)), msg("p", 1, (2,))]
        assert all(type(m) is FloodMessage for m in forwarded)


class _FloodDriver(Protocol):
    """Minimal protocol: flood own value once, keep forwarding."""

    def __init__(self, graph, node, value):
        self.graph = graph
        self.node = node
        self.value = value
        self.flood = FloodInstance(
            graph, node, phase="only", default_payload=ValuePayload(1)
        )

    def on_round(self, ctx):
        if ctx.round_no == 1:
            self.flood.initiate(ctx, ValuePayload(self.value))
        else:
            self.flood.process_round(ctx)

    def output(self):
        return None


class TestEmergentProperties:
    def run_flood(self, graph, values, faulty_protocols=None):
        protos = {
            v: _FloodDriver(graph, v, values[v]) for v in graph.nodes
        }
        if faulty_protocols:
            protos.update(faulty_protocols)
        net = EventDrivenNetwork(graph, protos, channel=local_broadcast_model())
        net.run(flood_rounds(graph))
        return protos

    def test_every_simple_path_delivers(self, c5):
        """In a fault-free flood every simple path carries a value."""
        from repro.graphs import all_simple_paths

        values = {v: v % 2 for v in c5.nodes}
        protos = self.run_flood(c5, values)
        for v in c5.nodes:
            delivered = protos[v].flood.delivered
            for u in c5.nodes - {v}:
                for p in all_simple_paths(c5, u, v):
                    assert p in delivered
                    assert delivered[p] == ValuePayload(values[u])

    def test_observation_b1_fault_free_paths_carry_true_value(self):
        """Observation B.1: a fault-free path delivers what the origin
        actually broadcast — even when other nodes are Byzantine."""
        g = paper_figure_1a()
        values = {v: 1 for v in g.nodes}

        class Tamper(_FloodDriver):
            def on_round(self, ctx):
                if ctx.round_no == 1:
                    self.flood.initiate(ctx, ValuePayload(self.value))
                else:
                    shadow = ctx_for(ctx.graph, ctx.node, ctx.round_no, ctx.inbox)
                    self.flood.process_round(shadow)
                    for m, _target in shadow.outbox:
                        if m.path:
                            m = FloodMessage(m.phase, ValuePayload(0), m.path)
                        ctx.broadcast(m)

        protos = self.run_flood(
            g, values, faulty_protocols={3: Tamper(g, 3, 1)}
        )
        for v in g.nodes - {3}:
            delivered = protos[v].flood.delivered
            for path, payload in delivered.items():
                if len(path) < 2:
                    continue
                if 3 not in path[1:-1]:  # fault-free path
                    assert payload == ValuePayload(values[path[0]]), path

    def test_equivocation_impossible_on_fault_free_paths(self):
        """Rule (ii) + local broadcast: two nodes reached by fault-free
        paths from the same (faulty) origin see the same value."""
        g = cycle_graph(4)
        values = {v: 0 for v in g.nodes}

        class DoubleInit(_FloodDriver):
            def on_round(self, ctx):
                if ctx.round_no == 1:
                    # Attempt to equivocate by double-initiating: under
                    # local broadcast both messages go to both neighbors.
                    ctx.broadcast(FloodMessage("only", ValuePayload(0), ()))
                    ctx.broadcast(FloodMessage("only", ValuePayload(1), ()))
                else:
                    self.flood.process_round(ctx)

        protos = self.run_flood(
            g, values, faulty_protocols={0: DoubleInit(g, 0, 0)}
        )
        seen = {
            v: protos[v].flood.delivered.get((0, v))
            for v in g.neighbors(0)
        }
        assert set(seen.values()) == {ValuePayload(0)}  # first one only

    def test_flood_rounds_budget(self, c5, fig1b):
        assert flood_rounds(c5) == 5
        assert flood_rounds(fig1b) == 8
