"""The analytic flood engine, cross-validated against the simulator."""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consensus import FloodInstance, NodeBehavior, PathFloodEngine, flood_rounds
from repro.graphs import cycle_graph, paper_figure_1a, random_connected_graph
from repro.net import (
    Context,
    DropForwardAdversary,
    EventDrivenNetwork,
    FaultSpec,
    LyingInitAdversary,
    Protocol,
    SilentAdversary,
    TamperForwardAdversary,
    ValuePayload,
    local_broadcast_model,
)


class _FloodOnly(Protocol):
    """One flood phase, nothing else: the simulator-side ground truth."""

    total_rounds = 0  # set per instance

    def __init__(self, graph, node, value):
        self.flood = FloodInstance(
            graph, node, phase="x", default_payload=ValuePayload(1)
        )
        self.value = value
        self.total_rounds = flood_rounds(graph)

    def on_round(self, ctx):
        if ctx.round_no == 1:
            self.flood.initiate(ctx, ValuePayload(self.value))
        else:
            self.flood.process_round(ctx)

    def output(self):
        return None


BEHAVIOR_MAKERS = {
    "honest": NodeBehavior.honest,
    "silent": lambda v: NodeBehavior.silent(),
    "lying-init": NodeBehavior.lying_init,
    "tamper-forward": NodeBehavior.tamper_forward,
    "drop-forward": NodeBehavior.drop_forward,
}

ADVERSARY_MAKERS = {
    "silent": SilentAdversary,
    "lying-init": LyingInitAdversary,
    "tamper-forward": TamperForwardAdversary,
    "drop-forward": DropForwardAdversary,
}


def simulate_flood(graph, values, fault_kind=None, faulty_node=None):
    """Run the message-level flood; return honest nodes' deliveries."""
    ch = local_broadcast_model()
    factory = lambda v, x: _FloodOnly(graph, v, x)
    protos = {}
    for v in graph.nodes:
        if v == faulty_node:
            spec = FaultSpec(
                node=v, graph=graph, channel=ch, input_value=values[v],
                f=1, faulty=frozenset({v}), honest_factory=factory,
            )
            protos[v] = ADVERSARY_MAKERS[fault_kind]().build(spec)
        else:
            protos[v] = factory(v, values[v])
    net = EventDrivenNetwork(graph, protos, channel=ch)
    net.run(flood_rounds(graph))
    return {
        v: {
            path: payload.value
            for path, payload in protos[v].flood.delivered.items()
        }
        for v in graph.nodes
        if v != faulty_node
    }


def engine_flood(graph, values, fault_kind=None, faulty_node=None):
    behaviors = {}
    for v in graph.nodes:
        kind = fault_kind if v == faulty_node else "honest"
        behaviors[v] = BEHAVIOR_MAKERS[kind](values[v])
    engine = PathFloodEngine(graph, behaviors)
    return {
        v: engine.deliveries_at(v)
        for v in graph.nodes
        if v != faulty_node
    }


class TestEngineBasics:
    def test_fault_free_path_value(self, c5):
        behaviors = {v: NodeBehavior.honest(v % 2) for v in c5.nodes}
        engine = PathFloodEngine(c5, behaviors)
        assert engine.deliveries_at(2)[(0, 1, 2)] == 0
        assert engine.deliveries_at(2)[(1, 2)] == 1
        assert engine.deliveries_at(3)[(3,)] == 1

    def test_tamper_flips_along_path(self, c5):
        behaviors = {v: NodeBehavior.honest(0) for v in c5.nodes}
        behaviors[1] = NodeBehavior.tamper_forward(0)
        engine = PathFloodEngine(c5, behaviors)
        assert engine.deliveries_at(2)[(0, 1, 2)] == 1  # flipped at node 1
        assert engine.deliveries_at(3)[(0, 4, 3)] == 0  # untouched path

    def test_drop_kills_path(self, c5):
        behaviors = {v: NodeBehavior.honest(0) for v in c5.nodes}
        behaviors[1] = NodeBehavior.drop_forward(0)
        engine = PathFloodEngine(c5, behaviors)
        deliveries = engine.deliveries_at(2)
        assert (0, 1, 2) not in deliveries
        assert deliveries[(1, 2)] == 0  # its own initiation still arrives

    def test_silent_origin_substituted(self, c5):
        behaviors = {v: NodeBehavior.honest(0) for v in c5.nodes}
        behaviors[0] = NodeBehavior.silent()
        engine = PathFloodEngine(c5, behaviors)
        assert engine.effective_initial(0) == 1
        assert engine.deliveries_at(1)[(0, 1)] == 1
        assert engine.deliveries_at(2)[(0, 1, 2)] == 1

    def test_missing_behavior_rejected(self, c5):
        with pytest.raises(ValueError):
            PathFloodEngine(c5, {0: NodeBehavior.honest(0)})

    def test_deliveries_at_frees_its_result_without_the_collector(self, c5):
        """The result is freed by reference counting alone: the call
        leaves no reference cycle for the cyclic collector to find."""
        behaviors = {v: NodeBehavior.honest(v % 2) for v in c5.nodes}
        engine = PathFloodEngine(c5, behaviors)
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            assert len(engine.deliveries_at(0)) > 1
            found = gc.collect()
        finally:
            if enabled:
                gc.enable()
        assert found == 0


class TestEngineEquivalence:
    """The headline property: both engines deliver identical values."""

    @pytest.mark.parametrize("fault_kind", sorted(ADVERSARY_MAKERS))
    @pytest.mark.parametrize("faulty_node", [0, 2])
    def test_c5_with_each_fault(self, fault_kind, faulty_node):
        g = paper_figure_1a()
        values = {v: v % 2 for v in g.nodes}
        assert simulate_flood(g, values, fault_kind, faulty_node) == engine_flood(
            g, values, fault_kind, faulty_node
        )

    def test_fault_free(self, c4):
        values = {0: 1, 1: 0, 2: 1, 3: 0}
        assert simulate_flood(c4, values) == engine_flood(c4, values)

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        fault_kind=st.sampled_from(sorted(ADVERSARY_MAKERS)),
    )
    def test_random_graphs_agree(self, seed, fault_kind):
        g = random_connected_graph(n=6, extra_edges=seed % 5, seed=seed)
        values = {v: (seed >> v) & 1 for v in g.nodes}
        faulty = sorted(g.nodes)[seed % 6]
        assert simulate_flood(g, values, fault_kind, faulty) == engine_flood(
            g, values, fault_kind, faulty
        )
