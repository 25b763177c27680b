"""The adversary library: each behavior does what its card says."""

import pytest

from repro.graphs import cycle_graph
from repro.net import (
    CrashAdversary,
    DropForwardAdversary,
    EquivocatingAdversary,
    EquivocationError,
    EventDrivenNetwork,
    FaultSpec,
    FloodMessage,
    LyingInitAdversary,
    RandomAdversary,
    ReplayAdversary,
    SilentAdversary,
    TamperForwardAdversary,
    ValuePayload,
    WrongInputAdversary,
    hybrid_model,
    local_broadcast_model,
    standard_adversaries,
)
from repro.consensus import Algorithm1Protocol, algorithm1_factory


def make_spec(graph, node, input_value=1, f=1, faulty=None, channel=None):
    return FaultSpec(
        node=node,
        graph=graph,
        channel=channel or local_broadcast_model(),
        input_value=input_value,
        f=f,
        faulty=frozenset(faulty or {node}),
        honest_factory=algorithm1_factory(graph, f),
    )


def schedule_of(transmissions):
    """Recorded transmissions as the ``round -> [(message, target)]``
    schedule a :class:`ReplayAdversary` consumes."""
    schedule = {}
    for t in transmissions:
        schedule.setdefault(t.round_no, []).append((t.message, t.target))
    return schedule


def run_with(graph, adversary, node, rounds, channel=None, input_value=1):
    """Run Algorithm 1 honestly everywhere except `node`."""
    fac = algorithm1_factory(graph, 1)
    protos = {}
    for v in graph.nodes:
        if v == node:
            protos[v] = adversary.build(
                make_spec(graph, v, input_value=input_value, channel=channel)
            )
        else:
            protos[v] = fac(v, 0)
    net = EventDrivenNetwork(
        graph, protos, channel=channel or local_broadcast_model()
    )
    net.run(rounds)
    return net


class TestBasicBehaviors:
    def test_silent_never_transmits(self, c5):
        net = run_with(c5, SilentAdversary(), node=2, rounds=5)
        assert net.trace.sent_by(2) == []

    def test_crash_stops_at_round(self, c5):
        net = run_with(c5, CrashAdversary(crash_round=3), node=2, rounds=5)
        rounds = {t.round_no for t in net.trace.sent_by(2)}
        assert rounds and max(rounds) <= 2

    def test_wrong_input_flips(self, c5):
        spec = make_spec(c5, 2, input_value=1)
        proto = WrongInputAdversary().build(spec)
        assert isinstance(proto, Algorithm1Protocol)
        assert proto.gamma == 0

    def test_lying_init_flips_only_initiations(self, c5):
        net = run_with(c5, LyingInitAdversary(), node=2, rounds=5, input_value=1)
        inits = [
            t.message
            for t in net.trace.sent_by(2)
            if isinstance(t.message, FloodMessage) and len(t.message.path) == 0
        ]
        assert inits and all(m.payload == ValuePayload(0) for m in inits)
        forwards = [
            t.message
            for t in net.trace.sent_by(2)
            if isinstance(t.message, FloodMessage) and len(t.message.path) > 0
        ]
        # Forwards are relayed untampered: each matches a message some
        # honest neighbor really initiated or forwarded (value 0 here).
        assert forwards and all(
            m.payload == ValuePayload(0) for m in forwards
        )

    def test_tamper_forward_flips_forwards_not_inits(self, c5):
        net = run_with(c5, TamperForwardAdversary(), node=2, rounds=5, input_value=1)
        for t in net.trace.sent_by(2):
            m = t.message
            if isinstance(m, FloodMessage):
                if len(m.path) == 0:
                    assert m.payload == ValuePayload(1)  # honest init
                else:
                    assert m.payload == ValuePayload(1)  # flipped from 0

    def test_drop_forward_sends_only_inits(self, c5):
        net = run_with(c5, DropForwardAdversary(), node=2, rounds=5)
        for t in net.trace.sent_by(2):
            if isinstance(t.message, FloodMessage):
                assert len(t.message.path) == 0

    def test_random_is_deterministic_per_seed(self, c5):
        n1 = run_with(c5, RandomAdversary(seed=9), node=2, rounds=5)
        n2 = run_with(c5, RandomAdversary(seed=9), node=2, rounds=5)
        assert [t.message for t in n1.trace.sent_by(2)] == [
            t.message for t in n2.trace.sent_by(2)
        ]

    def test_random_differs_across_seeds(self, c5):
        n1 = run_with(c5, RandomAdversary(seed=1), node=2, rounds=10)
        n2 = run_with(c5, RandomAdversary(seed=2), node=2, rounds=10)
        assert [t.message for t in n1.trace.sent_by(2)] != [
            t.message for t in n2.trace.sent_by(2)
        ]

    def test_standard_battery_names_unique(self):
        battery = standard_adversaries()
        names = [a.name for a in battery]
        assert len(set(names)) == len(names)
        assert len(battery) >= 6


class TestEquivocation:
    def test_equivocator_blocked_under_local_broadcast(self, c5):
        with pytest.raises(EquivocationError):
            run_with(c5, EquivocatingAdversary(), node=2, rounds=2)

    def test_equivocator_splits_under_hybrid(self, c5):
        ch = hybrid_model({2})
        net = run_with(c5, EquivocatingAdversary(), node=2, rounds=2, channel=ch)
        unicasts = [t for t in net.trace.sent_by(2) if t.target is not None]
        assert unicasts
        values = {
            t.target: t.message.payload.value
            for t in unicasts
            if isinstance(t.message, FloodMessage) and len(t.message.path) == 0
        }
        assert set(values.values()) == {0, 1}  # different neighbors, different bits


class TestReplay:
    def test_replay_follows_schedule(self, c5):
        schedule = {2: {1: [("hello", None)], 3: [("bye", None)]}}
        net = run_with(c5, ReplayAdversary(schedule), node=2, rounds=4)
        sent = net.trace.sent_by(2)
        assert [(t.round_no, t.message) for t in sent] == [(1, "hello"), (3, "bye")]

    def test_replay_from_transmissions(self, c5):
        """A recorded node's transmissions, replayed, are sent again as
        recorded."""
        recorded = run_with(c5, LyingInitAdversary(), node=2, rounds=4)
        sent = recorded.trace.sent_by(2)
        assert sent
        adv = ReplayAdversary({2: schedule_of(sent)})
        replayed = run_with(c5, adv, node=2, rounds=4).trace.sent_by(2)
        assert [(t.round_no, t.message, t.target) for t in replayed] == [
            (t.round_no, t.message, t.target) for t in sent
        ]

    def test_replay_unicasts_per_neighbor(self, c5):
        """A split replay is a schedule of unicasts: each neighbor group
        hears its own transcript (needs the hybrid channel's power)."""
        ch = hybrid_model({2})
        schedule = {2: {1: [("for-one", 1), ("for-three", 3)]}}
        net = run_with(c5, ReplayAdversary(schedule), node=2, rounds=2, channel=ch)
        by_target = {t.target: t.message for t in net.trace.sent_by(2)}
        assert by_target == {1: "for-one", 3: "for-three"}
