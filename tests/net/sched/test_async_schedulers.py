"""Asynchronous schedulers: determinism, physics constraints, adversary.

The seeded scheduler must be a pure function of its seed (identical
traces and decisions across repeated runs); every scheduler must respect
causality, the delay bound, and FIFO per link; the adversarial scheduler
must additionally keep broadcasts atomic in time and actually stretch
cut-straddling traffic.
"""

from collections import defaultdict

import pytest

from repro.consensus import algorithm1_factory, run_consensus
from repro.graphs import complete_graph, cycle_graph, paper_figure_1a
from repro.net import (
    AdversarialScheduler,
    EventDrivenNetwork,
    LockstepScheduler,
    Protocol,
    SchedulerSpec,
    SchedulingError,
    SeededAsyncScheduler,
    TamperForwardAdversary,
)
from repro.net.sched import parse_scheduler


class Echo(Protocol):
    def __init__(self, tag):
        self.tag = tag
        self.heard = []

    def on_round(self, ctx):
        self.heard.append(list(ctx.inbox))
        if ctx.round_no <= 4:
            ctx.broadcast((self.tag, ctx.round_no))

    def output(self):
        return None


def run_network(graph, scheduler, rounds=10):
    net = EventDrivenNetwork(graph, {v: Echo(v) for v in graph.nodes}, scheduler)
    net.run(rounds)
    return net


def assert_physics(trace, max_delay):
    """Causality, bounded delay, FIFO per directed link."""
    for d in trace.deliveries:
        assert d.sent_at < d.delivered_at <= d.sent_at + max_delay
    per_link = defaultdict(list)
    for d in trace.deliveries:
        per_link[(d.sender, d.recipient)].append(d.delivered_at)
    for times in per_link.values():
        assert times == sorted(times)  # deliveries never overtake (FIFO)


class TestSeededAsync:
    def test_identical_traces_across_repeated_runs(self):
        g = cycle_graph(5)
        a = run_network(g, SeededAsyncScheduler(seed=11, max_delay=3))
        b = run_network(g, SeededAsyncScheduler(seed=11, max_delay=3))
        assert a.trace.transmissions == b.trace.transmissions
        assert a.trace.deliveries == b.trace.deliveries
        for v in g.nodes:
            assert a.protocols[v].heard == b.protocols[v].heard

    def test_different_seeds_differ(self):
        g = cycle_graph(5)
        a = run_network(g, SeededAsyncScheduler(seed=1, max_delay=4))
        b = run_network(g, SeededAsyncScheduler(seed=2, max_delay=4))
        assert a.trace.deliveries != b.trace.deliveries

    @pytest.mark.parametrize("max_delay", [1, 2, 4])
    def test_physics_constraints(self, max_delay):
        g = paper_figure_1a()
        net = run_network(g, SeededAsyncScheduler(seed=3, max_delay=max_delay))
        assert_physics(net.trace, max_delay)

    def test_max_delay_one_is_lockstep(self):
        g = cycle_graph(4)
        seeded = run_network(g, SeededAsyncScheduler(seed=9, max_delay=1))
        lock = run_network(g, LockstepScheduler())
        assert seeded.trace.deliveries == lock.trace.deliveries

    def test_scheduler_is_reusable_after_rebind(self):
        """bind() resets all per-run state, so one instance replays."""
        g = cycle_graph(4)
        scheduler = SeededAsyncScheduler(seed=5, max_delay=3)
        a = run_network(g, scheduler)
        b = run_network(g, scheduler)
        assert a.trace.deliveries == b.trace.deliveries

    def test_invalid_max_delay(self):
        with pytest.raises(ValueError):
            SeededAsyncScheduler(seed=0, max_delay=0)

    def test_same_tick_arrivals_keep_their_recorded_order(self):
        """Eight deliveries from three send ticks land on node 2 at tick
        4.  The event queue drains equal instants in scheduling order:
        the inbox and each send's primary cause are pinned literally."""
        g = complete_graph(5)
        net = EventDrivenNetwork(
            g, {v: Echo(v) for v in g.nodes},
            SeededAsyncScheduler(seed=1, max_delay=3),
        )
        net.run(8)
        assert net.protocols[2].heard[3] == [
            (0, (0, 1)), (3, (3, 1)), (4, (4, 1)),
            (1, (1, 2)), (3, (3, 2)), (4, (4, 2)),
            (1, (1, 3)), (4, (4, 3)),
        ]
        # The last delivery drained into that inbox is the cause of
        # node 2's tick-4 send, and it is exactly what the trace holds.
        last = net.trace.deliveries[58]
        assert (last.recipient, last.delivered_at, last.sender) == (2, 4, 4)
        assert [t.cause_index for t in net.trace.transmissions] == [
            None, None, None, None, None, 12, 17, 5, 6, 7,
            None, 37, None, 19, 23, 24, 57, 58, 42, 55,
        ]


class TestAdversarial:
    def test_broadcast_atomicity(self):
        g = paper_figure_1a()
        net = run_network(g, AdversarialScheduler(max_delay=4))
        instants = defaultdict(set)
        for d in net.trace.deliveries:
            instants[d.send_index].add(d.delivered_at)
        assert instants and all(len(s) == 1 for s in instants.values())

    def test_physics_constraints(self):
        g = paper_figure_1a()
        net = run_network(g, AdversarialScheduler(max_delay=5))
        assert_physics(net.trace, 5)

    def test_cut_straddling_traffic_is_stretched(self):
        g = paper_figure_1a()  # 5-cycle: every min cut is 2 non-adjacent nodes
        net = run_network(g, AdversarialScheduler(max_delay=4))
        assert net.trace.max_latency == 4

    def test_deterministic_across_runs(self):
        g = complete_graph(4)  # exercises the no-cut fallback split
        a = run_network(g, AdversarialScheduler(max_delay=3))
        b = run_network(g, AdversarialScheduler(max_delay=3))
        assert a.trace.deliveries == b.trace.deliveries

    def test_complete_graph_fallback_still_delays_something(self):
        g = complete_graph(5)
        net = run_network(g, AdversarialScheduler(max_delay=3))
        assert net.trace.max_latency == 3

    def test_disconnected_graph_partitions_by_component(self):
        """Two disjoint triangles: the old half-split of the global node
        order cut *through* a component based on phantom cross-component
        deliveries.  Each component must get its own bottleneck analysis
        — here each triangle is complete, so each is half-split within
        itself, and no component's labels collide with another's."""
        from repro.graphs import Graph

        g = Graph(range(6), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        side = AdversarialScheduler._partition(g)
        left = {side[v] for v in (0, 1, 2)}
        right = {side[v] for v in (3, 4, 5)}
        assert left.isdisjoint(right)  # labels never leak across components
        # Each complete triangle is half-split internally (2 sides), so
        # the adversary still stretches something within every component.
        assert len(left) == 2 and len(right) == 2
        scheduler = AdversarialScheduler(max_delay=3)
        net = run_network(g, scheduler)
        delays = {d.delivered_at - d.sent_at for d in net.trace.deliveries}
        assert 3 in delays  # intra-component stretching survives the fix

    def test_connected_graph_partition_unchanged(self):
        """The component fix must not disturb connected-graph behavior."""
        g = paper_figure_1a()
        side = AdversarialScheduler._partition(g)
        assert set(side) == set(g.nodes)
        assert -1 in side.values()  # a real cut still labels boundaries

    def test_window_targeting_lands_on_alpha_boundaries(self):
        """With ``window=W``, every stretched delivery arrives exactly on
        an α-schedule activation tick ``(r − 1)·W + 1``."""
        g = paper_figure_1a()
        window = 3
        net = run_network(g, AdversarialScheduler(max_delay=3, window=window))
        stretched = [d for d in net.trace.deliveries
                     if d.delivered_at - d.sent_at > 1]
        assert stretched
        for d in stretched:
            assert (d.delivered_at - 1) % window == 0, d
        assert_physics(net.trace, 3)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            AdversarialScheduler(max_delay=3, window=4)
        with pytest.raises(ValueError):
            AdversarialScheduler(max_delay=3, window=0)


class TestUnboundedDeclaration:
    def test_same_physics_without_the_promise(self):
        """declare_bound=False changes declarations, never delays."""
        g = cycle_graph(5)
        declared = run_network(g, SeededAsyncScheduler(seed=11, max_delay=3))
        undeclared = run_network(
            g, SeededAsyncScheduler(seed=11, max_delay=3, declare_bound=False)
        )
        assert undeclared.trace.deliveries == declared.trace.deliveries

    def test_scheduler_contract(self):
        s = SeededAsyncScheduler(seed=0, max_delay=3, declare_bound=False)
        assert not s.bounded
        assert s.worst_case_delay is None
        a = AdversarialScheduler(max_delay=3, declare_bound=False)
        assert not a.bounded and a.worst_case_delay is None

    def test_spec_round_trip(self):
        spec = SchedulerSpec("adversarial", max_delay=3, unbounded=True,
                             window=2)
        assert spec.name == "adversarial-unbounded"
        assert not spec.bounded
        built = spec.build(cycle_graph(4))
        assert not built.bounded
        assert built.window == 2
        parsed = parse_scheduler("seeded-async", seed=1, max_delay=3,
                                 unbounded=True, window=2)
        assert parsed.unbounded
        assert parsed.window == 0  # window only decorates the adversarial kind
        with pytest.raises(ValueError):
            SchedulerSpec("adversarial", max_delay=3, window=5)


class TestSchedulerErrors:
    def test_zero_delay_is_rejected(self):
        class Cheater(LockstepScheduler):
            def delay(self, send, recipient):
                return 0

        g = cycle_graph(4)
        with pytest.raises(SchedulingError):
            run_network(g, Cheater(), rounds=2)


class TestSchedulerSpec:
    def test_build_kinds(self):
        g = cycle_graph(4)
        assert isinstance(SchedulerSpec("lockstep").build(g), LockstepScheduler)
        seeded = SchedulerSpec("seeded-async", seed=7, max_delay=5).build(g)
        assert isinstance(seeded, SeededAsyncScheduler)
        assert (seeded.seed, seeded.max_delay) == (7, 5)
        adv = SchedulerSpec("adversarial", max_delay=2).build(g)
        assert isinstance(adv, AdversarialScheduler)
        assert adv.max_delay == 2

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            SchedulerSpec("chrono")

    def test_parse_scheduler(self):
        assert parse_scheduler("sync") is None
        assert parse_scheduler("") is None
        spec = parse_scheduler("seeded-async", seed=3, max_delay=2)
        assert spec == SchedulerSpec("seeded-async", seed=3, max_delay=2)

    def test_specs_are_picklable_and_hashable(self):
        import pickle

        spec = SchedulerSpec("adversarial", max_delay=4)
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert len({spec, SchedulerSpec("adversarial", max_delay=4)}) == 1


class TestRunnerIntegration:
    def test_seeded_run_consensus_is_deterministic(self):
        g = paper_figure_1a()
        spec = SchedulerSpec("seeded-async", seed=13, max_delay=3)
        inputs = {v: v % 2 for v in g.nodes}

        def once():
            return run_consensus(
                g,
                algorithm1_factory(g, 1),
                inputs,
                f=1,
                faulty=[2],
                adversary=TamperForwardAdversary(),
                scheduler=spec,
            )

        a, b = once(), once()
        assert a.trace.transmissions == b.trace.transmissions
        assert a.trace.deliveries == b.trace.deliveries
        assert a.outputs == b.outputs
        assert (a.consensus, a.agreement, a.validity, a.decision) == (
            b.consensus,
            b.agreement,
            b.validity,
            b.decision,
        )
