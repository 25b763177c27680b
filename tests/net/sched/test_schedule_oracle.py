"""The one-pass ``Scheduler.schedule`` against its per-recipient reference.

``schedule_oracle.schedule_reference`` is the loop the shipped method
replaced.  On random send sequences — broadcasts and unicasts from any
node, at non-decreasing send times — both must assign the same delivery
times in the same recipient order, leave the same FIFO link clocks
(compared as a flat ``(sender, recipient) -> tick`` view) and record the
same ``sched.delay`` histogram.  Every scheduler family is covered:
seeded jitter, the cut adversary with and without α-window targeting on
connected, complete and disconnected graphs, an atomic-broadcast
subclass with random delays, and lockstep forced through ``schedule``.
"""

import random
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import Graph, complete_graph, cycle_graph, wheel_graph
from repro.net import (
    AdversarialScheduler,
    LockstepScheduler,
    Scheduler,
    SchedulingError,
    SeededAsyncScheduler,
    local_broadcast_model,
)
from repro.net.sched import SendEvent
from repro.obs import MetricsRegistry
from schedule_oracle import flat_link_clocks, schedule_reference

GRAPHS = {
    "C5": cycle_graph(5),
    "W6": wheel_graph(6),
    "K4": complete_graph(4),
    # Two components: a triangle (cut-free) and a 4-path (one cut node).
    "split": Graph(range(7), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6)]),
}


class AtomicJitter(Scheduler):
    """Seeded random delays with every broadcast forced onto one instant."""

    name = "atomic-jitter"
    atomic_broadcast = True
    bounded = True

    def __init__(self, seed, max_delay):
        self.seed = seed
        self.max_delay = self.worst_case_delay = max_delay

    def bind(self, graph, channel):
        super().bind(graph, channel)
        self._rng = random.Random(self.seed)

    def delay(self, send, recipient):
        return self._rng.randint(1, self.max_delay)


class ScheduledLockstep(LockstepScheduler):
    """Lockstep timing through ``schedule`` (an overridden ``delay``)."""

    def delay(self, send, recipient):
        return 1


@st.composite
def schedulers(draw):
    """A zero-argument builder, so both sides get equal fresh instances."""
    kind = draw(st.sampled_from(["seeded", "adversarial", "atomic", "lockstep"]))
    max_delay = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**16))
    if kind == "seeded":
        return lambda: SeededAsyncScheduler(seed=seed, max_delay=max_delay)
    if kind == "adversarial":
        window = draw(st.one_of(st.none(), st.integers(1, max_delay)))
        return lambda: AdversarialScheduler(max_delay=max_delay, window=window)
    if kind == "atomic":
        return lambda: AtomicJitter(seed, max_delay)
    return ScheduledLockstep


@st.composite
def sends(draw, graph):
    """Non-decreasing-time broadcasts and unicasts from random nodes."""
    nodes = sorted(graph.nodes, key=repr)
    time = 1
    out = []
    for step in draw(
        st.lists(
            st.tuples(
                st.integers(0, 2), st.integers(0, len(nodes) - 1),
                st.one_of(st.none(), st.integers(0, 8)),
            ),
            max_size=40,
        )
    ):
        gap, who, pick = step
        time += gap
        sender = nodes[who]
        nbrs = graph.sorted_neighbors(sender)
        if pick is None:
            target, recipients = None, nbrs
        else:
            target = nbrs[pick % len(nbrs)]
            recipients = (target,)
        out.append(SendEvent(time, sender, ("m", len(out)), target, recipients))
    return out


def bound_pair(make, graph):
    """The shipped scheduler and its reference twin, bound and metered."""
    shipped, reference = make(), make()
    for scheduler in (shipped, reference):
        scheduler.bind(graph, local_broadcast_model())
        scheduler.metrics = MetricsRegistry()
    return shipped, reference


class TestScheduleMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), make=schedulers(), graph_name=st.sampled_from(sorted(GRAPHS)))
    def test_times_clocks_and_histogram(self, data, make, graph_name):
        graph = GRAPHS[graph_name]
        shipped, reference = bound_pair(make, graph)
        clock = {}
        for send in data.draw(sends(graph)):
            got = shipped.schedule(send)
            want = schedule_reference(reference, send, clock)
            assert list(got.items()) == list(want.items())
        assert flat_link_clocks(shipped) == clock
        assert shipped.metrics.snapshot() == reference.metrics.snapshot()

    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    @pytest.mark.parametrize("max_delay", [1, 2, 3, 4])
    def test_seeded_async_over_broadcast_rounds(self, seed, max_delay):
        """Every node broadcasts every tick: the engine's own pattern."""
        graph = GRAPHS["W6"]
        make = partial(SeededAsyncScheduler, seed=seed, max_delay=max_delay)
        shipped, reference = bound_pair(make, graph)
        clock = {}
        for time in range(1, 13):
            for sender in sorted(graph.nodes, key=repr):
                send = SendEvent(
                    time, sender, ("m", time), None,
                    graph.sorted_neighbors(sender),
                )
                got = shipped.schedule(send)
                assert list(got.items()) == list(
                    schedule_reference(reference, send, clock).items()
                )
        assert flat_link_clocks(shipped) == clock
        assert shipped.metrics.snapshot() == reference.metrics.snapshot()

    @pytest.mark.parametrize("delay", [0, -2, 4, 9])
    def test_rejections_match(self, delay):
        """Out-of-range delays raise the same error at the same recipient."""

        class Fixed(SeededAsyncScheduler):
            def delay(self, send, recipient):
                return delay if recipient == 2 else 1

        graph = GRAPHS["C5"]
        shipped, reference = bound_pair(partial(Fixed, max_delay=3), graph)
        send = SendEvent(1, 1, "m", None, graph.sorted_neighbors(1))
        with pytest.raises(SchedulingError) as got:
            shipped.schedule(send)
        with pytest.raises(SchedulingError) as want:
            schedule_reference(reference, send, {})
        assert str(got.value) == str(want.value)
        assert shipped.metrics.snapshot() == reference.metrics.snapshot()
