"""Protocol runs leave nothing for the cyclic garbage collector.

A protocol that handed a bound method to its flood as the validator
would hold the flood and be held by it: every run would then leave its
whole message state (flood messages, path tuples, delivered maps) to
the cyclic collector instead of freeing it by reference counting.  The
same goes for recursive closures on the per-run path, and for a class
built per faulty node by an adversary.  With ``gc`` disabled, a run
after one warm-up run must leave zero unreachable objects.
"""

from __future__ import annotations

import gc

import pytest

from repro.consensus import (
    algorithm1_factory,
    algorithm2_factory,
    algorithm3_factory,
    async_factory,
    run_consensus,
)
from repro.consensus.ablation import AblatedExactConsensus
from repro.graphs import complete_graph, wheel_graph
from repro.net import (
    SchedulerSpec,
    algorithm2_attack_battery,
    hybrid_model,
    standard_adversaries,
)


class AblatedFactory:
    def __init__(self, graph):
        self.graph = graph

    def __call__(self, node, input_value):
        return AblatedExactConsensus(self.graph, node, 1, input_value)


CASES = {
    "algorithm1": lambda: (wheel_graph(6), algorithm1_factory, None),
    "algorithm2": lambda: (wheel_graph(6), algorithm2_factory, None),
    "algorithm3": lambda: (
        complete_graph(4),
        lambda g, f: algorithm3_factory(g, f, 1),
        hybrid_model({0}),
    ),
    "ablation": lambda: (wheel_graph(6), lambda g, f: AblatedFactory(g), None),
    "async": lambda: (wheel_graph(6), async_factory, None),
}
TIMINGS = {
    "sync": None,
    "seeded-async": SchedulerSpec("seeded-async", seed=3, max_delay=3),
}


def unreachable_after(run) -> int:
    """Objects the cyclic collector finds after ``run()``, warm."""
    run()  # warm-up: per-graph memos and oracle caches fill here
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("timing", sorted(TIMINGS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_run_leaves_no_cyclic_garbage(case, timing):
    graph, make, channel = CASES[case]()
    factory = make(graph, 1)
    inputs = {v: v % 2 for v in graph.nodes}
    assert unreachable_after(lambda: run_consensus(
        graph, factory, inputs, f=1, channel=channel,
        scheduler=TIMINGS[timing],
    )) == 0


@pytest.mark.parametrize(
    "adversary",
    standard_adversaries(7) + algorithm2_attack_battery(),
    ids=lambda a: f"{a.name}-{getattr(a, 'value', None)}",
)
def test_faulty_run_leaves_no_cyclic_garbage(adversary):
    graph = wheel_graph(6)
    factory = algorithm2_factory(graph, 1)
    inputs = {v: v % 2 for v in graph.nodes}
    assert unreachable_after(lambda: run_consensus(
        graph, factory, inputs, f=1, faulty=[1], adversary=adversary,
    )) == 0
