"""The test helper :class:`composite_adversary.CompositeAdversary`."""

import pytest

from composite_adversary import CompositeAdversary
from repro.consensus import algorithm1_factory
from repro.net import FaultSpec, SilentAdversary, local_broadcast_model


def make_spec(graph, node):
    return FaultSpec(
        node=node,
        graph=graph,
        channel=local_broadcast_model(),
        input_value=1,
        f=1,
        faulty=frozenset({node}),
        honest_factory=algorithm1_factory(graph, 1),
    )


def test_composite_dispatches_per_node(c5):
    adv = CompositeAdversary({2: SilentAdversary()}, default=None)
    proto = adv.build(make_spec(c5, 2))
    assert proto.finished  # silent protocol reports finished
    with pytest.raises(ValueError):
        adv.build(make_spec(c5, 3))


def test_composite_default(c5):
    adv = CompositeAdversary({}, default=SilentAdversary())
    proto = adv.build(make_spec(c5, 4))
    assert proto.finished
