"""Every ``ADVERSARIES`` entry is recorded by its recipe and replays
byte for byte; behaviors outside the table are refused by name."""

import pytest

from repro.analysis import replay_flight
from repro.consensus import (
    algorithm1_factory,
    algorithm2_factory,
    algorithm3_factory,
    run_consensus,
)
from repro.consensus.ablation import ReInitAdversary
from repro.graphs import cycle_graph, wheel_graph
from repro.net import (
    ADVERSARIES,
    DecisionForgeAdversary,
    ReplayAdversary,
    adversary_from_spec,
    hybrid_model,
)
from repro.obs import FlightReplayError

#: The two runs each table entry records, with node index 1 faulty.
SCENARIOS = {
    "wheel:5-alg2": (wheel_graph(5), algorithm2_factory),
    "cycle:5-alg1": (cycle_graph(5), algorithm1_factory),
}


def record(graph, factory, adversary, channel=None):
    nodes = sorted(graph.nodes, key=repr)
    result = run_consensus(
        graph, factory, {v: i % 2 for i, v in enumerate(nodes)}, f=1,
        faulty=[nodes[1]], adversary=adversary, channel=channel,
        flight=True,
    )
    assert result.flight is not None
    return result.flight


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("name", list(ADVERSARIES))
def test_every_entry_replays_byte_for_byte(name, scenario):
    graph, builder = SCENARIOS[scenario]
    adversary = adversary_from_spec({"name": name, "seed": None})
    channel = None
    if name == "equivocate":
        # Unicast power: Algorithm 3 with t = 1 on its hybrid channel.
        factory = algorithm3_factory(graph, 1, 1)
        channel = hybrid_model({sorted(graph.nodes, key=repr)[1]})
    else:
        factory = builder(graph, 1)
    flight = record(graph, factory, adversary, channel)
    assert flight.header["adversary"] == adversary.flight_spec()
    assert flight.header["adversary"]["name"] == name
    outcome = replay_flight(flight)
    assert outcome.identical, outcome.diff


def test_decision_forge_values_record_distinct_headers():
    graph = wheel_graph(5)
    headers = []
    for value in (None, 0, 1):
        flight = record(
            graph, algorithm2_factory(graph, 1), DecisionForgeAdversary(value)
        )
        headers.append(flight.header["adversary"])
        assert replay_flight(flight).identical
    assert headers == [
        {"name": "decision-forge", "seed": None, "value": value}
        for value in (None, 0, 1)
    ]


@pytest.mark.parametrize("adversary", [ReplayAdversary({}), ReInitAdversary()],
                         ids=lambda a: a.name)
def test_adversary_outside_the_table_is_refused(adversary):
    graph = cycle_graph(5)
    flight = record(graph, algorithm1_factory(graph, 1), adversary)
    assert flight.header["adversary"] == {"name": adversary.name, "seed": None}
    with pytest.raises(FlightReplayError,
                       match=f"unknown adversary '{adversary.name}'"):
        replay_flight(flight)
