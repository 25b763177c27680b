"""Algorithm 2 over the full f = 1 battery on C6, W6 and W8.

Every single-fault placement × the standard adversaries × every input
pattern, synchronous.  Two things are pinned per run:

* every type-A node outputs what the sorted-delivery reading of phase 3
  gives: adopt the least decision from an undetected origin over a
  fault-free path, else the majority of the undetected origins' inputs,
  each read from the ``repr``-least fault-free delivery.  The shipped
  node reads each origin's *first* fault-free delivery instead — equal
  because a type-A node has detected exactly the f faults, so every
  fault-free path from an undetected origin carries that origin's value;
* every run ends at round ``2n + 1`` (all honest nodes are type B and
  decide as phase 3 starts) or ``3n`` — 13 or 18 on C6 and W6 — never
  above the ``predicted_costs`` budget.
"""

import pytest

from repro.analysis import input_patterns, predicted_costs
from repro.consensus import algorithm2_factory, majority, run_consensus
from repro.graphs import cycle_graph, wheel_graph
from repro.net import DecisionPayload, ValuePayload, standard_adversaries

F = 1
GRAPHS = {"C6": cycle_graph(6), "W6": wheel_graph(6), "W8": wheel_graph(8)}


def sorted_reading(protocol):
    """Phase 3 of a type-A node, read from ``repr``-sorted deliveries."""
    decisions = sorted(
        payload.value
        for path, payload in protocol._flood3.delivered.items()
        if len(path) >= 2
        and isinstance(payload, DecisionPayload)
        and path[0] not in protocol.detected
        and protocol._fault_free(path)
    )
    if decisions:
        return decisions[0], False
    inputs = {}
    for path, payload in sorted(protocol._flood1.delivered.items(), key=repr):
        origin = path[0]
        if origin in protocol.detected or origin in inputs:
            continue
        if isinstance(payload, ValuePayload) and protocol._fault_free(path):
            inputs[origin] = payload.value
    return majority([inputs[u] for u in sorted(inputs, key=repr)]), True


def fault_free_values(protocol):
    """Per undetected origin, the values its fault-free deliveries carry."""
    values = {}
    for path, payload in protocol._flood1.delivered.items():
        if path[0] in protocol.detected or not protocol._fault_free(path):
            continue
        if isinstance(payload, ValuePayload):
            values.setdefault(path[0], set()).add(payload.value)
    return values


class Recording:
    """Algorithm 2 factory that keeps the protocols it builds."""

    def __init__(self, graph):
        self.inner = algorithm2_factory(graph, F)
        self.built = []

    def __call__(self, node, input_value):
        protocol = self.inner(node, input_value)
        self.built.append(protocol)
        return protocol


@pytest.fixture(scope="module", params=sorted(GRAPHS))
def battery(request):
    """Per run: its round count and, per type-A node, (output, sorted
    reading, whether the reading fell back to inputs, fault-free values
    per origin)."""
    graph = GRAPHS[request.param]
    factory = Recording(graph)
    runs = []
    for faulty in sorted(graph.nodes, key=repr):
        for adversary in standard_adversaries():
            for inputs in input_patterns(graph).values():
                factory.built.clear()
                result = run_consensus(
                    graph, factory, inputs, f=F,
                    faulty=(faulty,), adversary=adversary,
                )
                assert result.consensus
                type_a = [
                    (p.output(), *sorted_reading(p), fault_free_values(p))
                    for p in factory.built
                    if p.node_type == "A"
                ]
                runs.append((result.rounds, type_a))
    return request.param, graph, runs


@pytest.mark.slow
def test_type_a_outputs_match_sorted_reading(battery):
    _name, graph, runs = battery
    assert len(runs) == graph.n * len(standard_adversaries()) * 4
    fallbacks = 0
    for _rounds, type_a in runs:
        for output, expected, fell_back, values in type_a:
            assert output == expected
            assert all(len(seen) == 1 for seen in values.values())
            fallbacks += fell_back
    # The pin must reach the input-majority reading the change touched.
    assert fallbacks > 0


@pytest.mark.slow
def test_rounds_end_at_2n_plus_1_or_3n(battery):
    _name, graph, runs = battery
    n = graph.n
    budget = predicted_costs(graph, F).rounds_algorithm2
    assert budget == 3 * n
    rounds = {r for r, _type_a in runs}
    assert rounds <= {2 * n + 1, 3 * n}
    assert max(rounds) <= budget
