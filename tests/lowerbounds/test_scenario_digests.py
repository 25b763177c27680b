"""Impossibility scenarios and their runs, pinned by digest.

Each builder's output (the covering network's copies and listen map,
the copy inputs, and every projected execution with the replay source
of each faulty node) is dumped as repr-keyed, key-sorted JSON and
hashed; so is ``run_scenario``'s outcome (copy outputs, and each
execution's outputs and transmissions).  The digests were taken while
Figures 3 and 5 still had separate builders and every execution stored
its replay map, so a refactor of ``constructions.py`` or
``indistinguishability.py`` that changes any scenario or run fails here.

``low_connectivity_graph(2)`` is pinned as a scenario only: its run
takes seconds, and ``demo-impossibility --kind connectivity --f 2``
already prints its outcome.

Regenerate only for a deliberate change to a construction:
``PYTHONPATH=src python tests/lowerbounds/test_scenario_digests.py``
prints the table.
"""

from __future__ import annotations

import hashlib
import json
from functools import partial

import pytest

from repro.consensus import algorithm1_factory, algorithm3_factory
from repro.consensus.runner import run_consensus
from repro.graphs import Graph, cycle_graph, low_connectivity_graph, path_graph
from repro.lowerbounds import (
    connectivity_scenario,
    degree_scenario,
    hybrid_neighborhood_scenario,
    indistinguishability,
    run_scenario,
)


def _bridged_triangles():
    return Graph(range(7), [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5),
                            (5, 3), (2, 6), (6, 3)])


def _k4_pendant():
    return Graph(range(5), [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                            (4, 0), (4, 1)])


def _two_k4_sharing_two():
    edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    edges += [(a, b) for a in [2, 3, 4, 5] for b in [2, 3, 4, 5] if a < b]
    return Graph(range(6), edges)


def _cases():
    """name -> (scenario builder, honest factory or None)."""
    p3, bridged, c6 = path_graph(3), _bridged_triangles(), cycle_graph(6)
    low1, low2 = low_connectivity_graph(1), low_connectivity_graph(2)
    k4p, k4s = _k4_pendant(), _two_k4_sharing_two()
    return {
        "fig2-p3-f1": (
            lambda: degree_scenario(p3, 1), algorithm1_factory(p3, 1)),
        "fig3-bridged-triangles-f1": (
            lambda: connectivity_scenario(bridged, 1),
            algorithm1_factory(bridged, 1)),
        "fig3-c6-f2": (
            lambda: connectivity_scenario(c6, 2), algorithm1_factory(c6, 2)),
        "fig3-low-connectivity-1": (
            lambda: connectivity_scenario(low1, 1),
            algorithm1_factory(low1, 1)),
        "fig3-low-connectivity-2": (
            lambda: connectivity_scenario(low2, 2), None),
        "fig4-k4-pendant-f1-t1": (
            lambda: hybrid_neighborhood_scenario(k4p, 1, 1),
            algorithm3_factory(k4p, 1, 1)),
        "fig5-two-k4-f1-t1": (
            lambda: connectivity_scenario(k4s, 1, 1),
            algorithm3_factory(k4s, 1, 1)),
    }


#: name -> (scenario digest, run digest or None).
PINNED = {
    "fig2-p3-f1": (
        "ca9ba9bcfe3db5604d168d8e9dda5dd47a97dc79f4703b55a944b5768adbdd44",
        "bf625268792ae7c164fc11b17e8f2605f65c541ec053575f349774d2a3fd4152"),
    "fig3-bridged-triangles-f1": (
        "9375e9fa10ce6ffab1555c4d4ea3d45ddd04f0ff1496a0c6e0c6177c9aa2f373",
        "108525d8f50e5abf2acafb956b220139436bfcae2ff389e7331321c867a6443b"),
    "fig3-c6-f2": (
        "e559edf68b05df123b3be259cdf4a66fbf6d4d0b8c853fe82805d1c9efaad3e1",
        "1765e2dcd31ecf760042476dfe864c535b9456e6355ed316f684485466a0ac64"),
    "fig3-low-connectivity-1": (
        "5598c516125ce0f5b53dd675c9a672631fbcfe66ad2c397e6cb16822b8585fa0",
        "8f3808f4610fc803a31fe7945cf2b1259b3bd574118edd6ca7d414a1e8c92bda"),
    "fig3-low-connectivity-2": (
        "d4308cf6ac87b94cbf630f5321f1d581538c682770b3aa4a8ec96f053a90f6f5",
        None),
    "fig4-k4-pendant-f1-t1": (
        "60cdd2f44bddfa5506b0974002e9d0d2be3d27ab65b5f4cffb2c62cf31b7999a",
        "61f458b429d1ec78f037429934d87dac714287b6e154a69b6a50a28e09d36e3e"),
    "fig5-two-k4-f1-t1": (
        "60c0f888841014707118e2f857d29db90563564b70bb88dddf2a88bd14d68bef",
        "e78392bc4116a436e5adc1161d936643414934d35555a391c1db8290c03fb8a1"),
}


def _sha(obj) -> str:
    text = json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _labels(nodes):
    return [repr(v) for v in sorted(nodes, key=repr)]


def _replay_sources(spec):
    """Non-equivocating faulty node -> the copy whose transcript it replays."""
    return {x: (x, 0) for x in spec.faulty - spec.equivocators}


def scenario_digest(scenario) -> str:
    network = scenario.network
    return _sha({
        "copies": {repr(u): list(c) for u, c in network.copies.items()},
        "listen": {
            repr(c): {repr(v): i for v, i in lmap.items()}
            for c, lmap in network.listen.items()
        },
        "copy_inputs": {repr(c): x for c, x in scenario.copy_inputs.items()},
        "executions": [
            {
                "name": e.name,
                "faulty": _labels(e.faulty),
                "equivocators": _labels(e.equivocators),
                "inputs": {repr(v): x for v, x in e.inputs.items()},
                "replay": {
                    repr(v): repr(c) for v, c in _replay_sources(e).items()
                },
                "split_replay": {
                    repr(v): [[_labels(targets), repr(c)]
                              for targets, c in groups]
                    for v, groups in e.split_replay.items()
                },
                "honest_model": {
                    repr(v): repr(c) for v, c in e.honest_model.items()
                },
                "forced_output": e.forced_output,
            }
            for e in scenario.executions
        ],
    })


def run_digest(scenario, factory) -> str:
    """``run_scenario`` with every projected execution recording its
    transmissions (a flight-recorded run keeps per-message records)."""
    mp = pytest.MonkeyPatch()
    mp.setattr(indistinguishability, "run_consensus",
               partial(run_consensus, flight=True))
    try:
        report = run_scenario(scenario, factory)
    finally:
        mp.undo()
    return _sha({
        "copy_outputs": {repr(c): o for c, o in report.copy_outputs.items()},
        "executions": [
            {
                "outputs": {repr(v): o for v, o in e.result.outputs.items()},
                "transmissions": [repr(t) for t in e.result.trace.transmissions],
            }
            for e in report.executions
        ],
    })


@pytest.mark.parametrize("name", sorted(PINNED))
def test_scenario_digest(name):
    build, _ = _cases()[name]
    assert scenario_digest(build()) == PINNED[name][0]


@pytest.mark.parametrize(
    "name", sorted(n for n, (_, run) in PINNED.items() if run is not None))
def test_run_digest(name):
    build, factory = _cases()[name]
    assert run_digest(build(), factory) == PINNED[name][1]


if __name__ == "__main__":
    for name, (build, factory) in _cases().items():
        scenario = build()
        run = run_digest(scenario, factory) if factory is not None else None
        print(f"    {name!r}: (\n        {scenario_digest(scenario)!r},\n"
              f"        {run!r}),")
