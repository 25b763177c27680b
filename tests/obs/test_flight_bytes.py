"""Flight bytes pinned by digest, and the line encoder against JSON.

Replay and the ``diff -r`` capture checks compare a recording with a
re-recording through the same writer, so a change to the writer that
alters every flight the same way passes both.  These digests were taken
from an independent writer (the one that serialized every event line
with :func:`repro.obs.trace.canonical_json`), so any drift in the flight
bytes of this corpus fails here.  The property test below holds the
SCHEMA-compiled :func:`~repro.obs.trace.event_line` to
``canonical_json`` on well-formed and off-schema events alike.

Regenerate only for a deliberate format change (with a new
``FLIGHT_VERSION``): ``PYTHONPATH=src python tests/obs/test_flight_bytes.py``
prints the table.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consensus import (
    algorithm1_factory,
    algorithm2_factory,
    async_factory,
    run_consensus,
)
from repro.graphs import cycle_graph, grid_graph, oneway_ring, wheel_graph
from repro.net import LyingReporterAdversary, standard_adversaries
from repro.net.sched import SchedulerSpec
from repro.obs.trace import canonical_json, event_line

SEEDED = SchedulerSpec("seeded-async", seed=7, max_delay=3)


def _adversary(name: str):
    return next(a for a in standard_adversaries(7) if a.name == name)


def _corpus():
    c5, w5 = cycle_graph(5), wheel_graph(5)
    grid, oneway = grid_graph(2, 3), oneway_ring(4)
    return {
        "c5-alg1-tamper-forward": dict(
            graph=c5, factory=algorithm1_factory(c5, 1), faulty=[2],
            adversary=_adversary("tamper-forward")),
        "w5-alg2-seeded-async": dict(
            graph=w5, factory=algorithm2_factory(w5, 1), scheduler=SEEDED),
        "w5-alg2-lying-reporter": dict(
            graph=w5, factory=algorithm2_factory(w5, 1), faulty=[1],
            adversary=LyingReporterAdversary()),
        "w5-async-metered": dict(
            graph=w5, factory=async_factory(w5, 1), metrics=True),
        "grid-2x3-alg1": dict(
            graph=grid, factory=algorithm1_factory(grid, 1), faulty=[(0, 1)],
            adversary=_adversary("tamper-forward")),
        "oneway-4-alg1": dict(
            graph=oneway, factory=algorithm1_factory(oneway, 1)),
    }


def _ndjson(graph, factory, faulty=(), adversary=None, scheduler=None,
            metrics=False) -> str:
    nodes = sorted(graph.nodes, key=repr)
    result = run_consensus(
        graph, factory, {v: i % 2 for i, v in enumerate(nodes)}, f=1,
        faulty=list(faulty), adversary=adversary, scheduler=scheduler,
        metrics=metrics, flight=True,
    )
    return result.flight.to_ndjson()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


DIGESTS = {
    "c5-alg1-tamper-forward": (
        "5b725b66a67a9cf1e614e26b802af98a856ea039b0bfc0dff008cf1439b32141"),
    "grid-2x3-alg1": (
        "826ddf17e7f59953ea20c63eda8a17b72986c127e421811cc3c1c21510c9ca67"),
    "oneway-4-alg1": (
        "a16efa11b40eb7ca10e8bd1dacbb027f9a982e16c3f3d055ca347c43a77365b5"),
    "w5-alg2-lying-reporter": (
        "0dbc45a5726386d91db15cb12ba2d8205cf62049b3ede4d9404774949aacf277"),
    "w5-alg2-seeded-async": (
        "932aec81f813d6a0a2c37fe2c5f171b68c7d9f67ebb0ac3bab188db159aaeea3"),
    "w5-async-metered": (
        "3c812e881f0558350eb10a6344d99c289a51bf5cfc281e8bbfcaf648fb880436"),
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_flight_bytes_pinned(name):
    assert _digest(_ndjson(**_corpus()[name])) == DIGESTS[name]


def test_corpus_is_pinned():
    assert sorted(DIGESTS) == sorted(_corpus())


# -- the compiled line encoder equals canonical_json ------------------------

INTS = st.integers(-3, 3) | st.integers(-(2**70), 2**70)
#: Non-ASCII, control and quote characters, lone surrogates too.
TEXTS = st.text(st.characters(exclude_categories=()), max_size=12) | st.sampled_from(
    ["", "1", "True", "null", '"', "\\", "\n", "\x00", "é", "\u2028", "deliver"])
PLAIN_LABELS = INTS | TEXTS
LABELS = st.recursive(
    PLAIN_LABELS | st.booleans() | st.none()
    | st.builds(lambda r: {"__r": r}, TEXTS),
    lambda inner: st.builds(lambda xs: {"__t": xs}, st.lists(inner, max_size=3)),
    max_leaves=4,
)
#: Values a field may hold instead of its SCHEMA type.
STRAYS = (st.booleans() | st.none() | st.floats(allow_nan=False)
          | st.lists(INTS, max_size=2) | st.tuples(INTS)
          | st.dictionaries(TEXTS, INTS, max_size=2) | LABELS)


def _cause(draw):
    return {"kind": draw(TEXTS | st.sampled_from(["delivery", "input"])),
            "i": draw(st.none() | INTS)}


@st.composite
def events(draw):
    kind = draw(st.sampled_from(["send", "deliver", "decide"]))
    labels = PLAIN_LABELS if draw(st.booleans()) else LABELS
    event = {"type": kind, "i": draw(INTS), "t": draw(INTS)}
    if kind == "send":
        event.update(node=draw(labels), msg=draw(TEXTS),
                     target=draw(st.none() | labels),
                     to=draw(st.lists(labels, max_size=4)), cause=_cause(draw))
    elif kind == "deliver":
        event.update(sent=draw(INTS), send=draw(INTS), msg=draw(TEXTS),
                     **{"from": draw(labels), "to": draw(labels)})
    else:
        event.update(node=draw(labels), value=draw(INTS), cause=_cause(draw))
    for _ in range(draw(st.integers(0, 2))):  # off-schema edits
        edit = draw(st.sampled_from(["drop", "extra", "stray", "type", "cause"]))
        key = draw(st.sampled_from(sorted(event)))
        if edit == "drop":
            del event[key]
        elif edit == "extra":
            event[draw(TEXTS)] = draw(INTS | TEXTS)
        elif edit == "stray":
            event[key] = draw(STRAYS)
        elif edit == "type":
            event["type"] = draw(st.sampled_from(
                ["send", "deliver", "decide", "header", "outcome"]) | STRAYS)
        elif isinstance(event.get("cause"), dict):
            cause = event["cause"]
            victim = draw(st.sampled_from(["kind", "i"]))
            if draw(st.booleans()):
                cause.pop(victim, None)
            else:
                cause[victim] = draw(STRAYS)
    return event


@settings(max_examples=400, deadline=None)
@given(st.lists(events(), min_size=1, max_size=6))
def test_event_line_is_canonical_json(stream):
    memo: dict = {}  # one per recording, shared by all its lines
    for event in stream:
        assert event_line(event, memo) == canonical_json(event)


def test_event_line_on_chosen_events():
    deliver = {"type": "deliver", "i": 3, "t": 5, "sent": 4, "send": 2,
               "from": 1, "to": "b", "msg": 'say "hé"\n'}
    memo: dict = {}
    cases = [
        deliver,
        {**deliver, "msg": "1", "to": "1"},          # after the label 1
        {**deliver, "i": True},                      # bool for int
        {**deliver, "from": {"__t": [0, 1]}},        # tuple label
        {**deliver, "to": {"__r": "<node>"}},        # display-only label
        {**deliver, "type": "send"},                 # wrong type tag
        {k: v for k, v in deliver.items() if k != "msg"},  # missing key
        {**deliver, "extra": 1},                     # extra key
        {"type": "send", "i": 0, "t": 1, "node": 1, "target": None,
         "to": [True], "msg": "m", "cause": {"kind": "input", "i": None}},
        {"type": "decide", "i": 0, "t": 1, "node": 1, "value": 1,
         "cause": {"kind": "timer"}},                # nested key missing
    ]
    for event in cases:
        assert event_line(event, memo) == canonical_json(event), event


if __name__ == "__main__":
    for key, spec in sorted(_corpus().items()):
        print(f'    "{key}": (\n        "{_digest(_ndjson(**spec))}"),')
