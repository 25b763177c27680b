"""Re-execute flight recordings and verify byte-identity.

A :class:`~repro.obs.FlightRecord` header carries a *recipe*, not
pickled objects: the graph as an adjacency list, the honest factory and
the adversary as their ``flight_spec()`` dicts, the scheduler as its
frozen spec fields, and the resolved round budget.  This module
owns the inverse direction — rebuilding live objects from that recipe
and running :func:`~repro.consensus.runner.run_consensus` again with
``flight=True``, so the replay produces a second recording that can be
byte-compared with the first.  Recipes instead of pickles keep flight
blobs worker-count-invariant (pickled oracles embed cache warmth) and
keep the file format inspectable and diffable.  The CLI builds every
run from the same recipe dicts, so ``run``, ``sweep`` and replay cannot
disagree on what a recipe means.

``replay_flight`` is the determinism audit in one call: *any* byte of
divergence between the original and the re-execution — one message, one
timestamp, one cause link — is a reproducibility bug, and the first
differing line localizes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..consensus.factory import ProtocolFactory
from ..consensus.runner import ConsensusResult, run_consensus
from ..consensus.synchronizer import SynchronizedFactory
from ..graphs import Digraph, Graph
from ..net.adversary import adversary_from_spec
from ..net.channels import ChannelModel
from ..net.sched import SchedulerSpec
from ..obs import FlightRecord, FlightReplayError, decode_label


def graph_from_flight(header: dict) -> Graph:
    """Rebuild the run's graph from the header's node/edge lists.

    Headers carrying ``"directed": true`` reconstruct a :class:`Digraph`
    whose edge list is read as ordered arcs; legacy headers (no flag)
    reconstruct the symmetric :class:`Graph` exactly as before.
    """
    spec = header["graph"]
    nodes = [decode_label(enc) for enc in spec["nodes"]]
    edges = [(decode_label(u), decode_label(v)) for u, v in spec["edges"]]
    if spec.get("directed"):
        return Digraph(nodes, edges)
    return Graph(nodes, edges)


def factory_from_flight(graph: Graph, spec: dict):
    """Build the factory a ``flight_spec()`` dict names (the CLI builds
    here too): a :class:`~repro.consensus.factory.ProtocolFactory`, or
    for ``synchronized`` a wrapper around the factory its ``inner``
    names."""
    params = dict(spec)
    kind = params.pop("kind", None)
    if kind == "opaque":
        raise FlightReplayError(
            f"factory {spec.get('name', '?')} was recorded without a "
            "flight_spec(); the flight is analyzable but not replayable"
        )
    if kind == "synchronized":
        if not isinstance(params.get("inner"), dict):
            raise FlightReplayError(f"factory spec {spec!r}: no inner spec")
        inner = factory_from_flight(graph, params.pop("inner"))
        cls, args = SynchronizedFactory, (inner,)
    else:
        cls, args = ProtocolFactory, (kind, graph)
    try:
        return cls(*args, **params)
    except (TypeError, ValueError) as exc:  # an unknown kind, field or value
        raise FlightReplayError(f"factory spec {spec!r}: {exc}") from None


@dataclass
class ReplayOutcome:
    """The verdict of one replay: the re-run, its recording, and whether
    the recording matches the original byte for byte."""

    result: ConsensusResult
    record: FlightRecord
    identical: bool
    #: First divergence, as ``line N: <original> != <replayed>`` — the
    #: forensic entry point when ``identical`` is False.
    diff: Optional[str] = None


def replay_flight(record: FlightRecord) -> ReplayOutcome:
    """Re-execute a recording and byte-compare the new flight to it.

    Raises :class:`~repro.obs.FlightReplayError` when the recording is
    not replayable (opaque factory, display-only labels, unknown
    adversary, or a recipe no run can be built from, say ``|faulty| >
    f``).  Otherwise the run itself always completes; a
    non-identical outcome is reported, not raised — disagreement between
    record and replay is a *finding*.
    """
    header = record.header
    channel, scheduler = header["channel"], header["scheduler"]
    try:
        graph = graph_from_flight(header)
        result = run_consensus(
            graph,
            factory_from_flight(graph, header["factory"]),
            {decode_label(enc): value for enc, value in header["inputs"]},
            f=header["f"],
            faulty=[decode_label(enc) for enc in header["faulty"]],
            adversary=adversary_from_spec(header["adversary"]),
            channel=ChannelModel(channel["kind"], frozenset(
                decode_label(enc) for enc in channel["equivocators"])),
            scheduler=scheduler and SchedulerSpec(**scheduler),
            max_rounds=header["max_rounds"],
            metrics=header["metered"],
            flight=True,
            run_spec=header["spec"] or None,
        )
    except (TypeError, ValueError) as exc:  # a FlightReplayError, too
        raise FlightReplayError(str(exc)) from None
    assert result.flight is not None
    original = record.to_ndjson()
    replayed = result.flight.to_ndjson()
    diff = None
    if original != replayed:
        diff = _first_divergence(original, replayed)
    return ReplayOutcome(
        result=result,
        record=result.flight,
        identical=original == replayed,
        diff=diff,
    )


def _first_divergence(original: str, replayed: str) -> str:
    a_lines, b_lines = original.splitlines(), replayed.splitlines()
    for i, (a, b) in enumerate(zip(a_lines, b_lines)):
        if a != b:
            return f"line {i + 1}: {a[:120]!r} != {b[:120]!r}"
    return (
        f"line counts differ: {len(a_lines)} recorded vs "
        f"{len(b_lines)} replayed"
    )
