"""Property test: :class:`ClaimIndex` and :func:`detect_faults` decide
exactly like a linear-scan reference.

The reference below is the straightforward reading of the phase-2
certificates: evidence grouped under each claimed transcript by value,
claims checked by scanning transcripts with ``==``, disjointness by the
frozenset packing.  The shipped code interns transcripts and looks
messages up in first-send-round tables; seeded random bundle floods —
honest relays, equal re-encodings, tampered and late forwards, dropped
entries and forged reporters — must get identical answers from both.
"""

import random

import pytest

from repro.consensus import ClaimIndex, PathOracle, ReportBundle
from repro.consensus.reliable import detect_faults
from repro.graphs import (
    all_simple_paths,
    cycle_graph,
    has_disjoint_path_packing,
    max_disjoint_paths,
    wheel_graph,
)
from repro.net import FloodMessage, ValuePayload

PHASE = "p1"


class LinearScanClaims:
    """Reference claim index: value-keyed evidence, linear scans."""

    def __init__(self, graph, f, me, bundle_deliveries, own_transcripts, own_sent=()):
        self.graph = graph
        self.f = f
        self.me = me
        self.own_transcripts = dict(own_transcripts)
        self.own_sent = own_sent
        self.evidence = {}  # subject -> transcript -> [composite paths]
        for path, bundle in bundle_deliveries.items():
            reporter = path[0]
            if bundle.reporter != reporter:
                continue
            for subject, transcript in bundle.entries:
                if (
                    subject not in graph.nodes
                    or reporter not in graph.neighbors(subject)
                    or subject in path
                ):
                    continue
                self.evidence.setdefault(subject, {}).setdefault(
                    transcript, []
                ).append((subject,) + path)

    def _packs(self, paths):
        return has_disjoint_path_packing(paths, self.f + 1, mode="uv")

    def reliable_transcript(self, subject):
        if subject == self.me:
            return self.own_sent
        if self.me in self.graph.neighbors(subject):
            return self.own_transcripts.get(subject, ())
        for transcript, paths in self.evidence.get(subject, {}).items():
            if self._packs(paths):
                return transcript
        return None

    def reliably_transmitted(self, subject, message):
        if subject == self.me:
            return any(m == message for _, m in self.own_sent)
        if self.me in self.graph.neighbors(subject):
            return any(
                m == message for _, m in self.own_transcripts.get(subject, ())
            )
        paths = [
            p
            for transcript, plist in self.evidence.get(subject, {}).items()
            if any(m == message for _, m in transcript)
            for p in plist
        ]
        return self._packs(paths)


def reference_detect_faults(graph, f, me, reliable_values, claims, first_round=1):
    """Phase-2 fault localization, scanning each transcript per slot."""
    detected = set()
    for w in sorted(reliable_values, key=repr):
        b = reliable_values[w]
        for u in sorted(graph.nodes, key=repr):
            if u == w:
                continue
            _count, paths = max_disjoint_paths(graph, w, u, want_paths=True)
            for path in sorted(paths, key=repr)[: 2 * f]:
                for idx in range(1, len(path) - 1):
                    z = path[idx]
                    if z == me:
                        continue
                    prefix = path[:idx]
                    tampered = FloodMessage(PHASE, ValuePayload(1 - b), prefix)
                    honest_fwd = FloodMessage(PHASE, ValuePayload(b), prefix)
                    suspicious = claims.reliably_transmitted(z, tampered)
                    if not suspicious:
                        transcript = claims.reliable_transcript(z)
                        if transcript is not None:
                            on_time = any(
                                r <= first_round + idx and m == honest_fwd
                                for r, m in transcript
                            )
                            early = any(
                                r <= first_round
                                and isinstance(m, FloodMessage)
                                and m.phase == PHASE
                                and len(m.path) > 0
                                for r, m in transcript
                            )
                            suspicious = not on_time or early
                    if suspicious:
                        detected.add(z)
                        break
    return detected


# ---------------------------------------------------------------------------
# Seeded random phase-2 worlds
# ---------------------------------------------------------------------------
def honest_transcript(graph, node, values):
    """``node``'s on-schedule phase-1 transmissions: its initiation in
    round 1 and a forward of ``(b_w, P)`` in round ``len(P) + 1`` for
    every simple path ``P`` from ``w`` ending at a neighbor."""
    sent = [(1, FloodMessage(PHASE, ValuePayload(values[node]), ()))]
    for w in sorted(graph.nodes - {node}, key=repr):
        for nbr in graph.sorted_neighbors(node):
            if nbr == w:
                prefixes = [(w,)]
            else:
                prefixes = [
                    tuple(p)
                    for p in all_simple_paths(graph, w, nbr)
                    if node not in p
                ]
            for prefix in prefixes:
                message = FloodMessage(PHASE, ValuePayload(values[w]), prefix)
                sent.append((len(prefix) + 1, message))
    sent.sort(key=lambda entry: (entry[0], repr(entry[1])))
    return tuple(sent)


def flipped(message):
    """``message`` carrying the other binary value."""
    return FloodMessage(PHASE, ValuePayload(1 - message.payload.value), message.path)


def misbehave(rng, transcript):
    """A faulty node's transcript: one kind of deviation — tampered,
    late, dropped, repeated or early (initiation-round) forwards — mixed
    into the honest schedule, so each kind alone decides some worlds."""
    kind = rng.choice(["tamper", "late", "drop", "repeat", "early"])
    out = []
    for r, m in transcript:
        if not m.path or rng.random() < 0.7:
            out.append((r, m))
        elif kind == "tamper":
            out.append((r, flipped(m)))
        elif kind == "late":
            out.append((r + rng.randint(1, 2), m))
        elif kind == "repeat":
            out.extend([(r, m), (r + 1, m)])  # sent again a round later
        elif kind == "early":
            out.append((1, m))
    return tuple(out)


def reencode(transcript):
    """An equal copy sharing no object with ``transcript``."""
    return tuple(
        (r, FloodMessage(m.phase, ValuePayload(m.payload.value), tuple(m.path)))
        for r, m in transcript
    )


def tamper_bundle(rng, bundle, graph):
    """A Byzantine forwarder's edit of one bundle."""
    entries = list(bundle.entries)
    roll = rng.random()
    if roll < 0.1:
        return ReportBundle(rng.choice(sorted(graph.nodes)), bundle.entries)
    if roll < 0.2 and entries:
        del entries[rng.randrange(len(entries))]
        return ReportBundle(bundle.reporter, tuple(entries))
    if not entries:
        return bundle
    i = rng.randrange(len(entries))
    subject, transcript = entries[i]
    if transcript:
        j = rng.randrange(len(transcript))
        r, m = transcript[j]
        edit = rng.random()
        if edit < 0.3:
            changed = ((r, flipped(m)),)
        elif edit < 0.6:
            changed = ((r + 1, m),)  # the claim now shows a late forward
        elif edit < 0.7:
            changed = ((1, m),)  # ... or one in the initiation round
        elif edit < 0.85:
            changed = ((r + 2, m), (r, m))  # a re-send listed first
        else:
            changed = ((r, m), (r + 2, m))  # ... or after
        transcript = transcript[:j] + changed + transcript[j + 1:]
    entries[i] = (subject, reencode(transcript) if rng.random() < 0.5 else transcript)
    return ReportBundle(bundle.reporter, tuple(entries))


def random_world(seed):
    rng = random.Random(seed)
    graph = [cycle_graph(6), wheel_graph(6), wheel_graph(7)][seed % 3]
    nodes = sorted(graph.nodes, key=repr)
    me = rng.choice(nodes)
    values = {v: rng.randint(0, 1) for v in nodes}
    faulty = rng.choice([v for v in nodes if v != me])
    truth = {v: honest_transcript(graph, v, values) for v in nodes}
    truth[faulty] = misbehave(rng, truth[faulty])
    # Each reporter builds its own tuples of what it heard.
    bundles = {
        r: ReportBundle.build(
            r,
            {s: list(truth[s]) for s in graph.sorted_neighbors(r)},
        )
        for r in nodes
    }
    deliveries = {}
    for reporter in nodes:
        if reporter == me:
            continue
        for path in all_simple_paths(graph, reporter, me, max_length=4):
            roll = rng.random()
            if roll < 0.2:
                continue  # never arrived
            bundle = bundles[reporter]
            if roll < 0.35:
                bundle = ReportBundle(
                    bundle.reporter,
                    tuple((s, reencode(t)) for s, t in bundle.entries),
                )
            elif roll < 0.5 or faulty in path[1:-1]:
                bundle = tamper_bundle(rng, bundle, graph)
            deliveries[tuple(path)] = bundle
    own = {s: truth[s] for s in graph.sorted_neighbors(me)}
    reliable_values = {
        w: values[w] if rng.random() < 0.9 else 1 - values[w]
        for w in nodes
        if rng.random() < 0.8
    }
    return graph, me, deliveries, own, truth[me], reliable_values, truth


@pytest.mark.parametrize("seed", range(24))
def test_claims_and_detection_match_linear_scan(seed):
    graph, me, deliveries, own, own_sent, reliable_values, truth = random_world(seed)
    f = 1
    claims = ClaimIndex(graph, f, me, deliveries, own, own_sent=own_sent)
    reference = LinearScanClaims(graph, f, me, deliveries, own, own_sent=own_sent)
    messages = {m for t in truth.values() for _, m in t}
    messages |= {flipped(m) for m in messages}
    ordered = sorted(messages, key=repr)
    for subject in sorted(graph.nodes, key=repr):
        transcript = reference.reliable_transcript(subject)
        assert claims.reliable_transcript(subject) == transcript
        rounds = claims.send_rounds(subject)
        if transcript is None:
            assert rounds is None
        else:
            assert rounds == {
                m: min(r for r, x in transcript if x == m) for _, m in transcript
            }
        for message in ordered:
            assert claims.reliably_transmitted(subject, message) == (
                reference.reliably_transmitted(subject, message)
            ), (subject, message)
    expected = reference_detect_faults(graph, f, me, reliable_values, reference)
    fresh = ClaimIndex(graph, f, me, deliveries, own, own_sent=own_sent)
    assert detect_faults(
        graph, f, me, reliable_values, fresh, phase1_tag=PHASE
    ) == expected
    shared = PathOracle(graph)
    again = ClaimIndex(graph, f, me, deliveries, own, own_sent=own_sent)
    assert detect_faults(
        graph, f, me, reliable_values, again, phase1_tag=PHASE, oracle=shared
    ) == expected
