"""Property test: :class:`ClaimIndex` and :func:`detect_faults` decide
exactly like a linear-scan reference.

The reference below is the straightforward reading of the phase-2
certificates: a subject ``me`` hears read from ``me``'s own report (the
bundle at the trivial path ``(me,)``), evidence grouped under each
claimed transcript by value, claims checked by scanning transcripts with
``==``, disjointness by the frozenset packing of
``tests/packing_oracle.py``.  The shipped code interns transcripts,
skips claims about subjects it observes directly, and looks messages up
in send tables held by the report bundles; seeded
random bundle floods — honest relays, equal re-encodings, tampered and
late forwards, dropped entries and forged reporters — must get identical
answers from both.

Whole runs are checked too: :class:`ReferenceAlgorithm2` concludes
phase 2 through these references, each node on its own deep copies of
the bundles it was delivered, and the Algorithm 2 battery
(``test_algorithm2_battery.py``) compares it node by node with the
shipped protocol, whose nodes share the relayed bundle objects.
"""

import pickle
import random
from functools import lru_cache

import pytest

from packing_oracle import has_disjoint_path_packing
from repro.consensus import (
    Algorithm2Protocol,
    ClaimIndex,
    PathOracle,
    ReportBundle,
    algorithm2_factory,
    run_consensus,
)
from repro.consensus.reliable import detect_faults
from repro.graphs import (
    all_simple_paths,
    cycle_graph,
    max_disjoint_paths,
    wheel_graph,
)
from repro.net import FloodMessage, ValuePayload

PHASE = "p1"


def own_report(graph, me, transcripts):
    """``me``'s phase-2 report as Algorithm 2 builds it: one entry per
    node ``me`` hears, empty where ``transcripts`` has none."""
    return ReportBundle.build(
        me,
        {s: list(transcripts.get(s, ())) for s in graph.sorted_in_neighbors(me)},
    )


def with_own_report(graph, me, deliveries, transcripts=None):
    """``deliveries`` as a phase-2 flood holds them: ``me``'s own report
    at the trivial path ``(me,)``, first."""
    return {(me,): own_report(graph, me, transcripts or {}), **deliveries}


class LinearScanClaims:
    """Reference claim index: value-keyed evidence, linear scans.

    A subject ``me`` hears is read from ``me``'s own report, the bundle
    delivered at ``(me,)``; nothing is answered about ``me`` itself.
    Answers are memoized per query, and a transcript's messages are
    collected into a set the first time one is looked up in it (all
    pure functions of the deliveries): whole-run tests ask the same
    questions at many slots.
    """

    def __init__(self, graph, f, me, bundle_deliveries):
        self.graph = graph
        self.f = f
        self.me = me
        own = bundle_deliveries.get((me,))
        self.heard = dict(own.entries) if own is not None else {}
        self.evidence = {}  # subject -> transcript -> [composite paths]
        self.answers = {}
        self.message_sets = {}  # id(transcript) -> (transcript, its messages)
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
        key = ("transcript", subject)
        if key not in self.answers:
            self.answers[key] = self._reliable_transcript(subject)
        return self.answers[key]

    def reliably_transmitted(self, subject, message):
        key = ("transmitted", subject, message)
        if key not in self.answers:
            self.answers[key] = self._reliably_transmitted(subject, message)
        return self.answers[key]

    def _reliable_transcript(self, subject):
        if subject == self.me:
            return None
        if self.me in self.graph.neighbors(subject):
            return self.heard.get(subject)
        for transcript, paths in self.evidence.get(subject, {}).items():
            if self._packs(paths):
                return transcript
        return None

    def _contains(self, transcript, message):
        held = self.message_sets.get(id(transcript))
        if held is None:
            held = self.message_sets[id(transcript)] = (
                transcript, frozenset(m for _, m in transcript)
            )
        return message in held[1]

    def _reliably_transmitted(self, subject, message):
        if subject == self.me:
            return False
        if self.me in self.graph.neighbors(subject):
            return self._contains(self.heard.get(subject, ()), message)
        paths = [
            p
            for transcript, plist in self.evidence.get(subject, {}).items()
            if self._contains(transcript, message)
            for p in plist
        ]
        return self._packs(paths)


@lru_cache(maxsize=None)
def sorted_family(graph, w, u):
    """``max_disjoint_paths``' ``wu``-family in ``repr`` order (computed
    here, not through the shipped oracle or its per-graph cache)."""
    _count, paths = max_disjoint_paths(graph, w, u, want_paths=True)
    return tuple(sorted(paths, key=repr))


def reference_detect_faults(
    graph, f, me, reliable_values, claims, first_round=1, phase=PHASE
):
    """Phase-2 fault localization, scanning each transcript per slot
    (a slot's verdict, a pure function of ``b`` and the slot, is kept
    for the slot's next visit)."""
    detected = set()
    verdicts = {}
    for w in sorted(reliable_values, key=repr):
        b = reliable_values[w]
        for u in sorted(graph.nodes, key=repr):
            if u == w:
                continue
            for path in sorted_family(graph, w, u)[: 2 * f]:
                for idx in range(1, len(path) - 1):
                    z = path[idx]
                    if z == me:
                        continue
                    key = (b, path[: idx + 1])
                    if key not in verdicts:
                        verdicts[key] = slot_suspicious(
                            claims, b, z, path[:idx], first_round, phase
                        )
                    if verdicts[key]:
                        detected.add(z)
                        break
    return detected


def slot_suspicious(claims, b, z, prefix, first_round, phase):
    """Did ``z`` provably misbehave on its slot after ``prefix``?"""
    tampered = FloodMessage(phase, ValuePayload(1 - b), prefix)
    if claims.reliably_transmitted(z, tampered):
        return True
    transcript = claims.reliable_transcript(z)
    if transcript is None:
        return False
    honest_fwd = FloodMessage(phase, ValuePayload(b), prefix)
    on_time = any(
        r <= first_round + len(prefix) and m == honest_fwd
        for r, m in transcript
    )
    early = any(
        r <= first_round
        and isinstance(m, FloodMessage)
        and m.phase == phase
        and len(m.path) > 0
        for r, m in transcript
    )
    return not on_time or early


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
    deliveries = {(me,): bundles[me]}
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
    reliable_values = {
        w: values[w] if rng.random() < 0.9 else 1 - values[w]
        for w in nodes
        if rng.random() < 0.8
    }
    return graph, me, deliveries, reliable_values, truth


@pytest.mark.parametrize("seed", range(24))
def test_claims_and_detection_match_linear_scan(seed):
    graph, me, deliveries, reliable_values, truth = random_world(seed)
    f = 1
    claims = ClaimIndex(graph, f, me, deliveries)
    reference = LinearScanClaims(graph, f, me, deliveries)
    messages = {m for t in truth.values() for _, m in t}
    messages |= {flipped(m) for m in messages}
    ordered = sorted(messages, key=repr)
    for subject in sorted(graph.nodes, key=repr):
        transcript = reference.reliable_transcript(subject)
        assert claims.reliable_transcript(subject) == transcript
        table = claims.send_table(subject)
        if transcript is None:
            assert table is None
        else:
            assert table.rounds == {
                m: min(r for r, x in transcript if x == m) for _, m in transcript
            }
            forwards = {}
            for r, m in transcript:
                if m.path:
                    forwards[m.phase] = min(r, forwards.get(m.phase, r))
            assert table.forwards == forwards
        for message in ordered:
            assert claims.reliably_transmitted(subject, message) == (
                reference.reliably_transmitted(subject, message)
            ), (subject, message)
    expected = reference_detect_faults(graph, f, me, reliable_values, reference)
    fresh = ClaimIndex(graph, f, me, deliveries)
    assert detect_faults(
        graph, f, me, reliable_values, fresh, phase1_tag=PHASE
    ) == expected
    shared = PathOracle(graph)
    again = ClaimIndex(graph, f, me, deliveries)
    assert detect_faults(
        graph, f, me, reliable_values, again, phase1_tag=PHASE, oracle=shared
    ) == expected


# ---------------------------------------------------------------------------
# Whole runs: phase 2 concluded by the references, on private copies
# ---------------------------------------------------------------------------
def reference_reliable_value(graph, f, me, delivered, origin):
    """Definition C.1 read literally over phase-1 value deliveries: the
    node's own or a neighbor's direct value, else the ``repr``-least
    value carried by ``f + 1`` internally disjoint paths."""
    values = {p: v for p, v in delivered.items() if isinstance(v, ValuePayload)}
    if origin == me:
        payload = values.get((me,))
    elif (origin, me) in values:
        payload = values[(origin, me)]
    else:
        groups = {}
        for path, value in values.items():
            if len(path) >= 3 and path[0] == origin:
                groups.setdefault(value, []).append(path)
        payload = next(
            (
                value
                for value in sorted(groups, key=repr)
                if has_disjoint_path_packing(groups[value], f + 1, mode="uv")
            ),
            None,
        )
    return None if payload is None else payload.value


def private_copies(bundles):
    """A deep copy of ``bundles`` (a pickle round trip: fast, and a
    bundle delivered on several paths stays one object in the copy)."""
    return pickle.loads(pickle.dumps(bundles))


class ReferenceAlgorithm2(Algorithm2Protocol):
    """Algorithm 2 whose phase 2 concludes through the references of
    this module: literal reliable receipt, :class:`LinearScanClaims`
    and :func:`reference_detect_faults`, none of which reads a send
    table or relies on object identity."""

    def _conclude_phase2(self):
        for origin in sorted(self.graph.nodes, key=repr):
            value = reference_reliable_value(
                self.graph, self.f, self.me, self._flood1.delivered, origin
            )
            if value is not None:
                self.reliable_values[origin] = value
        claims = LinearScanClaims(
            self.graph, self.f, self.me, self._flood2.delivered
        )
        self.detected = reference_detect_faults(
            self.graph, self.f, self.me, self.reliable_values, claims,
            phase=self.PHASE1,
        )
        self.node_type = "A" if len(self.detected) == self.f else "B"


def isolated_detection(protocol):
    """The shipped phase-2 localization re-run for ``protocol``'s node on
    its own deep copies of its bundles (its own report included): tables
    built for this node alone, shared with no other node."""
    graph, f = protocol.graph, protocol.f
    claims = ClaimIndex(
        graph, f, protocol.me,
        private_copies(protocol._flood2.delivered),
        path_mask=protocol._flood2.path_mask,
    )
    return detect_faults(
        graph, f, protocol.me, protocol.reliable_values, claims,
        phase1_tag=protocol.PHASE1, oracle=PathOracle(graph),
    )


@pytest.mark.parametrize("graph", [cycle_graph(6), wheel_graph(8)], ids=["C6", "W8"])
def test_private_bundle_copies_answer_like_shared_objects(graph):
    """Every node of a real run, re-indexed on its own deep copies of the
    bundles, answers each claim as it did on the relayed objects that
    all nodes share."""
    from repro.net import LyingReporterAdversary

    factory = algorithm2_factory(graph, 1)
    built = []

    def keep(node, value):
        built.append(factory(node, value))
        return built[-1]

    run_consensus(
        graph, keep, {v: v % 2 for v in graph.nodes}, f=1,
        faulty=(1,), adversary=LyingReporterAdversary(),
    )
    concluded = [p for p in built if p.node_type is not None]
    assert len(concluded) == graph.n
    for p in concluded:
        delivered = p._flood2.delivered
        shared = ClaimIndex(graph, 1, p.me, delivered)
        private = ClaimIndex(graph, 1, p.me, private_copies(delivered))
        # Every message any report delivered to p names: what p heard,
        # and what its neighbors heard p send.
        bundles = {id(b): b for b in delivered.values()}.values()
        messages = sorted(
            {m for b in bundles for _, t in b.entries for _, m in t}, key=repr
        )
        for subject in sorted(graph.nodes, key=repr):
            assert private.send_table(subject) == shared.send_table(subject)
            for message in messages:
                assert private.reliably_transmitted(subject, message) == (
                    shared.reliably_transmitted(subject, message)
                )
        assert isolated_detection(p) == p.detected
