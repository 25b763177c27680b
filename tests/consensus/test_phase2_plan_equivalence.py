"""Property tests: phase-2 fault localization decides exactly as before
its graph-level work was hoisted out of the per-node loop.

Three pieces are checked against the straightforward reading they
replaced:

* :meth:`PathOracle.localization_plan` against the inline loop that
  re-sorted and re-sliced each pair's disjoint-path family at every
  node;
* :func:`detect_faults` with and without a shared oracle, and
  :class:`ClaimIndex`'s bit-tested composite paths, against the
  linear-scan reference of ``test_claim_index_equivalence``, with the
  flood's masks and with the default ``mask_of``;
* the per-object memos (the phase-2 bundle validator and the claim
  index's resolved entries) when one bundle object arrives under two
  claimed reporters, and when equal but distinct objects arrive.

A label outside the graph never reaches a mask: flood rule (i) drops a
path naming one and the claim index skips such a subject, while a
hand-built delivery keyed by one raises ``KeyError``.
"""

import pickle
import random
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_claim_index_equivalence import (
    PHASE,
    LinearScanClaims,
    flipped,
    honest_transcript,
    misbehave,
    reencode,
    reference_detect_faults,
    tamper_bundle,
    with_own_report,
)
from repro.consensus import (
    ClaimIndex,
    FloodInstance,
    PathOracle,
    ReportBundle,
    algorithm2_factory,
    reliable_value,
    run_consensus,
)
from repro.consensus.algorithm2 import _valid_bundle
from repro.consensus.reliable import detect_faults
from repro.graphs import (
    Graph,
    all_simple_paths,
    complete_graph,
    cycle_graph,
    harary_graph,
    max_disjoint_paths,
    paper_figure_1b,
    petersen_graph,
    random_connected_graph,
    wheel_graph,
)
from repro.net import (
    Context,
    FloodMessage,
    ValuePayload,
    local_broadcast_model,
    standard_adversaries,
)
from repro.obs import MetricsRegistry

#: Small graphs for f = 1 (κ ≥ 2) and f = 2 (κ ≥ 4).
F1_GRAPHS = [cycle_graph(5), cycle_graph(6), wheel_graph(6), wheel_graph(7)]
F2_GRAPHS = [complete_graph(5), complete_graph(6)]  # κ = 4, 5
PLAN_GRAPHS = F1_GRAPHS + F2_GRAPHS + [
    paper_figure_1b(),
    petersen_graph(),
    harary_graph(4, 7),
]


def inline_plan(graph, w, k):
    """The walk the pre-plan ``detect_faults`` did at every node: per
    target in ``repr`` order, the first ``k`` sorted family paths, one
    ``(z, slot, prefix, idx)`` step per internal node."""
    walk = []
    for u in sorted(graph.nodes, key=repr):
        if u == w:
            continue
        _count, paths = max_disjoint_paths(graph, w, u, want_paths=True)
        for path in sorted(paths, key=repr)[:k]:
            steps = []
            for idx in range(1, len(path) - 1):
                steps.append((path[idx], path[: idx + 1], path[:idx], idx))
            if steps:
                walk.append(tuple(steps))
    return tuple(walk)


class TestLocalizationPlan:
    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(PLAN_GRAPHS + [None]),
        st.integers(0, 10**6),
        st.sampled_from([1, 2]),
    )
    def test_plan_equals_inline_derivation(self, graph, seed, f):
        if graph is None:
            graph = random_connected_graph(7, 5, seed)
        w = random.Random(seed).choice(sorted(graph.nodes, key=repr))
        expected = inline_plan(graph, w, 2 * f)
        assert PathOracle(graph).localization_plan(w, 2 * f) == expected

    def test_plan_is_built_once_per_origin_and_k(self):
        graph = wheel_graph(7)
        oracle = PathOracle(graph)
        first = oracle.localization_plan(0, 2)
        assert oracle.localization_plan(0, 2) is first
        assert oracle.localization_plan(0, 4) is not first
        assert oracle.metrics.counter("oracle.misses", kind="plan") == 2
        assert oracle.metrics.counter("oracle.hits", kind="plan") == 1
        assert oracle.cache_info()["plans"] == 2


class TestFactoryPickling:
    def test_pickled_factory_ships_no_plans_and_rebuilds_them(self):
        graph = wheel_graph(6)
        factory = algorithm2_factory(graph, 1)
        run_consensus(graph, factory, {v: v % 2 for v in graph.nodes}, f=1)
        warm = factory.oracle
        assert warm.cache_info()["plans"] == graph.n
        clone = pickle.loads(pickle.dumps(factory)).oracle
        assert clone.cache_info()["plans"] == 0
        # The families the plans derive from do travel.
        assert clone.cache_info()["disjoint_pairs"] == warm.cache_info()[
            "disjoint_pairs"
        ]
        for w in sorted(graph.nodes, key=repr):
            assert clone.localization_plan(w, 2) == warm.localization_plan(w, 2)
        assert clone.metrics.counter("oracle.misses", kind="disjoint") == 0


# ---------------------------------------------------------------------------
# Seeded phase-2 worlds with f ∈ {1, 2}
# ---------------------------------------------------------------------------
def phase2_world(graph, f, seed):
    """``me``'s view after phase 2: honest and tampered bundle floods, up
    to ``f`` misbehaving nodes, and one bundle object replayed under a
    reporter that did not build it."""
    rng = random.Random(seed)
    nodes = sorted(graph.nodes, key=repr)
    me = rng.choice(nodes)
    values = {v: rng.randint(0, 1) for v in nodes}
    faulty = rng.sample([v for v in nodes if v != me], rng.randint(1, f))
    truth = {v: honest_transcript(graph, v, values) for v in nodes}
    for z in faulty:
        truth[z] = misbehave(rng, truth[z])
    bundles = {
        r: ReportBundle.build(r, {s: list(truth[s]) for s in graph.sorted_neighbors(r)})
        for r in nodes
    }
    deliveries = {(me,): bundles[me]}
    for reporter in nodes:
        if reporter == me:
            continue
        for path in all_simple_paths(graph, reporter, me, max_length=3):
            roll = rng.random()
            if roll < 0.2:
                continue
            bundle = bundles[reporter]
            if roll < 0.35:
                bundle = ReportBundle(
                    bundle.reporter,
                    tuple((s, reencode(t)) for s, t in bundle.entries),
                )
            elif roll < 0.45 or any(z in path[1:-1] for z in faulty):
                bundle = tamper_bundle(rng, bundle, graph)
            deliveries[tuple(path)] = bundle
    # One object, two claimed reporters: only its own reporter's path counts.
    reporter, other = rng.sample([v for v in nodes if v != me], 2)
    deliveries[(other, me)] = bundles[reporter]
    reliable_values = {
        w: values[w] if rng.random() < 0.9 else 1 - values[w]
        for w in nodes
        if rng.random() < 0.8
    }
    return me, deliveries, truth, reliable_values


def claim_answers(claims, graph, messages):
    return [
        (
            claims.reliable_transcript(subject),
            claims.send_table(subject),
            [claims.reliably_transmitted(subject, m) for m in messages],
        )
        for subject in sorted(graph.nodes, key=repr)
    ]


class TestClaimsAndDetection:
    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(
            [(g, 1) for g in F1_GRAPHS] + [(g, 2) for g in F2_GRAPHS]
            + [(g, 1) for g in F2_GRAPHS]
        ),
        st.integers(0, 10**6),
    )
    def test_oracle_does_not_change_answers(self, case, seed):
        graph, f = case
        me, deliveries, truth, reliable_values = phase2_world(graph, f, seed)
        sent = sorted({m for t in truth.values() for _, m in t}, key=repr)
        sample = random.Random(seed).sample(sent, min(len(sent), 40))
        messages = sample + [flipped(m) for m in sample]
        reference = LinearScanClaims(graph, f, me, deliveries)
        expected_claims = [
            (
                reference.reliable_transcript(subject),
                [reference.reliably_transmitted(subject, m) for m in messages],
            )
            for subject in sorted(graph.nodes, key=repr)
        ]
        expected = reference_detect_faults(graph, f, me, reliable_values, reference)
        oracle = PathOracle(graph)
        answers = []
        for shared in (None, oracle):
            claims = ClaimIndex(graph, f, me, deliveries)
            assert detect_faults(
                graph, f, me, reliable_values, claims,
                phase1_tag=PHASE, oracle=shared,
            ) == expected
            answers.append(claim_answers(claims, graph, messages))
        assert all(a == answers[0] for a in answers)
        assert [(t, checks) for t, _rounds, checks in answers[0]] == expected_claims

    def test_flood_masks_build_the_same_index(self):
        """Algorithm 2 hands ``ClaimIndex`` its phase-2 flood's masks;
        the default computes them from the node index instead."""
        graph = wheel_graph(7)
        factory = algorithm2_factory(graph, 1)
        built = []

        def keep(node, value):
            built.append(factory(node, value))
            return built[-1]

        inputs = {v: v % 2 for v in graph.nodes}
        for adversary in standard_adversaries():
            built.clear()
            run_consensus(graph, keep, inputs, f=1, faulty=(2,), adversary=adversary)
            for p in built:
                bundles = p._flood2.delivered
                flood = ClaimIndex(graph, 1, p.me, bundles,
                                   path_mask=p._flood2.path_mask)
                default = ClaimIndex(graph, 1, p.me, bundles)
                assert flood._path_masks == default._path_masks
                assert flood._evidence == default._evidence
                assert flood._transcripts == default._transcripts

    def test_composite_paths_must_stay_simple(self):
        """A claim carried along a path through its own subject is not a
        composite path: counted, it would certify subject 1 here."""
        # me = 0 and subject 1 are not adjacent; reporters 2 and 4 are
        # neighbors of 1.
        graph = Graph.from_edges([(2, 1), (1, 3), (3, 0), (4, 1), (4, 5), (5, 0)])
        m = FloodMessage(PHASE, ValuePayload(1), ())
        deliveries = {
            (2, 1, 3, 0): ReportBundle.build(2, {1: [(1, m)]}),
            (4, 5, 0): ReportBundle.build(4, {1: [(1, m)]}),
        }
        claims = ClaimIndex(graph, 1, 0, with_own_report(graph, 0, deliveries))
        assert claims.reliable_transcript(1) is None
        assert not claims.reliably_transmitted(1, m)


class TestBundleMemo:
    def setup_method(self):
        self.graph = wheel_graph(6)
        m = FloodMessage(PHASE, ValuePayload(1), ())
        # Node 0 is the hub: every rim node is its neighbor.
        self.bundle = ReportBundle.build(
            0, {s: [(1, m)] for s in self.graph.sorted_neighbors(0)}
        )
        self.memo = {}
        self.valid = partial(_valid_bundle, self.graph, self.memo)

    def fresh(self, payload, path):
        """The verdict with nothing memoized."""
        return _valid_bundle(self.graph, {}, payload, path)

    def test_one_object_under_two_claimed_reporters(self):
        valid = self.valid
        assert not valid(self.bundle, (1, 2))  # wrong reporter: not memoized
        assert self.memo == {}
        assert valid(self.bundle, (0, 2))  # computed
        assert not valid(self.bundle, (3,))  # memoized, wrong reporter
        assert valid(self.bundle, (0, 4, 3))  # memoized
        assert list(self.memo) == [id(self.bundle)]

    def test_equal_but_distinct_objects(self):
        valid = self.valid
        entries = self.bundle.entries
        twin = ReportBundle(0, tuple(entries))
        assert twin == self.bundle and twin is not self.bundle
        # Malformed pairs: a repeated subject; a reporter (rim node 1)
        # that is not adjacent to most subjects.
        repeated = ReportBundle(0, entries + entries[:1])
        foreign = ReportBundle(1, entries)
        cases = [
            (self.bundle, (0, 1)), (twin, (0, 1)),
            (repeated, (0, 1)), (ReportBundle(0, entries + entries[:1]), (0, 1)),
            (foreign, (1, 2)), (ReportBundle(1, entries), (1, 2)),
        ]
        for payload, path in cases + cases:
            assert valid(payload, path) == self.fresh(payload, path)
        assert [valid(p, path) for p, path in cases] == [
            True, True, False, False, False, False
        ]
        assert len(self.memo) == len(cases)

    def test_claim_index_counts_only_the_true_reporters_paths(self):
        graph = cycle_graph(6)
        m = FloodMessage(PHASE, ValuePayload(1), ())
        transcript = ((1, m),)
        bundle = ReportBundle.build(1, {0: list(transcript), 2: list(transcript)})
        # me = 3.  Reporter 1's claim about subject 0 reaches me on one
        # composite path, (0, 1, 2, 3).  Replayed under reporter 4, the
        # same object would add (0, 5, 4, 3) if its resolved entries were
        # reused without the reporter test — two disjoint paths, enough
        # for f = 1.
        replayed = {(1, 2, 3): bundle, (4, 3): bundle, (5, 4, 3): bundle}
        # Reporter 5's own (equal, separately built) claim does add it.
        honest = {
            (1, 2, 3): bundle,
            (5, 4, 3): ReportBundle.build(5, {0: list(reencode(transcript))}),
        }
        claims = ClaimIndex(graph, 1, 3, with_own_report(graph, 3, replayed))
        assert claims.reliable_transcript(0) is None
        assert not claims.reliably_transmitted(0, m)
        claims = ClaimIndex(graph, 1, 3, with_own_report(graph, 3, honest))
        assert claims.reliable_transcript(0) == transcript
        assert claims.reliably_transmitted(0, m)


class TestOffGraphLabels:
    """Byzantine traffic naming a label outside the graph never reaches
    the node index's ``KeyError``; only a hand-built delivery does."""

    GHOST = ("ghost", 1)

    def setup_method(self):
        # me = 3 on C6; subject 0's neighbors 1 and 5 report it along
        # the disjoint flood paths (1, 2, 3) and (5, 4, 3).
        self.graph = cycle_graph(6)
        self.m = FloodMessage(PHASE, ValuePayload(1), ())
        self.transcript = ((1, self.m),)

    def bundle(self, reporter, subjects):
        return ReportBundle.build(
            reporter, {s: list(self.transcript) for s in subjects}
        )

    def test_flood_rule_i_drops_an_off_graph_path(self):
        metrics = MetricsRegistry()
        flood = FloodInstance(self.graph, 3, phase="p2")
        forged = FloodMessage("p2", self.bundle(1, [0, 2]), (1, self.GHOST))
        ctx = Context(
            node=3, graph=self.graph, round_no=3,
            channel=local_broadcast_model(), inbox=[(2, forged)],
            metrics=metrics,
        )
        assert metrics.counter("flood.rejected", phase="p2", rule="i") == 0
        assert flood.process_round(ctx) == 0
        assert flood.delivered == {}
        assert ctx.outbox == []
        assert metrics.counter("flood.rejected", phase="p2", rule="i") == 1

    def test_claim_index_skips_an_off_graph_subject(self):
        deliveries = {
            (1, 2, 3): self.bundle(1, [0, 2, self.GHOST]),
            (5, 4, 3): self.bundle(5, [0, 4, self.GHOST]),
        }
        claims = ClaimIndex(
            self.graph, 1, 3, with_own_report(self.graph, 3, deliveries)
        )
        assert self.GHOST not in claims._evidence
        assert claims.reliable_transcript(0) == self.transcript
        assert claims.reliably_transmitted(0, self.m)

    def test_hand_built_off_graph_keys_raise(self):
        with pytest.raises(KeyError):
            ClaimIndex(self.graph, 1, 3, with_own_report(
                self.graph, 3, {(1, self.GHOST, 3): self.bundle(1, [0])}
            ))
        with pytest.raises(KeyError):
            reliable_value(
                self.graph, 1, 3, {(0, self.GHOST, 3): ValuePayload(1)}, 0
            )
