"""Definition C.1 machinery: reliable values, claims, fault detection."""

import copy
import dataclasses
import pickle

import pytest

from repro.consensus import (
    ClaimIndex,
    ReportBundle,
    algorithm2_factory,
    reliable_value,
    run_consensus,
)
from repro.consensus.reliable import SendTable, detect_faults, send_table
from repro.graphs import Graph, complete_graph, cycle_graph, wheel_graph
from repro.net import FloodMessage, LyingReporterAdversary, ValuePayload
from test_claim_index_equivalence import with_own_report


def vp(x):
    return ValuePayload(x)


class TestReliableValue:
    def test_own_value(self, c4):
        delivered = {(0,): vp(1)}
        assert reliable_value(c4, 1, 0, delivered, 0) == 1

    def test_neighbor_direct(self, c4):
        delivered = {(1, 0): vp(0)}
        assert reliable_value(c4, 1, 0, delivered, 1) == 0

    def test_f_plus_1_disjoint_paths(self, c4):
        # Node 2 is not adjacent to 0; both two-hop paths deliver 1.
        delivered = {(2, 1, 0): vp(1), (2, 3, 0): vp(1)}
        assert reliable_value(c4, 1, 0, delivered, 2) == 1

    def test_single_path_insufficient(self, c4):
        delivered = {(2, 1, 0): vp(1)}
        assert reliable_value(c4, 1, 0, delivered, 2) is None

    def test_conflicting_paths_insufficient(self, c4):
        delivered = {(2, 1, 0): vp(1), (2, 3, 0): vp(0)}
        assert reliable_value(c4, 1, 0, delivered, 2) is None

    def test_non_disjoint_paths_do_not_count(self):
        g = cycle_graph(6).add_edges([(1, 5)])
        delivered = {
            (3, 2, 1, 0): vp(1),
            (3, 4, 5, 1, 0): vp(1),  # shares internal node 1
        }
        assert reliable_value(g, 1, 0, delivered, 3) is None

    def test_direct_wins_over_paths(self, c4):
        delivered = {(1, 0): vp(0), (1, 2, 3, 0): vp(1)}
        assert reliable_value(c4, 1, 0, delivered, 1) == 0


def make_bundle(reporter, subject, transcript):
    return ReportBundle.build(reporter, {subject: list(transcript)})


class TestClaimIndex:
    def test_direct_neighbor_observation(self, c4):
        m = FloodMessage("p1", vp(1), ())
        idx = ClaimIndex(
            c4, 1, 0,
            bundle_deliveries=with_own_report(c4, 0, {}, {1: ((1, m),)}),
        )
        assert idx.reliably_transmitted(1, m)
        assert idx.reliable_transcript(1) == ((1, m),)
        # Node 3 is heard too; the report holds nothing from it.
        assert idx.reliable_transcript(3) == ()
        assert not idx.reliably_transmitted(3, m)

    def test_heard_subject_needs_an_own_report_entry(self, k4):
        """A heard subject is read from the own report alone: claims
        about it are not evidence, even on f + 1 disjoint paths."""
        m = FloodMessage("p1", vp(1), ())
        claims = {(2, 0): make_bundle(2, 1, ((1, m),)),
                  (3, 0): make_bundle(3, 1, ((1, m),))}
        for deliveries in (claims, {(0,): make_bundle(0, 3, ()), **claims}):
            idx = ClaimIndex(k4, 1, 0, deliveries)
            assert idx.reliable_transcript(1) is None
            assert idx.send_table(1) is None
            assert not idx.reliably_transmitted(1, m)
        assert idx.reliable_transcript(3) == ()

    def test_nothing_about_me(self, c4):
        """A node never suspects itself, so the index answers nothing
        about ``me``: neither its own report nor claims about it count."""
        m = FloodMessage("p1", vp(0), ())
        deliveries = with_own_report(c4, 0, {
            (1, 0): make_bundle(1, 0, ((1, m),)),
            (3, 0): make_bundle(3, 0, ((1, m),)),
        }, {1: ((1, m),), 3: ((1, m),)})
        idx = ClaimIndex(c4, 1, 0, deliveries)
        assert idx.reliable_transcript(0) is None
        assert idx.send_table(0) is None
        assert not idx.reliably_transmitted(0, m)
        assert idx.reliably_transmitted(1, m)

    def test_remote_claim_needs_f_plus_1_disjoint(self, c4):
        m = FloodMessage("p1", vp(1), ())
        transcript = ((1, m),)
        b1 = make_bundle(1, 2, transcript)
        b3 = make_bundle(3, 2, transcript)
        idx = ClaimIndex(
            c4, 1, 0,
            bundle_deliveries=with_own_report(c4, 0, {(1, 0): b1, (3, 0): b3}),
        )
        assert idx.reliably_transmitted(2, m)
        assert idx.reliable_transcript(2) == transcript

    def test_single_remote_report_insufficient(self, c4):
        m = FloodMessage("p1", vp(1), ())
        b1 = make_bundle(1, 2, ((1, m),))
        idx = ClaimIndex(c4, 1, 0, with_own_report(c4, 0, {(1, 0): b1}))
        assert not idx.reliably_transmitted(2, m)

    def test_mismatched_reporter_origin_rejected(self, c4):
        m = FloodMessage("p1", vp(1), ())
        bundle = make_bundle(3, 2, ((1, m),))  # claims reporter 3
        # ... but the flood path says it came from node 1.
        idx = ClaimIndex(c4, 1, 0, with_own_report(c4, 0, {(1, 0): bundle}))
        assert not idx.reliably_transmitted(2, m)

    def test_reporter_must_neighbor_subject(self, c4):
        m = FloodMessage("p1", vp(1), ())
        # Node 0 and 2 are NOT adjacent in C4: 0 cannot attest about 2.
        bundle = make_bundle(0, 2, ((1, m),))
        idx = ClaimIndex(c4, 1, 1, with_own_report(c4, 1, {(0, 1): bundle}))
        assert not idx.reliably_transmitted(2, m)

    def test_disagreeing_transcripts_can_agree_per_message(self):
        """Per-message claims use containment: transcripts may differ in
        other entries and still jointly support one message.  On C4,
        node 2's neighbors (reporters) are 1 and 3."""
        m = FloodMessage("p1", vp(1), ())
        extra = FloodMessage("p1", vp(0), (0,))
        t_a = ((1, m),)
        t_b = ((1, m), (2, extra))
        bundles = {
            (1, 0): make_bundle(1, 2, t_a),
            (3, 0): make_bundle(3, 2, t_b),
        }
        c4 = cycle_graph(4)
        idx = ClaimIndex(c4, 1, 0, with_own_report(c4, 0, bundles))
        assert idx.reliably_transmitted(2, m)
        # The *full transcript* is not reliable: claims disagree.
        assert idx.reliable_transcript(2) is None


class TestClaimIndexInterning:
    """Evidence groups merge *equal* transcripts, not just identical
    objects: reporters build their own tuples of what they heard, and a
    Byzantine forwarder may re-encode a bundle without changing it."""

    # Subject 0 is heard by reporters 1, 2 and 3, each adjacent to me = 4:
    # composite paths (0, r, 4) are internally disjoint, and f = 1 needs 2.
    graph = Graph.from_edges(
        [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]
    )

    @staticmethod
    def transcript():
        return (
            (1, FloodMessage("p1", vp(1), ())),
            (2, FloodMessage("p1", vp(0), (1,))),
        )

    @staticmethod
    def rebuilt(transcript):
        """An equal copy sharing no object with the original."""
        return tuple(
            (r, FloodMessage(m.phase, vp(m.payload.value), tuple(m.path)))
            for r, m in transcript
        )

    def index(self, claims):
        bundles = {
            (reporter, 4): ReportBundle(reporter, ((0, claimed),))
            for reporter, claimed in claims.items()
        }
        return ClaimIndex(self.graph, 1, 4, with_own_report(self.graph, 4, bundles))

    def test_equal_distinct_copies_certify(self):
        t = self.transcript()
        copies = {1: t, 2: tuple(list(t)), 3: self.rebuilt(t)}
        assert len({id(c) for c in copies.values()}) == 3
        for claims in ({1: copies[1], 2: copies[2]},
                       {2: copies[2], 3: copies[3]},
                       copies):
            idx = self.index(claims)
            assert idx.reliable_transcript(0) == t
            for _, m in t:
                assert idx.reliably_transmitted(0, m)

    def test_equal_copies_merge_behind_a_differing_first_claim(self):
        t = self.transcript()
        forged = ((1, FloodMessage("p1", vp(0), ())),) + t[1:]
        idx = self.index({1: forged, 2: tuple(list(t)), 3: self.rebuilt(t)})
        assert idx.reliable_transcript(0) == t
        assert idx.reliably_transmitted(0, t[0][1])
        assert not idx.reliably_transmitted(0, forged[0][1])
        # Both sides claim the second message: three disjoint paths.
        assert idx.reliably_transmitted(0, t[1][1])

    def test_one_differing_copy_is_refused(self):
        t = self.transcript()
        late = (t[0], (3, t[1][1]))  # the forward, one round late
        idx = self.index({1: t, 2: late})
        assert idx.reliable_transcript(0) is None
        # Per-message containment still agrees on both messages ...
        assert idx.reliably_transmitted(0, t[0][1])
        assert idx.reliably_transmitted(0, t[1][1])
        # ... but a message only one copy carries is refused.
        tampered = self.rebuilt(t)[:1] + ((2, FloodMessage("p1", vp(1), (1,))),)
        idx = self.index({1: t, 2: tampered})
        assert idx.reliable_transcript(0) is None
        assert not idx.reliably_transmitted(0, t[1][1])
        assert not idx.reliably_transmitted(0, tampered[1][1])


class TestDetectFaults:
    def _claims_with_transcripts(self, graph, me, transcripts):
        """Direct-neighbor transcripts only (me adjacent to everyone)."""
        return ClaimIndex(graph, 1, me, with_own_report(graph, me, {}, transcripts))

    def test_detects_wrong_value_forwarder(self, k4):
        """Node 2 forwarded (0, (1,)) while 1 flooded 1: detected."""
        phase = "p1"
        init1 = FloodMessage(phase, vp(1), ())
        bad_fwd = FloodMessage(phase, vp(0), (1,))
        transcripts = {
            1: ((1, init1),),
            2: ((1, FloodMessage(phase, vp(0), ())), (2, bad_fwd)),
            3: ((1, FloodMessage(phase, vp(1), ())),
                (2, FloodMessage(phase, vp(1), (1,)))),
        }
        claims = self._claims_with_transcripts(k4, 0, transcripts)
        detected = detect_faults(
            k4, 1, 0, {1: 1}, claims, phase1_tag=phase, first_round=1
        )
        assert 2 in detected

    def test_no_detection_when_everyone_behaves(self, k4):
        phase = "p1"
        transcripts = {}
        for v in [1, 2, 3]:
            msgs = [(1, FloodMessage(phase, vp(1), ()))]
            for other in [1, 2, 3]:
                if other != v:
                    msgs.append((2, FloodMessage(phase, vp(1), (other,))))
            transcripts[v] = tuple(msgs)
        claims = self._claims_with_transcripts(k4, 0, transcripts)
        detected = detect_faults(
            k4, 1, 0, {1: 1, 2: 1, 3: 1}, claims, phase1_tag=phase
        )
        assert detected == set()

    def test_initiation_round_forwards_count_per_phase(self, k4):
        """Only a phase-1 forward in the initiation round is impossible
        for an honest node: one tagged with another flood's phase is
        not, and an early phase-1 forward is."""
        phase = "p1"

        def transcripts(extra):
            out = {}
            for v in [1, 2, 3]:
                msgs = [(1, FloodMessage(phase, vp(1), ()))]
                for other in [1, 2, 3]:
                    if other != v:
                        msgs.append((2, FloodMessage(phase, vp(1), (other,))))
                out[v] = tuple(msgs + (extra if v == 2 else []))
            return out

        values = {1: 1, 2: 1, 3: 1}
        other_phase = [(1, FloodMessage("p2", vp(1), (3,)))]
        claims = self._claims_with_transcripts(k4, 0, transcripts(other_phase))
        assert detect_faults(k4, 1, 0, values, claims, phase1_tag=phase) == set()
        early = [(1, FloodMessage(phase, vp(1), (3, 1)))]
        claims = self._claims_with_transcripts(k4, 0, transcripts(early))
        assert detect_faults(k4, 1, 0, values, claims, phase1_tag=phase) == {2}

    def test_never_suspects_self(self, k4):
        phase = "p1"
        claims = self._claims_with_transcripts(k4, 0, {})
        detected = detect_faults(k4, 1, 0, {1: 1}, claims, phase1_tag=phase)
        assert 0 not in detected


class TestReportBundle:
    def test_entries_sorted_and_canonical(self):
        a = ReportBundle.build(0, {2: [(1, "m2")], 1: [(1, "m1")]})
        b = ReportBundle.build(0, {1: [(1, "m1")], 2: [(1, "m2")]})
        assert a == b
        assert [s for s, _ in a.entries] == [1, 2]

    def test_hashable(self):
        b = ReportBundle.build(0, {1: [(1, "x")]})
        assert len({b, ReportBundle.build(0, {1: [(1, "x")]})}) == 1


def timed(phase, sends):
    """A transcript of ``(round, value, path)`` sends in ``phase``."""
    return tuple((r, FloodMessage(phase, vp(b), path)) for r, b, path in sends)


class TestSendTable:
    def test_first_rounds_and_earliest_forward_per_phase(self):
        t = timed("p1", [(3, 1, (2,)), (1, 0, ()), (2, 1, (2,)), (4, 0, (5, 2))])
        t += timed("p2", [(1, 1, (7,))]) + ((1, "not a flood message"),)
        table = send_table(t)
        assert table.rounds == {
            FloodMessage("p1", vp(1), (2,)): 2,
            FloodMessage("p1", vp(0), ()): 1,
            FloodMessage("p1", vp(0), (5, 2)): 4,
            FloodMessage("p2", vp(1), (7,)): 1,
            "not a flood message": 1,
        }
        # Initiations (empty path) are not forwards.
        assert table.forwards == {"p1": 2, "p2": 1}

    def test_send_rounds_keep_the_earliest_send(self):
        m = FloodMessage("p1", vp(1), (2,))
        other = FloodMessage("p1", vp(0), ())
        table = send_table(((3, m), (1, other), (2, m)))
        assert table.rounds == {m: 2, other: 1}
        assert table.forwards == {"p1": 2}

    def test_no_forward_no_entry(self):
        assert send_table(timed("p1", [(1, 1, ())])).forwards == {}
        assert send_table(()) == SendTable({}, {})


class TestReportBundleTables:
    """Send tables (once per bundle entry) and the ``repr`` (once per
    bundle) are built on first use and kept on the bundle, invisible to
    equality, hashing, ``repr`` and pickling."""

    def bundle(self):
        return ReportBundle.build(0, {
            1: list(timed("p1", [(1, 1, ()), (2, 0, (2,))])),
            2: list(timed("p1", [(1, 0, ()), (3, 1, (1,)), (1, 1, (1,))])),
        })

    def test_tables_are_built_once_and_match_the_entry(self):
        b = self.bundle()
        first = b.send_table(1)
        assert b.send_table(1) is first
        assert first == send_table(b.entries[1][1])
        assert first.forwards == {"p1": 1}
        assert b._tables[0] is None  # only the entry asked for

    def test_filled_cache_changes_no_observable(self):
        b, twin = self.bundle(), self.bundle()
        blob = pickle.dumps(twin)
        for pos in range(len(b.entries)):
            b.send_table(pos)
        assert b == twin and hash(b) == hash(twin)
        assert repr(b) == repr(twin)
        assert "_tables" not in repr(b)
        assert pickle.dumps(b) == blob
        for clone in (pickle.loads(pickle.dumps(b)), copy.deepcopy(b)):
            assert clone == b
            assert clone._tables is None  # a copy builds its own

    def test_repr_is_built_once_and_changes_no_observable(self):
        """The cached ``repr`` is the dataclass ``repr`` of the shown
        fields, and like the tables it stays off equality, hashing and
        pickles."""
        b, twin = self.bundle(), self.bundle()
        blob = pickle.dumps(twin)
        text = repr(b)
        shown = ", ".join(f"{f.name}={getattr(b, f.name)!r}"
                          for f in dataclasses.fields(b) if f.repr)
        assert text == f"ReportBundle({shown})"
        assert [f.name for f in dataclasses.fields(b) if f.repr] == [
            "reporter", "entries"]
        assert repr(b) is text
        assert b == twin and hash(b) == hash(twin)
        assert pickle.dumps(b) == blob
        for clone in (pickle.loads(pickle.dumps(b)), copy.deepcopy(b)):
            assert clone == b
            assert clone._repr is None  # a copy builds its own
            assert repr(clone) == text

    def test_equal_bundles_keep_separate_tables(self):
        b, twin = self.bundle(), self.bundle()
        b.send_table(0)
        assert twin._tables is None
        assert twin.send_table(0) == b.send_table(0)
        assert twin.send_table(0) is not b.send_table(0)

    def test_claims_read_the_table_of_the_bundle_they_came_from(self):
        """An honest and a forged report about subject 0 reach node 4 of
        C6: each claimed transcript's table lives on its own bundle."""
        graph = cycle_graph(6)
        honest_t = timed("p1", [(1, 1, ()), (2, 1, (5,))])
        forged_t = timed("p1", [(2, 0, ()), (1, 1, (5,))])
        honest = ReportBundle.build(5, {0: list(honest_t)})
        forged = ReportBundle.build(1, {0: list(forged_t)})
        claims = ClaimIndex(graph, 1, 3, with_own_report(
            graph, 3, {(5, 4, 3): honest, (1, 2, 3): forged}
        ))
        # Only the honest claim holds the initiation: one path, refused.
        assert not claims.reliably_transmitted(0, honest_t[0][1])
        assert honest._tables[0] == send_table(honest_t)
        assert forged._tables[0] == send_table(forged_t)
        assert forged._tables[0].forwards == {"p1": 1}
        assert honest._tables[0].forwards == {"p1": 2}

    def test_forged_bundles_of_a_run_hold_their_own_tables(self):
        """In a run against a lying reporter, every table any bundle
        holds is its own entry's, and no two bundles share one."""
        graph = cycle_graph(6)
        factory = algorithm2_factory(graph, 1)
        built = []

        def keep(node, value):
            built.append(factory(node, value))
            return built[-1]

        run_consensus(
            graph, keep, {v: v % 2 for v in graph.nodes}, f=1,
            faulty=(1,), adversary=LyingReporterAdversary(),
        )
        bundles = {
            id(b): b
            for p in built if p._flood2 is not None
            for b in p._flood2.delivered.values()
            if isinstance(b, ReportBundle)
        }
        owner = {}
        forged_filled = 0
        for b in bundles.values():
            for pos, table in enumerate(b._tables or ()):
                if table is None:
                    continue
                assert table == send_table(b.entries[pos][1])
                assert owner.setdefault(id(table), b) is b
                forged_filled += b.reporter == 1
        assert forged_filled > 0

    def test_heard_subjects_read_the_own_reports_tables(self):
        """After a W8 run, every node's claim index reads a subject it
        hears through the very table its own report holds for it: the
        one every node holding that report object reads."""
        graph = wheel_graph(8)
        factory = algorithm2_factory(graph, 1)
        built = []

        def keep(node, value):
            built.append(factory(node, value))
            return built[-1]

        run_consensus(
            graph, keep, {v: v % 2 for v in graph.nodes}, f=1,
            faulty=(1,), adversary=LyingReporterAdversary(),
        )
        honest = [p for p in built if p.me != 1]
        assert len(honest) == graph.n - 1
        for p in honest:
            delivered = p._flood2.delivered
            own = delivered[(p.me,)]
            claims = ClaimIndex(
                graph, 1, p.me, delivered, path_mask=p._flood2.path_mask
            )
            subjects = [z for z, _ in own.entries]
            assert sorted(subjects) == sorted(graph.in_neighbors(p.me))
            for pos, z in enumerate(subjects):
                assert claims.send_table(z) is own.send_table(pos)
            assert claims.send_table(p.me) is None
