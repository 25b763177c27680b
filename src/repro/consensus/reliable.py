"""Definition C.1 — reliable receipt — and the phase-2 claim machinery.

Appendix C builds the efficient algorithm on a single tool: node ``v``
**reliably receives** a message flooded by ``u`` if (1) ``u = v``,
(2) ``v`` is a neighbor of ``u``, or (3) ``v`` receives it identically on
at least ``f + 1`` node-disjoint ``uv``-paths.

Two consequences (proved in the paper, re-proved empirically in our
tests):

* a message *sent* by a **faulty** node is reliably received by everyone
  (Lemma C.2) — its ≥ 2f neighbors all heard it identically, and at most
  ``f − 1`` other faults can sit on the 2f disjoint forwarding paths;
* a **false** claim about an honest node's transmissions can never be
  reliably received — every disjoint evidence path for a fabrication
  must contain its own faulty internal node, and there are at most ``f``
  faults in total.

Phase 2 of Algorithm 2 floods, per reporter, a bundle of the complete
*timed* transcripts the reporter heard from each neighbor in phase 1.
(The paper floods "all the messages it hears from its neighbors";
bundling them into one flood per reporter is a framing choice that
preserves the adversary's power — a Byzantine forwarder can alter any
subset of a bundle — while keeping rule (ii)'s one-message-per-slot
shape.)  Transcripts carry the send round of every message because
honest flooding is *scheduled*: on a path ``w, x_1, …``, an honest
``x_k`` forwards ``w``'s value at round ``k + 1`` exactly.  Fault
localization therefore checks the schedule slot, which closes a timing
attack: a faulty node that forwards correct bits *late* (visible to
reporters, useless to the flood) is still the first detected deviator
on its path, so honest downstream nodes are never blamed.

A node's own report is its one record of what it heard: the flood keeps
it at the trivial path ``(me,)``, and :class:`ClaimIndex` reads every
subject the node hears from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, NamedTuple, Optional, Tuple

from ..graphs import Graph, has_disjoint_mask_packing
from ..net.messages import FloodMessage, ValuePayload
from ..obs import NULL_METRICS
from .path_oracle import PathOracle

PathTuple = Tuple[Hashable, ...]
TimedMessage = Tuple[int, object]  # (send round, message)
Transcript = Tuple[TimedMessage, ...]  # one node's transmissions, in order


class SendTable(NamedTuple):
    """What fault localization reads from one timed transcript."""

    #: message -> the earliest round it was sent
    rounds: Dict[object, int]
    #: flood phase -> the earliest round of a forward (non-empty path)
    #: of that phase
    forwards: Dict[Hashable, int]


def send_table(transcript: Transcript) -> SendTable:
    """The :class:`SendTable` of ``transcript``."""
    rounds: Dict[object, int] = {}
    for r, m in transcript:
        if rounds.setdefault(m, r) > r:
            rounds[m] = r
    forwards: Dict[Hashable, int] = {}
    # repro: allow[REPRO001] a per-phase minimum: order cannot matter.
    for m, r in rounds.items():
        if isinstance(m, FloodMessage) and len(m.path) > 0:
            if forwards.setdefault(m.phase, r) > r:
                forwards[m.phase] = r
    return SendTable(rounds, forwards)


@dataclass(frozen=True, slots=True)
class ReportBundle:
    """Phase-2 payload: ``reporter``'s view of each neighbor's phase-1
    transcript.  ``entries`` is sorted by subject for canonical equality.

    The :class:`SendTable` of each entry is built on first use and kept
    on the bundle, and so is the ``repr`` (a flight spells it out in every
    transmission that relays the bundle).  Both are pure functions of the
    immutable bundle, and honest relays hand every node the same bundle
    object, so every node holding it reads one copy, freed with the
    bundle.  The caches take no part in equality, hashing, ``repr`` or
    pickling.
    """

    reporter: Hashable
    entries: Tuple[Tuple[Hashable, Transcript], ...]
    _tables: Optional[List[Optional[SendTable]]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _repr: Optional[str] = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def build(
        cls, reporter: Hashable, transcripts: Dict[Hashable, List[TimedMessage]]
    ) -> "ReportBundle":
        entries = tuple(
            (subject, tuple(messages))
            for subject, messages in sorted(
                transcripts.items(), key=lambda kv: repr(kv[0])
            )
        )
        return cls(reporter, entries)

    def __reduce__(self):
        return (type(self), (self.reporter, self.entries))

    def __repr__(self) -> str:
        text = self._repr
        if text is None:
            text = (f"{type(self).__qualname__}(reporter={self.reporter!r}, "
                    f"entries={self.entries!r})")
            object.__setattr__(self, "_repr", text)
        return text

    def send_table(self, pos: int) -> SendTable:
        """The :class:`SendTable` of ``entries[pos]``'s transcript."""
        tables = self._tables
        if tables is None:
            tables = [None] * len(self.entries)
            object.__setattr__(self, "_tables", tables)
        table = tables[pos]
        if table is None:
            table = tables[pos] = send_table(self.entries[pos][1])
        return table


def reliable_value(
    graph: Graph,
    f: int,
    me: Hashable,
    delivered: Dict[PathTuple, object],
    origin: Hashable,
    oracle: Optional[PathOracle] = None,
    metrics: object = NULL_METRICS,
    path_mask: Optional[Callable[[PathTuple], int]] = None,
) -> Optional[int]:
    """Definition C.1 applied to a phase-1 value flood.

    ``delivered`` is the local :class:`~repro.consensus.flooding
    .FloodInstance` record (full path ending at ``me`` → payload).
    Returns the reliably received binary value from ``origin``, or
    ``None``.  Direct receipt (self / neighbor) takes precedence; for
    case (3) the value must arrive identically on ``f + 1`` internally
    node-disjoint ``origin→me`` paths.

    A thin specialization of :func:`reliable_payload`: non-value
    payloads are filtered out first (they never certify a value — and
    must not shadow the direct slot either), then the generic
    certificate runs; ``ValuePayload(0)`` sorts before ``ValuePayload(1)``,
    preserving the historical δ ∈ (0, 1) probe order.
    """
    values_only = {
        path: payload
        # repro: allow[REPRO001] hot path: delivered's insertion order is
        # the deterministic flood-processing order, preserved verbatim.
        for path, payload in delivered.items()
        if isinstance(payload, ValuePayload)
    }
    payload = reliable_payload(
        graph, f, me, values_only, origin, oracle=oracle, metrics=metrics,
        path_mask=path_mask,
    )
    return payload.value if isinstance(payload, ValuePayload) else None


def _internal_masks(
    graph: Graph,
    paths: List[PathTuple],
    origin: Hashable,
    me: Hashable,
    path_mask: Optional[Callable[[PathTuple], int]],
) -> List[int]:
    """Internal-node bitmasks for a group of ``origin→me`` paths.

    With a ``path_mask`` lookup (the flood's full-path visited masks)
    this is two bit-clears per path; otherwise the masks are rebuilt
    from the index, which raises ``KeyError`` on a label outside the
    graph (a flood never delivers one: rule (i) drops it).
    """
    index = graph.node_index()
    if path_mask is None:
        return [index.mask_of(p[1:-1]) for p in paths]
    ends = index.bit(origin) | index.bit(me)
    return [path_mask(p) & ~ends for p in paths]


def reliable_payload(
    graph: Graph,
    f: int,
    me: Hashable,
    delivered: Dict[PathTuple, object],
    origin: Hashable,
    oracle: Optional[PathOracle] = None,
    metrics: object = NULL_METRICS,
    path_mask: Optional[Callable[[PathTuple], int]] = None,
) -> Optional[object]:
    """Definition C.1 generalized to arbitrary flood payloads.

    :func:`reliable_value` is specialized to phase-1 binary value floods;
    the asynchronous algorithm (:mod:`repro.consensus.async_alg`) needs
    the same certificate over votes and decisions too.  ``v`` reliably
    receives ``origin``'s flooded payload if (1) ``origin == v``, (2) the
    payload arrived on the direct edge, or (3) an *identical* payload
    arrived along ``f + 1`` internally node-disjoint ``origin→v`` paths.

    Single-valuedness (the property the asynchronous quorum logic leans
    on): under local broadcast at most one payload per origin can ever
    satisfy this anywhere — a second candidate needs ``f + 1`` disjoint
    evidence paths each containing its own faulty internal node, and
    there are at most ``f`` faults in total.

    ``oracle`` (optional) is consulted first with the memoized packing
    query ":math:`f + 1` node-disjoint paths from ``origin``'s neighbors
    to ``me`` avoiding ``origin`` internally" — a graph-level upper bound
    on any delivered packing.  When the graph itself cannot support the
    certificate, the per-payload search is skipped entirely, and the
    (shared) oracle answers from cache for every instance asking about
    the same origin.
    """
    metrics.inc("reliable.queries")
    if origin == me:
        return delivered.get((me,))
    direct = delivered.get((origin, me))
    if direct is not None:
        metrics.inc("reliable.direct_receipts")
        return direct
    groups: Dict[object, List[PathTuple]] = {}
    # repro: allow[REPRO001] hot path: delivered's insertion order is the
    # deterministic flood-processing order, and the payload loop below
    # sorts `groups` by repr before any order-sensitive use.
    for path, payload in delivered.items():
        if len(path) >= 3 and path[0] == origin:
            groups.setdefault(payload, []).append(path)
    if not groups:
        return None
    if oracle is not None and me not in graph.neighbors(origin):
        feasible = oracle.disjoint_paths_excluding(
            graph.neighbors(origin), me, frozenset((origin,)), f + 1
        )
        if feasible is None:
            # Every per-payload packing check below would have run and
            # failed — the count saved by the graph-level precheck.
            metrics.inc("reliable.precheck_saved", len(groups))
            return None
    for payload in sorted(groups, key=repr):
        metrics.inc("reliable.packing_checks")
        # Disjointness runs over internal-node bitmasks: two paths
        # conflict iff mask_a & mask_b != 0.
        masks = _internal_masks(graph, groups[payload], origin, me, path_mask)
        if has_disjoint_mask_packing(masks, f + 1):
            return payload
    return None


class ReceiptTracker:
    """Incremental Definition C.1 over one flood instance.

    The asynchronous algorithm re-asks :func:`reliable_payload` for
    every still-unresolved origin after *every* round with accepted
    traffic, but a verdict can only change when that origin's delivered
    path set grows.  The tracker keys each cached verdict on the flood's
    per-origin delivery count (the path set only ever grows, so an equal
    count means an identical per-origin view) and skips the whole
    certificate when nothing changed — counting the skip under
    ``reliable.dirty_skips``.  Because the cached result is exactly what
    a fresh call would return, decisions and round counts are unchanged;
    only redundant packing work disappears.

    The skip path returns the *cached* verdict rather than ``None``:
    a non-``None`` payload may still be type-rejected by the caller,
    which will legitimately ask again without new deliveries.
    """

    def __init__(
        self,
        graph: Graph,
        f: int,
        me: Hashable,
        flood,
        oracle: Optional[PathOracle] = None,
    ):
        self.graph = graph
        self.f = f
        self.me = me
        self.flood = flood
        self.oracle = oracle
        self._versions: Dict[Hashable, int] = {}
        self._last: Dict[Hashable, Optional[object]] = {}

    def payload_from(
        self, origin: Hashable, metrics: object = NULL_METRICS
    ) -> Optional[object]:
        """Cached-or-fresh :func:`reliable_payload` for ``origin``."""
        count = self.flood.origin_count(origin)
        if origin in self._last and self._versions[origin] == count:
            metrics.inc("reliable.dirty_skips")
            return self._last[origin]
        result = reliable_payload(
            self.graph,
            self.f,
            self.me,
            self.flood.origin_view(origin),
            origin,
            oracle=self.oracle,
            metrics=metrics,
            path_mask=self.flood.path_mask,
        )
        self._versions[origin] = count
        self._last[origin] = result
        return result


class ClaimIndex:
    """Reliable knowledge about *other nodes' transmissions*, from bundles.

    Built once per node after phase 2 from the flood's ``delivered``
    map as it is.  A subject ``z`` that ``me`` hears is read from
    ``me``'s own report, the bundle the flood keeps at the trivial path
    ``(me,)``: under local broadcast that report *is* the direct
    observation.  For any other ``z``, evidence is a composite simple
    path ``(z, reporter, …, me)``: the bundle of ``reporter`` (a
    neighbor of ``z``) carried ``z``'s claimed transcript to ``me``
    along the flood path ``reporter … me``, and ``f + 1`` internally
    node-disjoint composite paths must agree.  Claims about ``me`` or a
    subject it hears are never read, so they are never stored: on a
    wheel the hub keeps no claim evidence at all.  The index answers
    nothing about ``me`` itself (:func:`detect_faults` never suspects
    it): ``send_table(me)`` is ``None`` and ``reliably_transmitted(me,
    …)`` is ``False``.

    Transcripts are interned by value into *evidence groups* (an own
    report's entry gets a group of its own); a group's messages are
    looked up through the :class:`SendTable` kept on the bundle entry it
    was read from (:meth:`ReportBundle.send_table`): the own report's
    entry, or the entry a claim was first seen in.  Every node holding
    that bundle object shares one table, the reporter included.
    Honest forwarders relay one bundle object, so
    most entries repeat a transcript object already interned: those are
    found by identity, and a transcript tuple is compared or hashed only
    the first time its object is seen.  Equal copies (a Byzantine
    re-encoding) still merge into one group.  Each distinct bundle
    object's usable entries are resolved to ``(subject, bit, group)``
    once, however many paths delivered it, and the "subject on path"
    test is a bit test against the delivered path's node mask.

    ``path_mask`` gives that mask; it defaults to
    :meth:`~repro.graphs.index.NodeIndex.mask_of`, which raises
    ``KeyError`` on a label outside the graph (a flood never delivers
    one: rule (i) drops it).  Algorithm 2 passes the flood's masks: a
    dict read instead of a bit sum.  An entry about a subject outside
    the graph is skipped like any other unattestable entry.
    """

    def __init__(
        self,
        graph: Graph,
        f: int,
        me: Hashable,
        bundle_deliveries: Dict[PathTuple, ReportBundle],
        path_mask: Optional[Callable[[PathTuple], int]] = None,
    ):
        self.graph = graph
        self.f = f
        self.me = me
        # evidence group -> its transcript, and the bundle entry that
        # holds its send table: the own report's entry for a subject
        # ``me`` hears, else the entry it was first claimed in
        self._transcripts: List[Transcript] = []
        self._sources: List[Tuple[ReportBundle, int]] = []
        # subject ``me`` hears -> the group of its own report's entry
        self._heard: Dict[Hashable, int] = {}
        # subject -> group -> flood paths ``reporter … me`` whose bundle
        # claimed that transcript; each composite path is (subject,) + path.
        self._evidence: Dict[Hashable, Dict[int, List[PathTuple]]] = {}
        # flood path -> internal-node bitmask of its composite paths,
        # the path minus ``me`` whatever the subject; the packing
        # currency of both certificates.
        self._path_masks: Dict[PathTuple, int] = {}
        self._known_group: Dict[Hashable, Optional[int]] = {}
        self._claim_cache: Dict[Tuple[Hashable, object], bool] = {}
        index = graph.node_index()
        if path_mask is None:
            path_mask = index.mask_of
        bits = index.bits
        me_bit = bits[me]
        hears = index.in_masks[index.index_of[me]]
        # ``me`` and the nodes it hears: subjects whose claims are
        # never read (see _reliable_group).
        observed = me_bit | hears
        neighbors = graph.neighbors
        transcripts = self._transcripts
        sources = self._sources
        evidence = self._evidence
        path_masks = self._path_masks
        # What ``me`` heard is its own report, which the flood keeps at
        # the trivial path: a group per entry, never merged with claims
        # (so never hashed), its table shared with every node the
        # report reached.
        own = bundle_deliveries.get((me,))
        if own is not None:
            for pos, (subject, transcript) in enumerate(own.entries):
                if bits.get(subject, 0) & hears:
                    self._heard[subject] = len(transcripts)
                    transcripts.append(transcript)
                    sources.append((own, pos))
        group_of: Dict[Transcript, int] = {}
        # Identity keys are valid only while their objects live: ``pinned``
        # holds every transcript and bundle whose id() is a key, so none
        # is reused.
        group_of_id: Dict[int, int] = {}
        entries_of_id: Dict[int, List[Tuple[Hashable, int, int]]] = {}
        pinned: List[object] = []
        # repro: allow[REPRO001] bundle_deliveries preserves the
        # deterministic flood-processing insertion order; the evidence
        # lists built here feed packing-existence checks only.
        for path, bundle in bundle_deliveries.items():
            reporter = path[0]
            if bundle.reporter != reporter:
                continue  # malformed: claimed reporter must be the flood origin
            # A bundle's usable entries depend on the bundle alone (its
            # reporter is pinned to the path origin above): resolved
            # once per bundle object, not once per delivered path.
            entries = entries_of_id.get(id(bundle))
            if entries is None:
                entries = entries_of_id[id(bundle)] = []
                pinned.append(bundle)
                for pos, (subject, transcript) in enumerate(bundle.entries):
                    bit = bits.get(subject)
                    if bit is None or bit & observed:
                        continue  # outside the graph, or observed directly
                    if reporter not in neighbors(subject):
                        continue  # a reporter can only attest about its neighbors
                    group = group_of_id.get(id(transcript))
                    if group is None:
                        # Reporters that heard the same broadcasts hold
                        # equal tuples over the *same* message objects:
                        # comparing with the subject's first claim settles
                        # those by identity, far cheaper than hashing the
                        # tuple through every message.
                        claimed = evidence.get(subject)
                        group = next(iter(claimed)) if claimed else None
                        if group is None or transcripts[group] != transcript:
                            group = group_of.setdefault(transcript, len(transcripts))
                            if group == len(transcripts):
                                transcripts.append(transcript)
                                sources.append((bundle, pos))
                        group_of_id[id(transcript)] = group
                        pinned.append(transcript)
                    entries.append((subject, bit, group))
            on_path = path_mask(path)
            path_masks[path] = on_path & ~me_bit
            for subject, bit, group in entries:
                if on_path & bit:
                    continue  # composite path (subject,)+path must stay simple
                evidence.setdefault(subject, {}).setdefault(group, []).append(path)

    # ------------------------------------------------------------------
    def _table(self, group: int) -> SendTable:
        bundle, pos = self._sources[group]
        return bundle.send_table(pos)

    def _packs(self, paths: List[PathTuple]) -> bool:
        """``f + 1`` internally node-disjoint composite paths among
        ``(subject,) + p`` for ``p`` in ``paths``?  Mask packing over
        the masks computed at build time."""
        path_masks = self._path_masks
        return has_disjoint_mask_packing(
            [path_masks[p] for p in paths], self.f + 1
        )

    def _reliable_group(self, subject: Hashable) -> Optional[int]:
        """Evidence group of ``subject``'s reliably known transcript."""
        if subject in self._known_group:
            return self._known_group[subject]
        group = self._heard.get(subject)
        if group is None:
            # repro: allow[REPRO001] insertion order is deterministic and
            # at most one transcript can ever pass the f+1 disjoint-path
            # certificate (single-valuedness), so order cannot matter.
            for candidate, paths in self._evidence.get(subject, {}).items():
                if self._packs(paths):
                    group = candidate
                    break
        self._known_group[subject] = group
        return group

    # ------------------------------------------------------------------
    def reliable_transcript(self, subject: Hashable) -> Optional[Transcript]:
        """The complete timed phase-1 transcript of ``subject`` if
        reliably known, else ``None``.  Unique when it exists (a second
        candidate would need f + 1 disjoint fabricated evidence paths)."""
        group = self._reliable_group(subject)
        return None if group is None else self._transcripts[group]

    def send_table(self, subject: Hashable) -> Optional[SendTable]:
        """The :class:`SendTable` of :meth:`reliable_transcript` of
        ``subject``, or ``None`` when no transcript is reliably known."""
        group = self._reliable_group(subject)
        return None if group is None else self._table(group)

    def reliably_transmitted(self, subject: Hashable, message: object) -> bool:
        """Did ``me`` reliably learn that ``subject`` transmitted
        ``message`` at *some* round?

        Direct observation wins; otherwise ``f + 1`` disjoint composite
        paths whose claimed transcripts *contain* the message suffice
        (the claims may disagree elsewhere — containment is per-message).
        """
        key = (subject, message)
        if key in self._claim_cache:
            return self._claim_cache[key]
        heard = self._heard.get(subject)
        if heard is not None:
            result = message in self._table(heard).rounds
        else:
            paths = [
                p
                # repro: allow[REPRO001] deterministic insertion order; the
                # consumer only checks packing *existence*.
                for group, plist in self._evidence.get(subject, {}).items()
                if message in self._table(group).rounds
                for p in plist
            ]
            result = self._packs(paths)
        self._claim_cache[key] = result
        return result


def detect_faults(
    graph: Graph,
    f: int,
    me: Hashable,
    reliable_values: Dict[Hashable, int],
    claims: ClaimIndex,
    phase1_tag: Hashable,
    first_round: int = 1,
    oracle: Optional[PathOracle] = None,
) -> set[Hashable]:
    """Phase-2 fault localization (Algorithm 2, phase 2).

    For every origin ``w`` whose value ``b`` was reliably received and
    every other node ``u``, walk ``2f`` node-disjoint ``wu``-paths; along
    each path, the first internal node ``z`` that *provably misbehaved on
    this path's slot* is marked faulty.  Misbehavior of ``z`` at position
    ``idx`` (prefix ``Π = P[:idx]``) is one of

    * a reliably received claim that ``z`` transmitted ``(b̄, Π)`` at any
      time (the tampering case of the paper's pseudocode);
    * a reliably known complete transcript of ``z`` that contains a
      *forward* (non-empty path) in the initiation round — nothing has
      arrived yet, so an honest node physically cannot forward there.
      This is how an early fabricator is caught (see below);
    * a reliably known complete transcript of ``z`` with no transmission
      of ``(b, Π)`` **by** its schedule round ``first_round + idx`` (the
      silent-drop/late-forward case; the paper's "tampers the message"
      read operationally — Lemma C.2 makes a faulty node's full
      transcript reliably known, so omissions are visible).

    The deadline is "by", not "at": a faulty upstream node can fabricate
    ``(b, Π')`` *before* its own schedule slot, and an honest ``z``
    that accepts the early copy forwards it early — rule (ii) then
    swallows the on-schedule duplicate, so ``z``'s transcript carries
    the forward ahead of schedule.  Demanding the exact round would
    blame the honest victim (a real falsified run: C4, f = 1, a random
    adversary fabricating its neighbor's initiation in round 1 — two
    honest nodes each "detected" two faults and disagreed).  The early
    fabricator itself is caught by the initiation-round check, which
    shadows its downstream victims.

    Soundness: the first deviator on a path is necessarily faulty —
    honest nodes forward exactly what they accept, no later than the
    all-honest schedule and never in the initiation round; false claims
    about honest nodes are never reliably received; and honest
    omissions occur only downstream of an earlier (faulty) deviator,
    which is detected first and shadows them.

    The walk order — per target ``u`` in ``repr`` order, the first
    ``2f`` paths of the ``repr``-sorted disjoint family, each split
    into its ``(z, slot, prefix, idx)`` steps — is a pure function of
    the static graph and ``w``: a shared
    :class:`~repro.consensus.path_oracle.PathOracle` serves it as a
    per-origin localization plan built once per oracle; without one, a
    private oracle builds the plans for this call only.  Both transcript
    checks read ``z``'s :class:`SendTable` from ``claims``: the first
    send round of ``(b, Π)`` and the earliest ``phase1_tag`` forward.
    That table lives on a report bundle (the node's own for a subject it
    hears), so it is built once per bundle entry, not once per node.
    """
    detected: set[Hashable] = set()
    if oracle is None:
        oracle = PathOracle(graph)  # plans for this call only
    for w in sorted(reliable_values, key=repr):
        b = reliable_values[w]
        wrong = ValuePayload(1 - b)
        right = ValuePayload(b)
        # A slot's verdict depends only on the slot path[:idx + 1] (z and
        # the prefix before it), and the path families towards different
        # targets u share prefixes: each slot is judged once per origin.
        verdicts: Dict[PathTuple, bool] = {}
        for steps in oracle.localization_plan(w, 2 * f):
            for z, slot, prefix, idx in steps:
                if z == me:
                    continue  # a node never suspects itself
                suspicious = verdicts.get(slot)
                if suspicious is None:
                    suspicious = claims.reliably_transmitted(
                        z, FloodMessage(phase1_tag, wrong, prefix)
                    )
                    if not suspicious:
                        table = claims.send_table(z)
                        if table is not None:
                            first = table.rounds.get(
                                FloodMessage(phase1_tag, right, prefix)
                            )
                            early = table.forwards.get(phase1_tag)
                            suspicious = (
                                first is None
                                or first > first_round + idx
                                or (early is not None and early <= first_round)
                            )
                    verdicts[slot] = suspicious
                if suspicious:
                    detected.add(z)
                    break  # only the first such node on this path
    return detected
