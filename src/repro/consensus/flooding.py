"""Path-annotated flooding with the paper's acceptance rules (i)–(iv).

Section 5.1 describes flooding of a value ``γ_v``: the originator
broadcasts ``(γ_v, ⊥)``; a node ``v`` receiving ``(b, Π)`` from neighbor
``u``

  (i)   discards it if ``Π - u`` is not a path of ``G``;
  (ii)  discards it if some ``(b', Π)`` was already received from ``u``
        this phase — under local broadcast every neighbor of ``u`` sees
        the same transmissions in the same order, so all correct
        neighbors lock in the *same* first message per ``(u, Π)`` slot:
        this is what makes equivocation impossible;
  (iii) discards it if ``v`` already appears on ``Π`` (bounds flooding
        to ``n`` rounds);
  (iv)  otherwise **accepts** it — ``v`` has received ``b`` along the
        path ``Π - u`` — and forwards ``(b, Π - u)``.

A missing initiation from a neighbor is substituted with the default
message ``(1, ⊥)``, so even a silent faulty node effectively floods a
value.  The substitutes are synthetic inbox entries run through the very
same rules, so there is exactly one place the rules are applied:
:meth:`FloodInstance._accept_all`.

This module packages those rules as :class:`FloodInstance` — one
per-node, per-phase state machine used by Algorithms 1, 2 and 3 (the
payload is a value for step (a) floods, a report bundle or a decision for
Algorithm 2's later phases).  Delivered values are recorded **per full
path ending at the local node**: accepting ``(b, Π)`` from ``u`` records
``delivered[Π + (u, me)] = b``, which is exactly the shape steps (b) and
(c) consume ("the value received from ``u`` along ``P_uv``").

Internally the rules run on the graph's canonical
:class:`~repro.graphs.index.NodeIndex`: each path's visited set is a
plain-int bitmask carried alongside the tuple, so rule (i) is an
adjacency-bit test, rule (iii) a single ``mask & me_bit``, and rule (ii)
keys on ``(sender, Π)`` packed injectively into one integer.  Per-``Π``
walk results are memoized (the same annotation arrives once per sender),
``delivered`` is mirrored into a per-origin sub-index at accept time so
:meth:`origin_view` and the reliable-receipt layer stop scanning the
whole dict, and the full-path visited masks are retained for the
disjoint-path packing downstream.  None of this changes the external
shape: ``delivered`` insertion order, metric counts, and forwarded
traffic are byte-identical to the tuple-walking implementation
(property-tested against a legacy reference).
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Mapping, Optional, Tuple
from weakref import WeakKeyDictionary

from ..graphs import Graph
from ..net.messages import FloodMessage, Payload
from ..net.node import Context, Inbox
from ..obs import NULL_METRICS

PathTuple = Tuple[Hashable, ...]
Validator = Callable[[Payload, PathTuple], bool]
"""Optional payload filter: receives (payload, full path origin..sender)."""

#: Sentinel distinguishing "never walked" from a memoized invalid walk.
_UNWALKED = object()

#: Shared immutable empty mapping for origins with no deliveries.
_NO_PATHS: Dict[PathTuple, Payload] = {}

#: Per-registry memo of rendered metric-cell packs, keyed by phase tag.
#: Weak keys: packs die with their registry, so a sweep's per-run
#: registries never accumulate.
_CELL_PACKS: "WeakKeyDictionary[object, Dict[Hashable, tuple]]" = (
    WeakKeyDictionary()
)


class FloodInstance:
    """Per-node state for one flooding phase.

    Lifecycle, driven by the owning protocol once per round:

    1. round 1 of the phase — call :meth:`initiate` (and nothing else:
       the inbox cannot contain this phase's traffic yet);
    2. every later round — call :meth:`process_round`; on the first of
       those rounds the default-message substitution for silent
       in-neighbors runs automatically.

    ``delivered`` maps each full path ``(origin, ..., me)`` to the
    payload received along it.  The trivial own-path ``(me,)`` is filled
    by :meth:`initiate` ("node v is deemed to have received its own γ_v
    along path P_vv").
    """

    def __init__(
        self,
        graph: Graph,
        me: Hashable,
        phase: Hashable,
        default_payload: Optional[Payload] = None,
        validator: Optional[Validator] = None,
        enable_rule_ii: bool = True,
    ):
        self.graph = graph
        self.me = me
        self.phase = phase
        self.default_payload = default_payload
        self.validator = validator
        # Ablation hook: rule (ii) is the equivocation defense; the
        # ablation experiments disable it to show it is load-bearing.
        self.enable_rule_ii = enable_rule_ii
        self.delivered: Dict[PathTuple, Payload] = {}
        self._defaults_applied = False
        self._initiated = False
        # --- bitmask machinery (canonical node index) ------------------
        index = graph.node_index()
        self._index = index
        self._me_idx = index.index_of[me]
        self._me_bit = 1 << self._me_idx
        #: rule (ii) slots: ``(sender, Π)`` packed into one int — the
        #: order-faithful path encoding of ``Π + (sender,)``.
        self._seen: set[int] = set()
        #: memoized ``NodeIndex.walk`` results per received annotation Π
        #: (``None`` = known-invalid) — the index's shared per-graph
        #: memo, so annotations walked by any instance on this graph
        #: (any node, phase, or run) are never re-walked here.
        self._walks: Dict[PathTuple, object] = index.walk_memo
        #: full delivered path → visited-set bitmask (me included) —
        #: the packing currency of reliable receipt and step (c).
        self._masks: Dict[PathTuple, int] = {}
        #: origin → (full path → payload), same insertion order as
        #: ``delivered`` restricted to that origin.
        self._by_origin: Dict[Hashable, Dict[PathTuple, Payload]] = {}
        # --- pre-rendered metric cells (bound per registry) ------------
        self._cells_from: object = None
        self._bind_cells(NULL_METRICS)

    # ------------------------------------------------------------------
    def _bind_cells(self, metrics) -> None:
        """Render this phase's metric keys once per (registry, phase).

        Cells create no keys until first incremented, so binding is
        snapshot-neutral; the per-message rule path then skips the
        kwargs/sort/format work of ``inc`` entirely.  The cell pack is
        shared across all instances of the same phase on the same
        registry (every node of a run floods the same phases), so only
        the first instance pays the render cost.
        """
        if metrics is self._cells_from:
            return
        self._cells_from = metrics
        packs = _CELL_PACKS.get(metrics)
        if packs is None:
            packs = {}
            _CELL_PACKS[metrics] = packs
        phase = self.phase
        pack = packs.get(phase)
        if pack is None:
            pack = (
                metrics.counter_cell("flood.initiated", phase=phase),
                metrics.counter_cell("flood.accepted", phase=phase),
                metrics.counter_cell("flood.default_substituted", phase=phase),
                metrics.counter_cell("flood.rejected", phase=phase, rule="i"),
                metrics.counter_cell("flood.rejected", phase=phase, rule="ii"),
                metrics.counter_cell("flood.rejected", phase=phase, rule="iii"),
                metrics.counter_cell(
                    "flood.rejected", phase=phase, rule="validator"
                ),
                metrics.gauge_cell("flood.path_set.max", phase=phase),
            )
            packs[phase] = pack
        (
            self._c_initiated,
            self._c_accepted,
            self._c_default,
            self._c_rej_i,
            self._c_rej_ii,
            self._c_rej_iii,
            self._c_rej_validator,
            self._g_path_set,
        ) = pack

    # ------------------------------------------------------------------
    def initiate(self, ctx: Context, payload: Payload) -> None:
        """Round 1 of the phase: broadcast ``(payload, ⊥)``."""
        if ctx.metrics is not self._cells_from:
            self._bind_cells(ctx.metrics)
        self._initiated = True
        me = self.me
        self.delivered[(me,)] = payload
        self._masks[(me,)] = self._me_bit
        self._by_origin.setdefault(me, {})[(me,)] = payload
        ctx.broadcast(FloodMessage(self.phase, payload, ()))
        self._c_initiated()

    def process_round(self, ctx: Context) -> int:
        """Apply rules (i)–(iv) to this round's inbox; returns #accepted.

        Must be called on every round of the phase after the initiation
        round.  The first call then feeds one default initiation per
        in-neighbor (the nodes I hear: every neighbor on a
        :class:`Graph`) through the same rules, so rule (ii) drops each
        substitute whose ``(neighbor, ⊥)`` slot a real initiation holds.
        """
        if ctx.metrics is not self._cells_from:
            self._bind_cells(ctx.metrics)
        accepted = self._accept_all(ctx, ctx.inbox)
        if not self._defaults_applied:
            self._defaults_applied = True
            if self.default_payload is not None:
                substitute = FloodMessage(self.phase, self.default_payload, ())
                substituted = self._accept_all(
                    ctx,
                    [
                        (nbr, substitute)
                        for nbr in self.graph.sorted_in_neighbors(self.me)
                    ],
                )
                if substituted:
                    self._c_default(substituted)
                    accepted += substituted
        if accepted:
            # The path set only grows, so one high-water reading after
            # the round equals the per-accept maximum it replaces — and
            # the gauge key still appears only if something was accepted.
            self._g_path_set(len(self.delivered))
        return accepted

    def _accept_all(self, ctx: Context, entries: Inbox) -> int:
        """Rules (i)–(iv) over ``(sender, message)`` entries, in order.

        Returns the number accepted.  Every per-message lookup is hoisted
        to a local: this loop runs once per delivered message and
        dominates sweep time.

        Validity (rules (i), (iii), payload checks) runs *before* the
        duplicate rule (ii) marks the ``(sender, Π)`` slot: malformed
        traffic must not burn a slot, or a garbage "initiation" could
        suppress the default-message substitution that Lemma 5.3 needs.
        All neighbors of a sender hear the same transmissions in the same
        order, so this decision is identical everywhere.
        """
        phase = self.phase
        index = self._index
        index_of = index.index_of
        adj = index.adj_masks
        shift = index.shift
        walks = self._walks
        walk_fn = index.walk
        me = self.me
        me_bit = self._me_bit
        validator = self.validator
        rule_ii = self.enable_rule_ii
        seen = self._seen
        delivered = self.delivered
        masks = self._masks
        by_origin = self._by_origin
        outbox_append = ctx.outbox.append
        # C-level record construction: skips the NamedTuple's Python __new__.
        new_record = tuple.__new__
        accepted = rej_i = rej_ii = rej_iii = rej_validator = 0
        for sender, message in entries:
            if not isinstance(message, FloodMessage) or message.phase != phase:
                continue
            pi = message.path
            walk = walks.get(pi, _UNWALKED)
            if walk is _UNWALKED:
                walk = walk_fn(pi)
                walks[pi] = walk
            # Rule (i): Π - u must exist in G — Π itself is a simple
            # in-graph path, the sender extends it by one edge, and the
            # sender is not already on it.
            sender_idx = index_of.get(sender)
            if (
                walk is None
                or sender_idx is None
                or walk[0] >> sender_idx & 1
                or (walk[2] >= 0 and not adj[walk[2]] >> sender_idx & 1)
            ):
                rej_i += 1
                continue
            mask, packed, _last = walk
            # Rule (iii): Π must not already contain me.
            if mask & me_bit:
                rej_iii += 1
                continue
            extended = pi + (sender,)  # Π - u
            # Optional payload validation (e.g. report bundles must
            # originate at their claimed reporter).
            if validator is not None and not validator(
                message.payload, extended
            ):
                rej_validator += 1
                continue
            # Rule (ii): only the first well-formed message per
            # (sender, Π) slot is ever accepted — equivocation
            # prevention.  The slot key is the packed encoding of
            # Π + (sender,): injective over the exact node sequence, so
            # two distinct annotations sharing a node set (or a last
            # hop) never merge slots.
            if rule_ii:
                slot = (packed << shift) | (sender_idx + 1)
                if slot in seen:
                    rej_ii += 1
                    continue
                seen.add(slot)
            # Rule (iv): accept along Π - u (recorded as the uv-path
            # ending here) and forward (b, Π - u).
            payload = message.payload
            full = extended + (me,)
            delivered[full] = payload
            masks[full] = mask | (1 << sender_idx) | me_bit
            origin = extended[0]
            sub = by_origin.get(origin)
            if sub is None:
                sub = by_origin[origin] = {}
            sub[full] = payload
            outbox_append(
                (new_record(FloodMessage, (phase, payload, extended)), None)
            )
            accepted += 1
        # One batched fire per counter after the loop: a cell called with
        # ``n`` equals ``n`` unit calls, keys appear only when a rule
        # actually fired, and snapshots/merges sort keys — so batch order
        # is invisible to every observable surface.
        if accepted:
            self._c_accepted(accepted)
        if rej_i:
            self._c_rej_i(rej_i)
        if rej_ii:
            self._c_rej_ii(rej_ii)
        if rej_iii:
            self._c_rej_iii(rej_iii)
        if rej_validator:
            self._c_rej_validator(rej_validator)
        return accepted

    # ------------------------------------------------------------------
    # Read-side helpers used by steps (b)/(c) and Definition C.1
    # ------------------------------------------------------------------
    def origin_view(self, origin: Hashable) -> Mapping[PathTuple, Payload]:
        """Read-only view of one origin's deliveries (no copy).

        The live sub-index maintained at accept time: the same paths in
        the same insertion order as filtering ``delivered`` by origin,
        without the O(|delivered|) scan.  It is shared for speed on the
        hot read paths (reliable receipt, step (c)); callers must not
        mutate it.
        """
        return self._by_origin.get(origin, _NO_PATHS)

    def origin_count(self, origin: Hashable) -> int:
        """Number of delivered paths from ``origin`` — the version
        counter incremental receipt tracking keys on (the per-origin
        path set only ever grows)."""
        sub = self._by_origin.get(origin)
        return len(sub) if sub else 0

    def path_mask(self, path: PathTuple) -> int:
        """Visited-set bitmask of a delivered full path (me included)."""
        return self._masks[path]


def flood_rounds(graph: Graph) -> int:
    """Rounds a flood needs: paths have at most n nodes (rule (iii)), so
    every delivery lands within n - 1 forwarding hops; we budget n per
    the paper's statement that "flooding will end after n rounds"."""
    return graph.n
