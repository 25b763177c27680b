"""Native asynchronous consensus (arXiv:1909.02865 reproduction).

The fixed-round algorithms survive asynchrony only through the
α-synchronizer (:mod:`repro.consensus.synchronizer`), which either needs
the scheduler's delay bound (alpha mode) or a marker handshake (ack
mode).  The companion paper *Asynchronous Byzantine Consensus on
Undirected Graphs under Local Broadcast Model* (arXiv:1909.02865) builds
consensus natively for asynchronous timing: **no round schedule and no
delay bound anywhere in the protocol** — every state transition is
driven by messages (plus an adaptive local patience counter that gates
*when* to vote, never *what* is safe).  This module reproduces that
regime (feasibility clauses:
:func:`~repro.consensus.conditions.check_async_local_broadcast` —
``n ≥ 3f + 1``, connectivity ``≥ 2f + 1``, degree ``≥ ⌊3f/2⌋ + 1``).

Structure — three message-driven layers, all running over the paper's
path-annotated flooding (:class:`~repro.consensus.flooding
.FloodInstance`, rules (i)–(iv)) and reliable receipt
(:func:`~repro.consensus.reliable.reliable_payload`, Definition C.1):

1. **Value layer.**  Every node floods its input.  Under local broadcast
   with at most ``f`` faults the flood + reliable-receipt pair is an
   asynchronous *Byzantine reliable broadcast* per origin:

   * *single-valuedness* — at most one payload per origin can ever be
     reliably received anywhere: the origin cannot equivocate (all
     neighbors hear the same transmissions in the same per-link FIFO
     order, so rule (ii) locks the same first message network-wide), and
     a fabricated alternative needs ``f + 1`` disjoint evidence paths
     each containing its own faulty internal node — more faults than
     exist;
   * *totality* — with connectivity ``≥ 2f + 1``, any payload reliably
     received by one honest node is eventually reliably received by all:
     a reliable receipt implies the origin really broadcast it, so its
     honest neighbors hold it, and ``2f + 1`` disjoint paths minus at
     most ``f`` fault-crossing ones leave ``f + 1`` all-honest families
     that deliver with no deadline.

2. **Vote layer.**  Votes are flooded values too, so they inherit both
   properties; every node therefore observes a growing *subset of one
   global, conflict-free vote table*.  A node casts vote round 1 when
   its reliable-value table is complete (``= n``, immediately) or has at
   least ``n − f`` entries and its patience ran out; the vote is the
   majority (ties → 0) of the table.  It casts round ``r + 1`` after
   collecting round-``r`` votes the same way.  **Decision**: any round
   whose collected votes show ``n − f`` agreeing ballots.  Safety is
   unconditional (any scheduling whatsoever): a ``b``-quorum at round
   ``r`` leaves at most ``f`` possible ``r``-votes for ``b̄`` globally,
   and with ``n ≥ 3f + 1`` every later majority step re-elects ``b`` —
   so no conflicting quorum can ever assemble.  Termination needs only
   eventual delivery: the vote tables are monotone, so once one honest
   node's quorum exists, every honest node eventually sees the same
   quorum.

3. **Decision layer.**  Deciders flood a decision certificate; a node
   adopts ``b`` on certificates from ``f + 1`` distinct origins (at
   least one honest).  This only accelerates the vote layer's own
   convergence.

What the asynchrony costs (and FLP): deterministic asynchronous *exact*
consensus cannot terminate against an adaptive scheduler (FLP); this
algorithm pays that bill entirely on the liveness side — the adaptive
patience counter is a partial-synchrony concession that never enters any
safety argument.  Under every scheduler in this library (eventual
delivery, oblivious timing) all battery scenarios decide; see
``benchmarks/bench_async_native.py``.

The oracle wiring: every reliable-receipt certificate check first asks
the shared :class:`~repro.consensus.path_oracle.PathOracle` whether the
graph even supports ``f + 1`` disjoint paths from the origin's neighbors
(memoized across all instances on the graph), then packs the actually
delivered paths.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from ..graphs import Graph
from ..net.messages import DecisionPayload, FloodMessage, ValuePayload, VotePayload
from ..net.node import Context, Protocol
from ..obs import NULL_METRICS
from .algorithm2 import majority
from .flooding import FloodInstance
from .path_oracle import PathOracle
from .reliable import ReceiptTracker

#: Flood phase tags.  Vote rounds each get their own tag (and therefore
#: their own rule-(ii) slot space): ``("async", "vote", r)``.
VALUES_PHASE = ("async", "values")
DECIDE_PHASE = ("async", "decide")


def vote_phase(round_no: int) -> Tuple[str, str, int]:
    """The flood phase tag of vote round ``round_no``."""
    return ("async", "vote", round_no)


class AsyncConsensusProtocol(Protocol):
    """Message-driven exact consensus; no rounds, no delay bound.

    The engine still activates the protocol once per virtual tick, but
    the activation count carries no meaning: state changes only on
    arrivals, on quorum predicates over what has arrived, and on the
    adaptive patience counter (whose expiry gates optional votes, never
    correctness).  ``total_rounds`` is ``None`` — the runner's
    message-driven accounting (``budget_hint`` + quiescence detection)
    takes over.
    """

    #: Tells the runner this protocol has no round schedule: budget by
    #: ``budget_hint`` ticks and stop early on network quiescence.
    message_driven = True
    total_rounds: Optional[int] = None

    def __init__(
        self,
        graph: Graph,
        node: Hashable,
        f: int,
        input_value: int,
        oracle: Optional[PathOracle] = None,
        patience: Optional[int] = None,
    ):
        if input_value not in (0, 1):
            raise ValueError("binary input expected")
        if f < 0:
            raise ValueError("f must be non-negative")
        if oracle is not None and oracle.graph != graph:
            raise ValueError("oracle was built for a different graph")
        self.graph = graph
        self.me = node
        self.f = f
        self.input_value = input_value
        self.n = graph.n
        #: A decision cites this many agreeing single-valued votes.
        self.quorum = self.n - f
        #: Distinct decision certificates needed to adopt (≥ 1 honest).
        self.adopt_threshold = f + 1
        self.oracle = oracle if oracle is not None else PathOracle(graph)
        #: Ticks of local silence before an optional vote fires.  Doubles
        #: after every use (adaptive: eventually exceeds any actual —
        #: unknown — delay).  Purely a liveness knob.
        self.patience = patience if patience is not None else self.n + 2
        self._patience_now = self.patience
        #: Soft tick envelope for the runner (unit-delay denominated):
        #: value flood + a few vote rounds + patience windows, with slack.
        self.budget_hint = 16 * self.n + 8 * self.patience
        #: Byzantine vote-round spam guard: rounds beyond this are
        #: ignored (honest rounds stay tiny — each needs a fresh quorum).
        self._round_cap = 8 * max(self.n, 4)

        self._values = FloodInstance(
            graph, node, VALUES_PHASE, default_payload=None,
            validator=self._valid_value,
        )
        self._votes: Dict[int, FloodInstance] = {}
        self._decides = FloodInstance(
            graph, node, DECIDE_PHASE, default_payload=None,
            validator=self._valid_decision,
        )
        # Incremental Definition C.1 per flood: the refresh loops re-ask
        # about every unresolved origin after each productive round, and
        # the trackers skip origins whose delivered path set didn't grow
        # (verdicts are a pure function of the per-origin view, so the
        # tables below are unchanged — only redundant packing work goes).
        self._values_receipt = ReceiptTracker(
            graph, f, node, self._values, oracle=self.oracle
        )
        self._votes_receipt: Dict[int, ReceiptTracker] = {}
        self._decides_receipt = ReceiptTracker(
            graph, f, node, self._decides, oracle=self.oracle
        )
        #: origin → reliably received input value (monotone, and by
        #: single-valuedness a subset of one global table).
        self.reliable_values: Dict[Hashable, int] = {}
        #: vote round → origin → reliably received ballot.
        self.vote_tallies: Dict[int, Dict[Hashable, int]] = {}
        #: origin → reliably received decision certificate value.
        self.decisions_seen: Dict[Hashable, int] = {}
        #: Vote rounds this node has cast (round → ballot).
        self.votes_cast: Dict[int, int] = {}
        self.vote_round = 0  # last vote round cast
        self._output: Optional[int] = None
        self._started = False
        self._last_progress = 0
        # Observability: cached per activation (the refresh/decide
        # helpers run without a context).  Spans are anchored to the
        # virtual clock — ticks, never wall time.
        self._metrics = NULL_METRICS
        self._now = 0
        self._start_tick = 0
        self._last_vote_tick = 0

    # ------------------------------------------------------------------
    def on_round(self, ctx: Context) -> None:
        now = ctx.virtual_now
        self._metrics = ctx.metrics
        self._now = now
        progressed = False
        if not self._started:
            self._started = True
            self._start_tick = now
            self._last_vote_tick = now
            self._values.initiate(ctx, ValuePayload(self.input_value))
            self._last_progress = now
            progressed = True
        self._open_vote_instances(ctx)
        if self._values.process_round(ctx):
            progressed = True
            self._refresh_values()
        for r in sorted(self._votes):
            if self._votes[r].process_round(ctx):
                progressed = True
                self._refresh_votes(r)
        if self._decides.process_round(ctx):
            progressed = True
            self._refresh_decisions()
        if progressed:
            self._last_progress = now
        if self._output is None:
            self._maybe_decide(ctx)
        if self._output is None and self._maybe_vote(ctx, now):
            self._maybe_decide(ctx)

    def output(self) -> Optional[int]:
        return self._output

    @property
    def armed(self) -> bool:
        """Whether a patience expiry can still change this node's state.

        ``False`` + an undecided output + a quiescent network = the run
        is genuinely stuck (the runner reports ``"stalled"`` instead of
        burning the whole tick budget).
        """
        if self._output is not None:
            return False
        if self.vote_round == 0:
            return len(self.reliable_values) >= self.quorum
        return len(self.vote_tallies.get(self.vote_round, {})) >= self.quorum

    # ------------------------------------------------------------------
    # flood plumbing
    # ------------------------------------------------------------------
    # Static validators: a flood holding a bound method would hold its
    # protocol in a reference cycle.
    @staticmethod
    def _valid_value(payload, full_path) -> bool:
        return isinstance(payload, ValuePayload)

    @staticmethod
    def _valid_decision(payload, full_path) -> bool:
        return isinstance(payload, DecisionPayload) and payload.value in (0, 1)

    def _vote_instance(self, round_no: int) -> FloodInstance:
        def _valid_vote(payload, full_path) -> bool:
            return isinstance(payload, VotePayload) and payload.round_no == round_no

        return FloodInstance(
            self.graph, self.me, vote_phase(round_no),
            default_payload=None, validator=_valid_vote,
        )

    def _open_vote_instances(self, ctx: Context) -> None:
        """Start forwarding vote rounds first seen in this inbox."""
        for _sender, message in ctx.inbox:
            if not isinstance(message, FloodMessage):
                continue
            phase = message.phase
            if (
                isinstance(phase, tuple)
                and len(phase) == 3
                and phase[:2] == ("async", "vote")
                and isinstance(phase[2], int)
                and 1 <= phase[2] <= self._round_cap
                and phase[2] not in self._votes
            ):
                self._votes[phase[2]] = self._vote_instance(phase[2])

    # ------------------------------------------------------------------
    # reliable-receipt tables (monotone; at most one entry per origin)
    # ------------------------------------------------------------------
    def _refresh_values(self) -> None:
        for origin in sorted(self.graph.nodes - self.reliable_values.keys(), key=repr):
            payload = self._values_receipt.payload_from(
                origin, metrics=self._metrics
            )
            if isinstance(payload, ValuePayload):
                self.reliable_values[origin] = payload.value
                # Per-origin flood latency: protocol start to the tick
                # this node reliably received the origin's value.
                self._metrics.span(
                    "async.flood", self._start_tick, self._now,
                    node=self.me, origin=origin,
                )

    def _refresh_votes(self, round_no: int) -> None:
        tally = self.vote_tallies.setdefault(round_no, {})
        tracker = self._votes_receipt.get(round_no)
        if tracker is None:
            tracker = self._votes_receipt[round_no] = ReceiptTracker(
                self.graph, self.f, self.me, self._votes[round_no],
                oracle=self.oracle,
            )
        for origin in sorted(self.graph.nodes - tally.keys(), key=repr):
            payload = tracker.payload_from(origin, metrics=self._metrics)
            if isinstance(payload, VotePayload):
                tally[origin] = payload.value

    def _refresh_decisions(self) -> None:
        for origin in sorted(self.graph.nodes - self.decisions_seen.keys(), key=repr):
            payload = self._decides_receipt.payload_from(
                origin, metrics=self._metrics
            )
            if isinstance(payload, DecisionPayload):
                self.decisions_seen[origin] = payload.value

    # ------------------------------------------------------------------
    # quorum logic
    # ------------------------------------------------------------------
    def _maybe_decide(self, ctx: Context) -> None:
        for b in (0, 1):
            if sum(1 for v in self.decisions_seen.values() if v == b) >= (
                self.adopt_threshold
            ):
                self._decide(ctx, b)
                return
        for r in sorted(self.vote_tallies):
            tally = self.vote_tallies[r]
            for b in (0, 1):
                if sum(1 for v in tally.values() if v == b) >= self.quorum:
                    self._decide(ctx, b)
                    return

    def _decide(self, ctx: Context, value: int) -> None:
        self._output = value
        # End-to-end decision latency for this node, in virtual ticks.
        self._metrics.span(
            "async.decide", self._start_tick, self._now,
            node=self.me, value=value,
        )
        self._decides.initiate(ctx, DecisionPayload(value))
        self._refresh_decisions()

    def _maybe_vote(self, ctx: Context, now: int) -> bool:
        """Cast the next vote if its trigger holds.  Returns True on cast.

        Both triggers per round: the *complete* table (all ``n`` origins
        accounted for — fires immediately, and is the only trigger that
        fires in fault-free runs, which is what makes the fault-free
        decision equal the synchronous majority) and the *patient
        quorum* (``≥ n − f`` entries and nothing new for a patience
        window — the escape hatch a silent fault forces).
        """
        if self.vote_round == 0:
            table: Dict[Hashable, int] = self.reliable_values
        else:
            table = self.vote_tallies.get(self.vote_round, {})
        if len(table) == self.n:
            self._cast_vote(ctx, now, majority(sorted(table.values())))
            return True
        if len(table) >= self.quorum and self._quiet(now):
            self._patience_now *= 2
            self._metrics.inc("async.patience_restarts")
            self._cast_vote(ctx, now, majority(sorted(table.values())))
            return True
        return False

    def _cast_vote(self, ctx: Context, now: int, ballot: int) -> None:
        self.vote_round += 1
        r = self.vote_round
        self.votes_cast[r] = ballot
        # Per-round vote latency: from the previous cast (or protocol
        # start) to this one.
        self._metrics.span(
            "async.vote", self._last_vote_tick, now, node=self.me, round=r
        )
        self._last_vote_tick = now
        self._metrics.inc("async.votes_cast", round=r)
        if r not in self._votes:
            self._votes[r] = self._vote_instance(r)
        self._votes[r].initiate(ctx, VotePayload(r, ballot))
        self._refresh_votes(r)
        self._last_progress = now  # a fresh round restarts the quiet clock

    def _quiet(self, now: int) -> bool:
        return now - self._last_progress >= self._patience_now

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<AsyncConsensusProtocol me={self.me!r} f={self.f} "
            f"|values|={len(self.reliable_values)} round={self.vote_round} "
            f"output={self._output!r}>"
        )
