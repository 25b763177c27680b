"""The synchronous round simulator.

Implements the system model of Section 3: a synchronous network over an
undirected graph of FIFO links where, under local broadcast, "a message
sent by any node is received identically and correctly by each of its
neighbors".

Each round proceeds in two half-steps, matching the paper's state-machine
formulation (Appendix A):

1. every node's protocol runs with the messages delivered this round and
   queues its sends;
2. all queued sends are delivered simultaneously into next round's
   inboxes (broadcasts to every neighbor, unicasts — where the channel
   model permits them — to their single target).

Determinism: nodes are stepped in sorted order and inboxes preserve
per-sender FIFO order, so a run is a pure function of (graph, protocols,
channel model, rounds).  Any randomness lives inside protocols/adversaries
behind explicit seeds.

:class:`SynchronousNetwork` is the fixed-timing special case of the
event-driven core in :mod:`repro.net.sched`: running the same protocols
on :class:`~repro.net.sched.EventDrivenNetwork` under the lockstep
scheduler produces a byte-identical trace (property-tested), while the
seeded and adversarial schedulers explore the asynchronous timings of
the follow-up paper (arXiv:1909.02865).

Trace levels: an engine built with ``record_messages=True`` (the
default) logs every send and every per-recipient delivery as records;
with ``record_messages=False`` it keeps counts only and builds no
per-message objects.  Protocols see identical inboxes and cause stamps
at both levels, so runs are identical.
"""

from __future__ import annotations

from typing import Dict, Hashable, Mapping, Optional

from ..graphs import Graph
from ..obs import NULL_METRICS, MetricsRegistry
from .channels import ChannelModel, local_broadcast_model
from .node import Context, Inbox, Protocol
from .trace import (
    CAUSE_DELIVERY,
    CAUSE_INPUT,
    CAUSE_TIMER,
    Decision,
    Delivery,
    Trace,
    Transmission,
)


class SimulationError(RuntimeError):
    """Raised when a run cannot proceed (missing protocols, bad config)."""


class NetworkEngine:
    """State and run loop shared by both simulation engines.

    :class:`SynchronousNetwork` and
    :class:`~repro.net.sched.EventDrivenNetwork` differ only in *when*
    a queued send reaches its recipients; everything else — protocol
    coverage validation, recipient resolution with channel enforcement,
    the ``run``/``run_until_decided`` loop, output collection — lives
    here so the two engines cannot drift apart (their trace equivalence
    under lockstep timing is a tested contract).  Subclasses implement
    :meth:`step`.

    ``record_messages`` picks the trace level (see
    :class:`~repro.net.trace.Trace`) once, at construction.
    """

    def __init__(
        self,
        graph: Graph,
        protocols: Mapping[Hashable, Protocol],
        channel: Optional[ChannelModel] = None,
        metrics: Optional[MetricsRegistry] = None,
        record_messages: bool = True,
    ):
        missing = graph.nodes - set(protocols)
        if missing:
            raise SimulationError(f"no protocol for nodes {sorted(missing, key=repr)}")
        extra = set(protocols) - graph.nodes
        if extra:
            raise SimulationError(f"protocols for unknown nodes {sorted(extra, key=repr)}")
        self.graph = graph
        self.protocols: Dict[Hashable, Protocol] = dict(protocols)
        self.channel = channel if channel is not None else local_broadcast_model()
        self.record_messages = record_messages
        self.trace = Trace(record_messages)
        self.round_no = 0
        self._order = sorted(graph.nodes, key=repr)
        self.metrics = metrics if metrics is not None else NULL_METRICS
        # Per-tick metric cells, rendered once per engine (cells create
        # no keys until first fired, so binding is snapshot-neutral).
        m = self.metrics
        self._c_ticks = m.counter_cell("net.ticks")
        self._c_deliveries = m.counter_cell("net.deliveries")
        self._c_transmissions = m.counter_cell("net.transmissions")
        self._c_quiescent = m.counter_cell("net.quiescent_ticks")
        self._h_deliveries_per_tick = m.hist_cell("net.deliveries_per_tick")
        self._g_in_flight = m.gauge_cell("net.in_flight.max")
        # Decision instants are part of the trace (the flight recorder's
        # blame analysis anchors on them).  A protocol that is already
        # decided at construction decided on its input alone, before any
        # communication — virtual time 0.
        self._undecided = set(self._order)
        for node in self._order:
            value = self.protocols[node].output()
            if value is not None:
                self._undecided.discard(node)
                self.trace.record_decision(
                    Decision(node, value, 0, CAUSE_INPUT, None)
                )

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance one round/tick.  Implemented by each engine."""
        raise NotImplementedError

    def _observe_tick(self, delivered: int, sent: int) -> None:
        """Per-tick network metrics, identical across both engines.

        ``delivered`` counts messages handed to inboxes this tick,
        ``sent`` the transmissions queued by it.  Both engines call
        this at the end of :meth:`step`, so under lockstep timing the
        full metric snapshots — not just the traces — are equal
        (property-tested).
        """
        m = self.metrics
        if not m.enabled:
            return
        in_flight = self.in_flight
        self._c_ticks()
        if delivered:
            self._c_deliveries(delivered)
        if sent:
            self._c_transmissions(sent)
        self._h_deliveries_per_tick(delivered)
        self._g_in_flight(in_flight)
        if delivered == 0 and sent == 0 and in_flight == 0:
            self._c_quiescent()
        if m.events is not None:
            m.emit(
                "tick",
                tick=self.round_no,
                deliveries=delivered,
                sends=sent,
                in_flight=in_flight,
            )

    def _resolve_recipients(
        self, node: Hashable, target: Optional[Hashable]
    ) -> tuple:
        """The realized delivery set of one send, channel-enforced.

        Defense in depth: :meth:`Context.send` already rejects unicasts
        from broadcast-restricted nodes, but a protocol appending to the
        outbox directly must not bypass the channel model either.
        """
        if target is None:
            return self.graph.sorted_neighbors(node)
        if not self.channel.may_unicast(node):
            raise SimulationError(
                f"node {node!r} attempted unicast under "
                f"{self.channel.kind} channel"
            )
        return (target,)

    # ------------------------------------------------------------------
    def run(self, rounds: int) -> Trace:
        """Run exactly ``rounds`` rounds (protocols may finish earlier)."""
        for _ in range(rounds):
            self.step()
        return self.trace

    def run_until_decided(self, max_rounds: int, honest: Optional[set] = None) -> Trace:
        """Run until every (honest) protocol reports ``finished``.

        Raises :class:`SimulationError` if ``max_rounds`` elapse first —
        termination violations surface as errors, not hangs.
        """
        watch = set(honest) if honest is not None else set(self.protocols)
        watched = [self.protocols[v] for v in sorted(watch, key=repr)]
        for _ in range(max_rounds):
            if all(p.finished for p in watched):
                return self.trace
            self.step()
        if all(p.finished for p in watched):
            return self.trace
        undecided = sorted(
            (v for v in watch if not self.protocols[v].finished), key=repr
        )
        raise SimulationError(
            f"nodes {undecided} undecided after {max_rounds} rounds"
        )

    # ------------------------------------------------------------------
    def outputs(self) -> Dict[Hashable, Optional[int]]:
        """Each node's current output (``None`` while undecided)."""
        return {v: self.protocols[v].output() for v in self._order}


class SynchronousNetwork(NetworkEngine):
    """Run a set of per-node protocols in lockstep on a graph."""

    def __init__(
        self,
        graph: Graph,
        protocols: Mapping[Hashable, Protocol],
        channel: Optional[ChannelModel] = None,
        metrics: Optional[MetricsRegistry] = None,
        record_messages: bool = True,
    ):
        super().__init__(graph, protocols, channel, metrics, record_messages)
        self._pending: Dict[Hashable, Inbox] = {v: [] for v in self._order}
        # Messages queued into ``_pending`` by the previous step — next
        # step's delivery count, carried instead of re-summed per round.
        self._pending_count = 0
        # The inbox dict drained two steps ago, recycled as the next
        # round's pending map.  Protocols must not keep inbox references
        # across rounds (the :class:`Context` contract), so the lists
        # are free for reuse once their round has run.
        self._spare: Dict[Hashable, Inbox] = {v: [] for v in self._order}
        # Per-recipient position (in the delivery sequence) of the last
        # delivery landing in next round's inbox — the primary
        # happened-before cause of whatever that activation emits.
        self._cause: Dict[Hashable, int] = {}

    @property
    def in_flight(self) -> int:
        """Messages queued for next round's inboxes (for quiescence checks).

        Mirrors :attr:`~repro.net.sched.EventDrivenNetwork.in_flight` so
        the runner's message-driven termination accounting works on both
        engines.  ``_pending`` is only ever filled inside :meth:`step`,
        which maintains the count — no re-summing per query.
        """
        return self._pending_count

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Execute one synchronous round.

        The loop bodies run once per message; everything reached per
        message is a hoisted local.  A recording engine appends its
        records to the trace lists directly; a counts-only one only
        fills the inboxes.  Either way the trace's counters are bumped
        once per round, at the end of the step.
        """
        self.round_no += 1
        round_no = self.round_no
        order = self._order
        pending = self._spare
        for inbox in pending.values():  # repro: allow[REPRO001] clearing is order-blind, and the dict is keyed in sorted node order anyway
            inbox.clear()
        inboxes, self._pending = self._pending, pending
        self._spare = inboxes
        delivered = self._pending_count
        graph, channel, metrics = self.graph, self.channel, self.metrics
        protocols = self.protocols
        observe_delay = metrics.hist_cell("sched.delay")
        trace = self.trace
        cause_now = self._cause
        self._cause = cause_next = {}
        undecided = self._undecided
        decisions = trace.decisions
        outboxes: list[tuple[Hashable, list, Optional[str], Optional[int]]] = []
        for node in order:
            # Positional construction: the record types are built once
            # per node/message on this loop, where kwarg binding is
            # measurable overhead.  Field order is part of their API.
            outbox: list = []
            ci = cause_now.get(node)
            ck = (
                CAUSE_DELIVERY
                if ci is not None
                else (CAUSE_INPUT if round_no == 1 else CAUSE_TIMER)
            )
            ctx = Context(
                node, graph, round_no, channel, inboxes[node], outbox,
                round_no, metrics, ck, ci,
            )
            protocols[node].on_round(ctx)
            if node in undecided:
                value = protocols[node].output()
                if value is not None:
                    undecided.discard(node)
                    decisions.append(Decision(node, value, round_no, ck, ci))
            outboxes.append((node, outbox, ck, ci))
        sorted_neighbors = graph.sorted_neighbors
        record = self.record_messages
        if record:
            transmissions = trace.transmissions
            deliveries = trace.deliveries
            next_round = round_no + 1
        # Running positions in the (possibly unrecorded) send and
        # delivery sequences: a delivery's cause index is its position,
        # so causes read the same at both trace levels.
        send_index = trace.transmission_count
        delivery_index = first_delivery = trace.delivery_count
        for node, outbox, ck, ci in outboxes:
            if not outbox:
                continue
            # The broadcast recipient set is per-node, not per-message;
            # unicasts still go through the channel-enforcing resolver.
            nbrs = sorted_neighbors(node)
            for out in outbox:
                message = out.message
                target = out.target
                recipients = (
                    nbrs
                    if target is None
                    else self._resolve_recipients(node, target)
                )
                entry = (node, message)
                if record:
                    transmissions.append(
                        Transmission(
                            round_no, node, message, target, recipients,
                            round_no, ck, ci,
                        )
                    )
                    for r in recipients:
                        # Synchronous delivery: into next round's inbox,
                        # so the virtual delivery timestamp is
                        # sent_at + 1 — exactly what the lockstep
                        # scheduler reproduces.
                        cause_next[r] = delivery_index
                        delivery_index += 1
                        deliveries.append(
                            Delivery(
                                send_index, node, r, message, round_no,
                                next_round,
                            )
                        )
                        pending[r].append(entry)
                else:
                    for r in recipients:
                        cause_next[r] = delivery_index
                        delivery_index += 1
                        pending[r].append(entry)
                send_index += 1
        queued = delivery_index - first_delivery
        # The synchronous engine *is* the unit-delay scheduler, so it
        # reports the same delay distribution the lockstep scheduler
        # would — keeping full metric snapshots engine-equal.  Every
        # delivery has delay exactly 1, so one bulk observation per
        # round covers them all (``n = 0`` records nothing, not even an
        # empty bucket).
        observe_delay(1, queued)
        self._pending_count = queued
        sent = send_index - trace.transmission_count
        trace.transmission_count = send_index
        trace.delivery_count = delivery_index
        if queued:
            trace.max_latency = 1
        if trace.rounds < round_no:
            trace.rounds = round_no
        self._observe_tick(delivered, sent)
