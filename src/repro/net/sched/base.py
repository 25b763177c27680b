"""The pluggable :class:`Scheduler` API and the simulation engine.

The paper's system model (Section 3) is a synchronous network over an
undirected graph of FIFO links where, under local broadcast, "a message
sent by any node is received identically and correctly by each of its
neighbors" in the next round.  That model is one point in a space of
timing assumptions; the authors' follow-up work ("Asynchronous Byzantine
Consensus on Undirected Graphs under Local Broadcast Model",
arXiv:1909.02865) shows the local-broadcast story survives asynchrony.
This module makes message *timing* a pluggable axis of one engine:

* :class:`EventDrivenNetwork` runs the per-node
  :class:`~repro.net.node.Protocol` state machines on virtual time:
  every tick activates each node once with the messages delivered at
  that tick, and every delivery's tick comes from a :class:`Scheduler`.
  Its default, :class:`~repro.net.sched.LockstepScheduler` (unit delay,
  atomic broadcast), *is* the synchronous model of Section 3;
* a :class:`Scheduler` assigns each (transmission, recipient) pair a
  delivery instant.  Subclasses only choose *delays*; the base class
  enforces the physics every timing model shares:

  - **causality** — a message sent at tick ``t`` arrives no earlier
    than ``t + 1`` (delays are ≥ 1);
  - **FIFO per link** — deliveries over one directed link never
    overtake each other (late-assigned timestamps are clamped up to the
    link's high-water mark; equal timestamps preserve send order via
    the delivery index);
  - **local-broadcast atomicity** (when the scheduler declares it) —
    all recipients of one broadcast receive it at the same instant, the
    timing analogue of "received identically by each of its neighbors".

Determinism contract: the engine activates nodes in repr-sorted order,
drains each tick's deliveries in delivery-index order, and hands
schedulers their recipients in canonical order — so a run is a pure
function of (graph, protocols, channel, scheduler), independent of
``PYTHONHASHSEED`` and of any executor's process layout.  Any randomness
lives inside protocols, adversaries and schedulers behind explicit seeds.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from math import inf
from typing import Dict, Hashable, Mapping, Optional, Tuple

from ...graphs import Graph
from ...obs import NULL_METRICS, MetricsRegistry
from ..channels import ChannelModel, local_broadcast_model
from ..node import Context, Protocol
from ..trace import (
    CAUSE_DELIVERY,
    CAUSE_INPUT,
    CAUSE_TIMER,
    Decision,
    Delivery,
    Trace,
    Transmission,
)
from .events import SendEvent


class SimulationError(RuntimeError):
    """Raised when a run cannot proceed (missing protocols, bad config)."""


class SchedulingError(RuntimeError):
    """A scheduler produced a physically impossible delivery time."""


class Scheduler(ABC):
    """Assigns virtual delivery timestamps to transmissions.

    Subclasses implement :meth:`delay` — the raw per-recipient latency
    (≥ 1 ticks) of one send — and may set :attr:`atomic_broadcast` to
    force all recipients of a broadcast onto one shared instant.
    :meth:`schedule` (final) applies the FIFO-per-link clamp and the
    atomicity collapse, so no subclass can violate the model's physics.

    Schedulers are single-run objects with per-run state (link clocks,
    RNGs): the core calls :meth:`bind` once at network construction.
    Build a fresh instance per run — or use a
    :class:`~repro.net.sched.SchedulerSpec`, which does so for you.
    """

    name = "scheduler"
    #: When True, every recipient of one broadcast shares one delivery
    #: instant (the max of the per-link candidates, so FIFO still holds).
    atomic_broadcast = False
    #: The declared delay-bound contract.  A *bounded* scheduler promises
    #: every delay it ever produces is ≤ :attr:`worst_case_delay`; layers
    #: that reason about time budgets (the runner's delay-aware horizon,
    #: the α-synchronizer's round windows) query exactly this pair.
    #: Subclasses that cannot promise a bound leave ``bounded = False``
    #: and ``worst_case_delay = None``.
    bounded = False
    worst_case_delay: Optional[int] = None

    def bind(self, graph: Graph, channel: ChannelModel) -> None:
        """Attach to one run: reset link clocks and any per-run state."""
        self.graph = graph
        self.channel = channel
        #: FIFO high-water marks: sender -> recipient -> latest tick.
        self._link_clock: Dict[Hashable, Dict[Hashable, int]] = {}

    @property
    def metrics(self) -> MetricsRegistry:
        """Observability sink; the engine points this at its own registry.

        Assigning it binds the ``sched.delay`` histogram cell once per
        registry.  The default no-op keeps ``delay`` draws free to
        observe unconditionally.
        """
        return self._metrics

    @metrics.setter
    def metrics(self, registry: MetricsRegistry) -> None:
        self._metrics = registry
        self._observe_delay = registry.hist_cell("sched.delay")

    _metrics = NULL_METRICS
    _observe_delay = staticmethod(NULL_METRICS.hist_cell("sched.delay"))

    @abstractmethod
    def delay(self, send: SendEvent, recipient: Hashable) -> int:
        """Raw latency (ticks ≥ 1) for delivering ``send`` to ``recipient``."""

    def schedule(self, send: SendEvent) -> Dict[Hashable, int]:
        """Delivery instant per recipient, with all constraints applied.

        One pass over the recipients: the declared bound, the sender's
        link clocks and the ``sched.delay`` cell are read once per send,
        and the clocks are written back with one ``update``.
        """
        sender = send.sender
        now = send.time
        delay = self.delay
        observe = self._observe_delay
        # A bounded declaration without a value admits no delay at all.
        bound = (self.worst_case_delay or 0) if self.bounded else inf
        clocks = self._link_clock.setdefault(sender, {})
        times: Dict[Hashable, int] = {}
        for recipient in send.recipients:
            d = delay(send, recipient)
            if d < 1 or d > bound:
                self._reject(send, recipient, d)
            observe(d)
            when = now + d
            # FIFO per directed link: never undercut the link's latest
            # assigned delivery (ties keep send order via the delivery
            # index).
            last = clocks.get(recipient, 0)
            times[recipient] = when if when > last else last
        if self.atomic_broadcast and send.target is None and times:
            # Every recipient at the slowest one's instant, in the same
            # (repr-sorted recipient) order.
            times = dict.fromkeys(times, max(times.values()))
        clocks.update(times)
        return times

    def _reject(self, send: SendEvent, recipient: Hashable, d: int) -> None:
        """Raise the :class:`SchedulingError` an out-of-range delay earns."""
        if d < 1:
            raise SchedulingError(
                f"{self.name}: delay {d} < 1 for "
                f"{send.sender!r} -> {recipient!r}"
            )
        raise SchedulingError(
            f"{self.name}: delay {d} exceeds the declared "
            f"worst-case bound {self.worst_case_delay} for "
            f"{send.sender!r} -> {recipient!r}"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class EventDrivenNetwork:
    """Run per-node protocols on virtual time with scheduled delivery.

    Each tick activates every node once, in sorted order, with the inbox
    of everything delivered at that tick; the sends it queues reach their
    recipients at the ticks ``scheduler`` assigns.  The default
    scheduler, a fresh :class:`~repro.net.sched.LockstepScheduler`, is
    the synchronous network of Section 3: a message sent in round ``r``
    lands in every recipient's round ``r + 1`` inbox.  Asynchronous
    schedulers stretch and reorder deliveries within the FIFO/atomicity
    envelope.

    Pending deliveries wait in per-tick buckets: the inboxes of that tick,
    already filled with ``(sender, message)`` entries, and the index of
    the last delivery filed per recipient — the primary happened-before
    cause of its activation.  Deliveries are filed in delivery-index
    order, every delivery lands strictly after its send, and each step
    advances exactly one tick, so a bucket is handed over whole at its
    own tick with every inbox in delivery-index order.

    ``record_messages`` picks the trace level (see
    :class:`~repro.net.trace.Trace`) once, at construction: a
    counts-only run builds no
    :class:`~repro.net.trace.Transmission`/:class:`~repro.net.trace.Delivery`
    records and still delivers, orders and stamps causes identically.
    """

    def __init__(
        self,
        graph: Graph,
        protocols: Mapping[Hashable, Protocol],
        scheduler: Optional[Scheduler] = None,
        channel: Optional[ChannelModel] = None,
        metrics: Optional[MetricsRegistry] = None,
        record_messages: bool = True,
    ):
        from .lockstep import LockstepScheduler  # lockstep imports this module

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
        # round_no doubles as the virtual tick of the latest activation.
        self.round_no = 0
        self._order = sorted(graph.nodes, key=repr)
        self.metrics = metrics if metrics is not None else NULL_METRICS
        if scheduler is None:
            scheduler = LockstepScheduler()
        self.scheduler = scheduler
        scheduler.bind(graph, self.channel)
        scheduler.metrics = self.metrics
        # Unit delay needs no per-recipient scheduling: every delivery
        # lands at the next tick, which no FIFO clamp can move.  An
        # overridden ``delay`` keeps the checked path of ``schedule``.
        self._unit_delay = type(scheduler).delay is LockstepScheduler.delay
        #: Pending deliveries by delivery tick: that tick's inboxes (one
        #: list per node, all nodes present), and the index of the last
        #: delivery filed per recipient.  ``step`` builds new ones inline.
        self._buckets: Dict[
            int, Tuple[Dict[Hashable, list], Dict[Hashable, int]]
        ] = {}
        self._in_flight = 0
        # Per-tick metric cells, rendered once per engine (cells create
        # no keys until first fired, so binding is snapshot-neutral).
        m = self.metrics
        self._c_ticks = m.counter_cell("net.ticks")
        self._c_deliveries = m.counter_cell("net.deliveries")
        self._c_transmissions = m.counter_cell("net.transmissions")
        self._c_quiescent = m.counter_cell("net.quiescent_ticks")
        self._h_deliveries_per_tick = m.hist_cell("net.deliveries_per_tick")
        self._h_delay = m.hist_cell("sched.delay")
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

    @property
    def in_flight(self) -> int:
        """Deliveries scheduled but not yet drained (for quiescence checks)."""
        return self._in_flight

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance virtual time one tick and activate every node.

        The loop bodies run once per node or message; everything they
        reach is a hoisted local.  A recording engine appends its records
        to the trace lists directly; either way the trace's counters are
        bumped once per tick, at the end of the step.
        """
        self.round_no += 1
        now = self.round_no
        order = self._order
        trace = self.trace
        graph, channel, metrics = self.graph, self.channel, self.metrics
        protocols = self.protocols
        arrived = self._buckets.pop(now, None)
        inboxes, cause_now = arrived if arrived else ({v: [] for v in order}, {})
        delivered = sum(map(len, inboxes.values()))
        undecided = self._undecided
        decisions = trace.decisions
        outboxes: list[tuple[Hashable, list, str, Optional[int]]] = []
        for node in order:
            outbox: list = []
            ci = cause_now.get(node)
            ck = (
                CAUSE_DELIVERY
                if ci is not None
                else (CAUSE_INPUT if now == 1 else CAUSE_TIMER)
            )
            # Positional construction: the record types are built once
            # per node/message on this loop, where kwarg binding is
            # measurable overhead.  Field order is part of their API.
            protocols[node].on_round(
                Context(
                    node, graph, now, channel, inboxes[node], outbox, now,
                    metrics, ck, ci,
                )
            )
            if node in undecided:
                value = protocols[node].output()
                if value is not None:
                    undecided.discard(node)
                    decisions.append(Decision(node, value, now, ck, ci))
            if outbox:
                outboxes.append((node, outbox, ck, ci))
        record = self.record_messages
        transmissions = trace.transmissions if record else None
        deliveries = trace.deliveries if record else None
        buckets = self._buckets
        unit = self._unit_delay
        if unit and outboxes:
            later = now + 1
            next_inboxes, next_cause = buckets[later] = (
                {v: [] for v in order}, {}
            )
        schedule = self.scheduler.schedule
        sorted_neighbors = graph.sorted_neighbors
        # Running positions in the (possibly unrecorded) send and
        # delivery sequences: a delivery's cause index is its position,
        # so causes read the same at both trace levels.
        send_index = first_send = trace.transmission_count
        delivery_index = first_delivery = trace.delivery_count
        # The latest delivery tick queued this step (``now``: none yet);
        # it reaches ``trace.max_latency`` once, after the loop.
        latest = now
        for node, outbox, ck, ci in outboxes:
            nbrs = sorted_neighbors(node)
            for message, target in outbox:
                recipients = (
                    nbrs
                    if target is None
                    else self._resolve_recipients(node, target)
                )
                if record:
                    transmissions.append(
                        Transmission(
                            now, node, message, target, recipients, now, ck, ci,
                        )
                    )
                entry = (node, message)
                if unit:
                    for r in recipients:
                        next_inboxes[r].append(entry)
                        next_cause[r] = delivery_index
                        delivery_index += 1
                    if record:
                        deliveries.extend(
                            [
                                Delivery(send_index, node, r, message, now, later)
                                for r in recipients
                            ]
                        )
                else:
                    times = schedule(
                        SendEvent(now, node, message, target, recipients)
                    )
                    # Consecutive recipients mostly share a tick (all of
                    # them under atomic broadcast): look its bucket up
                    # only when the tick changes.
                    at = None
                    for r in recipients:
                        when = times[r]
                        if when != at:
                            if when <= now:
                                raise SchedulingError(
                                    f"{self.scheduler.name}: delivery at "
                                    f"{when} not after send at {now} "
                                    f"({node!r} -> {r!r})"
                                )
                            if when > latest:
                                latest = when
                            pending = buckets.get(when)
                            if pending is None:
                                pending = buckets[when] = (
                                    {v: [] for v in order}, {}
                                )
                            at_inboxes, at_cause = pending
                            at = when
                        if record:
                            deliveries.append(
                                Delivery(send_index, node, r, message, now, when)
                            )
                        at_inboxes[r].append(entry)
                        at_cause[r] = delivery_index
                        delivery_index += 1
                send_index += 1
        queued = delivery_index - first_delivery
        if unit and queued:
            # Every delivery has delay exactly 1: one bulk observation
            # per tick covers them all.
            self._h_delay(1, queued)
            latest = later
        if latest - now > trace.max_latency:
            trace.max_latency = latest - now
        self._in_flight += queued - delivered
        trace.transmission_count = send_index
        trace.delivery_count = delivery_index
        if trace.rounds < now:
            trace.rounds = now
        self._observe_tick(delivered, send_index - first_send)

    def _observe_tick(self, delivered: int, sent: int) -> None:
        """Per-tick network metrics, called at the end of :meth:`step`.

        ``delivered`` counts messages handed to inboxes this tick,
        ``sent`` the transmissions queued by it.
        """
        if not self.metrics.enabled:
            return
        in_flight = self._in_flight
        self._c_ticks()
        if delivered:
            self._c_deliveries(delivered)
        if sent:
            self._c_transmissions(sent)
        self._h_deliveries_per_tick(delivered)
        self._g_in_flight(in_flight)
        if delivered == 0 and sent == 0 and in_flight == 0:
            self._c_quiescent()

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
        """Run exactly ``rounds`` ticks (protocols may finish earlier)."""
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
