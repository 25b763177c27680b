"""The pluggable :class:`Scheduler` API and the event-driven core.

The paper's synchronous model (Section 3) is one point in a space of
timing assumptions; the authors' follow-up work ("Asynchronous Byzantine
Consensus on Undirected Graphs under Local Broadcast Model",
arXiv:1909.02865) shows the local-broadcast story survives asynchrony.
This module makes message *timing* a first-class, pluggable axis:

* :class:`EventDrivenNetwork` runs the same per-node
  :class:`~repro.net.node.Protocol` state machines as
  :class:`~repro.net.simulator.SynchronousNetwork`, but every delivery
  is an event with a virtual timestamp drawn from a :class:`Scheduler`;
* a :class:`Scheduler` assigns each (transmission, recipient) pair a
  delivery instant.  Subclasses only choose *delays*; the base class
  enforces the physics every timing model shares:

  - **causality** — a message sent at tick ``t`` arrives no earlier
    than ``t + 1`` (delays are ≥ 1);
  - **FIFO per link** — deliveries over one directed link never
    overtake each other (late-assigned timestamps are clamped up to the
    link's high-water mark; equal timestamps preserve send order via
    the event queue's delivery-index tie-break);
  - **local-broadcast atomicity** (when the scheduler declares it) —
    all recipients of one broadcast receive it at the same instant, the
    timing analogue of "received identically by each of its neighbors".

Determinism contract: the core activates nodes in repr-sorted order,
drains the event queue in ``(time, delivery index)`` order, and hands
schedulers their recipients in canonical order — so a run is a pure
function of (graph, protocols, channel, scheduler), independent of
``PYTHONHASHSEED`` and of any executor's process layout.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from typing import Dict, Hashable, List, Mapping, Optional, Tuple

from ...graphs import Graph
from ...obs import NULL_METRICS, MetricsRegistry
from ..channels import ChannelModel
from ..node import Context, Inbox, Protocol
from ..simulator import NetworkEngine
from ..trace import (
    CAUSE_DELIVERY,
    CAUSE_INPUT,
    CAUSE_TIMER,
    Decision,
    Delivery,
    Transmission,
)
from .events import SendEvent


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
    #: Observability sink.  The engine points this at its own registry
    #: when metrics are on; the default no-op keeps ``delay`` draws
    #: free to observe unconditionally.
    metrics = NULL_METRICS

    def bind(self, graph: Graph, channel: ChannelModel) -> None:
        """Attach to one run: reset link clocks and any per-run state."""
        self.graph = graph
        self.channel = channel
        self._link_clock: Dict[Tuple[Hashable, Hashable], int] = {}

    @abstractmethod
    def delay(self, send: SendEvent, recipient: Hashable) -> int:
        """Raw latency (ticks ≥ 1) for delivering ``send`` to ``recipient``."""

    def schedule(self, send: SendEvent) -> Dict[Hashable, int]:
        """Delivery instant per recipient, with all constraints applied."""
        times: Dict[Hashable, int] = {}
        for recipient in send.recipients:
            d = self.delay(send, recipient)
            if d < 1:
                raise SchedulingError(
                    f"{self.name}: delay {d} < 1 for "
                    f"{send.sender!r} -> {recipient!r}"
                )
            if self.bounded and d > (self.worst_case_delay or 0):
                raise SchedulingError(
                    f"{self.name}: delay {d} exceeds the declared "
                    f"worst-case bound {self.worst_case_delay} for "
                    f"{send.sender!r} -> {recipient!r}"
                )
            self.metrics.observe("sched.delay", d)
            when = send.time + d
            # FIFO per directed link: never undercut the link's latest
            # assigned delivery (ties keep send order via the delivery
            # index).
            when = max(when, self._link_clock.get((send.sender, recipient), 0))
            times[recipient] = when
        if self.atomic_broadcast and send.is_broadcast and times:
            shared = max(times.values())
            # repro: allow[REPRO001] rebuilds `times` preserving its own
            # deterministic (repr-sorted recipient) insertion order.
            times = {recipient: shared for recipient in times}
        # repro: allow[REPRO001] per-key _link_clock writes — commutative
        # across recipients, so iteration order is immaterial.
        for recipient, when in times.items():
            self._link_clock[(send.sender, recipient)] = when
        return times

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class EventDrivenNetwork(NetworkEngine):
    """Run per-node protocols on an event queue with scheduled timing.

    Shares :class:`~repro.net.simulator.NetworkEngine`'s public surface
    (``step``/``run``/``run_until_decided``/``outputs``/``trace``) with
    :class:`~repro.net.simulator.SynchronousNetwork`, so every existing
    protocol, adversary and runner works unchanged.  Each tick of
    virtual time activates every node once (in sorted order) with the
    inbox of everything delivered up to that tick; sends are
    timestamped by the scheduler, and each delivery is enqueued under
    ``(time, delivery index)``.  Under the lockstep
    scheduler this is provably the synchronous simulator —
    byte-identical traces — while asynchronous schedulers stretch and
    reorder deliveries within the FIFO/atomicity envelope.

    ``record_messages`` picks the trace level exactly as on
    :class:`~repro.net.simulator.SynchronousNetwork`: the queue carries
    each delivery's own fields, so a counts-only run builds no
    :class:`~repro.net.trace.Transmission`/:class:`~repro.net.trace.Delivery`
    records and still delivers, orders and stamps causes identically.
    """

    def __init__(
        self,
        graph: Graph,
        protocols: Mapping[Hashable, Protocol],
        scheduler: Scheduler,
        channel: Optional[ChannelModel] = None,
        metrics: Optional[MetricsRegistry] = None,
        record_messages: bool = True,
    ):
        super().__init__(graph, protocols, channel, metrics, record_messages)
        self.scheduler = scheduler
        scheduler.bind(graph, self.channel)
        scheduler.metrics = self.metrics
        # round_no doubles as the virtual tick of the latest activation.
        #: Pending deliveries as ``(time, delivery index, recipient,
        #: sender, message)``: indices grow with every enqueue, so equal
        #: times pop in the order the deliveries were scheduled (and the
        #: comparison never reaches the payload fields).
        self._events: List[Tuple[int, int, Hashable, Hashable, object]] = []
        self._arrived: Dict[Hashable, Inbox] = {v: [] for v in self._order}
        self._send_seq = 0

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance virtual time one tick and activate every node."""
        self.round_no += 1
        now = self.round_no
        trace = self.trace
        # Drain every delivery due by `now` into the recipients' inboxes
        # in (time, index) order — the arrival order protocols observe.
        # The last delivery drained per recipient is that activation's
        # primary happened-before cause.
        cause_now: Dict[Hashable, int] = {}
        events, arrived = self._events, self._arrived
        while events and events[0][0] <= now:
            _, index, recipient, sender, message = heapq.heappop(events)
            arrived[recipient].append((sender, message))
            cause_now[recipient] = index
        inboxes, self._arrived = arrived, {v: [] for v in self._order}
        delivered = sum(len(inboxes[v]) for v in self._order)
        sent_before = trace.transmission_count
        decisions = trace.decisions
        undecided = self._undecided
        outboxes: list[tuple[Hashable, Context]] = []
        for node in self._order:
            ci = cause_now.get(node)
            ck = (
                CAUSE_DELIVERY
                if ci is not None
                else (CAUSE_INPUT if now == 1 else CAUSE_TIMER)
            )
            ctx = Context(
                node=node,
                graph=self.graph,
                round_no=now,
                channel=self.channel,
                inbox=inboxes[node],
                now=now,
                metrics=self.metrics,
                cause_kind=ck,
                cause_index=ci,
            )
            self.protocols[node].on_round(ctx)
            if node in undecided:
                value = self.protocols[node].output()
                if value is not None:
                    undecided.discard(node)
                    decisions.append(Decision(node, value, now, ck, ci))
            outboxes.append((node, ctx))
        for node, ctx in outboxes:
            for out in ctx.outbox:
                recipients = self._resolve_recipients(node, out.target)
                self._dispatch(
                    node, out.message, out.target, recipients, now,
                    ctx.cause_kind, ctx.cause_index,
                )
        if trace.rounds < self.round_no:
            trace.rounds = self.round_no
        self._observe_tick(delivered, trace.transmission_count - sent_before)

    def _dispatch(
        self,
        node: Hashable,
        message: object,
        target: Optional[Hashable],
        recipients: Tuple[Hashable, ...],
        now: int,
        cause_kind: Optional[str] = None,
        cause_index: Optional[int] = None,
    ) -> None:
        """Timestamp one send via the scheduler and enqueue deliveries."""
        send = SendEvent(
            seq=self._send_seq,
            time=now,
            sender=node,
            message=message,
            target=target,
            recipients=recipients,
        )
        self._send_seq += 1
        times = self.scheduler.schedule(send)
        trace = self.trace
        send_index = trace.transmission_count
        delivery_index = trace.delivery_count
        trace.transmission_count = send_index + 1
        trace.delivery_count = delivery_index + len(recipients)
        deliveries = None
        if self.record_messages:
            deliveries = trace.deliveries
            trace.transmissions.append(
                Transmission(
                    round_no=now,
                    sender=node,
                    message=message,
                    target=target,
                    recipients=recipients,
                    sent_at=now,
                    cause_kind=cause_kind,
                    cause_index=cause_index,
                )
            )
        for recipient in recipients:
            when = times[recipient]
            if when <= now:
                raise SchedulingError(
                    f"{self.scheduler.name}: delivery at {when} not after "
                    f"send at {now} ({node!r} -> {recipient!r})"
                )
            if when - now > trace.max_latency:
                trace.max_latency = when - now
            if deliveries is not None:
                deliveries.append(
                    Delivery(
                        send_index=send_index,
                        sender=node,
                        recipient=recipient,
                        message=message,
                        sent_at=now,
                        delivered_at=when,
                    )
                )
            heapq.heappush(
                self._events, (when, delivery_index, recipient, node, message)
            )
            delivery_index += 1

    @property
    def in_flight(self) -> int:
        """Deliveries enqueued but not yet drained (for diagnostics)."""
        return len(self._events)
