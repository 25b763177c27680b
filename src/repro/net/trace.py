"""Execution traces: everything that went over the air, with accounting.

The trace is the simulator's ground truth.  It drives:

* complexity accounting (rounds, transmissions, deliveries) for the
  Theorem 5.6 vs Algorithm 1 cost benchmarks;
* the scheduler subsystem (:mod:`repro.net.sched`), whose delivery
  events carry virtual timestamps: every :class:`Transmission` records
  the virtual time it was sent (``sent_at``) and every per-recipient
  :class:`Delivery` the virtual time it landed (``delivered_at``).
  Under the default lockstep scheduler — the synchronous model —
  virtual time coincides with the round number;
* debugging: a faithful log of who said what, when, to whom.

The impossibility experiments (Appendices A and D) do not replay engine
traces: :func:`~repro.lowerbounds.covering.run_covering` runs an
execution ``E`` on the covering network, counts-only, keeping each
copy's transcript as a replay schedule, and faulty nodes replay those
schedules into the executions ``E1, E2, E3``.

A trace has two levels, chosen when the engine is built: *recorded*
(per-message :class:`Transmission`/:class:`Delivery` logs plus the
accounting) or *counts-only* (the accounting alone); see :class:`Trace`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, List, Optional, Tuple

# Both record types are constructed once per message on the simulator's
# hot path; plain slots with a generated hash keep eq/hash/repr identical
# to the frozen form at a third of the construction cost.  Nothing may
# mutate a record after it is appended to a trace.


#: The three ways a send (or decision) can be caused (happened-before
#: semantics): ``"delivery"`` — emitted while processing an inbox, the
#: primary parent being the last delivery that landed this activation;
#: ``"input"`` — spontaneous at the first activation (driven by the
#: node's initial state, i.e. its input value); ``"timer"`` — spontaneous
#: at a later activation (driven by the protocol's round schedule or a
#: local patience timer, not by any arrival).
CAUSE_DELIVERY = "delivery"
CAUSE_INPUT = "input"
CAUSE_TIMER = "timer"


@dataclass(slots=True, unsafe_hash=True)
class Transmission:
    """One send event.  ``target is None`` means local broadcast;
    ``recipients`` is the realized delivery set (the sender's neighbors
    for a broadcast, the single target otherwise).  ``sent_at`` is the
    virtual timestamp of the send — equal to ``round_no``.

    ``cause_kind``/``cause_index`` are the happened-before parent link:
    ``cause_kind`` classifies what provoked the activation that emitted
    this send (:data:`CAUSE_DELIVERY` / :data:`CAUSE_INPUT` /
    :data:`CAUSE_TIMER`) and, for ``"delivery"``, ``cause_index`` is the
    position in ``Trace.deliveries`` of the *primary* cause — the last
    delivery that landed in the emitting activation's inbox.  The full
    parent set of a send is every delivery to its sender with
    ``delivered_at == sent_at`` (the engine drains exactly those into
    the activation's inbox), so the trace is a happened-before DAG:
    delivery → its transmission via ``send_index``, transmission → the
    deliveries of its activation via timestamps, with ``cause_index``
    as the recorded primary edge."""

    round_no: int
    sender: Hashable
    message: object
    target: Optional[Hashable]
    recipients: Tuple[Hashable, ...]
    sent_at: Optional[int] = None
    cause_kind: Optional[str] = None
    cause_index: Optional[int] = None


@dataclass(slots=True, unsafe_hash=True)
class Delivery:
    """One (message, recipient) delivery with its virtual timing.

    ``send_index`` is the position of the originating
    :class:`Transmission` in ``Trace.transmissions``, so a delivery can
    always be joined back to its send.  Under synchronous/lockstep
    execution ``delivered_at == sent_at + 1``; asynchronous schedulers
    assign later timestamps (bounded by their ``max_delay``)."""

    send_index: int
    sender: Hashable
    recipient: Hashable
    message: object
    sent_at: int
    delivered_at: int

    @property
    def latency(self) -> int:
        """Virtual time the message spent in flight."""
        return self.delivered_at - self.sent_at


@dataclass(slots=True, unsafe_hash=True)
class Decision:
    """The instant a node's ``output()`` first became non-``None``.

    ``decided_at`` is the virtual tick of the activation that produced
    the output (0 for a protocol that was already decided at
    construction).  ``cause_kind``/``cause_index`` follow the same
    happened-before convention as :class:`Transmission`: the primary
    cause of a ``"delivery"``-caused decision is the last delivery in
    the deciding activation's inbox."""

    node: Hashable
    value: int
    decided_at: int
    cause_kind: Optional[str] = None
    cause_index: Optional[int] = None


class TraceLevelError(RuntimeError):
    """Per-message data was read from a counts-only trace."""


_UNRECORDED = (
    "this trace kept counts only, so it has no {}; run with flight=True "
    "(or build the engine with record_messages=True) to record messages"
)


@dataclass(slots=True)
class Trace:
    """An append-only log of transmissions plus run metadata.

    A trace keeps one of two levels, fixed when the engine is built:

    * **recorded** (``record_messages=True``, the default) — the
      per-message :class:`Transmission`/:class:`Delivery` logs.
      ``deliveries`` is the per-recipient view of the same traffic with
      virtual delivery timestamps; the engine appends a
      :class:`Delivery` per recipient at send time (in recipient
      order), so the two logs always line up;
    * **counts-only** — no per-message records at all.  Reading
      ``transmissions``/``deliveries`` (or any query built on them)
      raises :class:`TraceLevelError` instead of answering from an
      empty log.  ``run_consensus`` records only ``flight=True`` runs.

    At both levels the engine maintains ``rounds``,
    ``transmission_count``, ``delivery_count``, ``max_latency`` and
    ``decisions``, all O(1) to read.  Delivery cause indices
    (``Context.cause_index``, ``Decision.cause_index``) are positions in
    the delivery sequence whether or not it is recorded, so decisions
    are identical at either level.
    """

    record_messages: bool = True
    rounds: int = 0
    decisions: List[Decision] = field(default_factory=list)
    #: Number of send events (a broadcast counts once).
    transmission_count: int = 0
    #: Number of (message, recipient) deliveries, in flight ones included.
    delivery_count: int = 0
    #: The largest virtual in-flight time over all deliveries (0 for an
    #: empty trace — and always 1 under lockstep timing).
    max_latency: int = 0
    _transmissions: Optional[List[Transmission]] = field(
        default=None, init=False
    )
    _deliveries: Optional[List[Delivery]] = field(default=None, init=False)

    def __post_init__(self) -> None:
        if self.record_messages:
            self._transmissions = []
            self._deliveries = []

    @property
    def transmissions(self) -> List[Transmission]:
        """Every send event, in send order (recorded traces only)."""
        if self._transmissions is None:
            raise TraceLevelError(_UNRECORDED.format("transmissions"))
        return self._transmissions

    @property
    def deliveries(self) -> List[Delivery]:
        """Every per-recipient delivery, in send order (recorded traces only)."""
        if self._deliveries is None:
            raise TraceLevelError(_UNRECORDED.format("deliveries"))
        return self._deliveries

    def record(self, t: Transmission) -> None:
        """Count one send (and its deliveries); log it when recording."""
        if self._transmissions is not None:
            self._transmissions.append(t)
        self.transmission_count += 1
        self.delivery_count += len(t.recipients)
        if t.round_no > self.rounds:
            self.rounds = t.round_no

    def record_delivery(self, d: Delivery) -> None:
        """Log one delivery's timing; its count came with :meth:`record`."""
        if self._deliveries is not None:
            self._deliveries.append(d)
        if d.latency > self.max_latency:
            self.max_latency = d.latency

    def record_decision(self, d: Decision) -> None:
        self.decisions.append(d)

    # ------------------------------------------------------------------
    # Per-message queries (recorded traces only)
    # ------------------------------------------------------------------
    def sent_by(self, node: Hashable) -> list[Transmission]:
        """All transmissions made by ``node``, in order."""
        return [t for t in self.transmissions if t.sender == node]
