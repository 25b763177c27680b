"""Event types of the event-driven simulation core.

A :class:`SendEvent` is a transmission leaving a node at a virtual
time, with its realized recipient set already resolved by the channel
model.  Schedulers consume these to assign delivery timestamps.  The
resulting deliveries need no event type of their own: the core appends
each to the run's trace and queues it as ``(time, index into
trace.deliveries)``, so the index makes the order total and preserves
FIFO among same-instant deliveries.

Virtual time is integral.  Activations happen at ticks 1, 2, 3, …; a
message sent at tick ``t`` may be delivered no earlier than ``t + 1``
(no zero-latency links — the synchronous model's "next round" rule is
the ``delay = 1`` special case).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional, Tuple


@dataclass(frozen=True, slots=True)
class SendEvent:
    """One transmission as the scheduler sees it.

    ``seq`` is the global send sequence number (total order over all
    sends of a run); ``time`` the virtual send instant; ``target`` is
    ``None`` for a local broadcast.  ``recipients`` is the realized
    delivery set in canonical (repr-sorted neighbor) order — schedulers
    must iterate it in this order so any randomness they consume is
    replayable.
    """

    seq: int
    time: int
    sender: Hashable
    message: object
    target: Optional[Hashable]
    recipients: Tuple[Hashable, ...]

    @property
    def is_broadcast(self) -> bool:
        return self.target is None
