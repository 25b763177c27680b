"""Event types of the simulation engine.

A :class:`SendEvent` is a transmission leaving a node at a virtual
time, with its realized recipient set already resolved by the channel
model.  Schedulers consume these to assign delivery timestamps.  The
resulting deliveries need no event type of their own: the engine files
each under its delivery tick as ``(delivery index, recipient, (sender,
message))`` — the index is the delivery's position in the run's
delivery sequence, recorded in the trace or not, and a tick's entries
are drained in index order, which preserves FIFO among same-instant
deliveries.

A :class:`SendEvent` is a :class:`~typing.NamedTuple`, like
:class:`~repro.net.messages.FloodMessage`, because the engine builds one
per scheduled transmission.  It equals a bare tuple of its fields, so
compare events by field, never by ``==`` against a tuple.

Virtual time is integral.  Activations happen at ticks 1, 2, 3, …; a
message sent at tick ``t`` may be delivered no earlier than ``t + 1``
(no zero-latency links — the synchronous model's "next round" rule is
the ``delay = 1`` special case, which the engine runs without building
a :class:`SendEvent` at all).
"""

from __future__ import annotations

from typing import Hashable, NamedTuple, Optional, Tuple


class SendEvent(NamedTuple):
    """One transmission as the scheduler sees it.

    ``time`` is the virtual send instant; ``target`` is ``None`` for a
    local broadcast.  ``recipients`` is the realized delivery set in
    canonical (repr-sorted neighbor) order — schedulers must iterate it
    in this order so any randomness they consume is replayable.
    """

    time: int
    sender: Hashable
    message: object
    target: Optional[Hashable]
    recipients: Tuple[Hashable, ...]
