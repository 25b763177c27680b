"""Per-recipient reference for :meth:`repro.net.sched.Scheduler.schedule`.

The shipped ``schedule`` makes one lean pass per transmission: the
declared bound, the sender's link clocks and the ``sched.delay``
histogram cell are read once per send, and link clocks are kept per
sender.  This module is the per-recipient loop it replaced, kept beside
the tests that hold the two equal: every recipient re-reads the bound,
records its delay through ``metrics.observe`` and keys its link clock
by the ``(sender, recipient)`` tuple.  The body is the old method's,
with ``self`` renamed ``scheduler`` and the flat clock passed in.
"""

from __future__ import annotations

from typing import Dict, Hashable, Tuple

from repro.net import SchedulingError


def schedule_reference(
    scheduler,
    send,
    link_clock: Dict[Tuple[Hashable, Hashable], int],
) -> Dict[Hashable, int]:
    """Delivery instant per recipient, with all constraints applied.

    ``scheduler`` supplies ``delay``, ``name``, the bound declaration,
    ``atomic_broadcast`` and ``metrics``; ``link_clock`` is the flat
    ``(sender, recipient) -> tick`` FIFO high-water map, updated in place.
    """
    times: Dict[Hashable, int] = {}
    for recipient in send.recipients:
        d = scheduler.delay(send, recipient)
        if d < 1:
            raise SchedulingError(
                f"{scheduler.name}: delay {d} < 1 for "
                f"{send.sender!r} -> {recipient!r}"
            )
        if scheduler.bounded and d > (scheduler.worst_case_delay or 0):
            raise SchedulingError(
                f"{scheduler.name}: delay {d} exceeds the declared "
                f"worst-case bound {scheduler.worst_case_delay} for "
                f"{send.sender!r} -> {recipient!r}"
            )
        scheduler.metrics.observe("sched.delay", d)
        when = send.time + d
        # FIFO per directed link: never undercut the link's latest
        # assigned delivery (ties keep send order via the delivery
        # index).
        when = max(when, link_clock.get((send.sender, recipient), 0))
        times[recipient] = when
    if scheduler.atomic_broadcast and send.target is None and times:
        shared = max(times.values())
        # repro: allow[REPRO001] rebuilds `times` preserving its own
        # deterministic (repr-sorted recipient) insertion order.
        times = {recipient: shared for recipient in times}
    # repro: allow[REPRO001] per-key link_clock writes — commutative
    # across recipients, so iteration order is immaterial.
    for recipient, when in times.items():
        link_clock[(send.sender, recipient)] = when
    return times


def flat_link_clocks(scheduler) -> Dict[Tuple[Hashable, Hashable], int]:
    """The shipped per-sender link clocks as a flat ``(sender, recipient)
    -> tick`` map, comparable with :func:`schedule_reference`'s."""
    return {
        (sender, recipient): tick
        for sender, clocks in scheduler._link_clock.items()
        for recipient, tick in clocks.items()
    }
