"""The lockstep scheduler: the paper's synchronous rounds.

Every delivery takes exactly one tick, and broadcasts are atomic, so a
message sent in round ``r`` lands in every recipient's round ``r + 1``
inbox — the synchronous model of Section 3.  It is the default
scheduler of :class:`~repro.net.sched.EventDrivenNetwork`, which runs
it without per-recipient scheduling: every delivery is filed straight
under the next tick.  A subclass that overrides :meth:`delay` goes
through :meth:`~repro.net.sched.Scheduler.schedule` and its checks
instead; ``tests/net/sched/test_lockstep_equivalence.py`` holds the two
paths trace-for-trace equal across all protocol factories.
"""

from __future__ import annotations

from typing import Hashable

from .base import Scheduler
from .events import SendEvent


class LockstepScheduler(Scheduler):
    """Unit delay on every link: the synchronous model, event-driven."""

    name = "lockstep"
    atomic_broadcast = True
    bounded = True
    worst_case_delay = 1

    def delay(self, send: SendEvent, recipient: Hashable) -> int:
        return 1
