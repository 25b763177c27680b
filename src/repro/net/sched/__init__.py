"""Event-driven scheduling subsystem: pluggable message timing.

The synchronous simulator fixes *when* messages arrive (next round);
this subpackage makes timing a pluggable policy on an event-driven
core, extending the reproduction toward the authors' asynchronous
follow-up paper (arXiv:1909.02865):

* :class:`EventDrivenNetwork` — the core: protocols unchanged, every
  delivery an event with a virtual timestamp from a :class:`Scheduler`;
* :class:`LockstepScheduler` — unit delays; provably trace-equivalent
  to :class:`~repro.net.simulator.SynchronousNetwork`;
* :class:`SeededAsyncScheduler` — reproducible random per-link delays
  behind an explicit seed;
* :class:`AdversarialScheduler` — a worst-case timing adversary that
  stretches cut-straddling traffic to maximize disagreement windows,
  within FIFO-per-link and local-broadcast-atomicity constraints;
* :class:`SchedulerSpec` — the frozen, picklable recipe sweeps and the
  CLI carry (one fresh scheduler per run).
"""

from .adversarial import AdversarialScheduler
from .base import EventDrivenNetwork, Scheduler, SchedulingError
from .events import SendEvent
from .lockstep import LockstepScheduler
from .seeded import SeededAsyncScheduler
from .specs import SCHEDULER_KINDS, SchedulerSpec, parse_scheduler

__all__ = [
    "AdversarialScheduler",
    "EventDrivenNetwork",
    "LockstepScheduler",
    "SCHEDULER_KINDS",
    "Scheduler",
    "SchedulerSpec",
    "SchedulingError",
    "SeededAsyncScheduler",
    "SendEvent",
    "parse_scheduler",
]
