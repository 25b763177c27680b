"""The simulation engine and its pluggable message timing.

The paper's synchronous model fixes *when* messages arrive (next
round); this subpackage makes timing a pluggable policy of the one
simulation engine, extending the reproduction toward the authors'
asynchronous follow-up paper (arXiv:1909.02865):

* :class:`EventDrivenNetwork` — the engine: per-node protocols on
  virtual time, every delivery timed by a :class:`Scheduler`;
* :class:`LockstepScheduler` — unit delays and atomic broadcast: the
  synchronous model of Section 3, and the engine's default;
* :class:`SeededAsyncScheduler` — reproducible random per-link delays
  behind an explicit seed;
* :class:`AdversarialScheduler` — a worst-case timing adversary that
  stretches cut-straddling traffic to maximize disagreement windows,
  within FIFO-per-link and local-broadcast-atomicity constraints;
* :class:`SchedulerSpec` — the frozen, picklable recipe sweeps and the
  CLI carry (one fresh scheduler per run).
"""

from .adversarial import AdversarialScheduler
from .base import (
    EventDrivenNetwork,
    Scheduler,
    SchedulingError,
    SimulationError,
)
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
    "SimulationError",
    "parse_scheduler",
]
