"""Network substrate: the simulation engine, schedulers, channels, adversaries.

This subpackage implements the system model of Section 3 — synchronous
rounds over FIFO links on an undirected graph — with the three channel
models the paper studies (local broadcast, point-to-point, hybrid) and a
library of Byzantine behaviors used across every experiment.

Message *timing* is a pluggable axis of the one engine in
:mod:`repro.net.sched`: :class:`EventDrivenNetwork` runs the synchronous
model under its default :class:`LockstepScheduler` (unit delay, atomic
broadcast), and under seeded-random and adversarial timing models for
asynchronous experiments (arXiv:1909.02865).
"""

from .adversary import (
    ADVERSARIES,
    Adversary,
    CrashAdversary,
    DecisionForgeAdversary,
    DropForwardAdversary,
    EquivocatingAdversary,
    FaultSpec,
    HonestFactory,
    LyingInitAdversary,
    LyingReporterAdversary,
    RandomAdversary,
    ReplayAdversary,
    SilentAdversary,
    SilentReporterAdversary,
    TamperForwardAdversary,
    WrongInputAdversary,
    adversary_from_spec,
    algorithm2_attack_battery,
    standard_adversaries,
)
from .channels import (
    ChannelModel,
    EquivocationError,
    hybrid_model,
    local_broadcast_model,
    point_to_point_model,
)
from .messages import (
    DecisionPayload,
    DirectMessage,
    FloodMessage,
    ValuePayload,
)
from .node import Context, Inbox, Outgoing, Protocol
from .sched import (
    AdversarialScheduler,
    EventDrivenNetwork,
    LockstepScheduler,
    Scheduler,
    SchedulerSpec,
    SchedulingError,
    SeededAsyncScheduler,
    SimulationError,
    parse_scheduler,
)
from .trace import Delivery, Trace, TraceLevelError, Transmission

__all__ = [
    "ADVERSARIES",
    "Adversary",
    "AdversarialScheduler",
    "ChannelModel",
    "Context",
    "CrashAdversary",
    "DecisionForgeAdversary",
    "DecisionPayload",
    "Delivery",
    "DirectMessage",
    "DropForwardAdversary",
    "EquivocatingAdversary",
    "EquivocationError",
    "EventDrivenNetwork",
    "FaultSpec",
    "FloodMessage",
    "HonestFactory",
    "Inbox",
    "LockstepScheduler",
    "LyingInitAdversary",
    "LyingReporterAdversary",
    "Outgoing",
    "Protocol",
    "RandomAdversary",
    "ReplayAdversary",
    "Scheduler",
    "SchedulerSpec",
    "SchedulingError",
    "SeededAsyncScheduler",
    "SilentAdversary",
    "SilentReporterAdversary",
    "SimulationError",
    "TamperForwardAdversary",
    "Trace",
    "TraceLevelError",
    "Transmission",
    "ValuePayload",
    "WrongInputAdversary",
    "hybrid_model",
    "local_broadcast_model",
    "point_to_point_model",
    "adversary_from_spec",
    "algorithm2_attack_battery",
    "parse_scheduler",
    "standard_adversaries",
]
