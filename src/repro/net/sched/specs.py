"""Picklable scheduler *specifications* for sweeps and the CLI.

Schedulers are single-run objects (link clocks, RNG state), so anything
that fans runs out — :func:`repro.analysis.sweep.consensus_sweep`
tasks shipped to worker processes, or the CLI — carries a frozen
:class:`SchedulerSpec` instead and builds a fresh scheduler per run
with :meth:`SchedulerSpec.build`.  ``None`` in a scheduler axis means
the engine's default timing — the lockstep scheduler, i.e. the paper's
synchronous model — reported as ``"sync"``; it runs identically to
``"lockstep"``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...graphs import Graph
from .adversarial import AdversarialScheduler
from .base import Scheduler
from .lockstep import LockstepScheduler
from .seeded import SeededAsyncScheduler

SCHEDULER_KINDS = ("lockstep", "seeded-async", "adversarial")


@dataclass(frozen=True)
class SchedulerSpec:
    """A frozen, picklable recipe for one scheduler.

    ``seed`` only matters for ``seeded-async``; ``max_delay`` for the
    two asynchronous kinds.  Equality/hash follow the dataclass fields,
    so specs are safe dictionary keys and sweep-axis members.

    ``unbounded`` withdraws the delay-bound *declaration* without
    changing the physics: the built scheduler still draws the same
    delays (so traces are unchanged), but advertises ``bounded = False``
    — which forces every delay-aware layer onto its honest asynchronous
    path (the runner refuses round-scaled horizons, the α-synchronizer
    demands an explicit window, the base class stops enforcing a bound
    it no longer promises).  This is how experiments certify a protocol
    truly never reads a bound.

    ``window`` (adversarial kind only) switches the timing adversary
    from flat ``max_delay`` stretching to *synchronizer window
    targeting*: bottleneck-crossing deliveries land exactly on the
    α-schedule activation ticks ``(r − 1)·window + 1`` — the latest
    instant a window-``W`` synchronizer can tolerate.
    """

    kind: str
    seed: int = 0
    max_delay: int = 3
    unbounded: bool = False
    window: int = 0

    def __post_init__(self) -> None:
        if self.kind not in SCHEDULER_KINDS:
            raise ValueError(
                f"unknown scheduler kind {self.kind!r}; "
                f"choose from {list(SCHEDULER_KINDS)}"
            )
        if self.max_delay < 1:
            raise ValueError("max_delay must be >= 1")
        if self.unbounded and self.kind == "lockstep":
            raise ValueError(
                "lockstep *is* the bound (unit delays); it cannot be "
                "declared unbounded"
            )
        if self.window:
            if self.kind != "adversarial":
                raise ValueError(
                    "window targeting is an adversarial-scheduler feature"
                )
            if not 1 <= self.window <= self.max_delay:
                raise ValueError(
                    f"window must be in [1, max_delay]; got {self.window} "
                    f"with max_delay {self.max_delay}"
                )

    @property
    def name(self) -> str:
        """The label sweep records and reports carry."""
        return f"{self.kind}-unbounded" if self.unbounded else self.kind

    @property
    def bounded(self) -> bool:
        """Whether this spec's scheduler declares a worst-case delay.

        An unbounded spec returns ``False`` and forces callers to supply
        explicit time budgets (the runner refuses to guess a round
        horizon for it; message-driven protocols run on their own
        ``budget_hint`` plus quiescence detection).
        """
        return not self.unbounded

    @property
    def worst_case_delay(self) -> "int | None":
        """The declared per-delivery delay bound (ticks); ``None`` when
        no bound is declared."""
        if self.unbounded:
            return None
        return 1 if self.kind == "lockstep" else self.max_delay

    def horizon(self, rounds: int) -> int:
        """Virtual-tick budget for ``rounds`` synchronous rounds.

        Under a bounded scheduler, everything a fixed-round protocol does
        in ``rounds`` lockstep rounds has happened by ``rounds ×
        worst_case_delay`` ticks — so exhausting this budget means the
        run genuinely failed to decide, not that the clock ran out.
        """
        if rounds < 0:
            raise ValueError("rounds must be >= 0")
        if self.worst_case_delay is None:
            raise ValueError(
                f"scheduler {self.name!r} declares no delay bound; "
                "no round horizon exists"
            )
        return rounds * self.worst_case_delay

    def build(self, graph: Graph) -> Scheduler:
        """A fresh, unbound scheduler for one run on ``graph``."""
        if self.kind == "lockstep":
            return LockstepScheduler()
        if self.kind == "seeded-async":
            return SeededAsyncScheduler(
                seed=self.seed,
                max_delay=self.max_delay,
                declare_bound=not self.unbounded,
            )
        return AdversarialScheduler(
            max_delay=self.max_delay,
            window=self.window or None,
            declare_bound=not self.unbounded,
        )


def parse_scheduler(
    spec: str,
    seed: int = 0,
    max_delay: int = 3,
    unbounded: bool = False,
    window: int = 0,
) -> "SchedulerSpec | None":
    """Parse a CLI scheduler token: a kind name, or ``sync`` for the
    engine's default synchronous timing (returned as ``None``).

    ``unbounded`` and ``window`` pass through to the spec (``window``
    only applies to the adversarial kind and is dropped for others, so
    one CLI flag can decorate a mixed axis)."""
    token = spec.strip()
    if token in ("", "sync"):
        return None
    return SchedulerSpec(
        kind=token,
        seed=seed,
        max_delay=max_delay,
        unbounded=unbounded and token != "lockstep",
        window=window if token == "adversarial" else 0,
    )
