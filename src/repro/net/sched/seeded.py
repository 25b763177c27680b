"""Seeded random timing: reproducible per-link delivery jitter.

Models a benign asynchronous network: every (transmission, recipient)
pair independently draws a delay from ``{1, …, max_delay}`` ticks behind
an explicit seed.  Per-link FIFO is preserved by the base class clamp;
broadcasts are *not* atomic in time — each neighbor may hear the same
transmission at a different instant (content is still identical: the
channel model, not the scheduler, owns equivocation).  This is the
timing regime of the asynchronous follow-up paper (arXiv:1909.02865),
where the paper's fixed-phase algorithms are *not* guaranteed to keep
agreement — quantifying when they break is the point of the
``--scheduler seeded-async`` sweep axis.

Determinism: the RNG is reset at :meth:`bind` from ``seed`` alone and
consumed in the canonical (send, recipient) order the core guarantees,
so a run — and any sweep over runs, at any worker count — is replayable
from the seed.
"""

from __future__ import annotations

import random
from typing import Hashable

from ...graphs import Graph
from ..channels import ChannelModel
from .base import Scheduler
from .events import SendEvent


class SeededAsyncScheduler(Scheduler):
    """Uniform random per-link delays in ``{1, …, max_delay}``.

    ``declare_bound=False`` withdraws the delay-bound *declaration*
    while drawing exactly the same delays: the traces are unchanged, but
    ``bounded``-querying layers (runner horizons, the α-synchronizer)
    must treat the timing as genuinely asynchronous — the regime of the
    native asynchronous algorithm (arXiv:1909.02865), which never reads
    a bound in the first place.
    """

    name = "seeded-async"

    def __init__(self, seed: int = 0, max_delay: int = 3, declare_bound: bool = True):
        if max_delay < 1:
            raise ValueError("max_delay must be >= 1")
        self.seed = seed
        self.max_delay = max_delay
        self.bounded = declare_bound

    @property
    def worst_case_delay(self) -> "int | None":
        return self.max_delay if self.bounded else None

    def bind(self, graph: Graph, channel: ChannelModel) -> None:
        super().bind(graph, channel)
        # Seed from a repr, not the raw int, so seed 0 differs from the
        # unseeded default of other RNG uses in the library.
        self._bits = random.Random(repr(("seeded-async", self.seed))).getrandbits
        self._width = self.max_delay.bit_length()

    def delay(self, send: SendEvent, recipient: Hashable) -> int:
        # ``randint(1, max_delay)`` in one frame: the same rejection loop
        # over ``getrandbits`` that CPython's ``randint`` runs, so the
        # stream is unchanged (pinned against ``randint`` by the tests).
        r = self._bits(self._width)
        while r >= self.max_delay:
            r = self._bits(self._width)
        return 1 + r
