"""α-synchronizer: run the fixed-round protocols under asynchrony.

The paper's algorithms are synchronous state machines — round ``r``'s
inbox must hold exactly the messages sent in round ``r − 1``.  The
event-driven schedulers (:mod:`repro.net.sched`) deliberately break that
assumption, and the sweeps show what it costs (Algorithm 2 sheds
consensus on C4 under per-link jitter).  The authors' asynchronous
follow-up paper (arXiv:1909.02865) rebuilds consensus natively; the
classical *synchronizer* route taken here instead recovers the
synchronous abstraction on top of the asynchronous network, so every
existing :class:`~repro.net.node.Protocol` runs **unchanged**:

* :class:`AlphaSynchronizer` in ``"alpha"`` mode — time-division.  Each
  logical round is stretched into a window of ``window`` virtual ticks
  (``window`` = the scheduler's declared ``worst_case_delay``).  The
  inner protocol is activated once per window; everything that arrived
  during the previous window is presented as one synchronous-round
  inbox, in the canonical sender-sorted order the synchronous simulator
  produces.  Requires a *bounded* scheduler, tolerates Byzantine
  neighbors (they can say wrong things, but cannot desynchronize honest
  nodes — windows are a pure function of local time);
* ``"ack"`` mode — event-driven round advance, the α-synchronizer
  classic (Awerbuch 1985).  After executing logical round ``r`` a node
  broadcasts a :class:`RoundMarker`; per-link FIFO guarantees the
  marker arrives after the round's payloads, so "marker ``r`` received
  from every neighbor" certifies round ``r``'s messages are all in.
  Needs **no delay bound** for the fast path — and since the classical
  all-neighbors handshake lets a single marker-withholding Byzantine
  neighbor stall every honest node to ``budget_exhausted``, the
  fault-tolerant variant (``f > 0``) advances on markers from
  ``deg(v) − f`` neighbors instead of all, gated — when the scheduler
  *declares* a delay bound (``ack_timeout``) — by the α-window schedule
  as a timeout fallback: round ``r`` may fire on a partial marker set
  only from tick ``(r − 1)·window + 1`` on.  The gate is what keeps the
  quorum advance sound: by that tick every *honest* neighbor's round-
  ``(r − 1)`` marker (and, by FIFO, every payload) has arrived, so the
  at-most-``f`` neighbors advanced past are exactly the withholding
  ones.  Under an unbounded scheduler no such gate exists, and the
  quorum path stays off (the classical handshake; the native
  asynchronous algorithm in :mod:`repro.consensus.async_alg` is the
  delay-bound-free answer there).

Nothing on the wire changes in alpha mode — adversary wrappers, channel
enforcement and flood validators see exactly the messages they would see
synchronously.  Ack mode adds only the marker messages; payloads still
travel verbatim.

:class:`SynchronizedFactory` wraps any picklable honest-protocol factory
(every :class:`~repro.consensus.factory.ProtocolFactory` is one), so
sweeps can fan synchronized runs out across worker processes; the
wrapped protocol advertises a scaled ``total_rounds`` (inner rounds ×
window) so the runner's delay-aware budget accounting keeps working.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional

from ..net.adversary import HonestFactory
from ..net.node import Context, Inbox, Protocol
from .factory import flight_spec_of

SYNCHRONIZER_MODES = ("alpha", "ack")


@dataclass(frozen=True, slots=True)
class RoundMarker:
    """Ack-mode round boundary: "my logical round ``round_no`` is sent".

    Per-link FIFO makes the marker a barrier: every payload its sender
    queued in logical round ``round_no`` precedes it on each outgoing
    link, so receivers may attribute payloads to rounds purely by
    counting markers — message contents never need a round tag.
    """

    round_no: int


class AlphaSynchronizer(Protocol):
    """Run one fixed-round protocol on a per-node logical clock.

    The wrapper is itself a :class:`~repro.net.node.Protocol`: the
    engine activates it every virtual tick, and it decides — by window
    arithmetic (``"alpha"``) or by the marker handshake (``"ack"``) —
    when to advance the *inner* protocol by one logical round.  The
    inner protocol only ever sees logical round numbers and
    synchronous-shaped inboxes, never virtual time.

    With ``window=1`` in alpha mode the wrapper is a pass-through: every
    tick is a window, so under the lockstep scheduler the wrapped run is
    decision-identical to the bare one (property-tested across every
    factory in the library).
    """

    def __init__(
        self,
        inner: Protocol,
        window: int,
        mode: str = "alpha",
        f: int = 0,
        ack_timeout: bool = False,
    ):
        if window < 1:
            raise ValueError("window must be >= 1")
        if mode not in SYNCHRONIZER_MODES:
            raise ValueError(
                f"unknown synchronizer mode {mode!r}; "
                f"choose from {list(SYNCHRONIZER_MODES)}"
            )
        if f < 0:
            raise ValueError("f must be non-negative")
        self.inner = inner
        self.window = window
        self.mode = mode
        #: Ack-mode fault tolerance: advance on markers from deg − f
        #: neighbors (f = 0 keeps the classical all-neighbors handshake).
        self.f = f
        #: Whether the α-window timeout gate is available (i.e. the
        #: scheduler declared its delays bounded by ``window``).  The
        #: partial-marker advance is only sound behind the gate.
        self.ack_timeout = ack_timeout
        #: ``total_rounds`` below is denominated in virtual *ticks*, not
        #: synchronous rounds — the runner must not scale it by the
        #: scheduler's delay bound again.
        self.budget_in_ticks = True
        self.logical_round = 0  # last inner round executed
        inner_budget = getattr(inner, "total_rounds", None)
        self.inner_rounds: Optional[int] = (
            inner_budget if isinstance(inner_budget, int) else None
        )
        if self.inner_rounds is not None:
            # Ticks the wrapped run may need: alpha activates round r at
            # tick (r-1)·window + 1; ack's marker waves need at most the
            # same horizon under delays ≤ window.  The runner reads this
            # as the protocol's own budget.
            self.total_rounds = self.inner_rounds * window
        self._ticks = 0
        # alpha mode: everything since the last window boundary.
        self._buffer: Inbox = []
        # ack mode: markers seen per neighbor, and payloads keyed by the
        # sender's logical round they belong to (markers seen + 1).
        self._markers: Dict[Hashable, int] = {}
        self._pending: Dict[Hashable, Dict[int, List[object]]] = {}

    # ------------------------------------------------------------------
    def on_round(self, ctx: Context) -> None:
        self._ticks += 1
        if self.mode == "alpha":
            self._alpha_tick(ctx)
        else:
            self._ack_tick(ctx)

    def output(self) -> Optional[int]:
        return self.inner.output()

    @property
    def finished(self) -> bool:
        return self.inner.finished

    # ------------------------------------------------------------------
    # alpha mode: fixed windows of `window` ticks per logical round
    # ------------------------------------------------------------------
    def _alpha_tick(self, ctx: Context) -> None:
        self._buffer.extend(ctx.inbox)
        if (self._ticks - 1) % self.window != 0:
            return
        # Window boundary.  Every round-(r-1) message has arrived: it was
        # sent at tick (r-2)·window + 1 and delays are ≤ window, and the
        # engine drains deliveries due at a tick before activations.
        inbox = self._canonical(self._buffer)
        self._buffer = []
        self._advance(ctx, inbox)

    @staticmethod
    def _canonical(buffer: Inbox) -> Inbox:
        """Arrival order → the synchronous (lockstep) inbox order.

        Under lockstep timing the engine fills inboxes sender-by-sender in
        repr-sorted node order, FIFO within a sender.  A stable sort on
        the sender key reproduces exactly that (per-sender FIFO is
        preserved from arrival order), which is what makes a wrapped
        honest run *decision-identical* to the synchronous run rather
        than merely decision-equivalent.
        """
        return sorted(buffer, key=lambda item: repr(item[0]))

    # ------------------------------------------------------------------
    # ack mode: marker handshake, no delay bound needed
    # ------------------------------------------------------------------
    def _ack_tick(self, ctx: Context) -> None:
        for sender, message in ctx.inbox:
            if isinstance(message, RoundMarker):
                self._markers[sender] = self._markers.get(sender, 0) + 1
            else:
                belongs_to = self._markers.get(sender, 0) + 1
                self._pending.setdefault(sender, {}).setdefault(
                    belongs_to, []
                ).append(message)
        # Round markers arrive from the nodes this one *hears*: the
        # in-neighborhood (identical to the neighborhood on a Graph).
        neighbors = ctx.graph.sorted_in_neighbors(ctx.node)
        if not neighbors:
            # An isolated node waits on nobody: one round per tick, so
            # an unbounded inner protocol cannot spin the handshake loop
            # forever within a single activation.
            if self._ack_ready(neighbors):
                self._advance(ctx, [])
                ctx.broadcast(RoundMarker(self.logical_round))
            return
        # Advance as far as the handshake allows this tick (a lagging
        # node may hold markers for several rounds).  Sends queued across
        # iterations share this tick's timestamp; FIFO seq order keeps
        # each round's payloads ahead of its marker on every link.
        while self._ack_ready(neighbors):
            inbox: Inbox = []
            for nbr in neighbors:
                staged = self._pending.get(nbr, {}).pop(self.logical_round, [])
                inbox.extend((nbr, message) for message in staged)
            self._advance(ctx, inbox)
            ctx.broadcast(RoundMarker(self.logical_round))

    def _ack_ready(self, neighbors) -> bool:
        if self.inner_rounds is not None and self.logical_round >= self.inner_rounds:
            return False  # inner protocol has run its full schedule
        if self.logical_round == 0:
            return True  # round 1's inbox is empty by definition
        have = sum(
            1 for nbr in neighbors if self._markers.get(nbr, 0) >= self.logical_round
        )
        if have == len(neighbors):
            return True  # the classical fast path: everything is in
        if self.f <= 0 or not self.ack_timeout:
            # No fault allowance, or no declared delay bound to make a
            # partial advance sound — keep waiting (Byzantine marker
            # withholding then stalls the run, the classical behavior).
            return False
        if have < max(0, len(neighbors) - self.f):
            return False
        # α-window timeout fallback: the next round may fire on a partial
        # marker set only from its alpha-schedule tick on.  Induction
        # gives that every honest node executes round r by tick
        # (r−1)·window + 1, so its markers — and, by per-link FIFO, its
        # payloads — have arrived here by r·window + 1: the ≤ f neighbors
        # being advanced past can only be withholding faults, never slow
        # honest nodes.
        return self._ticks >= self.logical_round * self.window + 1

    # ------------------------------------------------------------------
    def _advance(self, ctx: Context, inbox: Inbox) -> None:
        """Run one inner logical round; its sends land in ``ctx.outbox``.

        The shadow has ``ctx``'s node, graph and channel, so
        ``broadcast``/``send`` check each inner send exactly as ``ctx``
        would.
        """
        self.logical_round += 1
        shadow = Context(
            node=ctx.node,
            graph=ctx.graph,
            round_no=self.logical_round,
            channel=ctx.channel,
            inbox=inbox,
            outbox=ctx.outbox,
            now=self.logical_round,
            metrics=ctx.metrics,
            # The engine-level cause of the activation driving this
            # logical round; buffered arrivals from earlier ticks are
            # still in the causal past via their own delivery records.
            cause_kind=ctx.cause_kind,
            cause_index=ctx.cause_index,
        )
        self.inner.on_round(shadow)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<AlphaSynchronizer mode={self.mode!r} window={self.window} "
            f"round={self.logical_round} inner={self.inner!r}>"
        )


class SynchronizedFactory:
    """Picklable ``(node, input) → AlphaSynchronizer(inner)`` factory.

    Wraps any honest-protocol factory in the library — every
    :class:`~repro.consensus.factory.ProtocolFactory` is picklable, and
    this wrapper pickles exactly when its inner factory does, so
    synchronized sweeps fan out across worker processes unchanged.  Adversaries that simulate honest behavior
    (``spec.honest()``) also receive the wrapped protocol, so faulty
    nodes participate in the same round discipline their honest template
    would.
    """

    def __init__(
        self,
        inner: HonestFactory,
        window: int,
        mode: str = "alpha",
        f: int = 0,
        ack_timeout: bool = False,
    ):
        if window < 1:
            raise ValueError("window must be >= 1")
        if mode not in SYNCHRONIZER_MODES:
            raise ValueError(
                f"unknown synchronizer mode {mode!r}; "
                f"choose from {list(SYNCHRONIZER_MODES)}"
            )
        if f < 0:
            raise ValueError("f must be non-negative")
        self.inner = inner
        self.window = window
        self.mode = mode
        self.f = f
        self.ack_timeout = ack_timeout

    def __call__(self, node: Hashable, input_value: int) -> AlphaSynchronizer:
        return AlphaSynchronizer(
            self.inner(node, input_value),
            window=self.window,
            mode=self.mode,
            f=self.f,
            ack_timeout=self.ack_timeout,
        )

    def flight_spec(self) -> dict:
        """JSON-ready recipe for the flight recorder: this wrapper's
        knobs plus the inner factory's own spec (replay rebuilds
        inside-out).  An inner factory without a ``flight_spec`` is
        recorded as opaque — the flight stays analyzable, not replayable."""
        return {
            "kind": "synchronized",
            "window": self.window,
            "mode": self.mode,
            "f": self.f,
            "ack_timeout": self.ack_timeout,
            "inner": flight_spec_of(self.inner),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SynchronizedFactory({self.inner!r}, window={self.window}, "
            f"mode={self.mode!r}, f={self.f}, ack_timeout={self.ack_timeout})"
        )


def synchronize_factory(
    factory: HonestFactory,
    scheduler: Optional["SchedulerSpec"] = None,
    mode: str = "alpha",
    window: Optional[int] = None,
    f: int = 0,
) -> SynchronizedFactory:
    """Wrap ``factory`` with the window sized from a scheduler spec.

    ``window`` defaults to the scheduler's declared ``worst_case_delay``
    (1 when no scheduler is given — the degenerate pass-through).  An
    unbounded scheduler requires an explicit ``window``: alpha mode
    cannot size its rounds without a bound (ack mode only uses the
    window to scale the tick budget, but still needs *a* number).

    ``f`` enables ack mode's fault-tolerant marker quorum (``deg − f``);
    the α-window timeout gate that makes the quorum advance sound is
    switched on exactly when the scheduler declares a delay bound.
    """
    ack_timeout = (
        mode == "ack" and scheduler is not None and scheduler.bounded
    )
    if window is None:
        if scheduler is None:
            window = 1
        else:
            if not scheduler.bounded:
                raise ValueError(
                    f"scheduler {scheduler.name!r} declares no delay bound; "
                    "pass an explicit window"
                )
            window = scheduler.worst_case_delay
    elif scheduler is not None and scheduler.bounded:
        # A window below the declared bound silently un-sounds alpha
        # mode: a round-r message delayed past the next window boundary
        # would surface in round r+2's inbox.  Refuse rather than run a
        # "synchronized" execution that isn't.
        if window < scheduler.worst_case_delay:
            raise ValueError(
                f"window {window} is below scheduler "
                f"{scheduler.name!r}'s declared worst-case delay "
                f"{scheduler.worst_case_delay}"
            )
    return SynchronizedFactory(
        factory, window=window, mode=mode, f=f, ack_timeout=ack_timeout
    )
