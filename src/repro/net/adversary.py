"""Byzantine adversary framework and behavior library.

The paper's proofs quantify over *all* adversaries; a simulator cannot.
What it can do is (a) implement the worst-case behaviors the proofs
themselves construct — path tampering, equivocation, transcript replay
from the covering network — and (b) fuzz with seeded random behaviors.
Every experiment in this library draws its faulty nodes' behavior from
here.

The generic battery (:func:`standard_adversaries`) attacks the value
floods.  Appendix C's algorithm has two more attack surfaces, covered by
:func:`algorithm2_attack_battery`: a faulty reporter can lie about what
its neighbors transmitted in phase 2 (framing an honest node, or
whitewashing a faulty one), and a faulty node can flood a forged
phase-3 decision hoping a type-A node adopts it.  Both must be
survivable: false claims never reach the f+1 disjoint-path reliability
bar, and forged decisions are filtered because their origin is
localized (or their paths aren't fault-free).

Design: an :class:`Adversary` builds a :class:`~repro.net.node.Protocol`
for each faulty node.  Most behaviors wrap the *honest* protocol and
transform its outbox (tamper, crash, equivocate); others replace it
entirely (silent, replay).  All sends are routed through the
:class:`~repro.net.node.Context` primitives, so the channel model is
enforced on adversaries exactly as on honest nodes: a non-equivocating
faulty node physically cannot deliver different bits to different
neighbors.

:data:`ADVERSARIES`, the counterpart of :data:`repro.consensus.KINDS`,
maps each behavior's name to its class and recorded fields: a flight
records :meth:`Adversary.flight_spec`, ``{"name", "seed", **fields}``,
and :func:`adversary_from_spec` rebuilds it.  Any other behavior
(``replay``, ``re-init``, ``eig-equivocate``) records ``{"name",
"seed": None}``, and replay refuses it.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Hashable, Optional, Tuple

from ..graphs import Graph
from ..obs import FlightReplayError
from .channels import ChannelModel
from .messages import DecisionPayload, FloodMessage, ValuePayload
from .node import Context, Outgoing, Protocol

HonestFactory = Callable[[Hashable, int], Protocol]
"""Builds the honest protocol for (node, input_value)."""


@dataclass(frozen=True)
class FaultSpec:
    """Everything an adversary may use when instantiating a faulty node.

    Byzantine nodes know the graph, the fault bound, their co-conspirators
    and their own input; they do **not** get honest nodes' private state —
    anything else they learn must arrive through their inbox.
    """

    node: Hashable
    graph: Graph
    channel: ChannelModel
    input_value: int
    f: int
    faulty: FrozenSet[Hashable]
    honest_factory: HonestFactory

    def honest(self, input_value: Optional[int] = None) -> Protocol:
        value = self.input_value if input_value is None else input_value
        return self.honest_factory(self.node, value)


class Adversary(ABC):
    """Builds faulty-node protocols.  Subclasses define one behavior."""

    name = "adversary"

    @abstractmethod
    def build(self, spec: FaultSpec) -> Protocol:
        """Instantiate the behavior for one faulty node."""

    def flight_spec(self) -> dict:
        """The flight header's recipe: ``{"name", "seed", **fields}``,
        with the fields :data:`ADVERSARIES` lists for this name (none,
        and ``"seed": None``, outside the table)."""
        spec = {"name": self.name, "seed": None}
        _cls, fields = ADVERSARIES.get(self.name, (None, {}))
        spec.update((field, getattr(self, field)) for field in fields)
        return spec

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


# ---------------------------------------------------------------------------
# Wrapper plumbing
# ---------------------------------------------------------------------------


class _WrapperProtocol(Protocol):
    """Runs an inner (honest) protocol and post-processes its outbox.

    The inner protocol sees the true inbox; only what leaves the node is
    altered.  Subclasses override :meth:`transform` — or pass a
    ``transform(outbox, ctx)`` function — yielding ``(message, target)``
    pairs (``target=None`` for broadcast), which are re-sent through the
    real context so channel enforcement applies.

    Behaviors pass a function rather than define a class per
    :meth:`Adversary.build`: a class object is a reference cycle, so a
    class per faulty node per run would leave garbage for the cyclic
    collector on every run.
    """

    def __init__(
        self,
        inner: Protocol,
        transform: Optional[Callable[[Outgoing, Context], Outgoing]] = None,
    ):
        self.inner = inner
        if transform is not None:
            self.transform = transform

    def on_round(self, ctx: Context) -> None:
        shadow = Context(
            ctx.node, ctx.graph, ctx.round_no, ctx.channel, ctx.inbox,
            [], ctx.now, ctx.metrics, ctx.cause_kind, ctx.cause_index,
        )
        self.inner.on_round(shadow)
        for message, target in self.transform(shadow.outbox, ctx):
            if target is None:
                ctx.broadcast(message)
            else:
                ctx.send(target, message)

    def transform(self, outbox: Outgoing, ctx: Context) -> Outgoing:
        return outbox

    def output(self) -> Optional[int]:
        return self.inner.output()

    @property
    def finished(self) -> bool:
        return self.inner.finished


class _Replay(Protocol):
    """Transmits ``schedule[round]`` each round, and nothing else: a
    faulty node's whole behavior when it is silent or replays."""

    def __init__(self, schedule: Dict[int, Outgoing]):
        self.schedule = schedule

    def on_round(self, ctx: Context) -> None:
        for message, target in self.schedule.get(ctx.round_no, []):
            if target is None:
                ctx.broadcast(message)
            else:
                ctx.send(target, message)

    def output(self) -> Optional[int]:
        return None

    @property
    def finished(self) -> bool:
        return True


# ---------------------------------------------------------------------------
# Behaviors
# ---------------------------------------------------------------------------


class SilentAdversary(Adversary):
    """Never transmits anything.  Exercises the default-message rule
    ("a missing initiation is read as (1, ⊥)")."""

    name = "silent"

    def build(self, spec: FaultSpec) -> Protocol:
        return _Replay({})


class CrashAdversary(Adversary):
    """Behaves honestly, then goes permanently silent at ``crash_round``."""

    name = "crash"

    def __init__(self, crash_round: int):
        self.crash_round = crash_round

    def build(self, spec: FaultSpec) -> Protocol:
        crash_round = self.crash_round

        def transform(outbox, ctx):
            if ctx.round_no >= crash_round:
                return []
            return outbox

        return _WrapperProtocol(spec.honest(), transform)


class WrongInputAdversary(Adversary):
    """Runs the honest protocol on a flipped input.

    The blandest Byzantine behavior — indistinguishable from an honest
    node with the other input, so validity tests must tolerate it.
    """

    name = "wrong-input"

    def build(self, spec: FaultSpec) -> Protocol:
        return spec.honest(input_value=1 - spec.input_value)


class TamperForwardAdversary(Adversary):
    """Forwards flood messages with flipped values.

    ``selector(message, spec)`` picks which outgoing flood messages to
    corrupt; the default corrupts every *forwarded* message (those with a
    non-empty path — the node's own initiation stays truthful, which is
    the "node 3 tampers the relayed message" attack from Section 4's
    intuition-building example).
    """

    name = "tamper-forward"

    def __init__(
        self,
        selector: Optional[Callable[[FloodMessage, FaultSpec], bool]] = None,
    ):
        self.selector = selector

    def build(self, spec: FaultSpec) -> Protocol:
        selector = self.selector or (lambda m, s: len(m.path) > 0)

        def transform(outbox, ctx):
            result = []
            for message, target in outbox:
                if (
                    isinstance(message, FloodMessage)
                    and isinstance(message.payload, ValuePayload)
                    and selector(message, spec)
                ):
                    flipped = FloodMessage(
                        message.phase,
                        ValuePayload(1 - message.payload.value),
                        message.path,
                    )
                    result.append((flipped, target))
                else:
                    result.append((message, target))
            return result

        return _WrapperProtocol(spec.honest(), transform)


def _is_initiation(message: FloodMessage, spec: FaultSpec) -> bool:
    """Selects a node's own initiations (empty path).  Module-level, so
    the adversary that holds it pickles into sweep workers."""
    return len(message.path) == 0


class LyingInitAdversary(TamperForwardAdversary):
    """Initiates flooding with the wrong value but forwards honestly:
    :class:`TamperForwardAdversary` flipping initiations instead of
    forwards.

    Distinct from :class:`WrongInputAdversary` only for protocols whose
    state evolves across phases (Algorithm 1's γ updates): this one lies
    at every initiation regardless of its current honest-protocol state.
    """

    name = "lying-init"

    def __init__(self) -> None:
        super().__init__(_is_initiation)


class DropForwardAdversary(Adversary):
    """Initiates its own flooding but never forwards anyone else's
    messages — severs every path routed through it."""

    name = "drop-forward"

    def build(self, spec: FaultSpec) -> Protocol:
        def transform(outbox, ctx):
            return [
                (m, t)
                for m, t in outbox
                if not (isinstance(m, FloodMessage) and len(m.path) > 0)
            ]

        return _WrapperProtocol(spec.honest(), transform)


class EquivocatingAdversary(Adversary):
    """Sends value 0 to one half of its neighbors and 1 to the other.

    Only usable where the channel grants this node unicast (hybrid model
    equivocators, or the point-to-point model); under pure local
    broadcast, building this behavior raises at send time — which is
    itself a property the tests assert.
    """

    name = "equivocate"

    def build(self, spec: FaultSpec) -> Protocol:
        def transform(outbox, ctx):
            neighbors = sorted(ctx.graph.neighbors(ctx.node), key=repr)
            result = []
            for message, target in outbox:
                if (
                    target is None
                    and isinstance(message, FloodMessage)
                    and isinstance(message.payload, ValuePayload)
                ):
                    for i, nbr in enumerate(neighbors):
                        # Alternating by neighbor rank: a genuine split
                        # whenever the node has two or more neighbors.
                        variant = FloodMessage(
                            message.phase, ValuePayload(i % 2), message.path
                        )
                        result.append((variant, nbr))
                else:
                    result.append((message, target))
            return result

        return _WrapperProtocol(spec.honest(), transform)


class RandomAdversary(Adversary):
    """Seeded chaos within the channel's physics.

    Each outgoing flood message is independently dropped (probability
    0.2), value-flipped (0.4) or delivered honestly; with probability
    0.2 per activation that sent one, a syntactically valid fabricated
    message (a lie about a path ending at this node) is broadcast too.
    Deterministic per (seed, node).
    """

    name = "random"

    def __init__(self, seed: int):
        self.seed = seed

    def build(self, spec: FaultSpec) -> Protocol:
        rng = random.Random((self.seed, repr(spec.node)).__repr__())
        p_flip, p_drop, p_fab = 0.4, 0.2, 0.2

        def fabricate(ctx: Context, phase) -> Optional[FloodMessage]:
            # A lie about a short path that really exists in G and ends
            # just before this node, so receivers' rule (i) accepts it.
            me = ctx.node
            nbrs = sorted(ctx.graph.neighbors(me), key=repr)
            if not nbrs:
                return None
            first = rng.choice(nbrs)
            second_choices = [
                w
                for w in sorted(ctx.graph.neighbors(first), key=repr)
                if w != me
            ]
            path: Tuple[Hashable, ...]
            if second_choices and rng.random() < 0.5:
                path = (rng.choice(second_choices), first)
            else:
                path = (first,)
            return FloodMessage(phase, ValuePayload(rng.randint(0, 1)), path)

        def transform(outbox, ctx):
            result = []
            phase = None
            for message, target in outbox:
                if isinstance(message, FloodMessage) and isinstance(
                    message.payload, ValuePayload
                ):
                    phase = message.phase
                    roll = rng.random()
                    if roll < p_drop:
                        continue
                    if roll < p_drop + p_flip:
                        message = FloodMessage(
                            message.phase,
                            ValuePayload(1 - message.payload.value),
                            message.path,
                        )
                result.append((message, target))
            if phase is not None and rng.random() < p_fab:
                fake = fabricate(ctx, phase)
                if fake is not None:
                    result.append((fake, None))
            return result

        return _WrapperProtocol(spec.honest(), transform)


class ReplayAdversary(Adversary):
    """Transmits a prescribed per-round schedule, verbatim.

    This is the adversary of the impossibility proofs: "in each round, a
    faulty node broadcasts the same messages as the corresponding node in
    network 𝒢 in execution E in the same round" (Lemmas A.1/A.2/D.1/D.2).
    ``schedules[node]`` maps round → list of (message, target) pairs; an
    equivocating node's split replay (Lemmas D.1/D.2) is a schedule of
    unicasts, which needs a channel granting that node unicast.
    """

    name = "replay"

    def __init__(
        self,
        schedules: Dict[Hashable, Dict[int, Outgoing]],
    ):
        self.schedules = schedules

    def build(self, spec: FaultSpec) -> Protocol:
        return _Replay(self.schedules.get(spec.node, {}))


def standard_adversaries(seed: int = 7) -> list[Adversary]:
    """The battery every correctness sweep runs against."""
    return [adversary_from_spec({"name": name, "seed": seed}) for name in (
        "silent", "crash", "wrong-input", "lying-init", "tamper-forward",
        "drop-forward", "random")]


# ---------------------------------------------------------------------------
# Algorithm 2 report and decision attacks
# ---------------------------------------------------------------------------


class LyingReporterAdversary(Adversary):
    """Rewrites its own phase-2 report bundle to frame honest neighbors.

    Every ``ValuePayload`` inside the initiated bundle is flipped and
    the recorded rounds are shifted, so the bundle accuses each
    neighbor of having transmitted things it never did (and omits what
    it actually did).  Forwarded bundles from others pass untouched.
    """

    name = "lying-reporter"

    def build(self, spec: FaultSpec) -> Protocol:
        from ..consensus.reliable import ReportBundle

        def transform(outbox, ctx):
            result = []
            for message, target in outbox:
                if (
                    isinstance(message, FloodMessage)
                    and isinstance(message.payload, ReportBundle)
                    and len(message.path) == 0
                    and message.payload.reporter == ctx.node
                ):
                    forged_entries = []
                    for subject, transcript in message.payload.entries:
                        forged = tuple(
                            (
                                round_no + 1,
                                FloodMessage(
                                    m.phase,
                                    ValuePayload(1 - m.payload.value),
                                    m.path,
                                )
                                if isinstance(m, FloodMessage)
                                and isinstance(m.payload, ValuePayload)
                                else m,
                            )
                            for round_no, m in transcript
                        )
                        forged_entries.append((subject, forged))
                    bundle = ReportBundle(ctx.node, tuple(forged_entries))
                    result.append(
                        (FloodMessage(message.phase, bundle, ()), target)
                    )
                else:
                    result.append((message, target))
            return result

        return _WrapperProtocol(spec.honest(), transform)


class SilentReporterAdversary(Adversary):
    """Participates in phases 1 and 3 but never sends its phase-2 report
    (and drops forwarded reports too): starves the claim machinery."""

    name = "silent-reporter"

    def build(self, spec: FaultSpec) -> Protocol:
        from ..consensus.reliable import ReportBundle

        def transform(outbox, ctx):
            return [
                (m, t)
                for m, t in outbox
                if not (
                    isinstance(m, FloodMessage)
                    and isinstance(m.payload, ReportBundle)
                )
            ]

        return _WrapperProtocol(spec.honest(), transform)


class DecisionForgeAdversary(Adversary):
    """Floods a forged phase-3 decision (and flips forwarded ones).

    ``value`` fixes the forged decision; default flips whatever the
    honest protocol would have decided.
    """

    name = "decision-forge"

    def __init__(self, value: Optional[int] = None):
        self.value = value

    def build(self, spec: FaultSpec) -> Protocol:
        forged_value = self.value

        def transform(outbox, ctx):
            result = []
            forged_any = False
            for message, target in outbox:
                if isinstance(message, FloodMessage) and isinstance(
                    message.payload, DecisionPayload
                ):
                    value = (
                        forged_value
                        if forged_value is not None
                        else 1 - message.payload.value
                    )
                    result.append(
                        (
                            FloodMessage(
                                message.phase,
                                DecisionPayload(value),
                                message.path,
                            ),
                            target,
                        )
                    )
                    forged_any = forged_any or len(message.path) == 0
                else:
                    result.append((message, target))
            if not forged_any and ctx.round_no == 2 * ctx.graph.n + 1:
                # The honest inner protocol may be type A or B-silent;
                # forge a decision out of thin air at phase-3 start.
                from ..consensus.algorithm2 import Algorithm2Protocol

                value = forged_value if forged_value is not None else 0
                result.append(
                    (
                        FloodMessage(
                            Algorithm2Protocol.PHASE3,
                            DecisionPayload(value),
                            (),
                        ),
                        None,
                    )
                )
            return result

        return _WrapperProtocol(spec.honest(), transform)


def algorithm2_attack_battery() -> list[Adversary]:
    """The Algorithm 2-specific attacks, for sweeps and benchmarks."""
    return [
        LyingReporterAdversary(),
        SilentReporterAdversary(),
        DecisionForgeAdversary(),
        DecisionForgeAdversary(value=0),
        DecisionForgeAdversary(value=1),
    ]


#: name -> (class, {field: default}): every replayable behavior, and the
#: scalar fields its flight spec records and its constructor takes.
ADVERSARIES: Dict[str, Tuple[type, Dict[str, Optional[int]]]] = {
    "silent": (SilentAdversary, {}),
    "crash": (CrashAdversary, {"crash_round": 2}),
    "wrong-input": (WrongInputAdversary, {}),
    "lying-init": (LyingInitAdversary, {}),
    "tamper-forward": (TamperForwardAdversary, {}),
    "drop-forward": (DropForwardAdversary, {}),
    "random": (RandomAdversary, {"seed": 7}),
    "equivocate": (EquivocatingAdversary, {}),
    "lying-reporter": (LyingReporterAdversary, {}),
    "silent-reporter": (SilentReporterAdversary, {}),
    "decision-forge": (DecisionForgeAdversary, {"value": None}),
}


def adversary_from_spec(spec: Optional[dict]) -> Optional[Adversary]:
    """Rebuild the adversary a :meth:`Adversary.flight_spec` dict names;
    a field the spec omits or records as ``None`` takes its default."""
    if spec is None:
        return None
    name = spec["name"]
    if name not in ADVERSARIES:
        raise FlightReplayError(
            # repro: allow[REPRO001] the table literal's order, in a message.
            f"unknown adversary {name!r}; choose from {list(ADVERSARIES)}")
    cls, fields = ADVERSARIES[name]
    return cls(**{
        field: default if spec.get(field) is None else spec[field]
        # repro: allow[REPRO001] keyword arguments: order cannot matter.
        for field, default in fields.items()})
