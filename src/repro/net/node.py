"""Protocol interface: what a node's state machine looks like.

Appendix A of the paper describes an algorithm as "a procedure ``A_u``
for each node ``u`` that describes state transitions of ``u``: in each
synchronous round, each node optionally sends messages to its neighbors,
receives messages from the neighbors, and then updates its state."

:class:`Protocol` is exactly that.  Once per round the simulator calls
:meth:`Protocol.on_round` with a :class:`Context` that exposes the inbox
(messages delivered this round, FIFO per sender) and the two send
primitives.  Sends take effect at the *end* of the round and are
delivered at the start of the next one.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Hashable, List, Optional, Tuple

from ..graphs import Graph
from ..obs import NULL_METRICS
from .channels import ChannelModel, EquivocationError

Inbox = List[Tuple[Hashable, object]]  # (sender, message), FIFO order
Outgoing = List[Tuple[object, Optional[Hashable]]]  # (message, target) queue


@dataclass(slots=True)
class Context:
    """Per-round view a protocol gets of the world.

    ``inbox`` holds the messages delivered this round (sent by neighbors
    last round).  ``broadcast`` queues a transmission every neighbor will
    receive; ``send`` queues a private transmission — which raises
    :class:`EquivocationError` unless the channel model grants this node
    point-to-point power.  Both append a ``(message, target)`` pair to
    ``outbox``, with ``target=None`` for a broadcast; the engine still
    refuses a unicast pair appended to the outbox directly on a
    local-broadcast channel.  Protocols must not keep references across
    rounds; all cross-round state belongs in the protocol object.

    ``now`` is the virtual timestamp of this activation.  The engine
    sets it equal to ``round_no``; timing-aware protocols should still
    read ``virtual_now``, which falls back to ``round_no`` for contexts
    built without one.

    ``metrics`` is the run's observability registry (a shared no-op
    unless the engine was built with one), so protocols instrument
    unconditionally — counting against :data:`~repro.obs.NULL_METRICS`
    costs one method call.  Wrappers that re-activate an inner protocol
    through a shadow context must propagate it.

    ``cause_kind``/``cause_index`` carry this activation's
    happened-before cause, stamped by the engine: ``"delivery"`` with
    the trace index of the last delivery that landed in this inbox, or
    ``"input"``/``"timer"`` for spontaneous activations (first tick /
    later schedule-driven ticks with an empty inbox).  Every
    transmission queued during the activation inherits this cause in
    the trace, which is what makes the recorded trace a causal DAG the
    flight recorder (:mod:`repro.obs.trace`) can replay and walk.
    Wrappers propagate both fields alongside ``metrics``.
    """

    node: Hashable
    graph: Graph
    round_no: int
    channel: ChannelModel
    inbox: Inbox
    outbox: Outgoing = field(default_factory=list)
    now: Optional[int] = None
    metrics: object = NULL_METRICS
    cause_kind: Optional[str] = None
    cause_index: Optional[int] = None

    @property
    def virtual_now(self) -> int:
        """The virtual clock at this activation (``round_no`` fallback)."""
        return self.round_no if self.now is None else self.now

    def broadcast(self, message: object) -> None:
        """Queue ``message`` for delivery to *all* neighbors next round."""
        self.outbox.append((message, None))

    def send(self, target: Hashable, message: object) -> None:
        """Queue a private message to one neighbor (point-to-point power).

        Raises :class:`EquivocationError` if this node's channel does not
        permit unicast, and ``ValueError`` if ``target`` is not a
        neighbor (there is no link to deliver on).
        """
        if not self.channel.may_unicast(self.node):
            raise EquivocationError(
                f"node {self.node!r} is restricted to local broadcast"
            )
        if target not in self.graph.neighbors(self.node):
            raise ValueError(f"{target!r} is not a neighbor of {self.node!r}")
        self.outbox.append((message, target))


class Protocol(ABC):
    """A per-node synchronous state machine.

    Subclasses implement :meth:`on_round`; the simulator stops a node's
    participation when :meth:`output` becomes non-``None`` *and* the
    protocol reports it no longer needs to run (``finished``).  Consensus
    protocols must keep forwarding messages after deciding until their
    final round, so ``finished`` is separate from having an output.
    """

    @abstractmethod
    def on_round(self, ctx: Context) -> None:
        """Handle one synchronous round (read inbox, queue sends, update state)."""

    def output(self) -> Optional[int]:
        """The decided value, or ``None`` while undecided."""
        return None

    @property
    def finished(self) -> bool:
        """True when the node will neither send nor change state again."""
        return self.output() is not None
