"""Covering networks 𝒢 for the state-machine impossibility proofs.

The necessity proofs (Lemmas A.1, A.2, D.1, D.2) all follow the same
recipe: build a network ``𝒢`` containing one or two *copies* of each node
of ``G``, wired so that **for each edge ``uv`` of ``G``, every copy of
``u`` receives messages from exactly one copy of ``v``**.  Each copy runs
the unmodified per-node procedure ``A_u`` of the algorithm under test —
a copy cannot tell it is not the real ``u`` in the real ``G``.

Running one execution ``E`` on ``𝒢`` then yields, by projection, several
executions ``E1, E2, E3`` of the *real* graph in which the faulty nodes
replay copy transcripts.  Validity forces the outputs in ``E1`` and
``E3``; the projection forces a contradiction in ``E2``.

:class:`CoveringNetwork` stores the copy structure and the listen map;
:func:`run_covering` runs ``E`` on the same engine as ``E1, E2, E3``
(:class:`~repro.net.EventDrivenNetwork`, over :meth:`CoveringNetwork.digraph`),
giving every copy a :class:`~repro.net.node.Context` that looks exactly
like running on ``G`` (same graph object, same node name, local-broadcast
channel), and returns each copy's transcript as a replay schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Optional, Tuple

from ..graphs import Digraph, Graph, GraphError
from ..net.node import Context, Outgoing, Protocol
from ..net.sched import EventDrivenNetwork

CopyId = Tuple[Hashable, int]  # (original node, copy index)


@dataclass(frozen=True)
class CoveringNetwork:
    """The copy structure of a network ``𝒢`` over a base graph ``G``.

    ``copies[u]`` lists the copy indices of ``u`` (``(0,)`` for single,
    ``(0, 1)`` for doubled).  ``listen[(u, i)][v]`` names the copy index
    of neighbor ``v`` whose transmissions copy ``(u, i)`` receives.
    """

    base: Graph
    copies: Mapping[Hashable, Tuple[int, ...]]
    listen: Mapping[CopyId, Mapping[Hashable, int]]

    def __post_init__(self) -> None:
        for u in self.base.nodes:
            if u not in self.copies or not self.copies[u]:
                raise GraphError(f"node {u!r} has no copies")
        for u in self.base.nodes:
            for i in self.copies[u]:
                cid = (u, i)
                if cid not in self.listen:
                    raise GraphError(f"copy {cid!r} has no listen map")
                lmap = self.listen[cid]
                for v in self.base.neighbors(u):
                    if v not in lmap:
                        raise GraphError(f"copy {cid!r} ignores neighbor {v!r}")
                    if lmap[v] not in self.copies[v]:
                        raise GraphError(
                            f"copy {cid!r} listens to missing copy of {v!r}"
                        )

    def all_copies(self) -> List[CopyId]:
        return [
            (u, i)
            for u in sorted(self.base.nodes, key=repr)
            for i in self.copies[u]
        ]

    def digraph(self) -> Digraph:
        """``𝒢`` as a digraph of copy ids: an arc from each copy to every
        copy that listens to it.  Only ``G``'s edges are read, so a
        listen entry naming a non-neighbor carries nothing."""
        return Digraph(
            self.all_copies(),
            (
                ((v, self.listen[(u, i)][v]), (u, i))
                for u in self.base.nodes
                for i in self.copies[u]
                for v in self.base.neighbors(u)
            ),
        )

    def check_edge_property(self) -> None:
        """Assert the proofs' invariant: per ``G``-edge ``uv``, each copy
        of ``u`` listens to exactly one copy of ``v`` (by construction of
        the listen map) — and conversely every copy pair is consistent.
        Raises :class:`GraphError` on violation."""
        for u in self.base.nodes:
            for i in self.copies[u]:
                lmap = self.listen[(u, i)]
                extra = set(lmap) - set(self.base.neighbors(u))
                if extra:
                    raise GraphError(
                        f"copy {(u, i)!r} listens to non-neighbors {extra!r}"
                    )


class _Copy(Protocol):
    """Copy ``(u, i)`` of ``𝒢``: runs node ``u``'s protocol as if on ``G``.

    The inner protocol gets ``G``, the name ``u``, senders named by their
    base nodes and the engine's local-broadcast channel.  Every send must
    be a broadcast; each is kept in :attr:`schedule` (round →
    ``[(message, None)]``), the shape
    :class:`~repro.net.adversary.ReplayAdversary` replays.
    """

    def __init__(self, node: Hashable, base: Graph, inner: Protocol):
        self.node, self.base, self.inner = node, base, inner
        self.schedule: Dict[int, Outgoing] = {}

    def on_round(self, ctx: Context) -> None:
        inbox = [(sender[0], message) for sender, message in ctx.inbox]
        shadow = Context(self.node, self.base, ctx.round_no, ctx.channel, inbox)
        self.inner.on_round(shadow)
        for message, target in shadow.outbox:
            if target is not None:
                raise GraphError("covering executions model local broadcast only")
            self.schedule.setdefault(ctx.round_no, []).append((message, None))
            ctx.broadcast(message)

    def output(self) -> Optional[int]:
        return self.inner.output()


def run_covering(
    network: CoveringNetwork,
    protocols: Mapping[CopyId, Protocol],
    rounds: int,
) -> Tuple[Dict[CopyId, Optional[int]], Dict[CopyId, Dict[int, Outgoing]]]:
    """Run execution ``E``: ``rounds`` lockstep rounds of ``protocols``
    (one per copy, built for its base node) on ``𝒢``.

    Returns each copy's output and its transcript as a replay schedule.
    The engine fills an inbox in ``repr`` order of the sending copies,
    and a copy hears one copy per neighbor, so its inbox is ordered as
    ``u``'s inbox on ``G`` would be.
    """
    copies = network.all_copies()
    missing = set(copies) - set(protocols)
    if missing:
        raise GraphError(f"no protocol for copies {sorted(missing)}")
    wrapped = {c: _Copy(c[0], network.base, protocols[c]) for c in copies}
    EventDrivenNetwork(network.digraph(), wrapped, record_messages=False).run(rounds)
    outputs = {c: p.output() for c, p in protocols.items()}
    return outputs, {c: w.schedule for c, w in wrapped.items()}
