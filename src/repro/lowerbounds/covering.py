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
:class:`CoveringSimulator` runs protocols on it, giving every copy a
:class:`~repro.net.node.Context` that looks exactly like running on
``G`` (same graph object, same node name, local-broadcast channel).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Optional, Tuple

from ..graphs import Graph, GraphError
from ..net.channels import local_broadcast_model
from ..net.node import Context, Protocol

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

    def listeners_of(self, speaker: CopyId) -> List[CopyId]:
        """Every copy that receives ``speaker``'s transmissions."""
        v, j = speaker
        out = []
        for u in sorted(self.base.neighbors(v), key=repr):
            for i in self.copies[u]:
                if self.listen[(u, i)][v] == j:
                    out.append((u, i))
        return out

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


@dataclass
class CopyTranscript:
    """What one copy transmitted, per round (all sends are broadcasts —
    honest protocols under local broadcast never unicast)."""

    messages: Dict[int, List[object]] = field(default_factory=dict)

    def record(self, round_no: int, message: object) -> None:
        self.messages.setdefault(round_no, []).append(message)

    def as_schedule(self) -> Dict[int, List[Tuple[object, Optional[Hashable]]]]:
        """The shape :class:`~repro.net.adversary.ReplayAdversary` expects."""
        return {
            r: [(m, None) for m in msgs] for r, msgs in self.messages.items()
        }


class CoveringSimulator:
    """Run per-node protocols on a covering network.

    Every copy ``(u, i)`` runs a protocol built for node ``u`` on the
    *base* graph: the context it receives is indistinguishable from a
    real execution on ``G``.  Delivery follows the listen map; inbox
    order is deterministic (senders sorted, FIFO per sender).
    """

    def __init__(
        self,
        network: CoveringNetwork,
        protocols: Mapping[CopyId, Protocol],
    ):
        missing = set(network.all_copies()) - set(protocols)
        if missing:
            raise GraphError(f"no protocol for copies {sorted(missing)}")
        self.network = network
        self.protocols = dict(protocols)
        self.round_no = 0
        self.transcripts: Dict[CopyId, CopyTranscript] = {
            c: CopyTranscript() for c in network.all_copies()
        }
        self._pending: Dict[CopyId, List[Tuple[Hashable, object]]] = {
            c: [] for c in network.all_copies()
        }
        self._order = network.all_copies()
        self._channel = local_broadcast_model()

    def step(self) -> None:
        self.round_no += 1
        inboxes, self._pending = self._pending, {c: [] for c in self._order}
        contexts: List[Tuple[CopyId, Context]] = []
        for cid in self._order:
            u, _i = cid
            ctx = Context(
                node=u,
                graph=self.network.base,
                round_no=self.round_no,
                channel=self._channel,
                inbox=inboxes[cid],
            )
            self.protocols[cid].on_round(ctx)
            contexts.append((cid, ctx))
        for cid, ctx in contexts:
            listeners = self.network.listeners_of(cid)
            u, _i = cid
            for message, target in ctx.outbox:
                if target is not None:
                    raise GraphError(
                        "covering executions model local broadcast only"
                    )
                self.transcripts[cid].record(self.round_no, message)
                for lid in listeners:
                    self._pending[lid].append((u, message))

    def run(self, rounds: int) -> None:
        for _ in range(rounds):
            self.step()

    def outputs(self) -> Dict[CopyId, Optional[int]]:
        return {c: p.output() for c, p in self.protocols.items()}
