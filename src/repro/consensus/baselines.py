"""Point-to-point baselines: EIG consensus and Dolev-style relay.

The paper's headline comparison (Section 1) is against the classical
point-to-point model, where consensus needs ``n ≥ 3f + 1`` **and**
connectivity ``≥ 2f + 1`` (Dolev '82).  To make that comparison
executable we implement the classical stack:

* :class:`EIGProtocol` — exponential information gathering (Bar-Noy,
  Dolev, Dwork, Strong) on *complete* graphs: ``f + 1`` rounds of
  relaying plus one collection round, then a recursive majority
  resolve.  Correct iff ``n ≥ 3f + 1`` — and demonstrably *incorrect*
  below that bound under an equivocating adversary, which our
  benchmarks exhibit on ``K_3`` with ``f = 1`` (where the
  local-broadcast algorithms succeed).
* :class:`DolevEIGProtocol` — the same EIG logic on incomplete graphs,
  with every EIG round implemented as a flooding super-round: each
  message is routed with path annotations and the receiver reads, for a
  canonical family of ``2f + 1`` node-disjoint paths, the value each
  path delivered, taking the majority (at most ``f`` paths can lie).

These baselines let benchmarks show the trade *within one codebase*:
same simulator, same adversaries, different channel model and protocol.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from ..graphs import Graph
from ..net.adversary import Adversary, FaultSpec, _WrapperProtocol
from ..net.messages import DirectMessage
from ..net.node import Context, Protocol
from .algorithm2 import majority
from .flooding import FloodInstance, flood_rounds
from .path_oracle import PathOracle

Label = Tuple[Hashable, ...]


def _resolve(
    tree: Dict[Label, int], label: Label, nodes: List[Hashable], depth: int
) -> int:
    """EIG recursive resolve: leaves report their value, internal labels
    take the majority of their children; missing entries default to 0."""
    if len(label) == depth:
        return tree.get(label, 0)
    children = [
        _resolve(tree, label + (q,), nodes, depth) for q in nodes if q not in label
    ]
    return majority(children)


def _valid_level_item(item: object, expected_len: int, sender: Hashable) -> bool:
    """Syntactic check on one relayed ``(label, value)`` EIG entry."""
    if not (isinstance(item, tuple) and len(item) == 2):
        return False
    label, value = item
    return (
        isinstance(label, tuple)
        and value in (0, 1)
        and len(label) == expected_len
        and sender not in label
        and len(set(label)) == len(label)
    )


class EIGProtocol(Protocol):
    """Exponential information gathering on a complete graph.

    Rounds ``1..f+1`` broadcast the tree level of length ``r - 1``; the
    final round ``f + 2`` only stores the last relays and resolves the
    tree bottom-up.  Correct for ``n ≥ 3f + 1`` under any channel model;
    *breakable by equivocation* below that bound — which is the point of
    carrying it as a baseline.
    """

    def __init__(self, graph: Graph, node: Hashable, f: int, input_value: int,
                 oracle: Optional[PathOracle] = None):
        # ``oracle`` is accepted like every protocol's; EIG needs no paths.
        if input_value not in (0, 1):
            raise ValueError("binary input expected")
        expected = graph.n - 1
        if any(graph.degree(v) != expected for v in graph.nodes):
            raise ValueError("EIGProtocol requires a complete graph")
        self.graph = graph
        self.me = node
        self.f = f
        self.nodes = sorted(graph.nodes, key=repr)
        self.total_rounds = f + 2
        self.tree: Dict[Label, int] = {(): input_value}
        self._output: Optional[int] = None

    def on_round(self, ctx: Context) -> None:
        r = ctx.round_no
        if r > self.total_rounds:
            return
        # Store last round's relays: (label, v) received from q fills label·q.
        for sender, message in ctx.inbox:
            if not isinstance(message, DirectMessage):
                continue
            tag = message.tag
            if not (isinstance(tag, tuple) and len(tag) == 2 and tag[0] == "eig"):
                continue
            if tag[1] != r - 1 or not isinstance(message.payload, tuple):
                continue
            for item in message.payload:
                if _valid_level_item(item, r - 2, sender):
                    label, value = item
                    self.tree.setdefault(label + (sender,), value)
        if r <= self.f + 1:
            level = tuple(
                (label, v)
                for label, v in sorted(self.tree.items(), key=repr)
                if len(label) == r - 1 and self.me not in label
            )
            ctx.broadcast(DirectMessage(("eig", r), level))
            # A node hears its own relay too (standard EIG bookkeeping):
            # label·me carries the value it just reported.
            for label, v in level:
                self.tree.setdefault(label + (self.me,), v)
        if r == self.total_rounds:
            self._output = _resolve(self.tree, (), self.nodes, self.f + 1)

    def output(self) -> Optional[int]:
        return self._output


class EIGEquivocatingAdversary(Adversary):
    """The classical equivocation attack on EIG below ``n = 3f + 1``.

    In every relay the faulty node tells half its neighbors the level
    values are 0 and the other half 1.  On ``K_3`` with ``f = 1`` this
    forces the two honest nodes apart — the point-to-point lower bound
    made concrete, against which the local-broadcast model (where
    ``K_3 = K_{2f+1}`` suffices) is compared.  Requires a channel that
    lets the faulty node unicast (point-to-point or hybrid).
    """

    name = "eig-equivocate"

    def build(self, spec: FaultSpec) -> Protocol:
        def transform(outbox, ctx):
            result = []
            for message, target in outbox:
                if (
                    isinstance(message, DirectMessage)
                    and target is None
                    and isinstance(message.payload, tuple)
                ):
                    for i, nbr in enumerate(
                        sorted(ctx.graph.neighbors(ctx.node), key=repr)
                    ):
                        split = tuple(
                            (label, i % 2) for label, _v in message.payload
                        )
                        result.append((DirectMessage(message.tag, split), nbr))
                else:
                    result.append((message, target))
            return result

        return _WrapperProtocol(spec.honest(), transform)


class DolevEIGProtocol(Protocol):
    """EIG over an incomplete graph via Dolev-style reliable transmission.

    Each EIG round becomes a flooding super-round of ``n`` network
    rounds.  A receiver resolves the level sent by ``q`` by examining a
    canonical family of ``2f + 1`` node-disjoint ``q → me`` paths and
    taking, per label, the majority of the values those paths delivered
    (a label needs at least ``f + 1`` path votes to be stored at all).
    With connectivity ``≥ 2f + 1`` and at most ``f`` corrupt paths,
    honest senders are always read correctly; with ``n ≥ 3f + 1`` the
    EIG resolve then yields consensus.
    """

    def __init__(self, graph: Graph, node: Hashable, f: int, input_value: int,
                 oracle: Optional[PathOracle] = None):
        if input_value not in (0, 1):
            raise ValueError("binary input expected")
        if oracle is not None and oracle.graph != graph:
            raise ValueError("oracle was built for a different graph")
        self.graph = graph
        # Shared per graph (the factory does that): one family per pair.
        self.oracle = oracle if oracle is not None else PathOracle(graph)
        self.me = node
        self.f = f
        self.nodes = sorted(graph.nodes, key=repr)
        self.rounds_per_super = flood_rounds(graph)
        self.total_rounds = (f + 1) * self.rounds_per_super
        self.tree: Dict[Label, int] = {(): input_value}
        self._flood: Optional[FloodInstance] = None
        self._output: Optional[int] = None

    # ------------------------------------------------------------------
    def on_round(self, ctx: Context) -> None:
        r = ctx.round_no
        if r > self.total_rounds:
            return
        super_idx = (r - 1) // self.rounds_per_super  # 0-based EIG round
        within = (r - 1) % self.rounds_per_super + 1
        if within == 1:
            self._flood = FloodInstance(
                self.graph, self.me, phase=("dolev-eig", super_idx)
            )
            level = tuple(
                (label, v)
                for label, v in sorted(self.tree.items(), key=repr)
                if len(label) == super_idx and self.me not in label
            )
            self._flood.initiate(ctx, level)
            # A node hears its own relay (standard EIG bookkeeping).
            for label, v in level:
                self.tree.setdefault(label + (self.me,), v)
        else:
            assert self._flood is not None
            self._flood.process_round(ctx)
        if within == self.rounds_per_super:
            self._absorb_super_round(super_idx)
            if super_idx == self.f:
                self._output = _resolve(self.tree, (), self.nodes, self.f + 1)

    def output(self) -> Optional[int]:
        return self._output

    # ------------------------------------------------------------------
    def _absorb_super_round(self, super_idx: int) -> None:
        assert self._flood is not None
        delivered = self._flood.delivered
        for q in self.nodes:
            if q == self.me:
                continue
            votes: Dict[Label, List[int]] = {}
            family = sorted(
                self.oracle.disjoint_paths_between(q, self.me), key=repr
            )
            for path in family[: 2 * self.f + 1]:
                payload = delivered.get(path)
                if not isinstance(payload, tuple):
                    continue
                for item in payload:
                    if _valid_level_item(item, super_idx, q):
                        label, value = item
                        votes.setdefault(label, []).append(value)
            for label, vals in sorted(votes.items(), key=repr):
                if len(vals) >= self.f + 1:
                    self.tree.setdefault(label + (q,), majority(vals))
