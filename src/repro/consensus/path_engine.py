"""Analytic flooding evaluator: per-path delivery without a simulator.

For the class of per-message node behaviors (honest forwarding, value
flips, drops — everything the standard adversary battery does within a
single flood), the value delivered along a simple path is a *pure
function of the path*: walk the path from the origin, applying each
node's behavior to the (value, prefix) it would have accepted.  This
engine computes all deliveries directly, which

* cross-validates the round simulator (the property tests assert the
  two engines agree delivery-for-delivery), and
* lets benchmarks evaluate flood outcomes on graphs where the full
  message-passing run would be slow.

The correspondence holds because, under local broadcast with rules
(i)–(iv), each ``(sender, Π)`` slot carries exactly one message and the
sender's transmission for that slot is the same toward every neighbor —
so a node's effect on a flood factors through ``(origin value, prefix)``.
Equivocating behaviors (hybrid model) are exactly the ones that break
this factorization, and are intentionally out of scope here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Optional, Tuple

from ..graphs import Graph, all_simple_paths
from ..obs import NULL_METRICS

PathTuple = Tuple[Hashable, ...]

ForwardRule = Callable[[int, PathTuple], Optional[int]]
"""Maps (accepted value, prefix ending at this node) to the forwarded
value, or ``None`` to drop the message on this path."""


@dataclass(frozen=True)
class NodeBehavior:
    """One node's behavior within a single flood.

    ``initial`` is the value the node floods (``None`` = stays silent,
    triggering the neighbors' default substitution).  ``forward`` maps
    each accepted (value, prefix) to what the node relays on that slot.
    """

    initial: Optional[int]
    forward: ForwardRule

    @classmethod
    def honest(cls, value: int) -> "NodeBehavior":
        return cls(initial=value, forward=lambda v, prefix: v)

    @classmethod
    def silent(cls) -> "NodeBehavior":
        """No initiation and no forwarding: severs all paths through it."""
        return cls(initial=None, forward=lambda v, prefix: None)

    @classmethod
    def lying_init(cls, value: int) -> "NodeBehavior":
        """Floods the flipped value but forwards honestly."""
        return cls(initial=1 - value, forward=lambda v, prefix: v)

    @classmethod
    def tamper_forward(cls, value: int) -> "NodeBehavior":
        """Honest initiation, flips every forwarded value."""
        return cls(initial=value, forward=lambda v, prefix: 1 - v)

    @classmethod
    def drop_forward(cls, value: int) -> "NodeBehavior":
        """Honest initiation, forwards nothing."""
        return cls(initial=value, forward=lambda v, prefix: None)


class PathFloodEngine:
    """Evaluate one flood phase analytically.

    ``behaviors[node]`` describes every node (honest nodes via
    :meth:`NodeBehavior.honest`).  ``default`` is the substitute value
    neighbors assume for silent initiators (the paper's ``(1, ⊥)``).
    """

    def __init__(
        self,
        graph: Graph,
        behaviors: Dict[Hashable, NodeBehavior],
        default: int = 1,
        metrics: object = NULL_METRICS,
    ):
        missing = graph.nodes - set(behaviors)
        if missing:
            raise ValueError(f"no behavior for nodes {sorted(missing, key=repr)}")
        self.graph = graph
        self.behaviors = dict(behaviors)
        self.default = default
        self.metrics = metrics

    # ------------------------------------------------------------------
    def effective_initial(self, origin: Hashable) -> int:
        """What the network reads as ``origin``'s flooded value: its own
        initiation, or the default if it stays silent."""
        value = self.behaviors[origin].initial
        return self.default if value is None else value

    def value_along(self, path: PathTuple) -> Optional[int]:
        """The value delivered along ``path`` (origin first, receiver
        last), or ``None`` if some internal node dropped it.

        A silent origin is substituted by its *neighbor* — the first hop
        — so the walk starts with the default value in that case, exactly
        mirroring the simulator's substitution rule.
        """
        if len(path) == 1:
            return self.effective_initial(path[0])
        value: Optional[int] = self.effective_initial(path[0])
        for idx in range(1, len(path) - 1):
            node = path[idx]
            prefix = path[: idx + 1]
            assert value is not None
            value = self.behaviors[node].forward(value, prefix)
            if value is None:
                return None
        return value

    def deliveries_at(self, receiver: Hashable) -> Dict[PathTuple, int]:
        """All (path → value) deliveries ending at ``receiver``,
        including the trivial own path.

        Runs a prefix-sharing DFS: the value along a path is a pure
        function of its prefix, so it is threaded through the traversal
        and each prefix's forwarding work is done once for *all* simple
        paths extending it — instead of re-walking every enumerated path
        from its origin (:meth:`naive_deliveries_at`, kept as the test
        oracle).  A prefix whose next hop drops the message prunes the
        whole subtree (counted under ``path_engine.prefixes_pruned``).
        The traversal mirrors :func:`~repro.graphs.all_simple_paths`
        exactly, so the delivered dict is equal — same keys, same values,
        same insertion order.

        Metric notes: ``paths_delivered`` and ``path_length`` keep their
        meanings; ``paths_evaluated`` now counts completed walks only
        (dropped paths are never materialized — the old per-path
        ``paths_dropped`` counter is subsumed by ``prefixes_pruned``).
        """
        out: Dict[PathTuple, int] = {
            (receiver,): self.effective_initial(receiver)
        }
        graph = self.graph
        behaviors = self.behaviors
        n = graph.n
        delivered = 0
        pruned = 0
        lengths: Dict[int, int] = {}
        # Hoisted per-node state: the adjacency is read once per node,
        # and the growing prefix is threaded through the recursion as a
        # tuple — each prefix is materialized exactly once and shared by
        # the forward rule, the recursive call, and (via one final
        # concat) every delivery key it produces.
        nbrs = {v: graph.sorted_neighbors(v) for v in graph.nodes}  # repro: allow[REPRO001] lookup table; only keyed access, order never reaches a trace
        on_stack: set = set()
        tail = (receiver,)

        def dfs(value: int, prefix: PathTuple) -> None:
            nonlocal delivered, pruned
            depth_full = len(prefix) + 1 >= n
            for nxt in nbrs[prefix[-1]]:
                if nxt == receiver:
                    path = prefix + tail
                    out[path] = value
                    delivered += 1
                    lengths[len(path)] = lengths.get(len(path), 0) + 1
                    continue
                if nxt in on_stack or depth_full:
                    continue
                child = prefix + (nxt,)
                forwarded = behaviors[nxt].forward(value, child)
                if forwarded is None:
                    pruned += 1
                    continue
                on_stack.add(nxt)
                dfs(forwarded, child)
                on_stack.remove(nxt)

        try:
            for origin in sorted(graph.nodes - {receiver}, key=repr):
                on_stack = {origin}
                dfs(self.effective_initial(origin), (origin,))
        finally:
            # ``dfs`` calls itself through its own closure cell, a cycle
            # that would keep ``out`` alive until the cyclic collector
            # runs; emptying the cell frees it by reference counting.
            del dfs
        metrics = self.metrics
        if delivered:
            metrics.inc("path_engine.paths_evaluated", delivered)
            metrics.inc("path_engine.paths_delivered", delivered)
            for length in sorted(lengths):
                metrics.observe("path_engine.path_length", length, lengths[length])
        if pruned:
            metrics.inc("path_engine.prefixes_pruned", pruned)
        metrics.gauge_max("path_engine.path_set.max", len(out))
        return out

    def naive_deliveries_at(self, receiver: Hashable) -> Dict[PathTuple, int]:
        """Reference implementation of :meth:`deliveries_at`: enumerate
        every simple path and re-walk it with :meth:`value_along`.
        Metrics-free; the equivalence tests assert the prefix-sharing
        DFS matches it delivery-for-delivery (order included)."""
        out: Dict[PathTuple, int] = {
            (receiver,): self.effective_initial(receiver)
        }
        for origin in sorted(self.graph.nodes - {receiver}, key=repr):
            for path in all_simple_paths(self.graph, origin, receiver):
                value = self.value_along(path)
                if value is not None:
                    out[path] = value
        return out

    def all_deliveries(self) -> Dict[Hashable, Dict[PathTuple, int]]:
        """Deliveries at every node."""
        return {v: self.deliveries_at(v) for v in sorted(self.graph.nodes, key=repr)}
