"""Analytic flooding evaluator: per-path delivery without a simulator.

For the class of per-message node behaviors (honest forwarding, value
flips, drops — everything the standard adversary battery does within a
single flood), the value delivered along a simple path is a *pure
function of the path*: start from the origin's flooded value and apply
each relay's rule to the value it accepted.  This engine computes all
deliveries directly, which

* cross-validates the round simulator (the property tests assert the
  two engines agree delivery-for-delivery), and
* lets benchmarks evaluate flood outcomes on graphs where the full
  message-passing run would be slow, grouped per origin with each
  path's visited mask (:meth:`PathFloodEngine.deliveries_by_origin`).

The correspondence holds because, under local broadcast with rules
(i)–(iv), each ``(sender, Π)`` slot carries exactly one message and the
sender's transmission for that slot is the same toward every neighbor —
so a node's effect on a flood factors through ``(node, accepted
value)``, and a rule is a function of the value alone.  Equivocating
behaviors (hybrid model) are exactly the ones that break this
factorization, and are intentionally out of scope here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from ..graphs import Graph
from ..obs import NULL_METRICS

PathTuple = Tuple[Hashable, ...]

ForwardRule = Callable[[int], Optional[int]]
"""Maps an accepted value to the forwarded value, or ``None`` to drop
the message."""


@dataclass(frozen=True)
class NodeBehavior:
    """One node's behavior within a single flood.

    ``initial`` is the value the node floods (``None`` = stays silent,
    triggering the neighbors' default substitution).  ``forward`` maps
    each accepted value to what the node relays.
    """

    initial: Optional[int]
    forward: ForwardRule

    @classmethod
    def honest(cls, value: int) -> "NodeBehavior":
        return cls(initial=value, forward=lambda v: v)

    @classmethod
    def silent(cls) -> "NodeBehavior":
        """No initiation and no forwarding: severs all paths through it."""
        return cls(initial=None, forward=lambda v: None)

    @classmethod
    def lying_init(cls, value: int) -> "NodeBehavior":
        """Floods the flipped value but forwards honestly."""
        return cls(initial=1 - value, forward=lambda v: v)

    @classmethod
    def tamper_forward(cls, value: int) -> "NodeBehavior":
        """Honest initiation, flips every forwarded value."""
        return cls(initial=value, forward=lambda v: 1 - v)

    @classmethod
    def drop_forward(cls, value: int) -> "NodeBehavior":
        """Honest initiation, forwards nothing."""
        return cls(initial=value, forward=lambda v: None)


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

    def _tabulate(self, order: Sequence[Hashable]) -> Tuple[
        List[int],
        Dict[Hashable, int],
        Dict[Hashable, Optional[Tuple[Optional[int], ...]]],
    ]:
        """The values a flood can carry, and every rule over them.

        ``values`` starts with the effective initial values and is closed
        under the rules; ``start[v]`` is the index of ``v``'s effective
        initial value.  ``tables[v][i]`` is the index in ``values`` of
        what ``v`` relays on accepting ``values[i]`` (``None`` = dropped);
        ``tables[v]`` is ``None`` when ``v``'s rule is the identity.

        A simple path has at most ``n - 2`` relays, so a value first
        produced by the ``(n - 2)``-th relay is never relayed again: its
        entries are left ``None`` and no rule is called on it, which
        keeps the table finite even for a rule like ``v + 1``.
        """
        relays = self.graph.n - 2
        rules = [self.behaviors[v].forward for v in order]
        rows: List[List[Optional[int]]] = [[] for _ in order]
        values: List[int] = []
        depth: List[int] = []
        slot: Dict[int, int] = {}
        start: Dict[Hashable, int] = {}
        for v in order:
            value = self.effective_initial(v)
            if value not in slot:
                slot[value] = len(values)
                values.append(value)
                depth.append(0)
            start[v] = slot[value]
        # ``values`` grows while it is scanned, breadth first by depth.
        for i, value in enumerate(values):
            if depth[i] >= relays:
                for row in rows:
                    row.append(None)
                continue
            for rule, row in zip(rules, rows):
                relayed = rule(value)
                if relayed is None:
                    row.append(None)
                    continue
                if relayed not in slot:
                    slot[relayed] = len(values)
                    values.append(relayed)
                    depth.append(depth[i] + 1)
                row.append(slot[relayed])
        identity = list(range(len(values)))
        tables = {
            v: None if row == identity else tuple(row)
            for v, row in zip(order, rows)
        }
        return values, start, tables

    def deliveries_at(self, receiver: Hashable) -> Dict[PathTuple, int]:
        """All (path → value) deliveries ending at ``receiver``,
        including the trivial own path.

        Searches simple paths *backward* from the receiver over
        in-neighbors, so every node the search visits is one path
        ``(y, …, receiver)`` that reaches the receiver: no dead-end
        prefix is ever built.  The suffix's visited-set bitmask (bit
        ``i`` = the ``i``-th node in ``repr`` order, as in
        :class:`~repro.graphs.index.NodeIndex`) rides down the recursion
        and keeps the paths simple.  Each suffix carries its composed
        effect (which delivered value, if any, each carried value turns
        into after the suffix's relays), tabulated over the finite set
        of values the flood can carry (:meth:`_tabulate`); honest relays
        are the identity and pass their suffix's effect on uncopied.  A
        suffix whose effect drops every value is cut, with the whole
        subtree behind it (counted under ``path_engine.prefixes_pruned``
        — since the search runs backward these are suffixes, and a
        silent or drop-forward node's suffixes are all counted).

        The delivered dict is then put in the insertion order of
        enumerating :func:`~repro.graphs.all_simple_paths` origin by
        origin in ``repr`` order — lexicographic by ``repr`` rank — by
        one sort of packed-int keys: each path's ranks fill fixed-width
        fields from the top (prepending a node is a right shift plus an
        OR), the field below them holds the delivered value's index, and
        the path's index in ``paths`` fills the low bits.  No path is a
        prefix of another (all end at the receiver), so zero padding
        never ties.

        Metric notes: ``paths_evaluated`` and ``paths_delivered`` both
        count deliveries, and ``path_length`` is their length histogram.
        """
        return self._deliveries(receiver, None)

    def deliveries_by_origin(self, receiver: Hashable) -> Tuple[
        Dict[Hashable, Dict[PathTuple, int]], Dict[PathTuple, int]
    ]:
        """:meth:`deliveries_at` grouped per origin, plus each delivered
        path's visited mask, from the same one search.

        Returns ``(by_origin, masks)``: ``by_origin[o]`` holds the
        ``o → receiver`` paths in :meth:`deliveries_at` order (the
        receiver's group is its trivial path), and ``masks[path]`` equals
        ``graph.node_index().mask_of(path)``, ready for
        :func:`~repro.consensus.reliable.reliable_payload`'s ``path_mask``.
        """
        return self._deliveries(receiver, [])

    def _deliveries(self, receiver: Hashable, found_masks: Optional[List[int]]):
        # ``found_masks`` collects each delivery's mask; None = flat view.
        graph = self.graph
        n = graph.n
        order = sorted(graph.nodes, key=repr)
        values, start, tables = self._tabulate(order)
        # Key fields, most significant first: one rank per path position
        # (zero past the path's end), then the delivered value's slot.
        width = max(1, (n - 1).bit_length(), (len(values) - 1).bit_length())
        head = {v: rank << width * n for rank, v in enumerate(order)}
        bit = {v: 1 << rank for rank, v in enumerate(order)}
        # Per in-neighbor, everything the search reads about it.
        preds = {
            v: tuple(
                (y, bit[y], head[y], start[y], tables[y])
                for y in graph.sorted_in_neighbors(v)
            )
            for v in order
        }

        paths: List[PathTuple] = []
        keys: List[int] = []
        lengths = [0] * (n + 1)
        pruned = 0

        def search(suffix: PathTuple, effect: Tuple[Optional[int], ...],
                   key: int, seen: int) -> None:
            nonlocal pruned
            size = len(suffix) + 1
            for y, y_bit, y_head, y_start, table in preds[suffix[0]]:
                if seen & y_bit:
                    continue
                path = (y,) + suffix
                out_slot = effect[y_start]
                if out_slot is None:
                    path_key = key >> width | y_head
                else:
                    path_key = key >> width | y_head | out_slot
                    keys.append(path_key)
                    paths.append(path)
                    lengths[size] += 1
                    if found_masks is not None:
                        found_masks.append(seen | y_bit)
                if size == n:
                    continue
                if table is not None:
                    relayed = tuple(
                        None if j is None else effect[j] for j in table
                    )
                    if relayed.count(None) == len(relayed):
                        pruned += 1
                        continue
                else:
                    relayed = effect
                search(path, relayed, path_key, seen | y_bit)

        own = (receiver,)
        try:
            search(own, tuple(range(len(values))), head[receiver], bit[receiver])
        finally:
            # ``search`` calls itself through its own closure cell, a
            # cycle that would keep the lists alive until the cyclic
            # collector runs; emptying the cell frees them by refcount.
            del search
        shift = len(keys).bit_length()
        for i, key in enumerate(keys):
            keys[i] = key << shift | i
        keys.sort()
        mask = (1 << shift) - 1
        slot_mask = (1 << width) - 1
        out: Dict[PathTuple, int] = {own: self.effective_initial(receiver)}
        result = out
        if found_masks is None:
            for key in keys:
                out[paths[key & mask]] = values[key >> shift & slot_mask]
        else:
            # Keys sort origin-major, so each origin's paths arrive as one
            # run (the top field is the origin's rank); popping frees each
            # key as its entries land, so keys and results never peak together.
            by_origin = {receiver: out}
            path_masks = {own: bit[receiver]}
            result = by_origin, path_masks
            origin_shift = shift + width * n
            last = -1
            keys.reverse()
            while keys:
                key = keys.pop()
                i = key & mask
                if key >> origin_shift != last:
                    last = key >> origin_shift
                    group = by_origin[order[last]] = {}
                group[paths[i]] = values[key >> shift & slot_mask]
                path_masks[paths[i]] = found_masks[i]
        del keys

        metrics = self.metrics
        count = len(paths)
        if count:
            metrics.inc("path_engine.paths_evaluated", count)
            metrics.inc("path_engine.paths_delivered", count)
            for length in range(n + 1):
                if lengths[length]:
                    metrics.observe("path_engine.path_length", length, lengths[length])
        if pruned:
            metrics.inc("path_engine.prefixes_pruned", pruned)
        metrics.gauge_max("path_engine.path_set.max", count + 1)
        return result

    def all_deliveries(self) -> Dict[Hashable, Dict[PathTuple, int]]:
        """Deliveries at every node."""
        return {v: self.deliveries_at(v) for v in sorted(self.graph.nodes, key=repr)}
