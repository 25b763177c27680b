"""Canonical integer node index: bitmask set representation for graphs.

The hot paths of the reproduction — flooding rules (i)–(iv), reliable
receipt's disjoint-path packing, Algorithm 1's step (c) — all reason
about *sets of nodes along paths*.  Tuples-of-hashables make every such
check a hash-and-walk; this module assigns each node a fixed small
integer so a node set becomes one plain Python ``int`` bitmask and the
checks collapse to single int-ops:

* a path's node set        → ``mask_of(path)``, one C-level ``sum``;
* membership / rule (iii)  → ``mask & bit``;
* adjacency / rule (i)     → ``(adj_masks[u] >> v) & 1``;
* packing disjointness     → ``mask_a & mask_b == 0``.

The index assignment is the repo's canonical node order — ``repr``-sorted
— so index order, label order, and every deterministic traversal agree,
and nothing here depends on ``PYTHONHASHSEED``.

A :class:`NodeIndex` holds only data *derived from* the graph (no back
reference), so it pickles standalone and rides along inside a pickled
:class:`~repro.graphs.graph.Graph` without creating a cycle: sweep
workers receive the index warm instead of rebuilding it per process.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence
from typing import Dict, Optional, Tuple

Node = Hashable

#: ``walk`` result for a simple in-graph path: (visited mask, packed
#: order-faithful encoding, index of the last node; -1 for the empty path).
WalkInfo = Tuple[int, int, int]


class NodeIndex:
    """Sorted node→bit mapping plus adjacency bitmasks for one graph.

    ``nodes[i]`` is the label at index ``i`` (``repr``-sorted, so index
    order *is* the repo's canonical node order), ``index_of`` the inverse
    mapping, and ``adj_masks[i]`` the bitmask of ``nodes[i]``'s
    *out*-neighbors — the direction a path traverses, so ``walk``
    validates directed arcs; ``in_masks[i]`` holds the in-direction.  On
    an undirected :class:`~repro.graphs.graph.Graph` the two directions
    are the same tuple object, so nothing changes for symmetric views.
    ``packed`` path encodings fold ``index + 1`` into
    ``shift``-bit chunks, which is injective over node *sequences* (not
    just sets): two distinct simple paths — even ones visiting the same
    node set in different orders — never collide, which rule (ii)'s
    one-message-per-``(sender, Π)`` slot bookkeeping depends on.
    """

    __slots__ = (
        "nodes", "index_of", "adj_masks", "neighbor_indices",
        "in_masks", "in_neighbor_indices",
        "n", "all_mask", "shift", "walk_memo", "bits",
    )

    def __init__(self, graph) -> None:
        nodes: Tuple[Node, ...] = tuple(sorted(graph.nodes, key=repr))
        index_of: Dict[Node, int] = {v: i for i, v in enumerate(nodes)}
        adj_masks = []
        neighbor_indices = []
        for v in nodes:
            indices = tuple(sorted(index_of[u] for u in graph.neighbors(v)))
            mask = 0
            for i in indices:
                mask |= 1 << i
            adj_masks.append(mask)
            neighbor_indices.append(indices)
        self.nodes = nodes
        self.index_of = index_of
        self.adj_masks: Tuple[int, ...] = tuple(adj_masks)
        #: Ascending index order == ``repr`` label order, so iterating
        #: these tuples reproduces every sorted-neighbor traversal.
        self.neighbor_indices: Tuple[Tuple[int, ...], ...] = tuple(
            neighbor_indices
        )
        if getattr(graph, "directed", False):
            in_masks = []
            in_neighbor_indices = []
            for v in nodes:
                indices = tuple(
                    sorted(index_of[u] for u in graph.in_neighbors(v))
                )
                mask = 0
                for i in indices:
                    mask |= 1 << i
                in_masks.append(mask)
                in_neighbor_indices.append(indices)
            self.in_masks: Tuple[int, ...] = tuple(in_masks)
            self.in_neighbor_indices: Tuple[Tuple[int, ...], ...] = tuple(
                in_neighbor_indices
            )
        else:
            # Symmetric view: the in-direction aliases the out-direction.
            self.in_masks = self.adj_masks
            self.in_neighbor_indices = self.neighbor_indices
        self.n = len(nodes)
        self.all_mask = (1 << self.n) - 1
        #: Bits per packed-path chunk; chunks hold ``index + 1 ≤ n``,
        #: and ``n < 2**n.bit_length()`` always, so chunks never collide.
        self.shift = max(1, self.n.bit_length())
        #: Shared memo of :meth:`walk` results keyed by path tuple
        #: (``None`` = known invalid).  ``walk`` is a pure function of
        #: the graph, so every flood instance on this graph reads and
        #: extends one memo instead of re-walking the same annotations
        #: per (node, phase, run).  Pre-seeded with the empty path — the
        #: valid prefix every initiation extends.  Deliberately not
        #: pickled (see ``__getstate__``): it is per-process query
        #: history, not structure.
        self.walk_memo: Dict[Tuple[Node, ...], Optional[WalkInfo]] = {
            (): (0, 0, -1)
        }
        #: ``label -> 1 << index``, the summands of :meth:`mask_of`.
        #: Derived from ``nodes``, so, like the memo, not pickled.
        self.bits: Dict[Node, int] = {v: 1 << i for i, v in enumerate(nodes)}

    # ------------------------------------------------------------------
    # Set representation
    # ------------------------------------------------------------------
    def bit(self, node: Node) -> int:
        """The singleton mask of ``node`` (KeyError if unknown)."""
        return 1 << self.index_of[node]

    def mask_of(self, nodes: Iterable[Node]) -> int:
        """Bitmask of the given nodes (KeyError on a label outside the
        graph, like :meth:`bit`).

        Distinct labels cost one C-level ``sum`` of ``bits``: a repeated
        label always carries, so the sum has ``len(nodes)`` set bits
        only when no label repeats; the rest take the loop."""
        if not hasattr(nodes, "__len__"):
            nodes = tuple(nodes)
        mask = sum(map(self.bits.__getitem__, nodes))
        if mask.bit_count() == len(nodes):
            return mask
        bits = self.bits
        mask = 0
        for v in nodes:
            mask |= bits[v]
        return mask

    def members(self, mask: int) -> Tuple[Node, ...]:
        """The labels of a mask, in canonical (index) order."""
        nodes = self.nodes
        out = []
        while mask:
            low = mask & -mask
            out.append(nodes[low.bit_length() - 1])
            mask ^= low
        return tuple(out)

    # ------------------------------------------------------------------
    # Path representation
    # ------------------------------------------------------------------
    def walk(self, path: Sequence[Node]) -> Optional[WalkInfo]:
        """Validate ``path`` as a simple in-graph path in one pass.

        Returns ``(mask, packed, last_index)`` — the visited-set bitmask,
        the order-faithful packed encoding, and the last node's index —
        or ``None`` if the sequence repeats a node, leaves the graph, or
        breaks adjacency.  Adjacency is checked in the *out* direction
        (``adj_masks``), so on a digraph the sequence must be a directed
        path; on a symmetric view this is ordinary edge adjacency.  The
        empty path yields ``(0, 0, -1)``: it is the valid prefix every
        flood initiation extends.
        """
        index_of = self.index_of
        adj = self.adj_masks
        shift = self.shift
        mask = 0
        packed = 0
        prev = -1
        for node in path:
            i = index_of.get(node)
            if i is None:
                return None
            bit = 1 << i
            if mask & bit:
                return None
            if prev >= 0 and not (adj[prev] >> i) & 1:
                return None
            mask |= bit
            packed = (packed << shift) | (i + 1)
            prev = i
        return mask, packed, prev

    # ------------------------------------------------------------------
    def __getstate__(self):
        # Slots-class pickling, minus the walk memo and the bit table:
        # both are cheap to refill, and shipping them would grow graph
        # pickles with query history and derived data.
        return None, {
            slot: getattr(self, slot)
            for slot in self.__slots__
            if slot not in ("walk_memo", "bits")
        }

    def __setstate__(self, state):
        _, slots = state
        for slot, value in slots.items():  # repro: allow[REPRO001] attribute-store order is invisible; the restored object is identical either way
            object.__setattr__(self, slot, value)
        self.walk_memo = {(): (0, 0, -1)}
        self.bits = {v: 1 << i for i, v in enumerate(self.nodes)}

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NodeIndex):
            return NotImplemented
        return (
            self.nodes == other.nodes
            and self.adj_masks == other.adj_masks
            and self.in_masks == other.in_masks
        )

    def __hash__(self) -> int:
        return hash((self.nodes, self.adj_masks, self.in_masks))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NodeIndex(n={self.n})"
