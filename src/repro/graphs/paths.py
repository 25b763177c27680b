"""Path objects, simple-path enumeration, and disjoint-path packing.

The consensus algorithms reason about three path notions from Section 3:

* a ``uv``-path (sequence of pairwise-adjacent nodes, ``u`` and ``v``
  endpoints, internal nodes in between);
* a path *excluding* a set ``X`` — no internal node in ``X`` (endpoints
  may be in ``X``);
* node-disjoint families — ``uv``-paths sharing no internal node, and
  ``Uv``-paths sharing no node but ``v``.

Step (c) of Algorithms 1/3 and Definition C.1 both ask: *among the paths
that delivered value δ, are there ``f+1`` node-disjoint ones?*  Over an
explicit path list that is a set-packing question over the paths' node
bitmasks (:mod:`repro.graphs.index`); the thresholds are tiny
(``f + 1``), so :func:`has_disjoint_mask_packing` decides it exactly with
a greedy pass and a pruned depth-first search over conflict bitmasks.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .graph import Graph, GraphError, Node

Path = tuple  # a path is a tuple of node labels, endpoints included


def is_path(graph: Graph, path: Sequence[Node]) -> bool:
    """True iff ``path`` is a simple path in ``graph``.

    A single node is a valid (trivial) path — the algorithm uses the
    trivial path ``P_vv`` for a node's own value in step (b).

    Consecutive hops are checked with ``has_edge(u, v)``, which on a
    :class:`~repro.graphs.graph.Digraph` is the forward arc ``u → v``:
    a valid path is a *directed* path, matching the direction messages
    actually travel.
    """
    if len(path) == 0:
        return False
    if len(set(path)) != len(path):
        return False
    if any(v not in graph.nodes for v in path):
        return False
    return all(graph.has_edge(path[i], path[i + 1]) for i in range(len(path) - 1))


def internal_nodes(path: Sequence[Node]) -> tuple[Node, ...]:
    """The internal nodes of a path (everything but the two endpoints)."""
    return tuple(path[1:-1])


def path_excludes(path: Sequence[Node], excluded: Iterable[Node]) -> bool:
    """Paper's "path excludes X": no *internal* node lies in ``X``."""
    banned = set(excluded)
    return not any(v in banned for v in internal_nodes(path))


def is_fault_free(path: Sequence[Node], faulty: Iterable[Node]) -> bool:
    """A fault-free path has no faulty internal node (endpoints may be faulty)."""
    return path_excludes(path, faulty)


def internally_disjoint(p: Sequence[Node], q: Sequence[Node]) -> bool:
    """True iff two ``uv``-paths share no internal node."""
    return not (set(internal_nodes(p)) & set(internal_nodes(q)))


def set_paths_disjoint(p: Sequence[Node], q: Sequence[Node]) -> bool:
    """Disjointness for ``Uv``-paths: no shared node except the common sink.

    Both paths are assumed to end at the same node ``v`` (their last
    element); every other node, including the ``U``-side endpoints, must
    differ.
    """
    if p[-1] != q[-1]:
        raise GraphError("Uv-paths must share their sink endpoint")
    return not (set(p[:-1]) & set(q[:-1]))


def all_simple_paths(
    graph: Graph,
    u: Node,
    v: Node,
    max_length: int | None = None,
    avoid_internal: Iterable[Node] = (),
) -> list[Path]:
    """Every simple ``uv``-path, optionally length-capped and avoiding nodes.

    ``max_length`` bounds the number of *nodes* on the path.  This is
    exponential in general — the flooding in Algorithm 1 is too (each
    path-annotated message corresponds to a simple path), so enumerating
    is faithful to the protocol's actual message complexity.  The walk
    expands out-neighbors, so on a digraph every returned path is a
    directed ``u → … → v`` path.
    """
    if u not in graph.nodes or v not in graph.nodes:
        raise GraphError("both endpoints must be graph nodes")
    if max_length is None:
        max_length = graph.n
    banned = set(avoid_internal) - {u, v}
    out: list[Path] = []
    if u == v:
        return [(u,)]
    stack: list[Node] = [u]
    on_stack = {u}

    def dfs() -> None:
        cur = stack[-1]
        for nxt in sorted(graph.neighbors(cur), key=repr):
            if nxt == v:
                out.append(tuple(stack) + (v,))
                continue
            if nxt in on_stack or nxt in banned or len(stack) + 1 >= max_length:
                continue
            stack.append(nxt)
            on_stack.add(nxt)
            dfs()
            stack.pop()
            on_stack.remove(nxt)

    dfs()
    return out


def count_simple_paths(graph: Graph, u: Node, v: Node) -> int:
    """Number of simple ``uv``-paths (drives Algorithm 1's message counts)."""
    return len(all_simple_paths(graph, u, v))


def _packing_search(
    order: Sequence[int], conflict: Sequence[int], k: int,
    start: int, chosen: int, alive: int,
) -> bool:
    """The exact packing DFS of :func:`has_disjoint_mask_packing`: can
    ``k - chosen`` more pairwise non-conflicting candidates be taken
    from ``alive``, trying them in ``order`` from position ``start``?

    Module-level rather than a recursive closure, which would hold
    itself in a reference cycle and leave garbage on every call.
    """
    if chosen >= k:
        return True
    for idx in range(start, len(order)):
        i = order[idx]
        if not (alive >> i) & 1:
            continue
        remaining_after = alive & ~conflict[i] & ~(1 << i)
        # prune: even taking everything alive past idx can't reach k
        if chosen + 1 + remaining_after.bit_count() < k:
            continue
        if _packing_search(order, conflict, k, idx + 1, chosen + 1, remaining_after):
            return True
    return False


def has_disjoint_mask_packing(masks: Sequence[int], k: int) -> bool:
    """Decide whether ``k`` pairwise-disjoint bitmasks exist in ``masks``.

    Callers encode whatever disjointness currency their mode needs
    (internal nodes for ``uv``-paths, everything-but-the-sink for
    ``Uv``-paths) as node bitmasks, and two paths conflict iff
    ``mask_a & mask_b != 0``.

    A greedy pass (fewest-bits-first, stable) answers the overwhelmingly
    common feasible case in one sweep; greedy success is always sound,
    so only its failure falls back to the exact conflict-bitmask DFS.
    The decision is property-tested against a frozenset packing search
    over the same paths' labels.
    """
    if k <= 0:
        return True
    m = len(masks)
    if m < k:
        return False
    # Greedy fast path: taking sparse masks first maximizes the room
    # left; success proves feasibility (failure proves nothing).
    taken = 0
    used = 0
    for mask in sorted(masks, key=int.bit_count):
        if used & mask == 0:
            used |= mask
            taken += 1
            if taken >= k:
                return True
    # Exact fallback: DFS over conflict bitmasks, ordered by conflict
    # degree, pruned when the alive set cannot reach k.
    conflict = [0] * m
    for i in range(m):
        mask_i = masks[i]
        for j in range(i + 1, m):
            if mask_i & masks[j]:
                conflict[i] |= 1 << j
                conflict[j] |= 1 << i
    order = sorted(range(m), key=lambda i: conflict[i].bit_count())
    return _packing_search(order, conflict, k, 0, 0, (1 << m) - 1)


def concat_path(prefix: Sequence[Node], node: Node) -> Path:
    """``Π - u``: the path obtained by appending ``node`` to ``prefix``.

    Mirrors the paper's notation for extending a flooded message's path.
    """
    return tuple(prefix) + (node,)
