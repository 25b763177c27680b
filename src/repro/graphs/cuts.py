"""Set neighborhoods, vertex-cut partitions, and Theorem 6.1(iii) checks.

Two structural quantities beyond plain connectivity matter in the paper:

* the *neighborhood of a set* ``S`` — nodes outside ``S`` adjacent to some
  node of ``S`` (Section 3).  Theorem 6.1 condition (iii) requires every
  non-empty ``S`` with ``|S| ≤ t`` to have at least ``2f + 1`` neighbors;
* *cut partitions* ``(A, B, C)`` — a vertex cut ``C`` splitting the rest
  into non-adjacent non-empty sides ``A`` and ``B``, which the
  impossibility constructions of Lemmas A.2 / D.2 consume directly.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import combinations

from .connectivity import is_strongly_connected, minimum_vertex_cut, vertex_connectivity
from .graph import Graph, GraphError, Node, require_undirected


def neighbors_of_set(graph: Graph, s: Iterable[Node]) -> set[Node]:
    """Nodes outside ``S`` that have an edge into ``S`` (paper, Section 3).

    On a :class:`~repro.graphs.graph.Digraph` this is the *out*-
    neighborhood of ``S`` — the nodes that hear some member of ``S`` —
    matching the repo-wide ``neighbors = who hears v`` convention.  The
    hybrid Theorem 6.1 machinery that consumes it remains specified on
    undirected graphs only.
    """
    s_set = set(s)
    out: set[Node] = set()
    # repro: allow[REPRO001] set union is commutative — the visiting
    # order cannot affect the result.
    for v in s_set:
        out |= graph.neighbors(v)
    return out - s_set


def min_set_neighborhood(
    graph: Graph, max_size: int
) -> tuple[int, frozenset[Node]]:
    """Minimize ``|N(S)|`` over non-empty ``S`` with ``|S| ≤ max_size``.

    Returns ``(value, witness_set)``.  Brute force over subsets — Theorem
    6.1 only needs ``max_size = t ≤ f``, which is small in every instance
    this library runs, and the search short-circuits on singletons first
    (the minimizer is usually a single low-degree vertex or a tight
    clique-like cluster).
    """
    if max_size < 1:
        raise GraphError("max_size must be at least 1")
    if graph.n == 0:
        raise GraphError("empty graph has no non-empty subsets")
    best: tuple[int, frozenset[Node]] | None = None
    nodes = sorted(graph.nodes, key=repr)
    for size in range(1, min(max_size, graph.n) + 1):
        for combo in combinations(nodes, size):
            value = len(neighbors_of_set(graph, combo))
            if best is None or value < best[0]:
                best = (value, frozenset(combo))
    assert best is not None
    return best


def every_small_set_has_neighbors(graph: Graph, max_size: int, threshold: int) -> bool:
    """Theorem 6.1(iii): every ``S`` with ``0 < |S| ≤ max_size`` has
    at least ``threshold`` neighbors."""
    if max_size < 1:
        return True
    value, _ = min_set_neighborhood(graph, max_size)
    return value >= threshold


def cut_partition(
    graph: Graph, cut: Iterable[Node]
) -> tuple[set[Node], set[Node]]:
    """Split ``V - C`` into two non-adjacent halves ``(A, B)`` for a cut ``C``.

    ``A`` is one connected component of ``G - C``; ``B`` is everything
    else outside the cut.  Raises if ``C`` is not actually a cut, or on
    a digraph (the sides are components of an undirected graph).
    """
    require_undirected(graph, "a cut partition")
    cut_set = set(cut)
    rest = graph.remove_nodes(cut_set)
    if rest.n == 0:
        raise GraphError("cut removes every node")
    components = rest.connected_components()
    if len(components) < 2:
        raise GraphError("given set is not a vertex cut")
    a = components[0]
    b = set().union(*components[1:])
    return a, b


def find_cut_partition(
    graph: Graph, max_cut_size: int
) -> tuple[set[Node], set[Node], set[Node]] | None:
    """Find ``(A, B, C)`` with ``|C| ≤ max_cut_size``, A/B non-empty and
    non-adjacent — the shape consumed by Lemma A.2's construction.

    Returns ``None`` when the graph is ``(max_cut_size + 1)``-connected
    (no such cut exists).  For complete graphs there is never a cut.
    Refuses a digraph, like :func:`cut_partition`.
    """
    require_undirected(graph, "a cut partition")
    if graph.n == 0:
        return None
    if not is_strongly_connected(graph):
        a = graph.connected_components()[0]
        return a, graph.nodes - a, set()
    kappa = vertex_connectivity(graph)
    if kappa > max_cut_size or kappa == graph.n - 1:
        return None
    cut = minimum_vertex_cut(graph)
    a, b = cut_partition(graph, cut)
    return a, b, set(cut)


def split_into_parts(
    items: Iterable[Node], sizes: list[int]
) -> list[list[Node]]:
    """Deterministically split ``items`` into consecutive parts of ≤ given sizes.

    Used by the impossibility constructions, which need partitions like
    ``(C1, C2, C3)`` with ``|C1|,|C2| ≤ ⌊f/2⌋`` and ``|C3| ≤ ⌈f/2⌉``.
    All items must fit (``sum(sizes) ≥ len(items)``); parts may end up
    empty, mirroring the paper's convention that partitions may have
    empty parts.
    """
    pool = sorted(items, key=repr)
    if sum(sizes) < len(pool):
        raise GraphError("part sizes cannot accommodate all items")
    parts: list[list[Node]] = []
    idx = 0
    for size in sizes:
        parts.append(pool[idx : idx + size])
        idx += size
    return parts
