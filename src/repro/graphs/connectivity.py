"""Vertex connectivity and node-disjoint path machinery (Menger's theorem).

Section 3 of the paper leans on two standard results for ``k``-connected
graphs (West, *Introduction to Graph Theory*):

* **Menger:** ``G`` is ``k``-connected iff every pair ``u, v`` is joined by
  ``k`` internally node-disjoint ``uv``-paths.
* **Fan lemma:** if ``G`` is ``k``-connected then for any node ``v`` and any
  set ``U`` of at least ``k`` nodes there are ``k`` node-disjoint
  ``Uv``-paths (pairwise sharing only the endpoint ``v``).

Both are realized with a unit-capacity max-flow on the standard
*node-split* transformation: every vertex ``x`` becomes an arc
``x_in → x_out`` of capacity one, so integral flow paths correspond
exactly to internally node-disjoint paths.  Everything is implemented
from scratch — the test suite cross-validates against networkx, but the
library itself has no third-party dependencies.

The same machinery serves *directed* graphs (arXiv:1911.07298): the
split network simply inserts one arc per digraph arc instead of both
orientations per edge, so every disjoint-path query below works
unchanged on a :class:`~repro.graphs.graph.Digraph`.  An undirected
graph is the symmetric case, so there is one κ,
:func:`vertex_connectivity`, for both kinds: it is the strong vertex
connectivity, which on a symmetric view is the undirected κ.  The
reachability helpers it needs — strong connectivity, strongly connected
components, source components — live at the bottom of this module.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from functools import lru_cache
from itertools import combinations

from .graph import Digraph, Graph, GraphError, Node

# Flow-network vertices are tagged tuples so user node labels never collide
# with the split copies: ("in", v) / ("out", v) plus dedicated terminals.
_SOURCE = ("source", None)
_SINK = ("sink", None)


class _FlowNetwork:
    """A tiny capacitated digraph with Dinic's max-flow.

    Adjacency is stored as insertion-ordered dicts, so for a fixed arc
    insertion sequence (the builders below insert in sorted node order)
    every traversal — and therefore the returned flow and any paths
    decomposed from it — is deterministic, independent of
    ``PYTHONHASHSEED``.

    :meth:`max_flow` runs Dinic's algorithm (BFS level graph + pointered
    DFS blocking flow): O(E·√V) on the unit-capacity node-split networks
    used here, versus Edmonds–Karp's O(V·E).  The Edmonds–Karp loop it
    replaced is the test oracle ``max_flow_reference`` in
    ``tests/graphs/flow_oracle.py``.
    """

    def __init__(self) -> None:
        self.capacity: dict[tuple, dict[tuple, int]] = {}
        # dict-as-ordered-set: keys are the neighbors, values unused.
        self._adj: dict[tuple, dict[tuple, None]] = {}

    def add_arc(self, u: tuple, v: tuple, cap: int) -> None:
        self.capacity.setdefault(u, {})[v] = cap
        self.capacity.setdefault(v, {})
        self._adj.setdefault(u, {})[v] = None
        self._adj.setdefault(v, {})[u] = None

    def remove_arcs_into(self, v: tuple, keep_from: tuple) -> None:
        """Delete all arcs into ``v`` except the one from ``keep_from``."""
        for u in list(self._adj.get(v, ())):
            if u != keep_from and v in self.capacity.get(u, {}):
                del self.capacity[u][v]
                # Keep adjacency for residual traversal simplicity; a zero
                # capacity arc is equivalent to no arc.

    def max_flow(self) -> tuple[int, dict[tuple, dict[tuple, int]]]:
        """Dinic's algorithm.  Returns ``(value, flow)`` with the same
        residual-flow representation the rest of the module consumes."""
        capacity = self.capacity
        # repro: allow[REPRO001] _adj's insertion order is canonical by
        # construction (the builders insert arcs in repr-sorted node
        # order), which is exactly what makes Dinic deterministic here.
        flow: dict[tuple, dict[tuple, int]] = {u: {} for u in self._adj}
        # repro: allow[REPRO001] same canonical insertion order as above.
        adjacency = {u: list(nbrs) for u, nbrs in self._adj.items()}
        total = 0
        while True:
            # BFS phase: residual level graph from the source.
            level: dict[tuple, int] = {_SOURCE: 0}
            queue = deque([_SOURCE])
            while queue:
                u = queue.popleft()
                # Levels beyond the sink's cannot lie on a shortest
                # augmenting path — stop expanding there.
                if _SINK in level and level[u] >= level[_SINK]:
                    continue
                cap_u = capacity[u]
                flow_u = flow[u]
                next_level = level[u] + 1
                for v in adjacency[u]:
                    if v not in level and cap_u.get(v, 0) - flow_u.get(v, 0) > 0:
                        level[v] = next_level
                        queue.append(v)
            if _SINK not in level:
                return total, flow

            # DFS phase: blocking flow with per-node arc pointers, so each
            # saturated or level-infeasible arc is inspected once per
            # phase.  Iterative (explicit path stack) — augmenting paths
            # can be Θ(n) long, far beyond Python's recursion limit.
            pointer = dict.fromkeys(adjacency, 0)
            path = [_SOURCE]
            while path:
                u = path[-1]
                if u == _SINK:
                    bottleneck = min(
                        capacity[path[i]].get(path[i + 1], 0)
                        - flow[path[i]].get(path[i + 1], 0)
                        for i in range(len(path) - 1)
                    )
                    retreat_to = len(path) - 1
                    for i in range(len(path) - 1):
                        a, b = path[i], path[i + 1]
                        flow[a][b] = flow[a].get(b, 0) + bottleneck
                        flow[b][a] = flow[b].get(a, 0) - bottleneck
                        if (
                            capacity[a].get(b, 0) - flow[a][b] == 0
                            and i < retreat_to
                        ):
                            retreat_to = i
                    total += bottleneck
                    # Resume from the first saturated arc on the path.
                    del path[retreat_to + 1 :]
                    continue
                arcs = adjacency[u]
                cap_u = capacity[u]
                flow_u = flow[u]
                next_level = level[u] + 1
                advanced = False
                while pointer[u] < len(arcs):
                    v = arcs[pointer[u]]
                    if (
                        cap_u.get(v, 0) - flow_u.get(v, 0) > 0
                        and level.get(v) == next_level
                    ):
                        path.append(v)
                        advanced = True
                        break
                    pointer[u] += 1
                if not advanced:
                    # Dead end: prune u from the level graph and step back.
                    level.pop(u, None)
                    path.pop()
                    if path:
                        pointer[path[-1]] += 1

    def residual_reachable(self, flow: dict[tuple, dict[tuple, int]]) -> set[tuple]:
        """Vertices reachable from the source in the residual network."""
        reach = {_SOURCE}
        queue = deque([_SOURCE])
        while queue:
            u = queue.popleft()
            for v in self._adj.get(u, ()):
                if v not in reach and (
                    self.capacity.get(u, {}).get(v, 0) - flow[u].get(v, 0) > 0
                ):
                    reach.add(v)
                    queue.append(v)
        return reach


def _build_split_network(
    graph: Graph,
    sources: Iterable[Node],
    sink: Node,
    exclude_internal: Iterable[Node] = (),
    edge_cap: int | None = None,
) -> _FlowNetwork:
    """Unit-capacity node-split flow network for disjoint-path queries.

    ``sources`` may contain one node (Menger) or many (fan lemma / the
    algorithm's ``A_v v``-path searches).  Nodes in ``exclude_internal``
    may not appear as *internal* path nodes; if such a node is also a
    source it remains usable as a path endpoint only (its only incoming
    arc is from the super-source), mirroring the paper's "path excludes
    F but endpoints may belong to F" convention.

    On a :class:`Digraph` only the digraph's own arcs are inserted, so
    flow paths are *directed* paths.  The undirected branch keeps its
    historical ``graph.edges()`` insertion order verbatim — arc order
    determines which valid path decomposition Dinic produces, and those
    decompositions are part of the byte-identical report contract.
    """
    source_set = set(sources)
    excluded = set(exclude_internal)
    big = graph.n + 1  # effectively infinite for unit-capacity networks
    if edge_cap is None:
        edge_cap = 1
    net = _FlowNetwork()
    # Sorted insertion keeps the network's arc order — and with it every
    # max-flow traversal and decomposed path — hash-seed independent.
    for v in sorted(graph.nodes, key=repr):
        if v in source_set or v == sink:
            through = big
        elif v in excluded:
            through = 0
        else:
            through = 1
        net.add_arc(("in", v), ("out", v), through)
    if graph.directed:
        for u, v in graph.arcs():
            if u != sink:
                net.add_arc(("out", u), ("in", v), edge_cap)
    else:
        for u, v in graph.edges():
            if u != sink:
                net.add_arc(("out", u), ("in", v), edge_cap)
            if v != sink:
                net.add_arc(("out", v), ("in", u), edge_cap)
    for s in sorted(source_set, key=repr):
        net.add_arc(_SOURCE, ("in", s), big)
    net.add_arc(("out", sink), _SINK, big)
    # Excluded sources are endpoint-only: forbid entering them mid-path.
    for s in sorted(source_set & excluded, key=repr):
        net.remove_arcs_into(("in", s), keep_from=_SOURCE)
    return net


def _decompose_paths(
    flow: dict[tuple, dict[tuple, int]], value: int
) -> list[tuple[Node, ...]]:
    """Decompose an integral flow into ``value`` node paths.

    Walks positive-flow arcs from the source, consuming them as used.
    Loops (possible only through the high-capacity terminals) are erased,
    so every returned path is simple.
    """
    succ: dict[tuple, list[tuple]] = {}
    # repro: allow[REPRO001] flow dicts inherit the canonical repr-sorted
    # arc insertion order of _FlowNetwork; iterating them (not sorting)
    # is deliberate — re-ordering would change *which* valid path
    # decomposition is produced.
    for u, nbrs in flow.items():
        # repro: allow[REPRO001] same canonical insertion order.
        for v, fv in nbrs.items():
            if fv > 0:
                succ.setdefault(u, []).extend([v] * fv)
    paths: list[tuple[Node, ...]] = []
    for _ in range(value):
        node_path: list[Node] = []
        cur = _SOURCE
        while cur != _SINK:
            nxt = succ[cur].pop()
            if nxt[0] == "in":
                label = nxt[1]
                if label in node_path:  # loop through a terminal: erase it
                    node_path = node_path[: node_path.index(label) + 1]
                else:
                    node_path.append(label)
            cur = nxt
        paths.append(tuple(node_path))
    return paths


def max_disjoint_paths(
    graph: Graph,
    u: Node,
    v: Node,
    exclude_internal: Iterable[Node] = (),
    want_paths: bool = False,
) -> int | tuple[int, list[tuple[Node, ...]]]:
    """Maximum number of internally node-disjoint ``uv``-paths.

    ``exclude_internal`` forbids the given nodes from appearing as
    *internal* nodes (they may still be endpoints) — the paper's notion of
    a path "excluding" a set ``F``.  With ``want_paths=True`` also returns
    one maximum family of disjoint paths (each a node tuple ``u .. v``).

    For adjacent ``u, v`` the direct edge counts as one path (it has no
    internal nodes), matching Menger's theorem conventions.
    """
    if u == v:
        raise GraphError("endpoints must be distinct")
    if u not in graph.nodes or v not in graph.nodes:
        raise GraphError("both endpoints must be graph nodes")
    net = _build_split_network(graph, [u], v, exclude_internal)
    value, flow = net.max_flow()
    if not want_paths:
        return value
    return value, _decompose_paths(flow, value)


def max_set_disjoint_paths(
    graph: Graph,
    sources: Iterable[Node],
    v: Node,
    exclude_internal: Iterable[Node] = (),
    want_paths: bool = False,
) -> int | tuple[int, list[tuple[Node, ...]]]:
    """Maximum number of node-disjoint ``Uv``-paths (fan lemma form).

    Per Section 3, node-disjoint ``Uv``-paths share **no** node except the
    endpoint ``v``; in particular their ``U``-side endpoints are distinct.
    This is enforced by unit entry arcs from the super-source and unit
    through-capacity at each source.
    """
    source_list = sorted(set(sources) - {v}, key=repr)
    if not source_list:
        return (0, []) if want_paths else 0
    for s in source_list:
        if s not in graph.nodes:
            raise GraphError(f"source {s!r} is not a graph node")
    if v not in graph.nodes:
        raise GraphError(f"sink {v!r} is not a graph node")
    net = _build_split_network(graph, source_list, v, exclude_internal)
    for s in source_list:
        net.capacity[_SOURCE][("in", s)] = 1
        net.capacity[("in", s)][("out", s)] = 1
    value, flow = net.max_flow()
    if not want_paths:
        return value
    return value, _decompose_paths(flow, value)


def local_connectivity(graph: Digraph, u: Node, v: Node) -> int:
    """κ(u, v): the maximum number of internally node-disjoint ``uv``-paths
    (directed ``u → v`` paths on a digraph)."""
    return max_disjoint_paths(graph, u, v)


@lru_cache(maxsize=512)
def _vertex_connectivity_uncached(graph: Digraph) -> int:
    if graph.n <= 1 or not is_strongly_connected(graph):
        return 0
    if graph.directed:
        return _ordered_pair_connectivity(graph)
    return _pruned_connectivity(graph)


def _ordered_pair_connectivity(graph: Digraph) -> int:
    """The directed Menger form: the minimum over ordered non-adjacent
    pairs ``(u, v)`` of the number of internally node-disjoint directed
    ``u → v`` paths (``n - 1`` when there is no such pair)."""
    nodes = sorted(graph.nodes, key=repr)
    best = graph.n - 1
    for u in nodes:
        for v in nodes:
            if u == v or graph.has_edge(u, v):
                continue
            best = min(best, max_disjoint_paths(graph, u, v))
            if best == 0:
                return 0
    return best


def _pruned_connectivity(graph: Graph) -> int:
    """Undirected κ of a connected graph by pruning the pairs to check
    (see :func:`vertex_connectivity`)."""
    n = graph.n
    if all(graph.degree(v) == n - 1 for v in graph.nodes):
        return n - 1
    x = min(graph.nodes, key=lambda v: (graph.degree(v), repr(v)))
    best = graph.degree(x)
    for v in sorted(graph.nodes - graph.neighbors(x) - {x}, key=repr):
        best = min(best, local_connectivity(graph, x, v))
        if best == 0:
            return 0
    for a, b in combinations(sorted(graph.neighbors(x), key=repr), 2):
        if not graph.has_edge(a, b):
            best = min(best, local_connectivity(graph, a, b))
            if best == 0:
                return 0
    return best


def vertex_connectivity(graph: Digraph) -> int:
    """Global vertex connectivity κ(G), strong κ on a digraph.

    Definition used by the paper (Section 3): ``G`` is ``k``-connected if
    ``n > k`` and removing fewer than ``k`` nodes never disconnects it.
    Consequently κ(K_n) = n - 1 and κ of a disconnected graph is 0.  On
    a digraph "disconnects" means "breaks strong connectivity", so κ is
    0 unless the digraph is strongly connected; on a symmetric view the
    two readings coincide.

    A :class:`~repro.graphs.graph.Graph` takes the classic pruning: fix
    a minimum-degree vertex ``x``; a minimum cut either avoids ``x``
    (then some non-neighbor of ``x`` is separated from it) or contains
    ``x`` (then two of ``x``'s neighbors lie on opposite sides), so
    checking those pairs suffices.  The argument needs symmetric
    adjacency, so a :class:`~repro.graphs.graph.Digraph` (a symmetric
    one included) takes the directed Menger form instead: the minimum
    of κ(u → v) over every ordered non-adjacent pair.

    Memoized on the (immutable, hashable) graph behind a module-level
    LRU: feasibility checkers and sweeps re-ask κ(G) of the same graph
    constantly — e.g. every ``check_local_broadcast``/``consensus_sweep``
    call — and repeat queries are near-free.  ``cache_info`` /
    ``cache_clear`` are exposed on this function.
    """
    return _vertex_connectivity_uncached(graph)


vertex_connectivity.cache_info = _vertex_connectivity_uncached.cache_info
vertex_connectivity.cache_clear = _vertex_connectivity_uncached.cache_clear


def is_k_connected(graph: Digraph, k: int) -> bool:
    """``G`` is ``k``-connected (strongly, on a digraph): ``n > k`` and
    no cut of size < k."""
    if k <= 0:
        return graph.n > k
    if graph.n <= k:
        return False
    return vertex_connectivity(graph) >= k


def minimum_vertex_cut(graph: Graph) -> set[Node]:
    """A minimum vertex cut of a connected, non-complete graph.

    Returns a set ``C`` with ``|C| = κ(G)`` whose removal disconnects
    ``G``.  Raises :class:`GraphError` for complete or disconnected
    graphs (where no proper vertex cut exists).
    """
    if not graph.is_connected():
        raise GraphError("graph is disconnected; the empty set is a cut")
    kappa = vertex_connectivity(graph)
    if kappa == graph.n - 1:
        raise GraphError("complete graphs have no vertex cut")
    for u in sorted(graph.nodes, key=repr):
        for v in sorted(graph.nodes - graph.neighbors(u) - {u}, key=repr):
            if local_connectivity(graph, u, v) == kappa:
                return _min_cut_between(graph, u, v)
    raise GraphError("no minimum cut found (internal error)")


def _min_cut_between(graph: Graph, u: Node, v: Node) -> set[Node]:
    """A minimum ``uv`` vertex cut for non-adjacent ``u, v``.

    Edge arcs get effectively-infinite capacity here so that the min cut
    consists purely of node through-arcs, which read back directly as a
    vertex cut.
    """
    big = graph.n + 1
    net = _build_split_network(graph, [u], v, edge_cap=big)
    value, flow = net.max_flow()
    reach = net.residual_reachable(flow)
    cut = {
        x[1]
        for x in reach
        if x[0] == "in" and ("out", x[1]) not in reach and x[1] not in (u, v)
    }
    if len(cut) != value:
        raise GraphError("min-cut extraction failed (internal error)")
    return cut


def disjoint_paths_excluding(
    graph: Graph,
    sources: Iterable[Node],
    v: Node,
    exclude: Iterable[Node],
    k: int,
) -> list[tuple[Node, ...]] | None:
    """``k`` node-disjoint ``Uv``-paths excluding ``exclude``, or ``None``.

    This is the query Step (c) of Algorithms 1/3 performs: paths from the
    set ``A_v`` to ``v`` whose internal nodes avoid ``F`` (endpoints may be
    in ``F``).  Returned paths run from the ``U``-side endpoint to ``v``.
    """
    value, paths = max_set_disjoint_paths(
        graph, sources, v, exclude_internal=exclude, want_paths=True
    )
    if value < k:
        return None
    return paths[:k]


# ----------------------------------------------------------------------
# Directed reachability and connectivity (arXiv:1911.07298)
# ----------------------------------------------------------------------
def is_strongly_connected(graph: Digraph) -> bool:
    """True iff every node reaches every other along arcs.

    Graphs with at most one node count as strongly connected.  On a
    symmetric view this is ordinary connectivity.  One forward and one
    backward BFS from the canonical (repr-minimal) node suffice; on a
    :class:`~repro.graphs.graph.Graph` the backward walk would repeat
    the forward one and is skipped.
    """
    if graph.n <= 1:
        return True
    start = min(graph.nodes, key=repr)
    if len(graph.bfs_reachable(start)) != graph.n:
        return False
    return not graph.directed or len(graph.bfs_reaching(start)) == graph.n


def strongly_connected_components(graph: Digraph) -> list[set[Node]]:
    """All strongly connected components, as a list of node sets.

    Kosaraju's algorithm over sorted adjacency (iterative DFS — paths
    can be Θ(n) long), so both the membership *and the list order* are a
    pure function of the graph, never of ``PYTHONHASHSEED``.  The list
    comes out in topological order of the condensation: a component
    only ever has arcs into components listed after it.
    """
    # Pass 1: DFS finish order on out-arcs, roots visited in repr order.
    finish: list[Node] = []
    seen: set[Node] = set()
    for root in sorted(graph.nodes, key=repr):
        if root in seen:
            continue
        seen.add(root)
        stack: list[tuple[Node, Iterable[Node]]] = [
            (root, iter(graph.sorted_neighbors(root)))
        ]
        while stack:
            node, arcs_iter = stack[-1]
            advanced = False
            for nxt in arcs_iter:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, iter(graph.sorted_neighbors(nxt))))
                    advanced = True
                    break
            if not advanced:
                finish.append(node)
                stack.pop()
    # Pass 2: BFS on in-arcs in reverse finish order.
    components: list[set[Node]] = []
    assigned: set[Node] = set()
    for root in reversed(finish):
        if root in assigned:
            continue
        component = {root}
        assigned.add(root)
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in graph.sorted_in_neighbors(u):
                if w not in assigned:
                    assigned.add(w)
                    component.add(w)
                    queue.append(w)
        components.append(component)
    return components


def source_components(graph: Digraph) -> list[set[Node]]:
    """The source components of the condensation: strongly connected
    components with no incoming arc from outside.

    These are the only places information can originate — a digraph with
    two source components cannot reach consensus even fault-free (each
    source never learns the other's inputs).  Returned sorted by the
    repr of each component's minimal node, so the first entry is the
    canonical choice when a unique "core" is assumed.  A strongly
    connected digraph has exactly one source component: the whole graph.
    """
    components = strongly_connected_components(graph)
    component_of: dict[Node, int] = {}
    for i, component in enumerate(components):
        for v in component:
            component_of[v] = i
    has_incoming: set[int] = set()
    for u, v in graph.arcs():
        if component_of[u] != component_of[v]:
            has_incoming.add(component_of[v])
    sources = [
        component
        for i, component in enumerate(components)
        if i not in has_incoming
    ]
    return sorted(sources, key=lambda component: repr(min(component, key=repr)))
