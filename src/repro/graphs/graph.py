"""Graph substrate used throughout the reproduction.

The source paper (PODC 2019) models the communication network as an
undirected graph ``G = (V, E)`` that every node knows in full
(Section 3); the companion paper (arXiv:1911.07298) extends the model to
arbitrary *directed* graphs, where an arc ``u → v`` means ``v`` overhears
``u``'s local broadcasts but not conversely (radio links with asymmetric
reach).  This module provides both, dependency-free:

* :class:`Digraph` is the primitive — an immutable simple directed graph
  with distinct out-/in-adjacency, ``repr``-sorted everywhere so every
  traversal is a pure function of the graph and never of
  ``PYTHONHASHSEED``.
* :class:`Graph` is the undirected API as a symmetric view:
  construction symmetrizes the edge list and out- and in-adjacency are
  the *same* dict, so the digraph's methods (derived graphs, equality,
  hashing, traversal, degrees) serve it unchanged; it adds only the
  undirected vocabulary (edges, edge count, components).

Throughout the library ``neighbors(v)`` means **out-neighbors**: the
nodes that hear ``v``'s broadcasts.  On a :class:`Graph` the two
directions coincide, so all undirected call sites read unchanged.

Nodes may be any hashable value; the rest of the library mostly uses
integers and strings (string names appear in the covering networks of the
impossibility proofs, e.g. ``"u@0"`` / ``"u@1"`` for the two copies of
node ``u``).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Hashable, Iterable, Iterator
from typing import FrozenSet, Tuple

Node = Hashable
Edge = Tuple[Node, Node]
Arc = Tuple[Node, Node]


class GraphError(ValueError):
    """Raised for malformed graph constructions or invalid queries."""


def require_undirected(graph: "Digraph", claim: str) -> None:
    """Refuse a digraph for ``claim``, a result stated for undirected
    graphs only (a symmetric lift included): the feasibility checkers
    and impossibility constructions with no directed theorem."""
    if graph.directed:
        raise GraphError(f"{claim} is stated for undirected graphs only")


class Digraph:
    """An immutable, simple, directed graph.

    Self-loops and parallel arcs are rejected (each arc ``u → v`` is a
    FIFO link carrying ``u``'s broadcasts to ``v``; the model has
    neither).  The adjacency structure is frozen at construction time;
    all mutating "operations" (:meth:`remove_nodes`, :meth:`add_nodes`,
    ...) return new instances.  Immutability keeps executions
    reproducible — a protocol cannot accidentally rewire the network
    mid-run — and means derived caches (sorted adjacency, the
    :class:`~repro.graphs.index.NodeIndex`) can never go stale: derived
    graphs are fresh objects whose caches start empty.
    """

    __slots__ = ("_adj", "_pred", "_nodes", "_edge_count", "_hash",
                 "_sorted_adj", "_sorted_pred", "_index")

    #: Class-level directedness flag; :class:`Graph` overrides with False.
    directed = True

    def __init__(self, nodes: Iterable[Node] = (), arcs: Iterable[Arc] = ()):
        succ: dict[Node, set[Node]] = {v: set() for v in nodes}
        pred: dict[Node, set[Node]] = {v: set() for v in succ}  # repro: allow[REPRO001] scratch dict; both are rebuilt repr-sorted below
        arc_count = 0
        for u, v in arcs:
            if u == v:
                raise GraphError(f"self-loop at {u!r} is not allowed")
            for w in (u, v):
                if w not in succ:
                    succ[w] = set()
                    pred[w] = set()
            if v not in succ[u]:
                arc_count += 1
            succ[u].add(v)
            pred[v].add(u)
        # repr-sorted so the adjacency dicts' insertion order is a pure
        # function of the graph, never of the node/arc argument order.
        self._adj: dict[Node, FrozenSet[Node]] = {
            v: frozenset(out)
            for v, out in sorted(succ.items(), key=lambda kv: repr(kv[0]))
        }
        self._pred: dict[Node, FrozenSet[Node]] = {
            v: frozenset(pred[v])
            for v in self._adj  # repro: allow[REPRO001] _adj was just built repr-sorted, so this order is canonical
        }
        self._nodes: FrozenSet[Node] = frozenset(self._adj)
        self._edge_count = arc_count
        self._hash: int | None = None
        self._sorted_adj: dict[Node, tuple[Node, ...]] = {}
        self._sorted_pred: dict[Node, tuple[Node, ...]] = {}
        self._index = None  # lazy NodeIndex (see node_index)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> FrozenSet[Node]:
        """The vertex set ``V``."""
        return self._nodes

    @property
    def n(self) -> int:
        """Number of nodes ``|V|``."""
        return len(self._nodes)

    @property
    def arc_count(self) -> int:
        """Number of directed arcs ``|A|``."""
        return self._edge_count

    @property
    def edge_count(self) -> int:
        """Alias of :attr:`arc_count` on digraphs, so generic reporting
        code can print a size for either graph kind.  :class:`Graph`
        overrides this with the undirected edge count."""
        return self._edge_count

    def arcs(self) -> Iterator[Arc]:
        """Iterate over every directed arc ``(u, v)`` exactly once.

        Both loops run in ``repr`` order so the arc sequence is a pure
        function of the graph — never of ``PYTHONHASHSEED`` — as the
        simulator's determinism contract requires.  On a :class:`Graph`
        this yields *both* orientations of each undirected edge (the
        symmetric view is a digraph with ``u → v`` and ``v → u``).
        """
        for u in sorted(self._adj, key=repr):
            for v in self.sorted_neighbors(u):
                yield (u, v)

    def neighbors(self, v: Node) -> FrozenSet[Node]:
        """Out-neighbors of ``v``: the nodes that hear ``v``'s local
        broadcasts (``u`` with ``v → u``).  Undirected call sites keep
        reading this name — on a :class:`Graph` both directions are the
        same set."""
        try:
            return self._adj[v]
        except KeyError:
            raise GraphError(f"node {v!r} is not in the graph") from None

    def in_neighbors(self, v: Node) -> FrozenSet[Node]:
        """In-neighbors of ``v``: the nodes ``v`` hears (``u`` with
        ``u → v``)."""
        try:
            return self._pred[v]
        except KeyError:
            raise GraphError(f"node {v!r} is not in the graph") from None

    def sorted_neighbors(self, v: Node) -> tuple[Node, ...]:
        """Out-neighbors of ``v`` in ``repr`` order (lazily cached).

        Every run-affecting traversal iterates this instead of the raw
        ``frozenset`` adjacency, so traversal results are a pure function
        of the graph — never of ``PYTHONHASHSEED``.
        """
        cached = self._sorted_adj.get(v)
        if cached is None:
            cached = tuple(sorted(self.neighbors(v), key=repr))
            self._sorted_adj[v] = cached
        return cached

    def sorted_in_neighbors(self, v: Node) -> tuple[Node, ...]:
        """In-neighbors of ``v`` in ``repr`` order (lazily cached)."""
        cached = self._sorted_pred.get(v)
        if cached is None:
            cached = tuple(sorted(self.in_neighbors(v), key=repr))
            self._sorted_pred[v] = cached
        return cached

    def node_index(self):
        """The canonical :class:`~repro.graphs.index.NodeIndex` of this
        graph (``repr``-sorted node→bit mapping plus per-direction
        adjacency bitmasks), built lazily and cached for the graph's
        lifetime.

        Because the index lives in a slot, a pickled graph ships it warm
        (the index holds only derived data, never a back reference), so
        sweep workers reuse it instead of rebuilding per process.
        Derived graphs (:meth:`subgraph`, :meth:`relabeled`, ...) are
        fresh instances whose slot starts at ``None`` — an attached index
        is invalidated, never copied stale.
        """
        index = self._index
        if index is None:
            from .index import NodeIndex

            index = NodeIndex(self)
            self._index = index
        return index

    def out_degree(self, v: Node) -> int:
        """Out-degree of ``v`` — how many nodes hear it."""
        return len(self.neighbors(v))

    def in_degree(self, v: Node) -> int:
        """In-degree of ``v`` — how many nodes it hears."""
        return len(self.in_neighbors(v))

    def min_out_degree(self) -> int:
        """Minimum out-degree over all vertices (0 for the empty graph)."""
        if not self._nodes:
            return 0
        return min(len(out) for out in self._adj.values())

    def min_in_degree(self) -> int:
        """Minimum in-degree over all vertices (0 for the empty graph)."""
        if not self._nodes:
            return 0
        return min(len(inc) for inc in self._pred.values())

    def is_symmetric(self) -> bool:
        """True iff every arc has its reverse (the digraph is the
        symmetric closure of an undirected graph)."""
        return all(self._adj[v] == self._pred[v] for v in self._adj)

    def has_edge(self, u: Node, v: Node) -> bool:
        """True iff the arc ``u → v`` exists (on a :class:`Graph`, iff
        the undirected edge ``uv`` exists)."""
        return u in self._adj and v in self._adj[u]

    def __contains__(self, v: Node) -> bool:
        return v in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Node]:
        # repr order, not frozenset order: `for v in graph` must never
        # leak PYTHONHASHSEED into a caller's traversal.
        return iter(sorted(self._nodes, key=repr))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        # A Graph and a Digraph never compare equal, even when the
        # Digraph is symmetric: the directed axis is part of identity
        # (sweep records, caches, and oracles key on it).
        return self.directed == other.directed and self._adj == other._adj

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (self.directed, self._nodes,
                 frozenset((u, frozenset(nb)) for u, nb in self._adj.items()))
            )
        return self._hash

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, a={self.arc_count})"

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    # Each builds ``type(self)`` from arcs: a Graph fed both orientations
    # of an edge stores it once, so one body serves both graph kinds.
    def subgraph(self, keep: Iterable[Node]) -> "Digraph":
        """The induced subgraph on ``keep`` (unknown nodes are ignored),
        of the receiver's class.

        Returns a fresh instance: sorted-adjacency caches and any
        attached :class:`~repro.graphs.index.NodeIndex` are rebuilt on
        demand, never inherited stale.
        """
        keep_set = set(keep) & self._nodes
        kept = sorted(keep_set, key=repr)
        arcs = [
            (u, v) for u in kept for v in self.sorted_neighbors(u) if v in keep_set
        ]
        return type(self)(kept, arcs)

    def remove_nodes(self, drop: Iterable[Node]) -> "Digraph":
        """``G - X``: the induced subgraph on ``V - X``."""
        return self.subgraph(self._nodes - set(drop))

    def add_nodes(self, new_nodes: Iterable[Node]) -> "Digraph":
        """A new graph of the receiver's class with isolated
        ``new_nodes`` added."""
        return type(self)(set(self._nodes) | set(new_nodes), self.arcs())

    def relabeled(self, mapping: dict[Node, Node]) -> "Digraph":
        """A copy with nodes renamed via ``mapping`` (identity for
        absentees).  The copy is freshly constructed, so a node index
        attached to the original (which maps the *old* labels) is
        invalidated, not carried over stale."""
        def name(v: Node) -> Node:
            return mapping.get(v, v)

        new_nodes = [name(v) for v in sorted(self._nodes, key=repr)]
        if len(set(new_nodes)) != len(new_nodes):
            raise GraphError("relabeling collapses distinct nodes")
        return type(self)(new_nodes, [(name(u), name(v)) for u, v in self.arcs()])

    def reverse(self) -> "Digraph":
        """The digraph with every arc flipped."""
        return Digraph(self._nodes, [(v, u) for u, v in self.arcs()])

    def to_undirected(self) -> "Graph":
        """The symmetric closure as an undirected :class:`Graph` (each
        arc becomes an edge; anti-parallel pairs collapse to one edge)."""
        return Graph(self._nodes, self.arcs())

    def to_digraph(self) -> "Digraph":
        """This digraph (identity; :class:`Graph` overrides with the
        symmetric lift)."""
        return self

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def bfs_reachable(self, source: Node, forbidden: Iterable[Node] = ()) -> set[Node]:
        """Nodes reachable from ``source`` along arcs without entering
        ``forbidden``.

        ``source`` itself must not be forbidden.  Used for cut detection:
        ``G`` minus a vertex cut splits reachability.  Expands sorted
        adjacency so the visit order (and any downstream consumer of it)
        is hash-seed independent by construction.
        """
        return self._bfs(source, forbidden, self.sorted_neighbors, "source")

    def bfs_reaching(self, target: Node, forbidden: Iterable[Node] = ()) -> set[Node]:
        """Nodes that can reach ``target`` along arcs without entering
        ``forbidden`` (reverse-direction counterpart of
        :meth:`bfs_reachable`)."""
        return self._bfs(target, forbidden, self.sorted_in_neighbors, "target")

    def _bfs(
        self,
        start: Node,
        forbidden: Iterable[Node],
        step: Callable[[Node], Iterable[Node]],
        role: str,
    ) -> set[Node]:
        """The walk behind both BFS methods: ``step(u)`` lists the nodes
        one arc away from ``u`` in the walk's direction; ``role`` names
        ``start`` in the error messages."""
        blocked = set(forbidden)
        if start in blocked:
            raise GraphError(f"{role} may not be in the forbidden set")
        if start not in self._nodes:
            raise GraphError(f"node {start!r} is not in the graph")
        seen = {start}
        queue = deque([start])
        while queue:
            for v in step(queue.popleft()):
                if v not in seen and v not in blocked:
                    seen.add(v)
                    queue.append(v)
        return seen

    def shortest_path(self, u: Node, v: Node) -> tuple[Node, ...] | None:
        """A shortest directed ``u → v`` path as a node tuple, or ``None``
        if ``v`` is unreachable.

        BFS expands sorted adjacency, so among equal-length paths the
        returned one is a pure function of the graph (the parent choice
        never leaks set iteration order).
        """
        if u not in self._nodes or v not in self._nodes:
            raise GraphError("both endpoints must be graph nodes")
        if u == v:
            return (u,)
        parent: dict[Node, Node] = {u: u}
        queue = deque([u])
        while queue:
            x = queue.popleft()
            for y in self.sorted_neighbors(x):
                if y not in parent:
                    parent[y] = x
                    if y == v:
                        path = [v]
                        while path[-1] != u:
                            path.append(parent[path[-1]])
                        return tuple(reversed(path))
                    queue.append(y)
        return None

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_arcs(cls, arcs: Iterable[Arc]) -> "Digraph":
        """Build a digraph from an arc list alone (nodes inferred)."""
        return cls((), arcs)


class Graph(Digraph):
    """An immutable, simple, undirected graph — the symmetric view.

    Self-loops and parallel edges are rejected: the source paper's model
    has neither (each edge is a FIFO link between two distinct nodes).
    Construction symmetrizes the edge list, and out- and in-adjacency
    are the *same* dict, so every digraph name keeps its undirected
    meaning: degree is ``in_degree``, connectivity is
    :func:`~repro.graphs.connectivity.is_strongly_connected`.  This
    class adds only what a digraph lacks (:meth:`edges`,
    :meth:`connected_components`, :meth:`add_edges`).  Derived graphs
    (:meth:`subgraph`, :meth:`relabeled`, ...), equality and hashing are
    the digraph's own: they rebuild ``type(self)`` from arcs, and a
    ``Graph`` built from both orientations of each edge equals (and
    hashes like) the edge-built one.  The hash includes the
    ``directed`` flag; no output depends on hash values (every
    traversal is ``repr``-sorted).
    """

    __slots__ = ()

    directed = False

    def __init__(self, nodes: Iterable[Node] = (), edges: Iterable[Edge] = ()):
        adj: dict[Node, set[Node]] = {v: set() for v in nodes}
        edge_count = 0
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop at {u!r} is not allowed")
            if u not in adj:
                adj[u] = set()
            if v not in adj:
                adj[v] = set()
            if v not in adj[u]:
                edge_count += 1
            adj[u].add(v)
            adj[v].add(u)
        # repr-sorted so the adjacency dict's insertion order is a pure
        # function of the graph, never of the node/edge argument order.
        self._adj = {
            v: frozenset(nbrs)
            for v, nbrs in sorted(adj.items(), key=lambda kv: repr(kv[0]))
        }
        # The symmetric view: in-adjacency IS out-adjacency (the same
        # dict object, so the sorted caches are shared too).
        self._pred = self._adj
        self._nodes = frozenset(self._adj)
        self._edge_count = edge_count
        self._hash = None
        self._sorted_adj = {}
        self._sorted_pred = self._sorted_adj
        self._index = None  # lazy NodeIndex (see node_index)

    @property
    def edge_count(self) -> int:
        """Number of (undirected) edges ``|E|``."""
        return self._edge_count

    @property
    def arc_count(self) -> int:
        """Arcs of the symmetric view: both orientations of every edge."""
        return 2 * self._edge_count

    def edges(self) -> Iterator[Edge]:
        """Iterate over each undirected edge exactly once.

        Both loops run in ``repr`` order so the edge sequence is a pure
        function of the graph — never of ``PYTHONHASHSEED`` (string-labeled
        nodes, e.g. the ``"u@0"``/``"u@1"`` covering graphs, would otherwise
        leak set iteration order), as the simulator's determinism contract
        requires.
        """
        seen: set[Node] = set()
        for u in sorted(self._adj, key=repr):
            for v in self.sorted_neighbors(u):
                if v not in seen:
                    yield (u, v)
            seen.add(u)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def add_edges(self, new_edges: Iterable[Edge]) -> "Graph":
        """A new graph with ``new_edges`` added (idempotent for existing edges)."""
        return Graph(self._nodes, list(self.edges()) + list(new_edges))

    def reverse(self) -> "Graph":
        """Reversal is the identity on a symmetric view."""
        return self

    def to_undirected(self) -> "Graph":
        """This graph (identity on the undirected view)."""
        return self

    def to_digraph(self) -> "Digraph":
        """The symmetric lift: a true :class:`Digraph` with both
        orientations of every edge.  Used by the directed machinery's
        equivalence property tests — the lift must behave identically to
        the undirected path everywhere."""
        return Digraph(self._nodes, self.arcs())

    # ------------------------------------------------------------------
    # Components (undirected semantics)
    # ------------------------------------------------------------------
    def connected_components(self) -> list[set[Node]]:
        """All connected components, as a list of node sets."""
        remaining = set(self._nodes)
        components: list[set[Node]] = []
        while remaining:
            # min, not next(iter(...)): the component *list order* is
            # observable by callers and must not depend on hash seed.
            start = min(remaining, key=repr)
            comp = self.bfs_reachable(start, forbidden=self._nodes - remaining)
            components.append(comp)
            remaining -= comp
        return components

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, edges: Iterable[Edge]) -> "Graph":
        """Build a graph from an edge list alone (nodes inferred)."""
        return cls((), edges)
