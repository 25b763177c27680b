"""Shared, memoized pruned-graph path queries for the phase engine.

Algorithm 1's step (b) asks, for every phase candidate ``F`` and every
pair ``(u, v)``, for one ``uv``-path whose internal nodes avoid ``F``.
Run naively, each of the ``n`` protocol instances on the same graph
re-derives the identical pruned graph ``G − F`` and re-runs a BFS per
classified node — an O(n) redundancy factor across instances and another
O(n) inside each instance (one BFS per origin instead of one BFS tree
per phase).

:class:`PathOracle` removes both: it memoizes

* pruned graphs, keyed by the removed node set;
* whole BFS parent trees, keyed by ``(removed set, root)`` — a single
  tree answers *every* ``u → root`` query of a phase;
* the resulting paths, keyed by ``(excluded, u, v)``;
* :func:`repro.graphs.disjoint_paths_excluding` packings, keyed by
  ``(sources, v, excluded, k)``;
* maximum disjoint-path families from :func:`repro.graphs
  .max_disjoint_paths`, keyed by ``(u, v)`` — a pure function of the
  static graph, so a miss is served by the per-graph
  :func:`disjoint_families` cache that every oracle on an equal graph
  shares;
* localization plans, keyed by ``(w, k)`` — the walk order of
  Algorithm 2's phase-2 fault localization from origin ``w``, built
  from those families once per oracle instead of re-sorted and
  re-sliced by every node of every run.

Internally every memo key lives in the graph's canonical
:class:`~repro.graphs.index.NodeIndex` space: node sets become
plain-int bitmasks and nodes become bit positions, so the hot lookups
hash small integers instead of frozensets of labels.  The translation
is injective, so the hit/miss sequence of every query stream is
exactly the one the label-keyed implementation produced; a query that
names a label outside the graph raises ``KeyError``.

One oracle is meant to be shared by all protocol instances on the same
graph — :class:`~repro.consensus.factory.ProtocolFactory` does exactly
that for every protocol kind.  All traversals iterate neighbors in
``repr`` order, so every answer is a pure function of the query
(independent of ``PYTHONHASHSEED``), which the deterministic
cross-process sweep engine relies on.

When pickled, the oracle ships its *structural* memos — the pruned
graphs and BFS parent trees, which dominate the rebuild cost and are
pure functions of the graph — so sweep workers start warm.  The
per-query result caches (paths, packings), the localization plans
(derived from the shipped families) and the hit/miss counters are
per-process state and deliberately stay behind, keeping the pickle
payload proportional to the phase structure rather than the query
history.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Tuple

from ..graphs import Graph, disjoint_paths_excluding, max_disjoint_paths
from ..obs import MetricsRegistry

PathTuple = Tuple[Hashable, ...]
#: Phase-2 localization walk of one origin: per path, its internal-node
#: steps ``(z, slot, prefix, idx)`` with ``z = path[idx]``,
#: ``slot = path[:idx + 1]`` and ``prefix = path[:idx]``.
LocalizationPlan = Tuple[Tuple[Tuple[Hashable, PathTuple, PathTuple, int], ...], ...]

#: Query kinds the ``oracle.hits``/``oracle.misses`` counters split by.
_KINDS = ("path", "packing", "disjoint", "plan")


@lru_cache(maxsize=4096)
def disjoint_families(
    graph: Graph, u: Hashable, v: Hashable
) -> Tuple[PathTuple, ...]:
    """The :func:`repro.graphs.max_disjoint_paths` family of ``uv``-paths,
    computed once per graph (a module-level LRU, like
    :func:`~repro.net.sched.adversarial.bottleneck_sides`) and shared,
    as a tuple, by every oracle on an equal graph."""
    _count, paths = max_disjoint_paths(graph, u, v, want_paths=True)
    return tuple(paths)


class PathOracle:
    """Memoized pruned-graph shortest paths and disjoint-path packings."""

    __slots__ = ("graph", "_index", "_pruned", "_trees", "_paths", "_packings",
                 "_disjoint", "_plans", "metrics", "_c_hit_path",
                 "_c_miss_path", "_c_hit_packing", "_c_miss_packing",
                 "_c_hit_disjoint", "_c_miss_disjoint", "_c_hit_plan",
                 "_c_miss_plan")

    def __init__(
        self,
        graph: Graph,
        warm: Optional[Tuple[dict, ...]] = None,
    ):
        self.graph = graph
        self._index = graph.node_index()
        # All memos are keyed in index space: a node set is its
        # bitmask, a node its bit position.
        self._pruned: Dict[int, Graph] = {}
        self._trees: Dict[Tuple[int, int], Dict[Hashable, Hashable]] = {}
        self._paths: Dict[Tuple[int, int, int], Optional[PathTuple]] = {}
        self._packings: Dict[
            Tuple[int, int, int, int], Optional[List[PathTuple]]
        ] = {}
        self._disjoint: Dict[Tuple[int, int], Tuple[PathTuple, ...]] = {}
        self._plans: Dict[Tuple[int, int], LocalizationPlan] = {}
        # Per-process observability: cache traffic lands on a private
        # registry so sweep merges can aggregate it, while the
        # ``hits``/``misses`` property shims keep the original int API.
        # The counters are bound as cells once — the hit path of a warm
        # oracle is a dict probe plus one closure call.
        self.metrics = MetricsRegistry()
        metrics = self.metrics
        self._c_hit_path = metrics.counter_cell("oracle.hits", kind="path")
        self._c_miss_path = metrics.counter_cell("oracle.misses", kind="path")
        self._c_hit_packing = metrics.counter_cell("oracle.hits", kind="packing")
        self._c_miss_packing = metrics.counter_cell(
            "oracle.misses", kind="packing"
        )
        self._c_hit_disjoint = metrics.counter_cell(
            "oracle.hits", kind="disjoint"
        )
        self._c_miss_disjoint = metrics.counter_cell(
            "oracle.misses", kind="disjoint"
        )
        self._c_hit_plan = metrics.counter_cell("oracle.hits", kind="plan")
        self._c_miss_plan = metrics.counter_cell("oracle.misses", kind="plan")
        if warm is not None:
            pruned, trees, *rest = warm
            self._pruned.update(pruned)
            self._trees.update(trees)
            if rest:
                self._disjoint.update(rest[0])

    @property
    def hits(self) -> int:
        """Total cache hits (shim over the ``oracle.hits`` counters)."""
        return sum(self.metrics.counter("oracle.hits", kind=k) for k in _KINDS)

    @property
    def misses(self) -> int:
        """Total cache misses (shim over the ``oracle.misses`` counters)."""
        return sum(self.metrics.counter("oracle.misses", kind=k) for k in _KINDS)

    def __reduce__(self):
        # Ship the structural memos (pruned graphs, BFS parent trees,
        # disjoint-path families) so sweep workers start warm — these
        # dominate the rebuild cost and are pure functions of the graph.
        # The per-query result caches (_paths/_packings), the plans
        # derived from the families and the hit counters stay
        # per-process: they are cheap to refill and keeping them local
        # keeps the pickle payload proportional to the phase structure,
        # not to the query history.
        return (
            type(self),
            (
                self.graph,
                (dict(self._pruned), dict(self._trees), dict(self._disjoint)),
            ),
        )

    # ------------------------------------------------------------------
    def pruned(self, removed: FrozenSet[Hashable]) -> Graph:
        """``G − removed``, computed once per distinct removal set."""
        key = self._index.mask_of(removed)
        graph = self._pruned.get(key)
        if graph is None:
            graph = self.graph.remove_nodes(removed)
            self._pruned[key] = graph
        return graph

    def _parents(
        self, removed: FrozenSet[Hashable], root: Hashable
    ) -> Dict[Hashable, Hashable]:
        """BFS parent tree toward ``root`` in ``G − removed``.

        Neighbors are visited in ``repr`` order, so the tree (and every
        path read from it) is deterministic.
        """
        key = (self._index.mask_of(removed), self._index.index_of[root])
        parents = self._trees.get(key)
        if parents is None:
            graph = self.pruned(removed)
            parents = {root: root}
            queue = deque([root])
            while queue:
                x = queue.popleft()
                # Walking parent links y → x must follow forward arcs,
                # so children of x are its *in*-neighbors (same tuple on
                # a Graph, where the two directions share one cache).
                for y in graph.sorted_in_neighbors(x):
                    if y not in parents:
                        parents[y] = x
                        queue.append(y)
            self._trees[key] = parents
        return parents

    # ------------------------------------------------------------------
    def path_excluding(
        self,
        u: Hashable,
        v: Hashable,
        excluded: FrozenSet[Hashable],
    ) -> Optional[PathTuple]:
        """One shortest ``u → v`` path with no internal node in
        ``excluded`` (endpoints may belong to it), or ``None``.

        The pruned graph is ``G − (excluded − {u, v})``, which keeps
        both endpoints; disconnection yields ``None``.
        """
        index = self._index
        key = (index.mask_of(excluded), index.index_of[u], index.index_of[v])
        if key in self._paths:
            self._c_hit_path()
            return self._paths[key]
        self._c_miss_path()
        removed = frozenset(excluded - {u, v})
        # Built even when u == v: the pruned-graph memo (shipped warm to
        # sweep workers) holds every removal set a query has named.
        self.pruned(removed)
        path: Optional[PathTuple]
        if u == v:
            path = (u,)
        else:
            parents = self._parents(removed, v)
            if u not in parents:
                path = None
            else:
                walk = [u]
                while walk[-1] != v:
                    walk.append(parents[walk[-1]])
                path = tuple(walk)
        self._paths[key] = path
        return path

    def paths_excluding_many(
        self,
        sources: Iterable[Hashable],
        v: Hashable,
        excluded: FrozenSet[Hashable],
    ) -> List[Optional[PathTuple]]:
        """:meth:`path_excluding` for many sources sharing one target and
        excluded set — the exact query shape of step (b), which classifies
        every node of a phase against the same candidate set.

        The shared key parts (``excluded``'s bitmask, ``v``'s bit) are
        rendered once for the whole batch instead of once per source;
        results, memo entries, and the hit/miss sequence are identical to
        ``[path_excluding(u, v, excluded) for u in sources]``.
        """
        index_of = self._index.index_of
        skey = self._index.mask_of(excluded)
        vkey = index_of[v]
        paths = self._paths
        hits = 0
        out: List[Optional[PathTuple]] = []
        for u in sources:
            key = (skey, index_of[u], vkey)
            if key in paths:
                hits += 1
                out.append(paths[key])
            else:
                out.append(self.path_excluding(u, v, excluded))
        if hits:
            self._c_hit_path(hits)
        return out

    def disjoint_paths_excluding(
        self,
        sources: Iterable[Hashable],
        v: Hashable,
        exclude: Iterable[Hashable],
        k: int,
    ) -> Optional[List[PathTuple]]:
        """Memoized :func:`repro.graphs.disjoint_paths_excluding`."""
        fsources = frozenset(sources)
        fexclude = frozenset(exclude)
        index = self._index
        key = (
            index.mask_of(fsources), index.index_of[v], index.mask_of(fexclude), k
        )
        if key in self._packings:
            self._c_hit_packing()
            return self._packings[key]
        self._c_miss_packing()
        result = disjoint_paths_excluding(self.graph, fsources, v, fexclude, k)
        self._packings[key] = result
        return result

    def disjoint_paths_between(
        self, u: Hashable, v: Hashable
    ) -> Tuple[PathTuple, ...]:
        """A maximum family of internally node-disjoint ``uv``-paths.

        Memoized :func:`disjoint_families`: the answer depends only on
        the static graph and the endpoint pair.  A miss here is served
        by that per-graph cache, so a fresh oracle on an equal graph
        runs no max-flow; the hit/miss counters count this memo only.
        """
        index_of = self._index.index_of
        key = (index_of[u], index_of[v])
        paths = self._disjoint.get(key)
        if paths is not None:
            self._c_hit_disjoint()
            return paths
        self._c_miss_disjoint()
        paths = self._disjoint[key] = disjoint_families(self.graph, u, v)
        return paths

    def localization_plan(self, w: Hashable, k: int) -> LocalizationPlan:
        """The walk order of phase-2 fault localization from origin ``w``:
        for every ``u ≠ w`` in ``repr`` order, the first ``k`` paths of
        the ``repr``-sorted :meth:`disjoint_paths_between` family, each
        as its internal-node steps (paths with none are left out).
        Built once per oracle and shared by every node of every run."""
        key = (self._index.index_of[w], k)
        plan = self._plans.get(key)
        if plan is not None:
            self._c_hit_plan()
            return plan
        self._c_miss_plan()
        walk = []
        for u in sorted(self.graph.nodes, key=repr):
            if u == w:
                continue
            for path in sorted(self.disjoint_paths_between(w, u), key=repr)[:k]:
                if len(path) > 2:
                    walk.append(tuple(
                        (path[idx], path[: idx + 1], path[:idx], idx)
                        for idx in range(1, len(path) - 1)
                    ))
        plan = self._plans[key] = tuple(walk)
        return plan

    # ------------------------------------------------------------------
    def cache_info(self) -> Dict[str, int]:
        """Counters for benchmarks and the equivalence tests."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "pruned_graphs": len(self._pruned),
            "bfs_trees": len(self._trees),
            "paths": len(self._paths),
            "packings": len(self._packings),
            "disjoint_pairs": len(self._disjoint),
            "plans": len(self._plans),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        info = self.cache_info()
        return (
            f"<PathOracle n={self.graph.n} hits={info['hits']} "
            f"misses={info['misses']}>"
        )
