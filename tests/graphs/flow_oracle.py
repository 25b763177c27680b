"""Edmonds–Karp reference for the connectivity layer's Dinic max-flow.

:meth:`repro.graphs.connectivity._FlowNetwork.max_flow` runs Dinic's
algorithm; this is the Edmonds–Karp loop it replaced, kept beside the
tests (and the sweep-scaling benchmark) that cross-validate flow values
against it.
"""

from __future__ import annotations

from collections import deque

from repro.graphs.connectivity import _SINK, _SOURCE, _FlowNetwork


def max_flow_reference(
    net: _FlowNetwork,
) -> tuple[int, dict[tuple, dict[tuple, int]]]:
    """Max flow of ``net`` by shortest augmenting paths (Edmonds–Karp)."""
    # repro: allow[REPRO001] _adj's insertion order is canonical by
    # construction (arcs inserted in repr-sorted node order).
    flow: dict[tuple, dict[tuple, int]] = {u: {} for u in net._adj}

    def residual(a: tuple, b: tuple) -> int:
        return net.capacity.get(a, {}).get(b, 0) - flow[a].get(b, 0)

    total = 0
    while True:
        parent: dict[tuple, tuple] = {_SOURCE: _SOURCE}
        queue = deque([_SOURCE])
        while queue:
            u = queue.popleft()
            if u == _SINK:
                break
            for v in net._adj.get(u, ()):
                if v not in parent and residual(u, v) > 0:
                    parent[v] = u
                    queue.append(v)
        if _SINK not in parent:
            return total, flow
        path = [_SINK]
        while path[-1] != _SOURCE:
            path.append(parent[path[-1]])
        path.reverse()
        bottleneck = min(
            residual(path[i], path[i + 1]) for i in range(len(path) - 1)
        )
        for i in range(len(path) - 1):
            u, v = path[i], path[i + 1]
            flow[u][v] = flow[u].get(v, 0) + bottleneck
            flow[v][u] = flow[v].get(u, 0) - bottleneck
        total += bottleneck
