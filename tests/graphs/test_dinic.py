"""Dinic's max-flow against the retained Edmonds–Karp reference.

The connectivity layer swapped its augmenting-path engine for Dinic's
algorithm; the old Edmonds–Karp loop survives as
``flow_oracle.max_flow_reference`` (beside this file) purely so this
suite can cross-validate values, min cuts, and path decompositions on
the families the consensus experiments actually use.
"""

from itertools import combinations

import pytest

from flow_oracle import max_flow_reference
from repro.graphs import (
    circulant_graph,
    complete_graph,
    cycle_graph,
    gnp_supercritical_graph,
    grid_graph,
    harary_graph,
    is_strongly_connected,
    local_connectivity,
    max_disjoint_paths,
    max_set_disjoint_paths,
    minimum_vertex_cut,
    path_graph,
    petersen_graph,
    random_regular_graph,
    vertex_connectivity,
)
from repro.graphs.connectivity import _build_split_network

FAMILIES = [
    ("harary_3_8", harary_graph(3, 8)),
    ("harary_4_10", harary_graph(4, 10)),
    ("circulant_9_12", circulant_graph(9, [1, 2])),
    ("petersen", petersen_graph()),
    ("complete_5", complete_graph(5)),
    ("grid_3x3", grid_graph(3, 3)),
    ("random_regular", random_regular_graph(10, 4, seed=5)),
    ("gnp", gnp_supercritical_graph(12, 2.5, seed=3)),
]


@pytest.mark.parametrize("name,graph", FAMILIES, ids=[n for n, _ in FAMILIES])
class TestDinicMatchesEdmondsKarp:
    def test_all_pairs_flow_values_match(self, name, graph):
        for u, v in combinations(sorted(graph.nodes, key=repr), 2):
            net_dinic = _build_split_network(graph, [u], v)
            net_ref = _build_split_network(graph, [u], v)
            value, _ = net_dinic.max_flow()
            ref_value, _ = max_flow_reference(net_ref)
            assert value == ref_value, (name, u, v)

    def test_set_flow_values_match(self, name, graph):
        nodes = sorted(graph.nodes, key=repr)
        sink = nodes[-1]
        sources = nodes[: min(4, len(nodes) - 1)]
        net_dinic = _build_split_network(graph, sources, sink)
        net_ref = _build_split_network(graph, sources, sink)
        assert net_dinic.max_flow()[0] == max_flow_reference(net_ref)[0]


class TestConnectivityStillCorrect:
    """Known κ values survive the engine swap end-to-end."""

    KNOWN_KAPPA = [
        (harary_graph(3, 8), 3),
        (harary_graph(4, 10), 4),
        (circulant_graph(9, [1, 2]), 4),
        (petersen_graph(), 3),
        (complete_graph(5), 4),
        (cycle_graph(7), 2),
        (grid_graph(3, 4), 2),
    ]

    @pytest.mark.parametrize("graph,kappa", KNOWN_KAPPA)
    def test_vertex_connectivity(self, graph, kappa):
        assert vertex_connectivity(graph) == kappa

    @pytest.mark.parametrize("graph,kappa", [
        (harary_graph(3, 8), 3),
        (petersen_graph(), 3),
        (grid_graph(3, 3), 2),
    ])
    def test_minimum_cut_disconnects(self, graph, kappa):
        cut = minimum_vertex_cut(graph)
        assert len(cut) == kappa
        assert not is_strongly_connected(graph.remove_nodes(cut))

    def test_disjoint_path_decomposition_valid(self):
        graph = petersen_graph()
        value, paths = max_disjoint_paths(graph, 0, 7, want_paths=True)
        assert value == 3 == len(paths)
        interiors = [set(p[1:-1]) for p in paths]
        for a, b in combinations(interiors, 2):
            assert not (a & b)
        for path in paths:
            assert path[0] == 0 and path[-1] == 7
            assert all(graph.has_edge(x, y) for x, y in zip(path, path[1:]))

    def test_fan_lemma_paths_still_disjoint(self):
        graph = harary_graph(4, 10)
        value, paths = max_set_disjoint_paths(
            graph, [0, 1, 2, 3], 7, want_paths=True
        )
        assert value == 4
        seen = set()
        for path in paths:
            body = set(path[:-1])
            assert not (body & seen)
            seen |= body


class TestLongAugmentingPaths:
    """The blocking-flow DFS is iterative: augmenting paths of Θ(n)
    nodes must not hit Python's recursion limit."""

    def test_long_path_graph(self):
        assert vertex_connectivity(path_graph(600)) == 1

    def test_long_cycle_paths(self):
        graph = cycle_graph(800)
        value, paths = max_disjoint_paths(graph, 0, 400, want_paths=True)
        assert value == 2
        assert sorted(len(p) for p in paths) == [401, 401]


class TestDeterminism:
    """The flow engine must be a pure function of the graph — the
    cross-process sweep relies on it."""

    def test_repeated_runs_identical(self):
        graph = harary_graph(3, 9)
        first = max_disjoint_paths(graph, 0, 4, want_paths=True)
        second = max_disjoint_paths(graph, 0, 4, want_paths=True)
        assert first == second

    def test_string_labeled_graph_edges_sorted(self):
        """Edge iteration order is repr-sorted even for string labels
        (the covering-graph naming scheme)."""
        graph = cycle_graph(6).relabeled({i: f"u{i}@0" for i in range(6)})
        edges = list(graph.edges())
        assert edges == sorted(edges, key=lambda e: (repr(e[0]), repr(e[1])))

    def test_string_labeled_flow_deterministic(self):
        graph = cycle_graph(6).relabeled({i: f"u{i}@1" for i in range(6)})
        a = max_disjoint_paths(graph, "u0@1", "u3@1", want_paths=True)
        b = max_disjoint_paths(graph, "u0@1", "u3@1", want_paths=True)
        assert a == b
