"""Unit tests for the core Graph type."""

import pytest

from repro.graphs import Graph, GraphError, cycle_graph, is_strongly_connected


class TestConstruction:
    def test_empty_graph(self):
        g = Graph()
        assert g.n == 0
        assert g.edge_count == 0
        assert list(g.edges()) == []

    def test_nodes_without_edges(self):
        g = Graph(nodes=[1, 2, 3])
        assert g.n == 3
        assert g.edge_count == 0
        assert g.in_degree(1) == 0

    def test_edges_imply_nodes(self):
        g = Graph.from_edges([(1, 2), (2, 3)])
        assert g.nodes == {1, 2, 3}
        assert g.edge_count == 2

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            Graph.from_edges([(1, 1)])

    def test_parallel_edges_collapse(self):
        g = Graph.from_edges([(1, 2), (2, 1), (1, 2)])
        assert g.edge_count == 1

    def test_string_and_tuple_nodes(self):
        g = Graph.from_edges([("a", ("b", 1))])
        assert g.has_edge("a", ("b", 1))


class TestAccessors:
    def test_neighbors(self):
        g = cycle_graph(4)
        assert g.neighbors(0) == {1, 3}

    def test_neighbors_unknown_node(self):
        with pytest.raises(GraphError):
            cycle_graph(4).neighbors(99)

    def test_degree_and_min_max(self):
        g = Graph.from_edges([(0, 1), (0, 2), (0, 3)])
        assert g.in_degree(0) == 3
        assert g.in_degree(1) == 1
        assert g.min_in_degree() == 1
        assert max(g.in_degree(v) for v in g) == 3

    def test_min_degree_empty(self):
        assert Graph().min_in_degree() == 0

    def test_contains_len_iter(self):
        g = cycle_graph(3)
        assert 0 in g
        assert 99 not in g
        assert len(g) == 3
        assert sorted(g) == [0, 1, 2]

    def test_edges_listed_once(self):
        g = cycle_graph(5)
        edges = list(g.edges())
        assert len(edges) == 5
        normalized = {frozenset(e) for e in edges}
        assert len(normalized) == 5

    def test_equality_and_hash(self):
        g1 = cycle_graph(4)
        g2 = Graph(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert g1 == g2
        assert hash(g1) == hash(g2)
        assert g1 != cycle_graph(5)


class TestDerivedGraphs:
    def test_subgraph(self):
        g = cycle_graph(5)
        sub = g.subgraph([0, 1, 2])
        assert sub.nodes == {0, 1, 2}
        assert sub.edge_count == 2

    def test_remove_nodes(self):
        g = cycle_graph(5)
        h = g.remove_nodes([0])
        assert h.n == 4
        assert 0 not in h
        assert h.edge_count == 3

    def test_add_edges_idempotent(self):
        g = cycle_graph(4)
        h = g.add_edges([(0, 2), (0, 1)])
        assert h.edge_count == 5
        assert h.has_edge(0, 2)

    def test_add_nodes(self):
        g = cycle_graph(3).add_nodes(["x"])
        assert "x" in g
        assert g.in_degree("x") == 0

    def test_relabeled(self):
        g = cycle_graph(3).relabeled({0: "a"})
        assert g.has_edge("a", 1)
        assert 0 not in g

    def test_relabeled_collision_rejected(self):
        with pytest.raises(GraphError):
            cycle_graph(3).relabeled({0: 1})

    def test_original_untouched_by_derivation(self):
        g = cycle_graph(4)
        g.remove_nodes([0])
        assert g.n == 4


class TestTraversal:
    def test_bfs_reachable(self):
        g = cycle_graph(6)
        assert g.bfs_reachable(0) == set(range(6))

    def test_bfs_with_forbidden(self):
        g = cycle_graph(6)
        reach = g.bfs_reachable(0, forbidden=[1, 5])
        assert reach == {0}

    def test_bfs_forbidden_source_rejected(self):
        with pytest.raises(GraphError):
            cycle_graph(4).bfs_reachable(0, forbidden=[0])

    def test_is_connected(self):
        assert is_strongly_connected(cycle_graph(5))
        assert not is_strongly_connected(Graph(nodes=[0, 1]))
        assert is_strongly_connected(Graph())
        assert is_strongly_connected(Graph(nodes=[7]))

    def test_connected_components(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        comps = sorted(map(sorted, g.connected_components()))
        assert comps == [[0, 1], [2, 3]]

    def test_shortest_path(self):
        g = cycle_graph(6)
        path = g.shortest_path(0, 3)
        assert path is not None
        assert len(path) == 4
        assert path[0] == 0 and path[-1] == 3

    def test_shortest_path_trivial(self):
        assert cycle_graph(4).shortest_path(2, 2) == (2,)

    def test_shortest_path_disconnected(self):
        g = Graph(nodes=[0, 1])
        assert g.shortest_path(0, 1) is None

    def test_shortest_path_unknown_node(self):
        with pytest.raises(GraphError):
            cycle_graph(3).shortest_path(0, 42)


class TestSortedTraversalDeterminism:
    """Traversals iterate repr-sorted adjacency by construction, so their
    results never depend on PYTHONHASHSEED (string-labeled nodes would
    otherwise leak frozenset iteration order)."""

    DIAMOND = [("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")]

    def test_sorted_neighbors_order_and_cache(self):
        g = Graph.from_edges(self.DIAMOND)
        assert g.sorted_neighbors("s") == ("a", "b")
        assert g.sorted_neighbors("s") is g.sorted_neighbors("s")  # cached

    def test_sorted_neighbors_unknown_node(self):
        with pytest.raises(GraphError):
            Graph.from_edges(self.DIAMOND).sorted_neighbors("zz")

    def test_shortest_path_prefers_repr_smallest_parent(self):
        g = Graph.from_edges(self.DIAMOND)
        # Two equal-length s-t paths exist; BFS over sorted adjacency
        # must always discover t via "a".
        assert g.shortest_path("s", "t") == ("s", "a", "t")

    def test_traversals_stable_across_subprocess_hash_seeds(self):
        import subprocess
        import sys

        code = (
            "from repro.graphs import Graph\n"
            "g = Graph.from_edges(%r)\n"
            "print(g.shortest_path('s', 't'))\n"
            "print(sorted(g.bfs_reachable('s'), key=repr))\n"
        ) % (self.DIAMOND,)
        outputs = {
            subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, check=True,
                env={"PYTHONPATH": "src", "PYTHONHASHSEED": str(seed)},
            ).stdout
            for seed in (0, 1, 42)
        }
        assert len(outputs) == 1
