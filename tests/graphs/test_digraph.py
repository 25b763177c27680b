"""Unit tests for the directed primitive: Digraph, its symmetric Graph
view, and the per-direction NodeIndex masks."""

import pickle

import pytest

from repro.graphs import (
    Digraph,
    Graph,
    GraphError,
    cycle_graph,
    oneway_ring,
    random_digraph,
    wheel_graph,
)


class TestConstruction:
    def test_empty(self):
        d = Digraph()
        assert d.n == 0
        assert d.arc_count == 0
        assert list(d.arcs()) == []

    def test_arcs_imply_nodes(self):
        d = Digraph.from_arcs([(1, 2), (2, 3)])
        assert d.nodes == {1, 2, 3}
        assert d.arc_count == 2
        assert d.edge_count == 2  # alias on a digraph

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            Digraph.from_arcs([(1, 1)])

    def test_parallel_arcs_collapse(self):
        d = Digraph.from_arcs([(1, 2), (1, 2)])
        assert d.arc_count == 1

    def test_antiparallel_arcs_are_distinct(self):
        d = Digraph.from_arcs([(1, 2), (2, 1)])
        assert d.arc_count == 2
        assert d.is_symmetric()

    def test_directedness_flags(self):
        assert Digraph().directed is True
        assert Graph().directed is False


class TestDirection:
    def test_out_and_in_neighbors(self):
        d = Digraph.from_arcs([(0, 1), (0, 2), (2, 1)])
        assert d.out_neighbors(0) == {1, 2}
        assert d.in_neighbors(0) == set()
        assert d.in_neighbors(1) == {0, 2}
        # neighbors() is the out-direction: "who hears v".
        assert d.neighbors(0) == d.out_neighbors(0)

    def test_degrees(self):
        d = oneway_ring(5, 2)
        assert d.min_in_degree() == 2
        assert d.min_out_degree() == 2
        assert d.in_degree(0) == 2
        assert d.out_degree(0) == 2

    def test_has_arc_is_directed(self):
        d = Digraph.from_arcs([(0, 1)])
        assert d.has_arc(0, 1)
        assert not d.has_arc(1, 0)
        assert d.has_edge(0, 1) and not d.has_edge(1, 0)

    def test_sorted_in_neighbors_deterministic(self):
        d = Digraph.from_arcs([(3, 0), (1, 0), (2, 0)])
        assert d.sorted_in_neighbors(0) == (1, 2, 3)

    def test_reverse(self):
        d = Digraph.from_arcs([(0, 1), (1, 2)])
        r = d.reverse()
        assert r.has_arc(1, 0) and r.has_arc(2, 1)
        assert not r.has_arc(0, 1)
        assert r.reverse() == d

    def test_bfs_reachable_and_reaching(self):
        d = Digraph.from_arcs([(0, 1), (1, 2), (3, 2)])
        assert d.bfs_reachable(0) == {0, 1, 2}
        assert d.bfs_reaching(2) == {0, 1, 2, 3}

    def test_shortest_path_follows_arcs(self):
        d = oneway_ring(5)
        assert d.shortest_path(0, 1) == (0, 1)
        # Backwards means all the way around the one-way ring.
        assert d.shortest_path(1, 0) == (1, 2, 3, 4, 0)


class TestSymmetricView:
    """Graph is exactly a symmetric Digraph: in == out everywhere."""

    def test_graph_directions_are_shared_objects(self):
        g = cycle_graph(4)
        assert g.in_neighbors(0) is g.out_neighbors(0)
        assert g.sorted_in_neighbors(0) == g.sorted_neighbors(0)
        assert g.min_in_degree() == g.min_degree()
        assert g.min_out_degree() == g.min_degree()

    def test_graph_arcs_yield_both_orientations(self):
        g = cycle_graph(3)
        arcs = set(g.arcs())
        assert arcs == {(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)}
        assert g.arc_count == 2 * g.edge_count

    def test_to_digraph_lift(self):
        g = wheel_graph(5)
        d = g.to_digraph()
        assert type(d) is Digraph and d.directed
        assert d.is_symmetric()
        assert d.arc_count == 2 * g.edge_count
        assert d.to_undirected() == g

    def test_to_undirected_closure(self):
        d = oneway_ring(5)
        g = d.to_undirected()
        assert type(g) is Graph and not g.directed
        assert g == cycle_graph(5)

    def test_graph_is_its_own_symmetric_forms(self):
        g = cycle_graph(4)
        assert g.to_undirected() is g
        assert g.reverse() is g

    def test_graph_never_equals_digraph(self):
        g = cycle_graph(4)
        assert g != g.to_digraph()
        assert g.to_digraph() != g

    def test_digraph_equality_and_hash(self):
        a = oneway_ring(5, 2)
        b = Digraph(range(5), [(i, (i + d) % 5) for i in range(5)
                               for d in (1, 2)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != a.reverse()


class TestDerivedGraphs:
    def test_digraph_subgraph_keeps_direction(self):
        d = Digraph.from_arcs([(0, 1), (1, 2), (2, 0), (0, 3)])
        s = d.subgraph([0, 1, 2])
        assert set(s.arcs()) == {(0, 1), (1, 2), (2, 0)}

    def test_digraph_relabeled(self):
        d = Digraph.from_arcs([(0, 1)])
        r = d.relabeled({0: "a", 1: "b"})
        assert r.has_arc("a", "b") and not r.has_arc("b", "a")

    def test_relabeled_graph_index_maps_new_labels(self):
        """Regression: a NodeIndex attached to the original must not be
        copied stale onto the relabeled graph — the relabeled graph's
        index covers the *new* labels."""
        g = cycle_graph(4)
        old_index = g.node_index()
        h = g.relabeled({i: i + 10 for i in range(4)})
        new_index = h.node_index()
        assert new_index is not old_index
        assert new_index.nodes == (10, 11, 12, 13)
        assert all(v in new_index.index_of for v in h.nodes)
        # The original keeps its own index untouched.
        assert g.node_index() is old_index
        assert old_index.nodes == (0, 1, 2, 3)

    def test_subgraph_index_invalidated(self):
        g = wheel_graph(5)
        g.node_index()
        s = g.subgraph([0, 1, 2])
        assert s.node_index().nodes == (0, 1, 2)

    def test_remove_nodes_index_invalidated(self):
        d = oneway_ring(5)
        d.node_index()
        s = d.remove_nodes([4])
        assert s.node_index().nodes == (0, 1, 2, 3)


class TestDerivedGraphsKeepClass:
    """``subgraph``/``remove_nodes``/``add_nodes``/``relabeled`` return
    the receiver's class and equal the graph built directly from the
    expected node and edge lists, for both graph kinds."""

    # A 5-cycle with a chord: asymmetric as a digraph (one orientation
    # per pair), so a lost or doubled orientation shows as inequality.
    LINKS = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]

    @pytest.fixture(params=[Graph, Digraph], ids=["graph", "digraph"])
    def kind(self, request):
        return request.param

    def test_subgraph(self, kind):
        s = kind(range(5), self.LINKS).subgraph([0, 1, 2, 9])
        assert type(s) is kind
        assert s == kind([0, 1, 2], [(0, 1), (1, 2), (0, 2)])

    def test_remove_nodes(self, kind):
        s = kind(range(5), self.LINKS).remove_nodes([3, 9])
        assert type(s) is kind
        assert s == kind([0, 1, 2, 4], [(0, 1), (1, 2), (4, 0), (0, 2)])

    def test_add_nodes(self, kind):
        s = kind(range(5), self.LINKS).add_nodes(["x", 0])
        assert type(s) is kind
        assert s == kind([*range(5), "x"], self.LINKS)
        assert s.neighbors("x") == frozenset()

    def test_relabeled(self, kind):
        s = kind(range(5), self.LINKS).relabeled({0: "a", 4: "e"})
        assert type(s) is kind
        name = {0: "a", 4: "e"}
        assert s == kind(
            ["a", 1, 2, 3, "e"],
            [(name.get(u, u), name.get(v, v)) for u, v in self.LINKS],
        )
        assert s.edge_count == len(self.LINKS)

    def test_relabel_collapse_rejected(self, kind):
        with pytest.raises(GraphError, match="collapses"):
            kind(range(5), self.LINKS).relabeled({0: 1})

    def test_graph_from_both_orientations_equals_edge_built(self):
        g = Graph(range(5), self.LINKS)
        both = Graph(range(5), [*self.LINKS, *((v, u) for u, v in self.LINKS)])
        assert both == g and hash(both) == hash(g)
        assert both.edge_count == g.edge_count == len(self.LINKS)
        assert list(both.edges()) == list(g.edges())


class TestNodeIndexDirections:
    def test_digraph_in_masks_differ_from_out(self):
        d = Digraph.from_arcs([(0, 1), (1, 2), (2, 0)])
        idx = d.node_index()
        assert idx.adj_masks[0] == 1 << 1   # 0 → 1
        assert idx.in_masks[0] == 1 << 2    # 2 → 0
        assert idx.in_neighbor_indices[1] == (0,)

    def test_graph_in_masks_alias_out_masks(self):
        idx = cycle_graph(4).node_index()
        assert idx.in_masks is idx.adj_masks
        assert idx.in_neighbor_indices is idx.neighbor_indices

    def test_walk_validates_forward_arcs_only(self):
        d = oneway_ring(4)
        idx = d.node_index()
        assert idx.walk((0, 1, 2)) is not None
        assert idx.walk((2, 1, 0)) is None

    def test_index_pickles_with_directions(self):
        d = oneway_ring(5, 2)
        idx = d.node_index()
        revived = pickle.loads(pickle.dumps(d)).node_index()
        assert revived == idx
        assert revived.in_masks == idx.in_masks

    def test_symmetric_lift_index_equates_directions(self):
        g = wheel_graph(5)
        lifted = g.to_digraph().node_index()
        assert lifted.in_masks == lifted.adj_masks
        assert lifted.adj_masks == g.node_index().adj_masks


class TestFamilies:
    def test_oneway_ring_shape(self):
        d = oneway_ring(9, 2)
        assert d.n == 9 and d.arc_count == 18
        assert d.has_arc(0, 1) and d.has_arc(0, 2)
        assert not d.has_arc(1, 0)

    def test_oneway_ring_validation(self):
        with pytest.raises(ValueError):
            oneway_ring(2)
        with pytest.raises(ValueError):
            oneway_ring(5, 0)
        with pytest.raises(ValueError):
            oneway_ring(5, 5)

    def test_random_digraph_seeded(self):
        a = random_digraph(8, 0.3, 7)
        b = random_digraph(8, 0.3, 7)
        c = random_digraph(8, 0.3, 8)
        assert a == b
        assert a != c

    def test_random_digraph_validation(self):
        with pytest.raises(ValueError):
            random_digraph(0, 0.5)
        with pytest.raises(ValueError):
            random_digraph(5, 1.5)

    def test_random_digraph_extremes(self):
        assert random_digraph(5, 0.0).arc_count == 0
        full = random_digraph(5, 1.0)
        assert full.arc_count == 5 * 4
