"""Directed connectivity: strong reachability, SCCs, source components,
and the one vertex connectivity κ that backs the feasibility checks for
both graph kinds.

The load-bearing property is Menger agreement on symmetric views: κ of
a Graph (the pruning algorithm, undirected split network) and κ of its
symmetric lift (the ordered-pair Menger loop, directed split network)
must agree exactly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import (
    Digraph,
    complete_graph,
    cycle_graph,
    gnp_supercritical_graph,
    is_k_connected,
    is_strongly_connected,
    local_connectivity,
    max_disjoint_paths,
    oneway_ring,
    paper_figure_1a,
    path_graph,
    random_digraph,
    source_components,
    strongly_connected_components,
    vertex_connectivity,
    wheel_graph,
)


class TestStrongConnectivity:
    def test_oneway_ring_is_strong(self):
        assert is_strongly_connected(oneway_ring(5))

    def test_dag_is_not_strong(self):
        assert not is_strongly_connected(Digraph.from_arcs([(0, 1), (1, 2)]))

    def test_single_node(self):
        assert is_strongly_connected(Digraph(nodes=[0]))

    def test_scc_partition(self):
        d = Digraph.from_arcs([
            (0, 1), (1, 0),          # component {0, 1}
            (1, 2), (2, 3), (3, 2),  # component {2, 3}, fed from {0, 1}
        ])
        comps = strongly_connected_components(d)
        # Topological order of the condensation: sources first.
        assert [set(c) for c in comps] == [{0, 1}, {2, 3}]

    def test_scc_deterministic(self):
        d = random_digraph(12, 0.15, 4)
        assert (strongly_connected_components(d)
                == strongly_connected_components(d))

    def test_source_components(self):
        d = Digraph.from_arcs([(0, 1), (1, 0), (1, 2), (3, 2)])
        # {0,1} and {3} both have no incoming cross-component arc.
        assert [set(c) for c in source_components(d)] == [{0, 1}, {3}]

    def test_strong_digraph_has_one_source(self):
        d = oneway_ring(7, 2)
        sources = source_components(d)
        assert len(sources) == 1
        assert set(sources[0]) == set(range(7))


class TestDirectedConnectivity:
    def test_oneway_ring_kappa(self):
        assert vertex_connectivity(oneway_ring(9, 2)) == 2

    def test_not_strong_means_zero(self):
        # Connected as an undirected graph, but 2 never reaches 0.
        d = Digraph.from_arcs([(0, 1), (1, 2)])
        assert vertex_connectivity(d) == 0
        assert vertex_connectivity(d.to_undirected()) == 1

    def test_complete_digraph(self):
        d = complete_graph(5).to_digraph()
        assert vertex_connectivity(d) == 4

    def test_local_connectivity_directed(self):
        d = oneway_ring(6)
        assert local_connectivity(d, 0, 3) == 1
        assert max_disjoint_paths(d, 0, 3) == 1

    def test_is_k_connected_on_digraph(self):
        d = oneway_ring(9, 2)
        assert is_k_connected(d, 2)
        assert not is_k_connected(d, 3)
        assert not is_k_connected(Digraph.from_arcs([(0, 1), (1, 2)]), 1)

    def test_asymmetric_example(self):
        """Symmetric closure of oneway:9:2 is C9(1,2): κ jumps 2 → 4."""
        d = oneway_ring(9, 2)
        assert vertex_connectivity(d) == 2
        assert vertex_connectivity(d.to_undirected()) == 4

    def test_one_lru_serves_both_kinds(self):
        """A graph and its symmetric lift are distinct cache keys of the
        one memo: each is computed once, then answered from the cache."""
        vertex_connectivity.cache_clear()
        g = wheel_graph(6)
        for graph in (g, g.to_digraph(), g, g.to_digraph()):
            assert vertex_connectivity(graph) == 3
        info = vertex_connectivity.cache_info()
        assert (info.misses, info.hits) == (2, 2)


class TestSymmetricViewAgreement:
    BATTERY = [
        cycle_graph(5),
        wheel_graph(5),
        complete_graph(4),
        path_graph(5),
        paper_figure_1a(),
    ]

    def test_battery_kappa_matches(self):
        for g in self.BATTERY:
            lifted = g.to_digraph()
            assert vertex_connectivity(lifted) == vertex_connectivity(g), g

    def test_battery_strong_iff_connected(self):
        for g in self.BATTERY:
            assert is_strongly_connected(g.to_digraph()) == is_strongly_connected(g)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=200))
    def test_random_graphs_kappa_matches(self, seed):
        g = gnp_supercritical_graph(8, 2.2, seed)
        lifted = g.to_digraph()
        assert vertex_connectivity(lifted) == vertex_connectivity(g)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=7),
    )
    def test_random_local_connectivity_matches(self, seed, s, t):
        g = gnp_supercritical_graph(8, 2.5, seed)
        if s == t or s not in g or t not in g:
            return
        lifted = g.to_digraph()
        assert local_connectivity(lifted, s, t) == local_connectivity(g, s, t)
