"""Connectivity machinery vs first principles and networkx."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import (
    Graph,
    GraphError,
    complete_graph,
    cycle_graph,
    disjoint_paths_excluding,
    harary_graph,
    is_k_connected,
    is_path,
    is_strongly_connected,
    local_connectivity,
    max_disjoint_paths,
    max_set_disjoint_paths,
    minimum_vertex_cut,
    paper_figure_1b,
    petersen_graph,
    random_connected_graph,
    set_paths_disjoint,
    vertex_connectivity,
)


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(g.nodes)
    h.add_edges_from(g.edges())
    return h


class TestVertexConnectivity:
    @pytest.mark.parametrize(
        "graph,expected",
        [
            (cycle_graph(5), 2),
            (cycle_graph(8), 2),
            (complete_graph(4), 3),
            (complete_graph(7), 6),
            (petersen_graph(), 3),
            (paper_figure_1b(), 4),
            (Graph(nodes=[0, 1]), 0),
            (Graph(nodes=[0]), 0),
        ],
    )
    def test_known_values(self, graph, expected):
        assert vertex_connectivity(graph) == expected

    def test_path_graph_is_1_connected(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
        assert vertex_connectivity(g) == 1

    def test_harary_graphs_hit_designed_connectivity(self):
        for k, n in [(2, 7), (3, 8), (3, 9), (4, 9), (5, 10), (6, 11)]:
            g = harary_graph(k, n)
            assert vertex_connectivity(g) == k, (k, n)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_matches_networkx_on_random_graphs(self, seed):
        g = random_connected_graph(n=7, extra_edges=seed % 9, seed=seed)
        assert vertex_connectivity(g) == nx.node_connectivity(to_nx(g))

    def test_is_k_connected_thresholds(self):
        g = cycle_graph(6)
        assert is_k_connected(g, 1)
        assert is_k_connected(g, 2)
        assert not is_k_connected(g, 3)

    def test_is_k_connected_requires_n_greater_than_k(self):
        # By the paper's definition K_4 is 3-connected but not 4-connected.
        g = complete_graph(4)
        assert is_k_connected(g, 3)
        assert not is_k_connected(g, 4)

    def test_k_nonpositive(self):
        assert is_k_connected(cycle_graph(3), 0)


class TestMenger:
    def test_disjoint_paths_cycle(self):
        g = cycle_graph(5)
        assert max_disjoint_paths(g, 0, 2) == 2

    def test_disjoint_paths_complete(self):
        g = complete_graph(5)
        # Adjacent pair: direct edge plus 3 two-hop paths.
        assert max_disjoint_paths(g, 0, 1) == 4

    def test_menger_equals_local_connectivity_vs_networkx(self):
        g = petersen_graph()
        h = to_nx(g)
        for u, v in [(0, 7), (1, 8), (2, 6)]:
            assert local_connectivity(g, u, v) == nx.node_connectivity(h, u, v)

    def test_paths_returned_are_disjoint_and_valid(self):
        g = paper_figure_1b()
        count, paths = max_disjoint_paths(g, 0, 4, want_paths=True)
        assert count == 4
        assert len(paths) == 4
        for p in paths:
            assert is_path(g, p)
            assert p[0] == 0 and p[-1] == 4
        internals = [set(p[1:-1]) for p in paths]
        for i in range(len(internals)):
            for j in range(i + 1, len(internals)):
                assert not internals[i] & internals[j]

    def test_exclude_internal_respected(self):
        g = cycle_graph(5)
        # Excluding node 1 leaves only the path through 4, 3.
        assert max_disjoint_paths(g, 0, 2, exclude_internal=[1]) == 1
        count, paths = max_disjoint_paths(
            g, 0, 2, exclude_internal=[1], want_paths=True
        )
        assert paths == [(0, 4, 3, 2)]

    def test_excluded_endpoint_still_usable(self):
        g = cycle_graph(5)
        # Excluding an endpoint must not remove it from the path.
        assert max_disjoint_paths(g, 0, 2, exclude_internal=[0, 2]) == 2

    def test_identical_endpoints_rejected(self):
        with pytest.raises(GraphError):
            max_disjoint_paths(cycle_graph(4), 1, 1)

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(GraphError):
            max_disjoint_paths(cycle_graph(4), 0, 77)


class TestFanLemma:
    def test_set_paths_complete(self):
        g = complete_graph(5)
        assert max_set_disjoint_paths(g, [0, 1, 2], 4) == 3

    def test_set_paths_share_only_sink(self):
        g = paper_figure_1b()
        count, paths = max_set_disjoint_paths(
            g, [0, 1, 2, 3], 5, want_paths=True
        )
        assert count == 4
        for i in range(len(paths)):
            for j in range(i + 1, len(paths)):
                assert set_paths_disjoint(paths[i], paths[j])

    def test_set_paths_distinct_sources(self):
        g = cycle_graph(6)
        count, paths = max_set_disjoint_paths(g, [1, 5], 3, want_paths=True)
        assert count == 2
        assert {p[0] for p in paths} == {1, 5}

    def test_sink_in_sources_ignored(self):
        g = cycle_graph(5)
        assert max_set_disjoint_paths(g, [0, 2], 2) == max_set_disjoint_paths(
            g, [0, 2, 2], 2
        )

    def test_empty_sources(self):
        assert max_set_disjoint_paths(cycle_graph(4), [], 0) == 0

    def test_disjoint_paths_excluding_threshold(self):
        g = cycle_graph(5)
        paths = disjoint_paths_excluding(g, [1, 4], 3, exclude=[0], k=2)
        assert paths is not None and len(paths) == 2
        assert disjoint_paths_excluding(g, [1], 3, exclude=[2, 4], k=1) is None

    def test_fan_lemma_property(self):
        # k-connected graph: any k sources reach any sink disjointly.
        g = harary_graph(4, 9)
        for sink in [0, 4]:
            sources = [v for v in sorted(g.nodes) if v != sink][:4]
            assert max_set_disjoint_paths(g, sources, sink) == 4


class TestMinimumCut:
    def test_cut_size_matches_connectivity(self):
        g = cycle_graph(6)
        cut = minimum_vertex_cut(g)
        assert len(cut) == 2
        assert not is_strongly_connected(g.remove_nodes(cut))

    def test_cut_on_harary(self):
        g = harary_graph(3, 8)
        cut = minimum_vertex_cut(g)
        assert len(cut) == 3
        assert not is_strongly_connected(g.remove_nodes(cut))

    def test_complete_graph_has_no_cut(self):
        with pytest.raises(GraphError):
            minimum_vertex_cut(complete_graph(4))

    def test_disconnected_graph_rejected(self):
        with pytest.raises(GraphError):
            minimum_vertex_cut(Graph(nodes=[0, 1]))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_cut_disconnects_random_graphs(self, seed):
        g = random_connected_graph(n=8, extra_edges=seed % 6, seed=seed)
        if vertex_connectivity(g) == g.n - 1:
            return  # complete: no cut
        cut = minimum_vertex_cut(g)
        assert len(cut) == vertex_connectivity(g)
        assert not is_strongly_connected(g.remove_nodes(cut))


class TestConnectivityMemo:
    def test_repeat_queries_hit_the_lru(self):
        g = petersen_graph()
        vertex_connectivity.cache_clear()
        first = vertex_connectivity(g)
        before = vertex_connectivity.cache_info()
        # An equal-but-distinct Graph object must hit the same cache line
        # (the cache is keyed on graph value, not identity).
        again = vertex_connectivity(petersen_graph())
        after = vertex_connectivity.cache_info()
        assert first == again == 3
        assert after.hits == before.hits + 1
        assert after.misses == before.misses

    def test_cached_results_match_fresh_computation(self):
        from repro.graphs.connectivity import _vertex_connectivity_uncached

        for g in (cycle_graph(5), complete_graph(6), harary_graph(4, 9),
                  Graph(nodes=[0, 1]), Graph()):
            vertex_connectivity.cache_clear()
            assert vertex_connectivity(g) == vertex_connectivity(g)
            assert (
                vertex_connectivity(g)
                == _vertex_connectivity_uncached.__wrapped__(g)
            )

    def test_feasibility_checks_reuse_the_cache(self):
        from repro.consensus import check_local_broadcast

        g = paper_figure_1b()
        vertex_connectivity.cache_clear()
        check_local_broadcast(g, 2)
        misses_after_first = vertex_connectivity.cache_info().misses
        check_local_broadcast(g, 2)
        check_local_broadcast(g, 1)
        assert vertex_connectivity.cache_info().misses == misses_after_first
