"""Every graph family delivers its designed degree/connectivity."""

import pytest

from repro.graphs import (
    GraphError,
    circulant_graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    degree_deficient_graph,
    grid_graph,
    harary_graph,
    hybrid_neighborhood_deficient_graph,
    is_strongly_connected,
    low_connectivity_graph,
    min_set_neighborhood,
    paper_figure_1a,
    paper_figure_1b,
    gnp_supercritical_graph,
    path_graph,
    petersen_graph,
    random_connected_graph,
    random_regular_graph,
    star_graph,
    tight_local_broadcast_graph,
    vertex_connectivity,
    wheel_graph,
)
from repro.consensus import check_local_broadcast


class TestClassicalFamilies:
    def test_path(self):
        g = path_graph(5)
        assert g.n == 5 and g.edge_count == 4
        assert g.min_in_degree() == 1

    def test_cycle(self):
        g = cycle_graph(7)
        assert g.edge_count == 7
        assert {g.in_degree(v) for v in g} == {2}

    def test_complete(self):
        g = complete_graph(6)
        assert g.edge_count == 15
        assert vertex_connectivity(g) == 5

    def test_complete_bipartite(self):
        g = complete_bipartite(2, 3)
        assert g.edge_count == 6
        assert vertex_connectivity(g) == 2

    def test_star(self):
        g = star_graph(5)
        assert g.in_degree(0) == 5
        assert vertex_connectivity(g) == 1

    def test_wheel(self):
        g = wheel_graph(6)
        assert g.in_degree(0) == 5
        assert vertex_connectivity(g) == 3

    def test_circulant_regularity(self):
        g = circulant_graph(9, [1, 2])
        assert {g.in_degree(v) for v in g} == {4}
        assert vertex_connectivity(g) == 4

    def test_circulant_bad_offset(self):
        with pytest.raises(GraphError):
            circulant_graph(6, [4])

    def test_grid(self):
        g = grid_graph(3, 4)
        assert g.n == 12
        assert g.min_in_degree() == 2
        assert vertex_connectivity(g) == 2

    def test_petersen(self):
        g = petersen_graph()
        assert g.n == 10 and g.edge_count == 15
        assert vertex_connectivity(g) == 3

    @pytest.mark.parametrize("k,n", [(2, 6), (3, 7), (4, 10), (5, 9)])
    def test_harary_minimum_edges(self, k, n):
        g = harary_graph(k, n)
        assert vertex_connectivity(g) == k
        assert g.edge_count == (k * n + 1) // 2

    def test_harary_bad_args(self):
        with pytest.raises(GraphError):
            harary_graph(5, 5)
        with pytest.raises(GraphError):
            harary_graph(0, 5)


class TestPaperFigures:
    def test_figure_1a_is_tight_for_f1(self):
        g = paper_figure_1a()
        assert g.n == 5
        report = check_local_broadcast(g, 1)
        assert report.feasible
        # Tight: both conditions hold with zero margin.
        assert all(c.margin == 0 for c in report.clauses if "degree" in c.name)
        assert not check_local_broadcast(g, 2).feasible

    def test_figure_1b_is_tight_for_f2(self):
        g = paper_figure_1b()
        report = check_local_broadcast(g, 2)
        assert report.feasible
        assert g.min_in_degree() == 4
        assert vertex_connectivity(g) == 4
        assert not check_local_broadcast(g, 3).feasible

    @pytest.mark.parametrize("f", [1, 2, 3])
    def test_tight_family_satisfies_conditions(self, f):
        g = tight_local_broadcast_graph(f)
        assert check_local_broadcast(g, f).feasible

    def test_tight_family_needs_enough_nodes(self):
        with pytest.raises(GraphError):
            tight_local_broadcast_graph(2, n=4)


class TestDeficientFamilies:
    @pytest.mark.parametrize("f", [1, 2])
    def test_degree_deficient(self, f):
        g = degree_deficient_graph(f)
        assert g.min_in_degree() == 2 * f - 1
        assert not check_local_broadcast(g, f).feasible

    @pytest.mark.parametrize("f", [1, 2, 3])
    def test_low_connectivity(self, f):
        g = low_connectivity_graph(f)
        assert vertex_connectivity(g) == (3 * f) // 2
        assert g.min_in_degree() >= 2 * f
        report = check_local_broadcast(g, f)
        failing = [c.name for c in report.failing()]
        assert failing == ["connectivity >= floor(3f/2) + 1"]

    @pytest.mark.parametrize("f,t", [(1, 1), (2, 1), (2, 2)])
    def test_hybrid_neighborhood_deficient(self, f, t):
        g = hybrid_neighborhood_deficient_graph(f, t)
        value, witness = min_set_neighborhood(g, t)
        assert value == 2 * f
        assert len(witness) <= t


class TestRandomGraphs:
    def test_connected_and_deterministic(self):
        g1 = random_connected_graph(10, 5, seed=42)
        g2 = random_connected_graph(10, 5, seed=42)
        assert g1 == g2
        assert is_strongly_connected(g1)

    def test_different_seeds_differ(self):
        g1 = random_connected_graph(10, 8, seed=1)
        g2 = random_connected_graph(10, 8, seed=2)
        assert g1 != g2

    def test_edge_budget(self):
        g = random_connected_graph(8, 3, seed=0)
        assert g.edge_count == 7 + 3


class TestRandomRegular:
    def test_regular_and_deterministic(self):
        g1 = random_regular_graph(10, 4, seed=7)
        g2 = random_regular_graph(10, 4, seed=7)
        assert g1 == g2
        assert all(g1.in_degree(v) == 4 for v in g1.nodes)
        assert g1.n == 10

    def test_different_seeds_differ(self):
        assert random_regular_graph(12, 4, seed=1) != random_regular_graph(
            12, 4, seed=2
        )

    def test_odd_stub_count_rejected(self):
        with pytest.raises(GraphError):
            random_regular_graph(5, 3, seed=0)

    def test_degree_bounds_enforced(self):
        with pytest.raises(GraphError):
            random_regular_graph(4, 4, seed=0)

    def test_feasible_instances_exist(self):
        """Degree-4 random regular graphs routinely satisfy the f = 1
        local-broadcast conditions — the sweep workload they exist for."""
        g = random_regular_graph(10, 4, seed=7)
        assert check_local_broadcast(g, 1).feasible


class TestGnpSupercritical:
    def test_deterministic(self):
        assert gnp_supercritical_graph(20, 2.0, seed=5) == (
            gnp_supercritical_graph(20, 2.0, seed=5)
        )

    def test_different_seeds_differ(self):
        assert gnp_supercritical_graph(20, 2.0, seed=5) != (
            gnp_supercritical_graph(20, 2.0, seed=6)
        )

    def test_subcritical_rejected(self):
        with pytest.raises(GraphError):
            gnp_supercritical_graph(20, 1.0, seed=0)

    def test_giant_component_emerges(self):
        from repro.graphs import Graph

        g = gnp_supercritical_graph(60, 3.0, seed=2)
        components = g.connected_components()
        assert max(len(c) for c in components) > 60 // 2

    def test_dense_regime_caps_probability(self):
        g = gnp_supercritical_graph(4, 8.0, seed=0)  # p capped at 1
        assert g.edge_count == 6
