"""Scenario builders: partitions, budgets, and guard rails."""

import pytest

from repro.graphs import (
    Graph,
    GraphError,
    complete_graph,
    cycle_graph,
    degree_deficient_graph,
    low_connectivity_graph,
    oneway_ring,
    path_graph,
)
from repro.lowerbounds import (
    connectivity_scenario,
    degree_scenario,
    hybrid_connectivity_scenario,
    hybrid_neighborhood_scenario,
)


class TestDegreeScenario:
    def test_partition_budgets(self):
        sc = degree_scenario(degree_deficient_graph(2), 2)
        f1, f2 = sc.notes["F1"], sc.notes["F2"]
        assert len(f1) <= 1  # f - 1
        assert 1 <= len(f2) <= 2
        assert not f1 & f2

    def test_execution_fault_budgets(self):
        sc = degree_scenario(path_graph(3), 1)
        for spec in sc.executions:
            assert len(spec.faulty) <= sc.f

    def test_forced_outputs_assigned(self):
        sc = degree_scenario(path_graph(3), 1)
        assert [e.forced_output for e in sc.executions] == [0, None, 1]

    def test_rejects_rich_degree(self):
        with pytest.raises(GraphError):
            degree_scenario(complete_graph(4), 1)

    def test_explicit_z(self):
        g = degree_deficient_graph(1)
        z = 5  # the appended low-degree node
        sc = degree_scenario(g, 1, z=z)
        assert sc.notes["z"] == z

    def test_inputs_cover_graph(self):
        sc = degree_scenario(path_graph(3), 1)
        for spec in sc.executions:
            assert set(spec.inputs) == sc.graph.nodes


class TestConnectivityScenario:
    def test_cut_partition_budgets(self):
        sc = connectivity_scenario(low_connectivity_graph(2), 2)
        c1, c2, c3 = sc.notes["C1"], sc.notes["C2"], sc.notes["C3"]
        assert len(c1) <= 1 and len(c2) <= 1 and len(c3) <= 1
        assert len(c1 | c2 | c3) <= 3  # floor(3f/2)
        assert sc.notes["A"] and sc.notes["B"]

    def test_rejects_well_connected(self):
        with pytest.raises(GraphError):
            connectivity_scenario(complete_graph(5), 1)

    def test_fault_budgets(self):
        # C6 has a 2-cut, within the f = 2 budget of floor(3f/2) = 3.
        sc = connectivity_scenario(cycle_graph(6), 2)
        for spec in sc.executions:
            assert len(spec.faulty) <= 2

    def test_copies_doubled_on_both_sides(self):
        sc = connectivity_scenario(cycle_graph(6), 2)
        for v in sc.notes["A"] | sc.notes["B"]:
            assert sc.network.copies[v] == (0, 1)
        for v in sc.notes["C1"] | sc.notes["C2"] | sc.notes["C3"]:
            assert sc.network.copies[v] == (0,)


class TestHybridScenarios:
    def test_neighborhood_partition(self):
        g = Graph(range(5), [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                             (4, 0), (4, 1)])
        sc = hybrid_neighborhood_scenario(g, 1, 1)
        assert sc.notes["S"] == frozenset({4})
        assert sc.notes["R"]  # non-empty by construction
        assert len(sc.notes["T"]) <= 1

    def test_neighborhood_equivocators_in_e2_only(self):
        g = Graph(range(5), [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                             (4, 0), (4, 1)])
        sc = hybrid_neighborhood_scenario(g, 1, 1)
        assert [bool(e.equivocators) for e in sc.executions] == [False, True, False]
        e2 = sc.executions[1]
        assert e2.equivocators == sc.notes["T"]
        assert set(e2.split_replay) == set(sc.notes["T"])

    def test_neighborhood_rejects_rich_graph(self):
        with pytest.raises(GraphError):
            hybrid_neighborhood_scenario(complete_graph(6), 1, 1)

    def test_neighborhood_rejects_t0(self):
        with pytest.raises(GraphError):
            hybrid_neighborhood_scenario(path_graph(3), 1, 0)

    def test_connectivity_scenario_partitions(self):
        edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
        edges += [(a, b) for a in [2, 3, 4, 5] for b in [2, 3, 4, 5] if a < b]
        g = Graph(range(6), edges)
        sc = hybrid_connectivity_scenario(g, 1, 1)
        assert len(sc.notes["R"]) <= 1 and len(sc.notes["T"]) <= 1
        cut = (sc.notes["C1"] | sc.notes["C2"] | sc.notes["C3"]
               | sc.notes["R"] | sc.notes["T"])
        assert len(cut) <= 2  # floor(0) + 2t
        for spec in sc.executions:
            assert len(spec.faulty) <= 1
            assert len(spec.equivocators) <= 1

    def test_connectivity_rejects_t0(self):
        with pytest.raises(GraphError):
            hybrid_connectivity_scenario(cycle_graph(5), 1, 0)


class TestDigraphsRefused:
    """Lemmas A.1, A.2, D.1 and D.2 are stated for undirected graphs, so
    no construction is built on a digraph, a symmetric lift included."""

    @pytest.mark.parametrize("build,args", [
        (degree_scenario, (1,)),
        (connectivity_scenario, (2,)),
        (hybrid_neighborhood_scenario, (2, 1)),
        (hybrid_connectivity_scenario, (2, 1)),
    ], ids=["degree", "connectivity", "hybrid-neighborhood", "hybrid-connectivity"])
    def test_rejects_a_digraph(self, build, args):
        for d in (oneway_ring(5), oneway_ring(9, 2), path_graph(4).to_digraph()):
            with pytest.raises(GraphError, match="undirected graphs only"):
                build(d, *args)
