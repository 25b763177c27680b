"""End-to-end impossibility demonstrations: the necessity lemmas, live.

Each test builds the covering network for a condition-violating graph,
runs our own algorithm on it, projects the three executions, and checks
(1) a consensus violation is demonstrated and (2) every honest node's
output matches its model copy (indistinguishability) — which is the
entire content of the proofs, executed.
"""

import pytest

from repro.consensus import (
    algorithm1_factory,
    algorithm3_factory,
    check_local_broadcast,
)
from repro.graphs import (
    Graph,
    cycle_graph,
    degree_deficient_graph,
    path_graph,
)
from repro.lowerbounds import (
    connectivity_scenario,
    degree_scenario,
    hybrid_neighborhood_scenario,
    run_scenario,
)


def two_triangles_bridged():
    """κ = 1 < 2 = ⌊3/2⌋ + 1 for f = 1, but min degree 2 = 2f."""
    return Graph(
        range(7),
        [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (2, 6), (6, 3)],
    )


class TestFigure2Degree:
    def test_p3_violation(self):
        g = path_graph(3)
        sc = degree_scenario(g, 1)
        report = run_scenario(sc, algorithm1_factory(g, 1))
        assert report.violation_demonstrated
        assert report.fully_indistinguishable

    def test_forced_outputs_respected(self):
        g = path_graph(3)
        sc = degree_scenario(g, 1)
        report = run_scenario(sc, algorithm1_factory(g, 1))
        e1, e2, e3 = report.executions
        assert e1.respected_forced_output
        assert e3.respected_forced_output
        assert e2.violated  # the contradiction lands in E2

    @pytest.mark.slow
    def test_degree_deficient_f1(self):
        g = degree_deficient_graph(1)
        sc = degree_scenario(g, 1)
        report = run_scenario(sc, algorithm1_factory(g, 1))
        assert report.violation_demonstrated
        assert report.fully_indistinguishable

    def test_star_violation(self):
        from repro.graphs import star_graph

        g = star_graph(3)  # leaves have degree 1 < 2
        sc = degree_scenario(g, 1)
        report = run_scenario(sc, algorithm1_factory(g, 1))
        assert report.violation_demonstrated


class TestFigure3Connectivity:
    def test_bridged_triangles_violation(self):
        g = two_triangles_bridged()
        assert not check_local_broadcast(g, 1).feasible
        sc = connectivity_scenario(g, 1)
        report = run_scenario(sc, algorithm1_factory(g, 1))
        assert report.violation_demonstrated
        assert report.fully_indistinguishable

    def test_cycle_c6_f2_violation(self):
        # C6 for f = 2: κ = 2 < 4 (and degree 2 < 4; the cut is what the
        # scenario exploits).
        g = cycle_graph(6)
        sc = connectivity_scenario(g, 2)
        report = run_scenario(sc, algorithm1_factory(g, 2))
        assert report.violation_demonstrated

    def test_violation_lands_in_e2(self):
        g = two_triangles_bridged()
        sc = connectivity_scenario(g, 1)
        report = run_scenario(sc, algorithm1_factory(g, 1))
        assert not report.executions[0].violated
        assert report.executions[1].violated
        assert not report.executions[2].violated


class TestFigure4HybridNeighborhood:
    def graph(self):
        return Graph(
            range(5),
            [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 0), (4, 1)],
        )

    def test_violation(self):
        g = self.graph()
        sc = hybrid_neighborhood_scenario(g, 1, 1)
        report = run_scenario(sc, algorithm3_factory(g, 1, 1))
        assert report.violation_demonstrated
        assert report.fully_indistinguishable

    def test_equivocating_execution_is_the_breaker(self):
        g = self.graph()
        sc = hybrid_neighborhood_scenario(g, 1, 1)
        report = run_scenario(sc, algorithm3_factory(g, 1, 1))
        assert report.executions[1].violated


class TestFigure5HybridConnectivity:
    def graph(self):
        edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
        edges += [(a, b) for a in [2, 3, 4, 5] for b in [2, 3, 4, 5] if a < b]
        return Graph(range(6), edges)

    def test_violation(self):
        g = self.graph()
        sc = connectivity_scenario(g, 1, 1)
        report = run_scenario(sc, algorithm3_factory(g, 1, 1))
        assert report.violation_demonstrated
        assert report.fully_indistinguishable

    def test_summary_text(self):
        g = self.graph()
        sc = connectivity_scenario(g, 1, 1)
        report = run_scenario(sc, algorithm3_factory(g, 1, 1))
        text = report.summary()
        assert "violation demonstrated" in text
        assert "E2" in text


class TestContrastWithFeasibleGraphs:
    def test_feasible_graph_resists_same_replay_style(self, c5):
        """Sanity direction: on a condition-satisfying graph the same
        algorithm survives the whole adversary battery (covered at depth
        in test_algorithm1); here we confirm no scenario even exists."""
        from repro.graphs import GraphError

        with pytest.raises(GraphError):
            degree_scenario(c5, 1)
        with pytest.raises(GraphError):
            connectivity_scenario(c5, 1)
