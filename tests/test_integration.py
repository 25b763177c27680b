"""End-to-end integration: the paper's storyline as executable checks.

Each test stitches several subsystems together the way the benchmarks
and examples do: conditions → algorithm → adversary → verdict, or
deficient graph → covering construction → violation.
"""

import pytest

from repro.consensus import (
    algorithm1_factory,
    algorithm2_factory,
    algorithm3_factory,
    check_hybrid,
    check_local_broadcast,
    check_point_to_point,
    eig_factory,
    run_consensus,
)
from repro.consensus.baselines import EIGEquivocatingAdversary
from repro.graphs import (
    complete_graph,
    cycle_graph,
    low_connectivity_graph,
    paper_figure_1a,
    paper_figure_1b,
)
from repro.lowerbounds import (
    connectivity_scenario,
    degree_scenario,
    run_scenario,
)
from repro.net import (
    CrashAdversary,
    EquivocatingAdversary,
    TamperForwardAdversary,
    hybrid_model,
    point_to_point_model,
)
from composite_adversary import CompositeAdversary


class TestPaperStoryline:
    def test_k3_story(self):
        """The crispest headline: 3 nodes, 1 fault.

        Point-to-point: provably impossible (n < 3f + 1) and our EIG run
        actually breaks.  Local broadcast: K3 = K_{2f+1} is feasible and
        Algorithm 1 survives the tamperer."""
        g = complete_graph(3)
        assert not check_point_to_point(g, 1).feasible
        assert check_local_broadcast(g, 1).feasible

        broken = run_consensus(
            g, eig_factory(g, 1), {v: 1 for v in g.nodes}, f=1,
            faulty=[2], adversary=EIGEquivocatingAdversary(),
            channel=point_to_point_model(),
        )
        assert not (broken.agreement and broken.validity)

        fine = run_consensus(
            g, algorithm1_factory(g, 1), {v: 1 for v in g.nodes}, f=1,
            faulty=[2], adversary=TamperForwardAdversary(),
        )
        assert fine.consensus and fine.decision == 1

    def test_figure_1a_full_pipeline(self):
        """Figure 1(a): check conditions, run both feasible algorithms."""
        g = paper_figure_1a()
        assert check_local_broadcast(g, 1).feasible
        inputs = {0: 1, 1: 0, 2: 1, 3: 0, 4: 1}
        exact = run_consensus(
            g, algorithm1_factory(g, 1), inputs, f=1,
            faulty=[2], adversary=TamperForwardAdversary(),
        )
        efficient = run_consensus(
            g, algorithm2_factory(g, 1), inputs, f=1,
            faulty=[2], adversary=TamperForwardAdversary(),
        )
        assert exact.consensus and efficient.consensus
        # Efficient: 3n rounds; exact: phases * n rounds.
        assert efficient.rounds < exact.rounds

    def test_figure_1b_conditions_and_efficient_run(self):
        g = paper_figure_1b()
        assert check_local_broadcast(g, 2).feasible
        res = run_consensus(
            g, algorithm2_factory(g, 2), {v: v % 2 for v in g.nodes}, f=2,
            faulty=[1, 5],
            adversary=CompositeAdversary(
                {1: TamperForwardAdversary(), 5: CrashAdversary(crash_round=4)}
            ),
        )
        assert res.consensus

    def test_tight_condition_is_tight(self):
        """low_connectivity_graph(f) misses the bound by exactly one:
        conditions fail, and the Figure 3 pipeline exhibits a violation."""
        f = 2
        g = low_connectivity_graph(f)
        report = check_local_broadcast(g, f)
        assert not report.feasible
        (clause,) = report.failing()
        assert clause.margin == -1  # one short of ⌊3f/2⌋ + 1

        scenario = connectivity_scenario(g, f)
        outcome = run_scenario(scenario, algorithm1_factory(g, f))
        assert outcome.violation_demonstrated

    def test_hybrid_bridges_the_models(self):
        """K4: hybrid with t = 1 = f matches p2p feasibility; the
        algorithm actually withstands a genuine equivocator."""
        g = complete_graph(4)
        assert check_hybrid(g, 1, 1).feasible is check_point_to_point(g, 1).feasible
        res = run_consensus(
            g, algorithm3_factory(g, 1, 1), {0: 0, 1: 1, 2: 0, 3: 1}, f=1,
            faulty=[1], adversary=EquivocatingAdversary(),
            channel=hybrid_model({1}),
        )
        assert res.consensus

    def test_degree_scenario_against_own_algorithm(self):
        """Run the Figure 2 machinery against Algorithm 2 as well: the
        impossibility is algorithm-independent."""
        from repro.graphs import path_graph

        g = path_graph(3)
        scenario = degree_scenario(g, 1)
        outcome = run_scenario(
            scenario, algorithm2_factory(g, 1), rounds=3 * g.n
        )
        assert outcome.violation_demonstrated


class TestCrossAlgorithmAgreement:
    """Both local-broadcast algorithms decide the same value on the same
    instance whenever the decision is forced (validity cases)."""

    @pytest.mark.parametrize("value", [0, 1])
    def test_unanimous_inputs(self, value):
        g = cycle_graph(4)
        inputs = {v: value for v in g.nodes}
        r1 = run_consensus(
            g, algorithm1_factory(g, 1), inputs, f=1,
            faulty=[3], adversary=TamperForwardAdversary(),
        )
        r2 = run_consensus(
            g, algorithm2_factory(g, 1), inputs, f=1,
            faulty=[3], adversary=TamperForwardAdversary(),
        )
        assert r1.decision == r2.decision == value

    def test_transmission_accounting_consistency(self):
        g = cycle_graph(4)
        res = run_consensus(
            g, algorithm1_factory(g, 1), {v: 0 for v in g.nodes}, f=1
        )
        # Every broadcast on C4 reaches exactly two neighbors.
        assert res.deliveries == 2 * res.transmissions
