"""Directed feasibility conditions and their symmetric-view collapse.

Two layers of guarantees:

* on every *undirected* graph, the checker's verdict and measured
  values equal those on its symmetric digraph lift, where κ comes from
  the ordered-pair Menger loop instead of the pruning algorithm —
  directedness is a strict generalization;
* on genuinely one-way graphs the verdicts *move*: ``oneway:9:2`` is
  the canonical witness, feasible for f = 1 under local broadcast but
  with directed max f strictly below its symmetric closure's.
"""

import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consensus import (
    check_directed_decomposition,
    check_local_broadcast,
    conditions,
    max_f_local_broadcast,
)
from repro.graphs import (
    Digraph,
    GraphError,
    complete_graph,
    cycle_graph,
    gnp_supercritical_graph,
    oneway_ring,
    paper_figure_1a,
    paper_figure_1b,
    path_graph,
    random_digraph,
    star_graph,
    wheel_graph,
)

BATTERY = [
    cycle_graph(4),
    cycle_graph(5),
    wheel_graph(5),
    wheel_graph(6),
    complete_graph(4),
    path_graph(5),
    star_graph(5),
    paper_figure_1a(),
    paper_figure_1b(),
]


class TestDirectedChecker:
    def test_oneway_9_2_feasible_f1(self):
        report = check_local_broadcast(oneway_ring(9, 2), 1)
        assert report.feasible

    def test_oneway_9_2_infeasible_f2(self):
        report = check_local_broadcast(oneway_ring(9, 2), 2)
        assert not report.feasible

    def test_verdict_gap_against_symmetric_closure(self):
        """The acceptance witness: the directed form changes max f."""
        d = oneway_ring(9, 2)
        assert max_f_local_broadcast(d) == 1
        assert max_f_local_broadcast(d.to_undirected()) == 2

    def test_not_strongly_connected_infeasible(self):
        d = Digraph.from_arcs([(0, 1), (1, 2), (0, 2), (2, 1)])
        assert not check_local_broadcast(d, 1).feasible

    def test_clause_names_follow_directedness(self):
        g = wheel_graph(5)
        undirected = check_local_broadcast(g, 1)
        directed = check_local_broadcast(g.to_digraph(), 1)
        assert undirected.model == "local-broadcast"
        assert directed.model == "directed-local-broadcast"
        assert [c.name for c in undirected.clauses] == [
            "n > f (trivial solvability bound)",
            "minimum degree >= 2f",
            "connectivity >= floor(3f/2) + 1",
        ]
        assert [c.name for c in directed.clauses] == [
            "n > f (trivial solvability bound)",
            "minimum in-degree >= 2f",
            "strong connectivity >= floor(3f/2) + 1",
        ]


class TestDecompositionChecker:
    def test_strong_digraph_is_its_own_core(self):
        report = check_directed_decomposition(oneway_ring(9, 2), 1)
        assert report.feasible

    def test_two_sources_infeasible(self):
        # Two source components can never agree: neither hears the other.
        d = Digraph.from_arcs([(0, 2), (1, 2), (2, 3)])
        report = check_directed_decomposition(d, 1)
        assert not report.feasible
        clause = next(c for c in report.clauses if "source" in c.name)
        assert not clause.holds

    def test_relay_nodes_need_disjoint_core_paths(self):
        # Strong core K4 feeding one relay through a single arc: the
        # relay cannot reliably receive with f = 1 (needs 3 paths).
        core = complete_graph(4).to_digraph()
        d = Digraph(set(core.nodes) | {"relay"},
                    list(core.arcs()) + [(0, "relay")])
        report = check_directed_decomposition(d, 1)
        assert not report.feasible
        clause = next(c for c in report.clauses if "core paths" in c.name)
        assert clause.measured == 1 and clause.required == 3

    def test_well_fed_relay_is_feasible(self):
        core = complete_graph(5).to_digraph()
        arcs = list(core.arcs()) + [(v, "relay") for v in range(3)]
        d = Digraph(set(core.nodes) | {"relay"}, arcs)
        report = check_directed_decomposition(d, 1)
        assert report.feasible


class TestSymmetricCollapse:
    def test_battery_verdicts_match(self):
        for g in BATTERY:
            for f in (1, 2, 3):
                undirected = check_local_broadcast(g, f)
                directed = check_local_broadcast(g.to_digraph(), f)
                assert undirected.feasible == directed.feasible, (g, f)
                for cu, cd in zip(undirected.clauses, directed.clauses):
                    assert cu.measured == cd.measured, (g, f, cu.name)
                    assert cu.required == cd.required, (g, f, cu.name)

    def test_battery_max_f_matches(self):
        for g in BATTERY:
            assert (max_f_local_broadcast(g.to_digraph())
                    == max_f_local_broadcast(g)), g

    def test_disconnected_symmetric_views_agree(self):
        two_cliques = Digraph(
            range(10),
            [(u, v) for u in range(5) for v in range(5) if u != v]
            + [(u, v) for u in range(5, 10) for v in range(5, 10) if u != v],
        )
        assert not check_local_broadcast(two_cliques, 1).feasible
        assert not check_local_broadcast(two_cliques.to_undirected(), 1).feasible

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=100),
           st.integers(min_value=1, max_value=3))
    def test_random_graphs_verdicts_match(self, seed, f):
        g = gnp_supercritical_graph(8, 2.4, seed)
        undirected = check_local_broadcast(g, f)
        directed = check_local_broadcast(g.to_digraph(), f)
        assert undirected.feasible == directed.feasible


class TestDirectedFamiliesUnderCheckers:
    def test_random_digraph_checkable(self):
        d = random_digraph(8, 0.45, 5)
        report = check_local_broadcast(d, 2)
        assert not report.feasible  # sparse one-way arcs: in-degree short

    def test_max_f_zero_on_weak_digraph(self):
        assert max_f_local_broadcast(oneway_ring(5)) == 0


# Every public checker, split by whether a directed theorem stands
# behind it.  Only the local-broadcast condition has a directed (strong)
# form (arXiv:1911.07298); Theorem 6.1, the Dolev bound and the async
# condition are stated for undirected graphs, so their checkers refuse a
# digraph instead of answering without a theorem.
CHECKERS = sorted(
    name for name in dir(conditions) if name.startswith(("check_", "max_f_"))
)
DIRECTED_THEOREM = {
    "check_directed_decomposition",
    "check_local_broadcast",
    "max_f_local_broadcast",
}
REFUSAL_GRAPHS = (
    BATTERY
    + [g.to_digraph() for g in BATTERY]
    + [oneway_ring(5), oneway_ring(9, 2), oneway_ring(7, 3)]
    + [random_digraph(7, 0.5, seed) for seed in (0, 1, 2)]
)


class TestNoDirectedTheoremRefuses:
    def test_checker_table(self):
        assert CHECKERS == [
            "check_async_local_broadcast",
            "check_directed_decomposition",
            "check_hybrid",
            "check_local_broadcast",
            "check_point_to_point",
            "max_f_async_local_broadcast",
            "max_f_hybrid",
            "max_f_local_broadcast",
            "max_f_point_to_point",
        ]

    @pytest.mark.parametrize("name", CHECKERS)
    def test_answers_or_raises_graph_error(self, name):
        """Each call returns, or raises GraphError naming the condition
        exactly when the checker has no directed theorem and the graph
        is directed; nothing else (no AttributeError) escapes."""
        checker = getattr(conditions, name)
        params = list(inspect.signature(checker).parameters)
        model = name.removeprefix("check_").removeprefix("max_f_").replace("_", "-")
        calls = {
            tuple({"graph": graph, "f": f, "t": t}[p] for p in params): None
            for graph in REFUSAL_GRAPHS
            for f in (0, 1, 2)
            for t in range(f + 1)
        }
        for args in calls:
            graph = args[0]
            if graph.directed and name not in DIRECTED_THEOREM:
                with pytest.raises(GraphError, match=model):
                    checker(*args)
            else:
                checker(*args)
