"""Cross-cutting property-based tests (hypothesis).

These encode the paper's quantified statements as randomized searches
for counterexamples: seeded adversaries and fault placements on
condition-satisfying graphs must never break consensus; structural
identities must hold on arbitrary random graphs.
"""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import predicted_costs
from repro.consensus import (
    algorithm1_factory,
    algorithm2_factory,
    check_local_broadcast,
    majority,
    phase_count,
    run_consensus,
)
from repro.graphs import (
    all_simple_paths,
    complete_graph,
    cycle_graph,
    harary_graph,
    max_disjoint_paths,
    min_set_neighborhood,
    neighbors_of_set,
    paper_figure_1a,
    random_connected_graph,
    vertex_connectivity,
)
from repro.net import RandomAdversary


def to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(g.nodes)
    h.add_edges_from(g.edges())
    return h


class TestStructuralIdentities:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 100_000))
    def test_menger_identity(self, seed):
        """κ(u,v) computed by flow equals networkx's on random graphs."""
        g = random_connected_graph(n=7, extra_edges=seed % 10, seed=seed)
        h = to_nx(g)
        nodes = sorted(g.nodes)
        u, v = nodes[seed % 7], nodes[(seed // 7) % 7]
        if u == v:
            return
        assert max_disjoint_paths(g, u, v) == nx.node_connectivity(h, u, v)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 100_000))
    def test_connectivity_lower_bounds_degree(self, seed):
        g = random_connected_graph(n=8, extra_edges=seed % 12, seed=seed)
        assert vertex_connectivity(g) <= g.min_in_degree()

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 100_000))
    def test_neighborhood_of_singleton_is_degree(self, seed):
        g = random_connected_graph(n=8, extra_edges=seed % 8, seed=seed)
        for v in sorted(g.nodes)[:3]:
            assert len(neighbors_of_set(g, [v])) == g.in_degree(v)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 100_000))
    def test_min_set_neighborhood_bounded_by_min_degree(self, seed):
        g = random_connected_graph(n=7, extra_edges=seed % 8, seed=seed)
        value, _ = min_set_neighborhood(g, 2)
        assert value <= g.min_in_degree()

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 100_000))
    def test_simple_paths_symmetric(self, seed):
        g = random_connected_graph(n=6, extra_edges=seed % 6, seed=seed)
        nodes = sorted(g.nodes)
        u, v = nodes[0], nodes[-1]
        forward = {tuple(reversed(p)) for p in all_simple_paths(g, u, v)}
        backward = set(all_simple_paths(g, v, u))
        assert forward == backward


class TestConsensusNeverBreaks:
    """Seeded randomized adversaries cannot break feasible instances."""

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 100_000), faulty=st.integers(0, 4))
    def test_algorithm1_on_c5(self, seed, faulty):
        g = paper_figure_1a()
        inputs = {v: (seed >> v) & 1 for v in g.nodes}
        res = run_consensus(
            g, algorithm1_factory(g, 1), inputs, f=1,
            faulty=[faulty], adversary=RandomAdversary(seed=seed),
        )
        assert res.consensus

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 100_000), faulty=st.integers(0, 3))
    def test_algorithm2_on_c4(self, seed, faulty):
        g = cycle_graph(4)
        inputs = {v: (seed >> v) & 1 for v in g.nodes}
        res = run_consensus(
            g, algorithm2_factory(g, 1), inputs, f=1,
            faulty=[faulty], adversary=RandomAdversary(seed=seed),
        )
        assert res.consensus

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_harary_f1_random_adversary(self, seed):
        g = harary_graph(3, 6)  # kappa 3, degree 3: feasible for f = 1
        assert check_local_broadcast(g, 1).feasible
        inputs = {v: (seed >> v) & 1 for v in g.nodes}
        res = run_consensus(
            g, algorithm1_factory(g, 1), inputs, f=1,
            faulty=[seed % 6], adversary=RandomAdversary(seed=seed),
        )
        assert res.consensus


class TestClosedForms:
    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 12), f=st.integers(0, 3))
    def test_phase_count_matches_enumeration(self, n, f):
        g = complete_graph(n)
        from repro.consensus import candidate_fault_sets

        assert len(candidate_fault_sets(g, f)) == phase_count(n, f)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(3, 10), f=st.integers(1, 2))
    def test_cost_model_consistency(self, n, f):
        cm = predicted_costs(complete_graph(n), f)
        assert cm.rounds_algorithm1 == cm.phases * n
        assert cm.rounds_algorithm2 == 3 * n
        assert cm.round_blowup >= 1.0 or cm.phases * n < 3 * n

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 1), max_size=15))
    def test_majority_properties(self, bits):
        result = majority(bits)
        assert result in (0, 1)
        if bits.count(1) > len(bits) / 2:
            assert result == 1
        if bits.count(0) >= len(bits) / 2:
            assert result == 0

    @settings(max_examples=30, deadline=None)
    @given(f=st.integers(0, 20))
    def test_threshold_orderings(self, f):
        from repro.consensus import (
            hybrid_threshold_connectivity,
            local_broadcast_threshold_connectivity,
        )

        lb = local_broadcast_threshold_connectivity(f)
        p2p = 2 * f + 1
        assert lb <= p2p
        for t in range(f + 1):
            assert lb <= hybrid_threshold_connectivity(f, t) <= p2p
