"""PathOracle: cached answers must equal the uncached machinery."""

import pickle
from itertools import combinations

import pytest

from repro.consensus import (
    KINDS,
    PathOracle,
    ProtocolFactory,
    algorithm1_factory,
    algorithm2_factory,
)
from repro.consensus import path_oracle
from repro.consensus.path_oracle import disjoint_families
from repro.consensus.runner import run_consensus
from repro.graphs import (
    cycle_graph,
    disjoint_paths_excluding,
    harary_graph,
    max_disjoint_paths,
    petersen_graph,
    wheel_graph,
)
from repro.net import TamperForwardAdversary


def uncached_path_excluding(graph, u, v, excluded):
    """The uncached computation that PathOracle.path_excluding memoizes."""
    pruned = graph.remove_nodes(set(excluded) - {u, v})
    if u not in pruned.nodes or v not in pruned.nodes:
        return None
    return pruned.shortest_path(u, v)


class TestPathExcluding:
    @pytest.mark.parametrize("graph", [
        cycle_graph(6), petersen_graph(), wheel_graph(6), harary_graph(3, 8),
    ], ids=["c6", "petersen", "w6", "h38"])
    def test_matches_uncached_connectivity_calls(self, graph):
        oracle = PathOracle(graph)
        nodes = sorted(graph.nodes, key=repr)
        for excluded in [frozenset(), frozenset(nodes[:1]), frozenset(nodes[:2])]:
            for u, v in combinations(nodes, 2):
                expected = uncached_path_excluding(graph, u, v, excluded)
                got = oracle.path_excluding(u, v, excluded)
                if expected is None:
                    assert got is None, (u, v, excluded)
                    continue
                # Same existence and same (shortest) length; the concrete
                # tie-break may differ, but the path must be real and
                # avoid the excluded set internally.
                assert got is not None
                assert len(got) == len(expected)
                assert got[0] == u and got[-1] == v
                assert all(graph.has_edge(x, y) for x, y in zip(got, got[1:]))
                assert not (set(got[1:-1]) & excluded)

    def test_excluded_endpoints_stay_usable(self):
        graph = cycle_graph(5)
        oracle = PathOracle(graph)
        path = oracle.path_excluding(0, 2, frozenset({0, 2}))
        assert path is not None and path[0] == 0 and path[-1] == 2

    def test_disconnection_returns_none(self):
        graph = cycle_graph(6)
        oracle = PathOracle(graph)
        assert oracle.path_excluding(0, 3, frozenset({1, 5})) is None

    def test_caching_counters(self):
        graph = cycle_graph(5)
        oracle = PathOracle(graph)
        oracle.path_excluding(0, 2, frozenset({4}))
        assert oracle.cache_info()["misses"] == 1
        oracle.path_excluding(0, 2, frozenset({4}))
        assert oracle.cache_info()["hits"] == 1
        # Different query, same pruned graph: BFS tree is reused.
        oracle.path_excluding(1, 2, frozenset({4}))
        assert oracle.cache_info()["bfs_trees"] == 1
        assert oracle.cache_info()["pruned_graphs"] == 1


class TestDisjointPathsExcluding:
    def test_matches_uncached(self):
        graph = petersen_graph()
        oracle = PathOracle(graph)
        sources, sink, exclude = {0, 1, 2}, 7, {4}
        expected = disjoint_paths_excluding(graph, sources, sink, exclude, 2)
        got = oracle.disjoint_paths_excluding(sources, sink, exclude, 2)
        assert got == expected
        assert oracle.disjoint_paths_excluding(sources, sink, exclude, 2) == expected
        assert oracle.cache_info()["hits"] == 1

    def test_infeasible_packing_is_none_and_cached(self):
        graph = cycle_graph(5)
        oracle = PathOracle(graph)
        assert oracle.disjoint_paths_excluding({0}, 2, set(), 3) is None
        assert oracle.disjoint_paths_excluding({0}, 2, set(), 3) is None
        assert oracle.cache_info()["hits"] == 1

    def test_reliable_payload_routes_through_the_packing_cache(self):
        """The asynchronous algorithm's certificate checks ask the oracle
        for packing feasibility before packing delivered paths — the
        answer must not change, and repeated checks about the same
        origin must hit the cache."""
        from repro.consensus import reliable_payload

        graph = cycle_graph(5)  # κ = 2: f+1 = 2 disjoint paths exist
        oracle = PathOracle(graph)
        delivered = {
            (0, 1, 2): "payload",
            (0, 4, 3, 2): "payload",
        }
        with_oracle = reliable_payload(graph, 1, 2, delivered, 0, oracle=oracle)
        without = reliable_payload(graph, 1, 2, delivered, 0)
        assert with_oracle == without == "payload"
        assert oracle.cache_info()["packings"] == 1
        reliable_payload(graph, 1, 2, delivered, 0, oracle=oracle)
        assert oracle.cache_info()["hits"] == 1
        # An origin the graph cannot certify is cut off by the oracle
        # before any delivered-path packing runs — and cached as None.
        from repro.graphs import path_graph

        line = path_graph(4)  # κ = 1: no 2-packing exists to anyone
        line_oracle = PathOracle(line)
        assert reliable_payload(
            line, 1, 3, {(0, 1, 2, 3): "x"}, 0, oracle=line_oracle
        ) is None
        assert line_oracle.cache_info()["packings"] == 1


class TestSharing:
    def test_factory_shares_one_oracle(self):
        graph = cycle_graph(5)
        factory = algorithm1_factory(graph, 1)
        p0 = factory(0, 0)
        p1 = factory(1, 1)
        assert p0.oracle is p1.oracle is factory.oracle

    def test_wrong_graph_rejected(self):
        from repro.consensus import Algorithm1Protocol

        oracle = PathOracle(cycle_graph(5))
        with pytest.raises(ValueError):
            Algorithm1Protocol(cycle_graph(4), 0, 1, 0, oracle=oracle)

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_pickled_factory_ships_warm_oracle(self, kind):
        """Every kind's factory oracle crosses the process boundary with
        its structural memos (pruned graphs, BFS trees) intact; the
        per-query caches and counters start fresh in the worker."""
        graph = cycle_graph(5)
        params = {"t": 0} if kind == "algorithm3" else {}
        factory = ProtocolFactory(kind, graph, 1, **params)
        factory.oracle.path_excluding(0, 2, frozenset({4}))
        before = factory.oracle.cache_info()
        assert before["pruned_graphs"] == 1 and before["bfs_trees"] == 1
        clone = pickle.loads(pickle.dumps(factory))
        assert clone.graph == graph
        assert clone.flight_spec() == factory.flight_spec()
        info = clone.oracle.cache_info()
        assert info["pruned_graphs"] == 1
        assert info["bfs_trees"] == 1
        # Per-query result caches and counters are per-process state.
        assert info["paths"] == 0
        assert info["hits"] == 0 and info["misses"] == 0

    def test_unpickled_oracle_reuses_warm_memos(self):
        """Cache-hit assertion for the warm reduce path: a repeated
        query in the 'worker' reuses the shipped pruned graph and BFS
        tree instead of recomputing them."""
        graph = petersen_graph()
        oracle = PathOracle(graph)
        excluded = frozenset({3})
        warm_path = oracle.path_excluding(0, 2, excluded)
        clone = pickle.loads(pickle.dumps(oracle))
        assert clone.cache_info()["pruned_graphs"] == 1
        assert clone.cache_info()["bfs_trees"] == 1
        # The same query against the clone answers identically without
        # growing the structural memos — they were reused, not rebuilt.
        assert clone.path_excluding(0, 2, excluded) == warm_path
        assert clone.cache_info()["pruned_graphs"] == 1
        assert clone.cache_info()["bfs_trees"] == 1
        # A same-phase query for a different origin rides the shipped
        # BFS tree: no new tree is built either.
        clone.path_excluding(1, 2, excluded)
        assert clone.cache_info()["bfs_trees"] == 1

    def test_shared_oracle_run_matches_fresh_oracles(self):
        """A full consensus run behaves identically whether instances
        share the factory oracle or each build their own."""
        graph = cycle_graph(4)
        inputs = {v: v % 2 for v in graph.nodes}

        shared = run_consensus(graph, algorithm1_factory(graph, 1), inputs, f=1)

        def fresh_factory(node, input_value):
            from repro.consensus import Algorithm1Protocol
            return Algorithm1Protocol(graph, node, 1, input_value)

        fresh = run_consensus(graph, fresh_factory, inputs, f=1)
        assert shared.honest_outputs == fresh.honest_outputs
        assert shared.rounds == fresh.rounds
        assert shared.transmissions == fresh.transmissions


class TestDisjointFamilies:
    """Maximum disjoint-path families are computed once per graph and
    shared by every oracle on an equal graph."""

    #: One factory's oracle after two Algorithm 2 runs on W8 (below),
    #: the same as when every factory ran its own max-flows: the
    #: per-graph cache sits behind the oracle's own memo and counters.
    COUNTERS = {
        "oracle.hits{kind=plan}": 120,
        "oracle.misses{kind=disjoint}": 56,
        "oracle.misses{kind=plan}": 8,
    }

    def test_second_factory_on_an_equal_graph_runs_no_max_flow(
        self, monkeypatch
    ):
        calls = []

        def counting(graph, u, v, **kwargs):
            calls.append((u, v))
            return max_disjoint_paths(graph, u, v, **kwargs)

        monkeypatch.setattr(path_oracle, "max_disjoint_paths", counting)
        disjoint_families.cache_clear()
        graphs = [wheel_graph(8), wheel_graph(8)]
        assert graphs[0] == graphs[1] and graphs[0] is not graphs[1]
        seen = []
        for graph in graphs:
            factory = algorithm2_factory(graph, 1)
            for faulty in (3, 0):
                run_consensus(
                    graph, factory, {v: v % 2 for v in graph.nodes}, f=1,
                    faulty=(faulty,), adversary=TamperForwardAdversary(),
                )
            seen.append(len(calls))
            assert factory.oracle.metrics.snapshot()["counters"] == self.COUNTERS
        # Every ordered pair of W8 once, all during the first factory.
        assert seen == [56, 56]
        assert len(set(calls)) == 56

    def test_families_are_shared_tuples(self):
        one, two = PathOracle(wheel_graph(8)), PathOracle(wheel_graph(8))
        family = one.disjoint_paths_between(0, 3)
        assert isinstance(family, tuple)
        assert two.disjoint_paths_between(0, 3) is family
        count, paths = max_disjoint_paths(wheel_graph(8), 0, 3, want_paths=True)
        assert list(family) == paths and len(family) == count
        # Each oracle still counts its own memo's traffic.
        assert one.misses == two.misses == 1
        assert two.disjoint_paths_between(0, 3) is family
        assert two.hits == 1


class TestObsCounters:
    """The hit/miss tallies live on an obs registry; ``hits``/``misses``
    are property shims over the labeled counters, split by query kind."""

    def test_shims_sum_the_labeled_counters(self):
        graph = petersen_graph()
        oracle = PathOracle(graph)
        oracle.path_excluding(0, 2, frozenset())       # path miss
        oracle.path_excluding(0, 2, frozenset())       # path hit
        oracle.disjoint_paths_excluding([0, 1], 2, frozenset(), 2)  # packing miss
        assert oracle.metrics.counter("oracle.misses", kind="path") == 1
        assert oracle.metrics.counter("oracle.hits", kind="path") == 1
        assert oracle.metrics.counter("oracle.misses", kind="packing") == 1
        assert oracle.hits == 1
        assert oracle.misses == 2
        assert oracle.cache_info()["hits"] == oracle.hits
        assert oracle.cache_info()["misses"] == oracle.misses

    def test_snapshot_keys_are_canonical(self):
        graph = cycle_graph(5)
        oracle = PathOracle(graph)
        oracle.path_excluding(0, 2, frozenset())
        counters = oracle.metrics.snapshot()["counters"]
        assert counters == {"oracle.misses{kind=path}": 1}

    def test_warm_shipped_oracle_starts_with_zeroed_registry(self):
        graph = petersen_graph()
        oracle = PathOracle(graph)
        for _ in range(3):
            oracle.path_excluding(0, 2, frozenset({4}))
        clone = pickle.loads(pickle.dumps(oracle))
        # Memos travel; the per-process registry does not.
        assert clone.metrics.snapshot()["counters"] == {}
        assert clone.hits == 0 and clone.misses == 0
