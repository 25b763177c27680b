"""Set neighborhoods and cut partitions (Theorem 6.1(iii) machinery)."""

import pytest

from repro.graphs import (
    Graph,
    GraphError,
    complete_graph,
    cut_partition,
    cycle_graph,
    every_small_set_has_neighbors,
    find_cut_partition,
    hybrid_neighborhood_deficient_graph,
    min_set_neighborhood,
    neighbors_of_set,
    oneway_ring,
    split_into_parts,
    star_graph,
)


class TestNeighborhoods:
    def test_single_node(self, c5):
        assert neighbors_of_set(c5, [0]) == {1, 4}

    def test_set_excludes_itself(self, c5):
        assert neighbors_of_set(c5, [0, 1]) == {2, 4}

    def test_whole_graph_has_no_neighbors(self, c5):
        assert neighbors_of_set(c5, range(5)) == set()

    def test_min_set_neighborhood_singleton(self):
        g = star_graph(4)
        value, witness = min_set_neighborhood(g, 1)
        assert value == 1
        assert witness != {0}  # a leaf, not the hub

    def test_min_set_neighborhood_pairs(self, c5):
        value, witness = min_set_neighborhood(c5, 2)
        # Singletons and adjacent pairs both expose exactly two neighbors;
        # the first minimizer found (a singleton) wins.
        assert value == 2
        assert 1 <= len(witness) <= 2

    def test_min_over_sizes_prefers_smaller_witness_value(self):
        g = complete_graph(5)
        value, witness = min_set_neighborhood(g, 2)
        assert value == 3  # removing |S|=2 from K5 leaves 3 neighbors
        assert len(witness) == 2

    def test_invalid_max_size(self, c5):
        with pytest.raises(GraphError):
            min_set_neighborhood(c5, 0)

    def test_every_small_set_threshold(self):
        g = hybrid_neighborhood_deficient_graph(f=2, t=2)
        assert not every_small_set_has_neighbors(g, 2, 2 * 2 + 1)
        assert every_small_set_has_neighbors(complete_graph(6), 2, 4)


class TestCutPartition:
    def test_partition_shape(self):
        g = cycle_graph(6)
        a, b = cut_partition(g, {0, 3})
        assert a | b == {1, 2, 4, 5}
        assert not a & b
        # No edge between the halves.
        for x in a:
            assert not g.neighbors(x) & b

    def test_non_cut_rejected(self, c5):
        with pytest.raises(GraphError):
            cut_partition(c5, {0})

    def test_cut_removing_everything_rejected(self):
        with pytest.raises(GraphError):
            cut_partition(cycle_graph(3), {0, 1, 2})

    def test_find_cut_partition_respects_bound(self):
        g = cycle_graph(6)
        parts = find_cut_partition(g, 2)
        assert parts is not None
        a, b, c = parts
        assert len(c) == 2
        assert a and b

    def test_find_cut_partition_none_when_too_connected(self):
        assert find_cut_partition(complete_graph(5), 3) is None
        assert find_cut_partition(cycle_graph(5), 1) is None

    def test_digraph_refused(self):
        """Both helpers split components of an undirected graph, so a
        digraph is refused with a GraphError, not an AttributeError."""
        d = oneway_ring(9, 2)
        with pytest.raises(GraphError, match="undirected graphs only"):
            cut_partition(d, {0, 1})
        with pytest.raises(GraphError, match="undirected graphs only"):
            find_cut_partition(d, 3)

    def test_find_cut_partition_disconnected(self):
        g = Graph(nodes=[0, 1])
        a, b, c = find_cut_partition(g, 0)
        assert c == set()
        assert a | b == {0, 1}


class TestSplitIntoParts:
    def test_exact_split(self):
        parts = split_into_parts([3, 1, 2], [1, 2])
        assert parts == [[1], [2, 3]]

    def test_empty_parts_allowed(self):
        parts = split_into_parts([1], [0, 2, 3])
        assert parts == [[], [1], []]

    def test_overflow_rejected(self):
        with pytest.raises(GraphError):
            split_into_parts([1, 2, 3], [1, 1])

    def test_deterministic(self):
        a = split_into_parts(["b", "a", "c"], [2, 1])
        b = split_into_parts(["c", "b", "a"], [2, 1])
        assert a == b
