"""Unit and property tests for the canonical integer node index."""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import (
    Graph,
    NodeIndex,
    cycle_graph,
    is_path,
    paper_figure_1a,
    petersen_graph,
    random_connected_graph,
    wheel_graph,
)


class TestConstruction:
    def test_nodes_are_repr_sorted(self):
        g = Graph.from_edges([("b", "a"), ("a", "c"), ("c", "b")])
        idx = g.node_index()
        assert idx.nodes == tuple(sorted(g.nodes, key=repr))
        assert idx.index_of == {v: i for i, v in enumerate(idx.nodes)}
        assert idx.n == g.n
        assert idx.all_mask == (1 << g.n) - 1

    def test_adj_masks_match_neighbors(self):
        g = petersen_graph()
        idx = g.node_index()
        for i, v in enumerate(idx.nodes):
            assert idx.members(idx.adj_masks[i]) == tuple(
                sorted(g.neighbors(v), key=repr)
            )
            assert idx.neighbor_indices[i] == tuple(
                sorted(idx.index_of[u] for u in g.neighbors(v))
            )

    def test_shift_covers_every_chunk(self):
        for g in (cycle_graph(3), wheel_graph(6), petersen_graph()):
            idx = g.node_index()
            # Each packed chunk holds index + 1 <= n, which must fit.
            assert idx.n < (1 << idx.shift)

    def test_lazily_attached_and_cached(self):
        g = cycle_graph(5)
        assert g.node_index() is g.node_index()

    def test_equality_tracks_structure(self):
        assert cycle_graph(4).node_index() == cycle_graph(4).node_index()
        assert cycle_graph(4).node_index() != cycle_graph(5).node_index()
        assert hash(cycle_graph(4).node_index()) == hash(
            cycle_graph(4).node_index()
        )


class TestSetRepresentation:
    def test_bit_and_mask_of(self):
        idx = cycle_graph(4).node_index()
        assert idx.bit(2) == 1 << idx.index_of[2]
        assert idx.mask_of([0, 2]) == idx.bit(0) | idx.bit(2)
        assert idx.mask_of([]) == 0

    def test_bit_unknown_raises(self):
        idx = cycle_graph(4).node_index()
        try:
            idx.bit(99)
        except KeyError:
            pass
        else:  # pragma: no cover - defends the strictness contract
            raise AssertionError("bit() must raise on unknown labels")

    def test_mask_of_unknown_raises(self):
        """Like ``bit()``: a label outside the graph is a ``KeyError``,
        on the fast path and on the repeated-label loop alike."""
        idx = cycle_graph(4).node_index()
        assert idx.mask_of([0, 1]) == idx.bit(0) | idx.bit(1)
        for labels in ([0, 99], [99], [0, 0, 99]):
            with pytest.raises(KeyError):
                idx.mask_of(labels)

    def test_members_round_trip(self):
        idx = paper_figure_1a().node_index()
        for subset in ([], [idx.nodes[0]], list(idx.nodes[1:4]), list(idx.nodes)):
            assert idx.members(idx.mask_of(subset)) == tuple(
                sorted(subset, key=repr)
            )


def reference_mask(index, nodes):
    """Bit by bit, from ``index.nodes`` alone: the mask of ``nodes``,
    or ``None`` if some label is outside the graph."""
    mask = 0
    for v in nodes:
        if v not in index.nodes:
            return None
        mask |= 1 << index.nodes.index(v)
    return mask


#: Small, string-labeled, and past 63 nodes (masks wider than a word).
MASK_GRAPHS = [
    cycle_graph(5),
    cycle_graph(6).relabeled({i: f"u{i}" for i in range(6)}),
    wheel_graph(70),
]

#: Each input shape ``mask_of`` accepts, built fresh per call (a
#: generator is single-use).
SHAPES = [tuple, list, set, frozenset, lambda labels: (v for v in labels)]


class TestMaskOfMatchesReference:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**9), st.sampled_from(MASK_GRAPHS))
    def test_random_label_lists(self, seed, graph):
        """Distinct, repeated and unknown labels in every input shape:
        the word-level sum and its loop fallback agree with the bit-by-
        bit reference, and an unknown label raises ``KeyError``."""
        idx = graph.node_index()
        rng = random.Random(seed)
        pool = list(idx.nodes) + [-1, "zz", (0, 0)]
        labels = [rng.choice(pool) for _ in range(rng.randrange(0, 80))]
        if rng.random() < 0.5:  # often all distinct and known: the fast path
            labels = rng.sample(idx.nodes, rng.randrange(0, idx.n + 1))
        expected = reference_mask(idx, labels)
        for shape in SHAPES:
            if expected is None:
                with pytest.raises(KeyError):
                    idx.mask_of(shape(labels))
            else:
                assert idx.mask_of(shape(labels)) == expected

    @pytest.mark.parametrize("shape", SHAPES)
    def test_edge_cases(self, shape):
        idx = wheel_graph(70).node_index()
        top = idx.nodes[-1]
        assert idx.mask_of(shape([])) == 0
        full = (1 << 70) - 1
        assert idx.mask_of(shape(idx.nodes)) == full
        assert idx.mask_of(shape([top, top, 0])) == idx.bit(top) | idx.bit(0)
        assert idx.mask_of(shape([top, top])) == idx.bit(top)
        with pytest.raises(KeyError):
            idx.mask_of(shape([top, 99]))


class TestWalk:
    def test_empty_path_is_valid_prefix(self):
        assert cycle_graph(4).node_index().walk(()) == (0, 0, -1)

    def test_valid_path(self):
        g = cycle_graph(5)
        idx = g.node_index()
        mask, packed, last = idx.walk((0, 1, 2))
        assert mask == idx.mask_of([0, 1, 2])
        assert last == idx.index_of[2]
        assert packed != 0

    def test_rejects_repeats_offgraph_nonedges(self):
        idx = cycle_graph(5).node_index()
        assert idx.walk((0, 1, 0)) is None
        assert idx.walk((0, 99)) is None
        assert idx.walk((0, 2)) is None  # not an edge of C5

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 100_000), st.lists(st.integers(0, 8), max_size=6))
    def test_walk_agrees_with_is_path(self, seed, labels):
        """walk() validates exactly the sequences is_path accepts, and on
        acceptance its mask equals the label-set mask."""
        g = random_connected_graph(n=7, extra_edges=seed % 10, seed=seed)
        idx = g.node_index()
        path = tuple(labels)
        info = idx.walk(path)
        if path and is_path(g, path):
            assert info is not None
            mask, packed, last = info
            assert mask == idx.mask_of(path)
            assert last == idx.index_of[path[-1]]
        elif path:
            # is_path rejects, or the sequence repeats a node (is_path on
            # a single node is True; walk agrees there).
            if len(path) == 1 and path[0] in g.nodes:
                assert info == (idx.bit(path[0]), idx.index_of[path[0]] + 1,
                                idx.index_of[path[0]])
            else:
                assert info is None

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 100_000))
    def test_packed_encoding_injective(self, seed):
        """Distinct simple paths never share a packed encoding — the
        rule-(ii) slot-key soundness property."""
        g = random_connected_graph(n=6, extra_edges=seed % 8, seed=seed)
        idx = g.node_index()
        from repro.graphs import all_simple_paths

        seen = {}
        nodes = sorted(g.nodes, key=repr)
        for u in nodes:
            for v in nodes:
                if u == v:
                    continue
                for path in all_simple_paths(g, u, v):
                    info = idx.walk(path)
                    assert info is not None
                    packed = info[1]
                    assert seen.setdefault(packed, path) == path
        # Sanity: the sweep saw more than one path.
        assert len(seen) > 1


class TestPickling:
    def test_node_index_round_trip(self):
        idx = petersen_graph().node_index()
        clone = pickle.loads(pickle.dumps(idx))
        assert clone == idx
        assert clone.index_of == idx.index_of
        assert clone.neighbor_indices == idx.neighbor_indices
        assert clone.shift == idx.shift

    def test_bit_table_is_rebuilt_not_pickled(self):
        idx = wheel_graph(6).node_index()
        _, slots = idx.__getstate__()
        assert "bits" not in slots and "walk_memo" not in slots
        clone = pickle.loads(pickle.dumps(idx))
        assert clone.bits == idx.bits == {
            v: 1 << i for i, v in enumerate(idx.nodes)
        }

    def test_graph_ships_warm_index(self):
        g = wheel_graph(6)
        g.node_index()  # force construction before pickling
        clone = pickle.loads(pickle.dumps(g))
        assert clone._index is not None
        assert clone._index == g.node_index()
        assert clone.node_index() is clone._index

    def test_cold_graph_pickles_without_index(self):
        g = wheel_graph(6)
        clone = pickle.loads(pickle.dumps(g))
        assert clone == g
        assert clone.node_index() == NodeIndex(g)
