"""Path objects, enumeration, and the disjoint-packing decision.

Every packing case is decided twice: by the shipped bitmask decider and
by the frozenset reference in ``tests/packing_oracle.py``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from packing_oracle import has_disjoint_path_packing, max_disjoint_path_packing
from repro.graphs import (
    GraphError,
    all_simple_paths,
    complete_graph,
    concat_path,
    count_simple_paths,
    cycle_graph,
    has_disjoint_mask_packing,
    internal_nodes,
    internally_disjoint,
    is_fault_free,
    is_path,
    max_disjoint_paths,
    paper_figure_1b,
    path_excludes,
    random_connected_graph,
    set_paths_disjoint,
)


class TestPathPredicates:
    def test_is_path_basic(self, c5):
        assert is_path(c5, (0, 1, 2))
        assert is_path(c5, (0,))
        assert not is_path(c5, (0, 2))      # not adjacent
        assert not is_path(c5, (0, 1, 0))   # repeat
        assert not is_path(c5, ())          # empty
        assert not is_path(c5, (0, 99))     # unknown node

    def test_internal_nodes(self):
        assert internal_nodes((0, 1, 2, 3)) == (1, 2)
        assert internal_nodes((0, 1)) == ()
        assert internal_nodes((0,)) == ()

    def test_path_excludes_internal_only(self):
        # Endpoints may belong to the excluded set (paper, Section 3).
        assert path_excludes((0, 1, 2), {0, 2})
        assert not path_excludes((0, 1, 2), {1})
        assert path_excludes((0, 2), {0, 1, 2})

    def test_is_fault_free(self):
        assert is_fault_free((0, 1, 2), faulty={0, 2})
        assert not is_fault_free((0, 1, 2), faulty={1})

    def test_internally_disjoint(self):
        assert internally_disjoint((0, 1, 2), (0, 3, 2))
        assert not internally_disjoint((0, 1, 2), (4, 1, 5))

    def test_set_paths_disjoint(self):
        assert set_paths_disjoint((1, 2, 9), (3, 4, 9))
        assert not set_paths_disjoint((1, 2, 9), (2, 5, 9))
        assert not set_paths_disjoint((1, 2, 9), (1, 9))

    def test_set_paths_disjoint_requires_common_sink(self):
        with pytest.raises(GraphError):
            set_paths_disjoint((1, 2), (3, 4))

    def test_concat_path(self):
        assert concat_path((0, 1), 2) == (0, 1, 2)
        assert concat_path((), 5) == (5,)


class TestEnumeration:
    def test_cycle_has_two_paths_between_any_pair(self, c5):
        for u in range(5):
            for v in range(u + 1, 5):
                assert count_simple_paths(c5, u, v) == 2

    def test_complete_graph_path_count(self):
        # K_4: paths 0->1 = 1 direct + 2 length-2 + 2 length-3 = 5.
        assert count_simple_paths(complete_graph(4), 0, 1) == 5

    def test_all_paths_are_simple_and_valid(self, fig1b):
        paths = all_simple_paths(fig1b, 0, 5)
        assert paths
        for p in paths:
            assert is_path(fig1b, p)
            assert p[0] == 0 and p[-1] == 5
        assert len(set(paths)) == len(paths)

    def test_trivial_path(self, c5):
        assert all_simple_paths(c5, 3, 3) == [(3,)]

    def test_max_length_cap(self, c5):
        short = all_simple_paths(c5, 0, 2, max_length=3)
        assert short == [(0, 1, 2)]

    def test_avoid_internal(self, c5):
        paths = all_simple_paths(c5, 0, 2, avoid_internal=[1])
        assert paths == [(0, 4, 3, 2)]

    def test_avoid_internal_does_not_block_endpoints(self, c5):
        paths = all_simple_paths(c5, 0, 2, avoid_internal=[0, 2])
        assert len(paths) == 2

    def test_unknown_endpoint(self, c5):
        with pytest.raises(GraphError):
            all_simple_paths(c5, 0, 44)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 1000))
    def test_enumeration_bounded_by_menger(self, seed):
        # The max disjoint packing over all simple paths equals Menger's
        # count: flow and enumeration must agree.
        g = random_connected_graph(n=6, extra_edges=seed % 6, seed=seed)
        nodes = sorted(g.nodes)
        u, v = nodes[0], nodes[-1]
        paths = all_simple_paths(g, u, v)
        assert max_disjoint_path_packing(paths, mode="uv") == max_disjoint_paths(
            g, u, v
        )


def label_masks(paths, mode):
    """Each path's packing currency (internal nodes for ``uv``, all but
    the sink for ``set``) as a bitmask over a label table built here."""
    bits = {}
    masks = []
    for p in paths:
        mask = 0
        for v in internal_nodes(p) if mode == "uv" else p[:-1]:
            mask |= 1 << bits.setdefault(v, len(bits))
        masks.append(mask)
    return masks


def packs(paths, k, mode="uv"):
    """The reference decision, checked against the mask decider."""
    expected = has_disjoint_path_packing(paths, k, mode=mode)
    assert has_disjoint_mask_packing(label_masks(paths, mode), k) == expected
    return expected


class TestPacking:
    def test_threshold_trivial(self):
        assert packs([], 0)
        assert not packs([], 1)

    def test_uv_mode(self):
        paths = [(0, 1, 2), (0, 3, 2), (0, 1, 3, 2)]
        assert packs(paths, 2, mode="uv")
        assert not packs(paths, 3, mode="uv")

    def test_direct_edges_never_conflict(self):
        # Direct edges have no internal nodes: all mutually disjoint (uv mode).
        paths = [(0, 2)] * 4
        assert packs(paths, 4, mode="uv")

    def test_set_mode_counts_endpoints(self):
        paths = [(1, 9), (1, 2, 9)]  # share U-side endpoint 1
        assert not packs(paths, 2, mode="set")
        paths = [(1, 9), (2, 9), (3, 4, 9)]
        assert packs(paths, 3, mode="set")

    def test_unknown_mode(self):
        with pytest.raises(GraphError):
            has_disjoint_path_packing([(0, 1)], 1, mode="zigzag")

    def test_max_packing_binary_search(self):
        paths = [(0, 1, 5), (0, 2, 5), (0, 3, 5), (0, 1, 2, 5)]
        assert max_disjoint_path_packing(paths, mode="uv") == 3

    def test_packing_needs_search_not_greedy(self):
        # A greedy shortest-first choice would pick (0, 1, 9) and (0, 2, 9)
        # is blocked... construct a case where one specific pairing works.
        paths = [
            (0, 1, 2, 9),   # blocks both below
            (0, 1, 9),
            (0, 2, 9),
        ]
        assert packs(paths, 2, mode="uv")
        assert not packs(paths, 3, mode="uv")

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 1000))
    def test_packing_monotone_in_threshold(self, seed):
        g = random_connected_graph(n=6, extra_edges=seed % 5, seed=seed)
        nodes = sorted(g.nodes)
        paths = all_simple_paths(g, nodes[0], nodes[-1])
        best = max_disjoint_path_packing(paths, mode="uv")
        for k in range(best + 1):
            assert packs(paths, k, mode="uv")
        assert not packs(paths, best + 1, mode="uv")
        index = g.node_index()
        masks = [index.mask_of(p[1:-1]) for p in paths]
        assert has_disjoint_mask_packing(masks, best)
        assert not has_disjoint_mask_packing(masks, best + 1)
