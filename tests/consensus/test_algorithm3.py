"""Algorithm 3 (hybrid model): equivocation budget t, bridging the models."""

import pytest

from repro.consensus import (
    Algorithm1Protocol,
    Algorithm3Protocol,
    algorithm3_factory,
    candidate_pairs,
    check_hybrid,
    run_consensus,
)
from repro.graphs import complete_graph
from repro.net import (
    EquivocatingAdversary,
    LyingInitAdversary,
    SilentAdversary,
    TamperForwardAdversary,
    hybrid_model,
    local_broadcast_model,
)
from composite_adversary import CompositeAdversary


class TestStructure:
    def test_pair_budget_respected(self, k4):
        pairs = candidate_pairs(k4, 2, 1)
        for fault_set, equiv_set in pairs:
            assert len(equiv_set) <= 1
            assert len(fault_set) <= 2 - len(equiv_set)
            assert not fault_set & equiv_set

    def test_t0_behaves_like_algorithm1(self, c5):
        a3 = Algorithm3Protocol(c5, 0, 1, 0, 1)
        a1 = Algorithm1Protocol(c5, 0, 1, 1)
        assert a3.pairs == a1.pairs
        assert a3.total_rounds == a1.total_rounds

    def test_invalid_t(self, k4):
        with pytest.raises(ValueError):
            Algorithm3Protocol(k4, 0, 1, 2, 0)


class TestHybridConsensus:
    def test_k4_f1_t1_feasible(self, k4):
        assert check_hybrid(k4, 1, 1).feasible

    @pytest.mark.parametrize("faulty", [0, 2])
    def test_k4_equivocator(self, k4, faulty):
        inputs = {v: v % 2 for v in k4.nodes}
        res = run_consensus(
            k4, algorithm3_factory(k4, 1, 1), inputs, f=1,
            faulty=[faulty], adversary=EquivocatingAdversary(),
            channel=hybrid_model({faulty}),
        )
        assert res.consensus

    def test_k4_validity_with_equivocator(self, k4):
        inputs = {v: 1 for v in k4.nodes}
        res = run_consensus(
            k4, algorithm3_factory(k4, 1, 1), inputs, f=1,
            faulty=[3], adversary=EquivocatingAdversary(),
            channel=hybrid_model({3}),
        )
        assert res.consensus and res.decision == 1

    def test_k4_non_equivocating_fault_under_hybrid(self, k4):
        """A fault that merely tampers (no equivocation) is also covered."""
        res = run_consensus(
            k4, algorithm3_factory(k4, 1, 1), {v: 0 for v in k4.nodes}, f=1,
            faulty=[1], adversary=TamperForwardAdversary(),
            channel=hybrid_model(set()),
        )
        assert res.consensus and res.decision == 0

    def test_t0_run_equals_local_broadcast_model(self, c5):
        res = run_consensus(
            c5, algorithm3_factory(c5, 1, 0), {v: v % 2 for v in c5.nodes},
            f=1, faulty=[2], adversary=TamperForwardAdversary(),
            channel=local_broadcast_model(),
        )
        assert res.consensus

    @pytest.mark.slow
    def test_k6_f2_t1_mixed_faults(self):
        """One equivocating + one broadcast-restricted fault on K6
        (κ = 5 ≥ 4, every small set has ≥ 5 = 2f+1 neighbors)."""
        g = complete_graph(6)
        assert check_hybrid(g, 2, 1).feasible
        adversary = CompositeAdversary(
            {0: EquivocatingAdversary(), 3: TamperForwardAdversary()}
        )
        res = run_consensus(
            g, algorithm3_factory(g, 2, 1), {v: v % 2 for v in g.nodes},
            f=2, faulty=[0, 3], adversary=adversary,
            channel=hybrid_model({0}),
        )
        assert res.consensus

    def test_silent_equivocator_slot(self, k4):
        res = run_consensus(
            k4, algorithm3_factory(k4, 1, 1), {v: 1 for v in k4.nodes}, f=1,
            faulty=[2], adversary=SilentAdversary(),
            channel=hybrid_model({2}),
        )
        assert res.consensus and res.decision == 1

    def test_lying_equivocator(self, k4):
        res = run_consensus(
            k4, algorithm3_factory(k4, 1, 1), {v: 0 for v in k4.nodes}, f=1,
            faulty=[1], adversary=LyingInitAdversary(),
            channel=hybrid_model({1}),
        )
        assert res.consensus and res.decision == 0
