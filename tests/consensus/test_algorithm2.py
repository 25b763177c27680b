"""Algorithm 2 (Appendix C): O(n) rounds on 2f-connected graphs.

Covers consensus under the adversary battery, the type A/B mechanics,
fault-localization soundness, and the appendix lemmas (C.2, C.4, C.5)
observed on live runs.
"""

import pytest

from repro.analysis import consensus_sweep
from repro.consensus import (
    Algorithm2Protocol,
    algorithm2_factory,
    majority,
    run_consensus,
)
from repro.graphs import complete_graph, cycle_graph, paper_figure_1b
from repro.net import (
    EventDrivenNetwork,
    FaultSpec,
    LyingInitAdversary,
    RandomAdversary,
    SilentAdversary,
    TamperForwardAdversary,
    local_broadcast_model,
    standard_adversaries,
)


def run_instrumented(graph, f, inputs, faulty, adversary):
    """Run and return the protocol objects for state inspection."""
    fac = algorithm2_factory(graph, f)
    ch = local_broadcast_model()
    protos = {}
    for v in sorted(graph.nodes):
        if v in faulty:
            spec = FaultSpec(
                node=v, graph=graph, channel=ch, input_value=inputs[v],
                f=f, faulty=frozenset(faulty), honest_factory=fac,
            )
            protos[v] = adversary.build(spec)
        else:
            protos[v] = fac(v, inputs[v])
    net = EventDrivenNetwork(graph, protos, channel=ch)
    net.run(3 * graph.n)
    return protos, net


class TestMajority:
    def test_majority_basic(self):
        assert majority([1, 1, 0]) == 1
        assert majority([0, 0, 1]) == 0

    def test_tie_decides_zero(self):
        assert majority([0, 1]) == 0
        assert majority([]) == 0


class TestConsensus:
    @pytest.mark.parametrize(
        "adversary", standard_adversaries(seed=2), ids=lambda a: a.name
    )
    @pytest.mark.parametrize("faulty", [1, 3])
    def test_c4_every_adversary(self, c4, adversary, faulty):
        inputs = {v: v % 2 for v in c4.nodes}
        res = run_consensus(
            c4, algorithm2_factory(c4, 1), inputs, f=1,
            faulty=[faulty], adversary=adversary,
        )
        assert res.consensus, (adversary.name, faulty)

    def test_c5_tamper(self, c5):
        res = run_consensus(
            c5, algorithm2_factory(c5, 1), {v: 0 for v in c5.nodes}, f=1,
            faulty=[2], adversary=TamperForwardAdversary(),
        )
        assert res.consensus and res.decision == 0

    @pytest.mark.parametrize(
        "adversary",
        [TamperForwardAdversary(), SilentAdversary(), LyingInitAdversary(),
         RandomAdversary(seed=6)],
        ids=lambda a: a.name,
    )
    def test_k5_two_faults(self, k5, adversary):
        inputs = {0: 0, 1: 1, 2: 0, 3: 1, 4: 1}
        res = run_consensus(
            k5, algorithm2_factory(k5, 2), inputs, f=2,
            faulty=[0, 3], adversary=adversary,
        )
        assert res.consensus

    def test_exhaustive_battery_c4(self, c4):
        report = consensus_sweep(c4, algorithm2_factory(c4, 1), f=1, seed=3)
        assert report.all_consensus, report.failures[:3]

    @pytest.mark.slow
    def test_fig1b_f2_battery_sampled(self, fig1b):
        report = consensus_sweep(
            fig1b, algorithm2_factory(fig1b, 2), f=2,
            fault_limit=2, patterns=["split"], seed=4,
        )
        assert report.all_consensus, report.failures[:3]

    def test_no_faults(self, c4):
        res = run_consensus(
            c4, algorithm2_factory(c4, 1), {0: 1, 1: 1, 2: 0, 3: 1}, f=1
        )
        assert res.consensus and res.decision == 1


class TestRoundComplexity:
    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_exactly_3n_rounds(self, n):
        g = cycle_graph(n) if n <= 5 else complete_graph(n)
        res = run_consensus(
            g, algorithm2_factory(g, 1), {v: 0 for v in g.nodes}, f=1,
            faulty=[0], adversary=SilentAdversary(),
        )
        assert res.consensus
        assert res.rounds <= 3 * n

    def test_budget_attribute(self, c4):
        assert Algorithm2Protocol(c4, 0, 1, 0).total_rounds == 12


class TestFaultLocalization:
    def test_tamperer_detected_and_type_a(self, c4):
        protos, _net = run_instrumented(
            c4, 1, {v: (1 if v != 0 else 0) for v in c4.nodes},
            faulty={2}, adversary=TamperForwardAdversary(),
        )
        for v in set(c4.nodes) - {2}:
            assert protos[v].detected == {2}
            assert protos[v].node_type == "A"

    def test_detection_is_sound(self, c5):
        """Detected sets only ever contain actually faulty nodes."""
        for adversary in standard_adversaries(seed=9):
            protos, _ = run_instrumented(
                c5, 1, {v: v % 2 for v in c5.nodes},
                faulty={4}, adversary=adversary,
            )
            for v in set(c5.nodes) - {4}:
                assert protos[v].detected <= {4}, adversary.name

    def test_benign_fault_leaves_everyone_type_b(self, c4):
        """A faulty node that only lies about its input is consistent:
        nobody can localize it, everyone stays type B — and consensus
        still holds via the majority of reliable values."""
        protos, _ = run_instrumented(
            c4, 1, {v: 1 for v in c4.nodes},
            faulty={1}, adversary=LyingInitAdversary(),
        )
        for v in set(c4.nodes) - {1}:
            assert protos[v].node_type == "B"
            assert protos[v].detected == set()

    def test_mixed_types_still_agree(self, c5):
        """Tampering on C5 leaves some nodes type A and possibly some
        type B; their decisions must coincide regardless."""
        protos, _ = run_instrumented(
            c5, 1, {v: 0 for v in c5.nodes},
            faulty={3}, adversary=TamperForwardAdversary(),
        )
        outputs = {protos[v].output() for v in set(c5.nodes) - {3}}
        assert len(outputs) == 1


class TestAppendixLemmas:
    def test_lemma_c2_faulty_transmissions_reliably_received(self, c4):
        """Every honest node reliably receives a (tampering) faulty
        node's value — Definition C.1 case 3 kicks in."""
        protos, _ = run_instrumented(
            c4, 1, {v: 1 for v in c4.nodes},
            faulty={2}, adversary=LyingInitAdversary(),
        )
        for v in set(c4.nodes) - {2}:
            assert 2 in protos[v].reliable_values

    def test_lemma_c5_at_least_2f_plus_own(self, c4, k5):
        for g, f in [(c4, 1), (k5, 2)]:
            protos, _ = run_instrumented(
                g, f, {v: 0 for v in g.nodes},
                faulty=set(), adversary=SilentAdversary(),
            )
            for v in g.nodes:
                assert len(protos[v].reliable_values) >= 2 * f + 1

    def test_lemma_c4_type_b_nodes_share_reliable_sets(self, c5):
        for adversary in [TamperForwardAdversary(), SilentAdversary(),
                          RandomAdversary(seed=1)]:
            protos, _ = run_instrumented(
                c5, 1, {v: v % 2 for v in c5.nodes},
                faulty={1}, adversary=adversary,
            )
            type_b = [
                v for v in set(c5.nodes) - {1}
                if protos[v].node_type == "B"
            ]
            sets = {frozenset(protos[v].reliable_values.items()) for v in type_b}
            assert len(sets) <= 1, adversary.name
