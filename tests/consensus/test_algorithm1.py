"""Algorithm 1: correctness under every modeled adversary, plus the
proof invariants (Lemmas 5.2, 5.3) observed on live executions."""

import pytest

from repro.analysis import consensus_sweep
from repro.consensus import (
    Algorithm1Protocol,
    algorithm1_factory,
    candidate_fault_sets,
    candidate_pairs,
    phase_count,
    run_consensus,
)
from repro.graphs import complete_graph, cycle_graph, paper_figure_1a, petersen_graph
from repro.net import (
    CrashAdversary,
    DropForwardAdversary,
    EventDrivenNetwork,
    LyingInitAdversary,
    RandomAdversary,
    SilentAdversary,
    TamperForwardAdversary,
    WrongInputAdversary,
    local_broadcast_model,
    standard_adversaries,
)
from repro.net.adversary import FaultSpec


class TestPhaseEnumeration:
    def test_candidate_sets_count(self, c5):
        sets = candidate_fault_sets(c5, 1)
        assert len(sets) == 6  # empty + 5 singletons
        assert sets[0] == frozenset()

    def test_candidate_sets_deterministic(self, c5):
        assert candidate_fault_sets(c5, 1) == candidate_fault_sets(c5, 1)

    def test_candidate_pairs_t0_matches_algorithm1(self, c5):
        pairs = candidate_pairs(c5, 1, 0)
        assert [p[0] for p in pairs] == candidate_fault_sets(c5, 1)
        assert all(p[1] == frozenset() for p in pairs)

    @pytest.mark.parametrize(
        "n,f,expected", [(5, 1, 6), (5, 2, 16), (8, 2, 37), (10, 3, 176)]
    )
    def test_phase_count_closed_form(self, n, f, expected):
        assert phase_count(n, f) == expected

    def test_phase_count_hybrid(self):
        # n=4, f=1, t=1: (F,T) pairs = T=∅: 1+4 = 5; |T|=1: 4·1 = 4.
        assert phase_count(4, 1, 1) == 9

    def test_total_rounds_budget(self, c5):
        p = Algorithm1Protocol(c5, 0, 1, 0)
        assert p.total_rounds == 6 * 5

    def test_bad_input_rejected(self, c5):
        with pytest.raises(ValueError):
            Algorithm1Protocol(c5, 0, 1, 2)


class TestNoFaults:
    @pytest.mark.parametrize("inputs_name", ["all-zero", "all-one", "mixed"])
    def test_consensus_without_faults(self, c5, inputs_name):
        patterns = {
            "all-zero": {v: 0 for v in c5.nodes},
            "all-one": {v: 1 for v in c5.nodes},
            "mixed": {v: v % 2 for v in c5.nodes},
        }
        res = run_consensus(c5, algorithm1_factory(c5, 1), patterns[inputs_name], f=1)
        assert res.consensus
        if inputs_name != "mixed":
            assert res.decision == patterns[inputs_name][0]

    def test_f_zero_trivial(self):
        g = cycle_graph(3)
        res = run_consensus(g, algorithm1_factory(g, 0), {0: 1, 1: 0, 2: 1}, f=0)
        assert res.consensus


class TestSingleFault:
    @pytest.mark.parametrize(
        "adversary",
        standard_adversaries(seed=11),
        ids=lambda a: a.name,
    )
    @pytest.mark.parametrize("faulty", [0, 2])
    def test_c5_tolerates_every_adversary(self, c5, adversary, faulty):
        inputs = {v: v % 2 for v in c5.nodes}
        res = run_consensus(
            c5, algorithm1_factory(c5, 1), inputs, f=1,
            faulty=[faulty], adversary=adversary,
        )
        assert res.consensus, (adversary.name, faulty)

    def test_validity_forced_when_honest_agree(self, c5):
        """All honest inputs 0 and a faulty node pushing 1: output must be 0."""
        inputs = {v: 0 for v in c5.nodes}
        inputs[3] = 1
        res = run_consensus(
            c5, algorithm1_factory(c5, 1), inputs, f=1,
            faulty=[3], adversary=LyingInitAdversary(),
        )
        assert res.consensus and res.decision == 0

    def test_c4_is_also_feasible_for_f1(self, c4):
        res = run_consensus(
            c4, algorithm1_factory(c4, 1), {v: v % 2 for v in c4.nodes}, f=1,
            faulty=[1], adversary=TamperForwardAdversary(),
        )
        assert res.consensus

    def test_fewer_faults_than_f_allowed(self, c5):
        res = run_consensus(
            c5, algorithm1_factory(c5, 1), {v: 1 for v in c5.nodes}, f=1,
        )
        assert res.consensus and res.decision == 1


class TestTwoFaults:
    """f = 2 on K5 = K_{2f+1}, the smallest legal graph."""

    @pytest.mark.parametrize(
        "adversary",
        [TamperForwardAdversary(), SilentAdversary(), LyingInitAdversary(),
         RandomAdversary(seed=3)],
        ids=lambda a: a.name,
    )
    def test_k5_two_faults(self, k5, adversary):
        inputs = {0: 0, 1: 1, 2: 0, 3: 1, 4: 0}
        res = run_consensus(
            k5, algorithm1_factory(k5, 2), inputs, f=2,
            faulty=[1, 3], adversary=adversary,
        )
        assert res.consensus

    def test_k5_validity_all_zero(self, k5):
        inputs = {v: 0 for v in k5.nodes}
        res = run_consensus(
            k5, algorithm1_factory(k5, 2), inputs, f=2,
            faulty=[0, 4], adversary=LyingInitAdversary(),
        )
        assert res.consensus and res.decision == 0


class TestExhaustiveSweep:
    def test_c5_full_battery(self, c5):
        """Every fault position x every adversary x every input pattern."""
        report = consensus_sweep(
            c5, algorithm1_factory(c5, 1), f=1, seed=5,
        )
        assert report.runs == 5 * len(standard_adversaries()) * 4
        assert report.all_consensus, report.failures[:3]

    @pytest.mark.slow
    def test_petersen_sampled_battery(self, petersen):
        report = consensus_sweep(
            petersen,
            algorithm1_factory(petersen, 1),
            f=1,
            fault_limit=3,
            patterns=["alternating", "all-one"],
            seed=7,
        )
        assert report.all_consensus, report.failures[:3]


class TestProofInvariants:
    def _run_with_history(self, graph, f, inputs, faulty, adversary):
        fac = algorithm1_factory(graph, f)
        protos = {}
        ch = local_broadcast_model()
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
        net.run(next(iter(protos.values())).total_rounds if not faulty
                else protos[sorted(set(graph.nodes) - set(faulty))[0]].total_rounds)
        return protos

    def test_lemma_5_2_state_always_some_honest_start_state(self, c5):
        """γ_v at each phase end equals some honest node's state at the
        phase start (Lemma 5.2) — checked on a live adversarial run."""
        inputs = {0: 0, 1: 1, 2: 0, 3: 1, 4: 0}
        faulty = {3}
        protos = self._run_with_history(
            c5, 1, inputs, faulty, TamperForwardAdversary()
        )
        honest = sorted(c5.nodes - faulty)
        histories = {v: protos[v].gamma_history for v in honest}
        phases = len(histories[honest[0]]) - 1
        for k in range(phases):
            starts = {histories[u][k] for u in honest}
            for v in honest:
                assert histories[v][k + 1] in starts

    def test_lemma_5_3_agreement_after_true_fault_phase(self, c5):
        """Once the phase with F = actual faults has run, all honest
        states agree and never change again (Lemma 5.3 + 5.2)."""
        inputs = {0: 0, 1: 1, 2: 0, 3: 1, 4: 0}
        faulty = {3}
        protos = self._run_with_history(
            c5, 1, inputs, faulty, TamperForwardAdversary()
        )
        pairs = candidate_fault_sets(c5, 1)
        true_phase = pairs.index(frozenset(faulty))
        honest = sorted(c5.nodes - faulty)
        for k in range(true_phase + 1, len(pairs) + 1):
            states = {protos[v].gamma_history[k] for v in honest}
            assert len(states) == 1

    def test_outputs_reported_only_at_end(self, c5):
        proto = Algorithm1Protocol(c5, 0, 1, 1)
        assert proto.output() is None
        assert not proto.finished
