"""Algorithm 2 vs its phase-specific attack surface and mixed faults."""

import pytest

from repro.consensus import algorithm2_factory, run_consensus
from repro.graphs import complete_graph, cycle_graph
from repro.net import (
    CrashAdversary,
    DecisionForgeAdversary,
    LyingReporterAdversary,
    SilentReporterAdversary,
    TamperForwardAdversary,
    algorithm2_attack_battery,
)
from repro.net.adversary import CompositeAdversary


class TestPhaseSpecificAttacks:
    @pytest.mark.parametrize(
        "adversary", algorithm2_attack_battery(), ids=lambda a: a.name
    )
    @pytest.mark.parametrize("inputs_kind", ["mixed", "unanimous"])
    def test_c4_survives(self, c4, adversary, inputs_kind):
        inputs = (
            {v: v % 2 for v in c4.nodes}
            if inputs_kind == "mixed"
            else {v: 1 for v in c4.nodes}
        )
        res = run_consensus(
            c4, algorithm2_factory(c4, 1), inputs, f=1,
            faulty=[2], adversary=adversary,
        )
        assert res.consensus, adversary.name
        if inputs_kind == "unanimous":
            assert res.decision == 1

    @pytest.mark.parametrize(
        "adversary", algorithm2_attack_battery(), ids=lambda a: a.name
    )
    def test_c5_survives(self, c5, adversary):
        inputs = {v: 0 for v in c5.nodes}
        res = run_consensus(
            c5, algorithm2_factory(c5, 1), inputs, f=1,
            faulty=[1], adversary=adversary,
        )
        assert res.consensus and res.decision == 0

    def test_forged_decision_never_adopted(self, c4):
        """A forged decision of 1 cannot flip a forced-0 instance."""
        res = run_consensus(
            c4, algorithm2_factory(c4, 1), {v: 0 for v in c4.nodes}, f=1,
            faulty=[3], adversary=DecisionForgeAdversary(value=1),
        )
        assert res.consensus and res.decision == 0

    def test_lying_reporter_cannot_frame_honest_nodes(self, c4):
        """Detection soundness against active report forgery."""
        from repro.net import EventDrivenNetwork, FaultSpec
        from repro.net.channels import local_broadcast_model

        fac = algorithm2_factory(c4, 1)
        ch = local_broadcast_model()
        protos = {}
        for v in sorted(c4.nodes):
            if v == 1:
                spec = FaultSpec(
                    node=v, graph=c4, channel=ch, input_value=1, f=1,
                    faulty=frozenset({1}), honest_factory=fac,
                )
                protos[v] = LyingReporterAdversary().build(spec)
            else:
                protos[v] = fac(v, 0)
        net = EventDrivenNetwork(c4, protos, channel=ch)
        net.run(12)
        for v in {0, 2, 3}:
            assert protos[v].detected <= {1}


class TestMixedMultiFault:
    def test_k5_f2_mixed_behaviors(self, k5):
        adversary = CompositeAdversary(
            {1: TamperForwardAdversary(), 4: SilentReporterAdversary()}
        )
        res = run_consensus(
            k5, algorithm2_factory(k5, 2), {v: v % 2 for v in k5.nodes},
            f=2, faulty=[1, 4], adversary=adversary,
        )
        assert res.consensus

    def test_k5_f2_forge_and_crash(self, k5):
        adversary = CompositeAdversary(
            {0: DecisionForgeAdversary(), 2: CrashAdversary(crash_round=3)}
        )
        res = run_consensus(
            k5, algorithm2_factory(k5, 2), {v: 1 for v in k5.nodes},
            f=2, faulty=[0, 2], adversary=adversary,
        )
        assert res.consensus and res.decision == 1

    def test_c6_circulant_f2_mixed(self):
        from repro.graphs import circulant_graph

        g = circulant_graph(6, [1, 2])  # 4-connected: 2f for f = 2
        adversary = CompositeAdversary(
            {0: LyingReporterAdversary(), 3: TamperForwardAdversary()}
        )
        res = run_consensus(
            g, algorithm2_factory(g, 2), {v: v % 2 for v in g.nodes},
            f=2, faulty=[0, 3], adversary=adversary,
        )
        assert res.consensus


class TestEarlyFabricationSoundness:
    """Regression: a faulty node fabricating a correct-valued forward
    *ahead of schedule* must not get its honest downstream victims
    blamed.  Found by hypothesis (C4, RandomAdversary seed 562, faulty
    node 3): the honest neighbor accepted the early copy, forwarded one
    round early, rule (ii) swallowed the on-schedule duplicate, and the
    exact-round omission check marked the honest node faulty — two
    honest nodes each 'detected' two faults with f = 1 and disagreed."""

    def test_seed_562_falsifying_example(self, c4):
        from repro.net import RandomAdversary

        seed, faulty = 562, 3
        inputs = {v: (seed >> v) & 1 for v in c4.nodes}
        res = run_consensus(
            c4, algorithm2_factory(c4, 1), inputs, f=1,
            faulty=[faulty], adversary=RandomAdversary(seed=seed),
        )
        assert res.consensus

    def test_detection_never_exceeds_f_and_never_blames_honest(self, c4):
        """Every honest node's ``detected`` set holds only the faulty
        node.  Seed 38 (faulty node 3) blames an honest node under the
        exact-round deadline while the run still agrees, so only this
        check, not agreement, sees it."""
        from repro.net import RandomAdversary

        for seed in (38, 562, 563, 1201, 4077, 9900):
            for faulty in range(4):
                inputs = {v: (seed >> v) & 1 for v in c4.nodes}
                factory = algorithm2_factory(c4, 1)
                built = {}

                def keep(node, value, factory=factory, built=built):
                    built[node] = factory(node, value)
                    return built[node]

                res = run_consensus(
                    c4, keep, inputs, f=1,
                    faulty=[faulty], adversary=RandomAdversary(seed=seed),
                )
                for v in sorted(c4.nodes - {faulty}):
                    detected = built[v].detected
                    assert detected <= {faulty}, (seed, faulty, v, detected)
                    assert len(detected) <= 1, (seed, faulty, v, detected)
                assert res.consensus, (seed, faulty)

    def test_early_fabricator_is_the_one_detected(self, c4):
        """A surgical early fabricator: in round 1, alongside its honest
        initiation, it also broadcasts a forward of its neighbor's true
        value — physically impossible for an honest node.  Localization
        must blame the fabricator, never the honest forwarders."""
        from repro.consensus.algorithm2 import Algorithm2Protocol
        from repro.net import Adversary, FloodMessage, ValuePayload
        from repro.net.adversary import _WrapperProtocol

        class EarlyFabricator(Adversary):
            name = "early-fabricate"

            def build(self, spec):
                neighbor = min(spec.graph.neighbors(spec.node))

                class _Early(_WrapperProtocol):
                    def transform(self, outbox, ctx):
                        if ctx.round_no == 1:
                            outbox = outbox + [(
                                FloodMessage(
                                    Algorithm2Protocol.PHASE1,
                                    ValuePayload(0),
                                    (neighbor,),
                                ),
                                None,
                            )]
                        return outbox

                return _Early(spec.honest())

        inputs = {0: 0, 1: 1, 2: 0, 3: 0}
        factory = algorithm2_factory(c4, 1)
        res = run_consensus(
            c4, factory, inputs, f=1, faulty=[3],
            adversary=EarlyFabricator(),
        )
        assert res.consensus
