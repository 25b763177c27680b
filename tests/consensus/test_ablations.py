"""Ablations: the design choices DESIGN.md calls out are load-bearing."""

import pytest

from repro.consensus import (
    ablated_algorithm1_factory,
    algorithm1_factory,
    reliable_value,
    run_consensus,
)
from repro.consensus.ablation import ReInitAdversary
from repro.graphs import cycle_graph, paper_figure_1a
from repro.net import ValuePayload

# The deterministic witness found by searching C5 instances: all honest
# inputs 0, faulty node 0 re-initiating with value 1 two rounds into
# each phase.
WITNESS_INPUTS = {v: 0 for v in range(5)}
WITNESS_FAULTY = 0
WITNESS_DELAY = 2


class TestRuleIIAblation:
    def test_attack_harmless_with_rule_ii(self, c5):
        res = run_consensus(
            c5, algorithm1_factory(c5, 1), WITNESS_INPUTS, f=1,
            faulty=[WITNESS_FAULTY], adversary=ReInitAdversary(WITNESS_DELAY),
        )
        assert res.consensus and res.decision == 0

    def test_attack_breaks_without_rule_ii(self, c5):
        res = run_consensus(
            c5, ablated_algorithm1_factory(c5, 1), WITNESS_INPUTS, f=1,
            faulty=[WITNESS_FAULTY], adversary=ReInitAdversary(WITNESS_DELAY),
        )
        # All honest inputs are 0, yet the ablated protocol outputs 1:
        # the faulty node successfully delivered mismatching views.
        assert not res.validity

    def test_ablated_protocol_fine_without_faults(self, c5):
        """The ablation only matters under attack: fault-free runs of the
        rule-(ii)-less protocol still reach consensus."""
        res = run_consensus(
            c5, ablated_algorithm1_factory(c5, 1),
            {v: v % 2 for v in c5.nodes}, f=1,
        )
        assert res.consensus

    def test_rule_ii_blocks_duplicate_slots_directly(self, c5):
        from repro.consensus import FloodInstance
        from repro.net import Context, FloodMessage, local_broadcast_model

        def ctx(inbox):
            return Context(
                node=1, graph=c5, round_no=2,
                channel=local_broadcast_model(), inbox=inbox,
            )

        first = FloodMessage("p", ValuePayload(0), ())
        second = FloodMessage("p", ValuePayload(1), ())
        guarded = FloodInstance(c5, 1, "p")
        guarded.process_round(ctx([(0, first), (0, second)]))
        assert guarded.delivered[(0, 1)] == ValuePayload(0)

        ablated = FloodInstance(c5, 1, "p", enable_rule_ii=False)
        ablated.process_round(ctx([(0, first), (0, second)]))
        assert ablated.delivered[(0, 1)] == ValuePayload(1)  # overwritten


class TestDefinitionC1ThresholdAblation:
    def _delivered_forged(self):
        """Node 2's true value 1 reaches node 0 on one honest path; a
        single faulty relay (node 1) forges value 0 on the other."""
        return {
            (2, 3, 0): ValuePayload(1),   # honest path
            (2, 1, 0): ValuePayload(0),   # forged by faulty node 1
        }

    # ``reliable_value(graph, f, ...)`` requires f + 1 disjoint paths, so
    # threshold k is f = k - 1.
    def test_paper_threshold_rejects_forgery(self, c4):
        value = reliable_value(
            c4, 1, 0, self._delivered_forged(), 2
        )  # threshold f+1 = 2
        assert value is None  # conflict: nothing reliably received

    def test_lower_threshold_is_spoofable(self, c4):
        value = reliable_value(
            c4, 0, 0, self._delivered_forged(), 2
        )  # threshold f = 1
        # With threshold 1 the forged value 0 qualifies (checked first):
        # a single faulty relay controls the outcome.
        assert value == 0
