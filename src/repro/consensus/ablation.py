"""Ablations: remove a design choice, watch the guarantee fall over.

The paper's flooding rule (ii) ("discard a second message with the same
path from the same sender") is what turns local broadcast into an
equivocation-proof medium: it pins every ``(sender, Π)`` slot to one
value, identically at all neighbors.  :class:`AblatedExactConsensus`
runs Algorithm 1 with that rule disabled; :class:`ReInitAdversary`
exploits the gap by re-initiating its flood with the opposite value late
in the phase, so nearby nodes overwrite the slot while distant nodes
never hear the update — honest nodes leave step (a) with *different*
views of the faulty node's value, which is precisely the ``Z_v = Z``
invariant Lemma 5.3 needs.

The second ablation attacks Definition C.1's threshold: accepting a
value on ``f`` (rather than ``f + 1``) node-disjoint paths lets a single
faulty relay forge a "reliably received" value — measured directly by
calling :func:`~repro.consensus.reliable.reliable_value` with ``f``
one lower than the fault bound.
"""

from __future__ import annotations

from typing import Optional

from ..net.adversary import Adversary, FaultSpec, _WrapperProtocol
from ..net.messages import FloodMessage, ValuePayload
from ..net.node import Protocol
from .algorithm1 import ExactConsensusProtocol


class AblatedExactConsensus(ExactConsensusProtocol):
    """Algorithm 1 with flooding rule (ii) disabled (ablation subject).

    Every other rule — path validity, self-exclusion, defaults — stays
    intact, isolating the contribution of the duplicate-slot rule.
    """

    enable_rule_ii = False


class ReInitAdversary(Adversary):
    """Re-initiates each phase's flood with the flipped value, late.

    Under rule (ii) the second initiation is discarded everywhere
    identically (the slot is taken).  Without rule (ii) the update
    reaches nodes near the faulty node before the phase ends but not the
    distant ones — splitting the honest nodes' step-(b) views.
    ``delay`` picks how many rounds into the phase the re-initiation
    happens (default: the second-to-last flood round).
    """

    name = "re-init"

    def __init__(self, delay: Optional[int] = None):
        self.delay = delay

    def build(self, spec: FaultSpec) -> Protocol:
        n = spec.graph.n
        delay = self.delay if self.delay is not None else n - 1

        def transform(outbox, ctx):
            result = list(outbox)
            within = (ctx.round_no - 1) % n + 1
            phase_idx = (ctx.round_no - 1) // n
            if within == delay:
                result.append(
                    (
                        FloodMessage(
                            ("exact", phase_idx),
                            ValuePayload(1 - spec.input_value),
                            (),
                        ),
                        None,
                    )
                )
            return result

        return _WrapperProtocol(spec.honest(), transform)
