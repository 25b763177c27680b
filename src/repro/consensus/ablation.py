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
faulty relay forge a "reliably received" value — measured directly in
:func:`reliable_value_with_threshold`.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Tuple

from ..graphs import Graph, has_disjoint_path_packing
from ..net.adversary import Adversary, FaultSpec, _WrapperProtocol
from ..net.messages import FloodMessage, ValuePayload
from ..net.node import Protocol
from .algorithm1 import ExactConsensusProtocol
from .flooding import FloodInstance

PathTuple = Tuple[Hashable, ...]


class AblatedExactConsensus(ExactConsensusProtocol):
    """Algorithm 1 with flooding rule (ii) disabled (ablation subject).

    Every other rule — path validity, self-exclusion, defaults — stays
    intact, isolating the contribution of the duplicate-slot rule.
    """

    def on_round(self, ctx) -> None:
        r = ctx.round_no
        if r > self.total_rounds:
            return
        phase_idx = (r - 1) // self.rounds_per_phase
        within = (r - 1) % self.rounds_per_phase + 1
        if within == 1:
            self._flood = FloodInstance(
                self.graph,
                self.me,
                phase=("exact", phase_idx),
                default_payload=ValuePayload(1),
                validator=self._valid_payload,
                enable_rule_ii=False,
            )
            self._flood.initiate(ctx, ValuePayload(self.gamma))
        else:
            assert self._flood is not None
            self._flood.process_round(ctx)
        if within == self.rounds_per_phase:
            self._finish_phase(phase_idx)
            self.gamma_history.append(self.gamma)
            if phase_idx == len(self.pairs) - 1:
                self._output = self.gamma


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


def reliable_value_with_threshold(
    graph: Graph,
    threshold: int,
    me: Hashable,
    delivered: Dict[PathTuple, object],
    origin: Hashable,
) -> Optional[int]:
    """Definition C.1 case (3) with a configurable path threshold.

    The paper requires ``f + 1`` disjoint paths; the ablation benchmarks
    show that at threshold ``f`` a single faulty relay can forge a
    reliable receipt (and that honest receipt still works), i.e. the
    ``+1`` is exactly the safety margin.
    """
    if origin == me:
        own = delivered.get((me,))
        return own.value if isinstance(own, ValuePayload) else None
    direct = delivered.get((origin, me))
    if isinstance(direct, ValuePayload):
        return direct.value
    for delta in (0, 1):
        paths = [
            p
            # repro: allow[REPRO001] delivered's insertion order is the
            # deterministic flood-processing order, and the consumer only
            # checks packing *existence* (order-insensitive).
            for p, payload in delivered.items()
            if len(p) >= 2
            and p[0] == origin
            and isinstance(payload, ValuePayload)
            and payload.value == delta
        ]
        if has_disjoint_path_packing(paths, threshold, mode="uv"):
            return delta
    return None
