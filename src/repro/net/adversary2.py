"""Adversaries targeting Algorithm 2's report and decision phases.

The generic battery in :mod:`repro.net.adversary` attacks the value
floods.  Appendix C's algorithm has two additional attack surfaces that
deserve dedicated behaviors:

* **phase 2 reports** — a faulty reporter can lie about what its
  neighbors transmitted (framing an honest node, or whitewashing a
  faulty one);
* **phase 3 decisions** — a faulty node can flood a forged decision
  value hoping a type-A node adopts it.

Both must be survivable: false claims never reach the f+1 disjoint-path
reliability bar, and forged decisions are filtered because their origin
is localized (or their paths aren't fault-free).  The test suite runs
these against Algorithm 2 alongside the standard battery.
"""

from __future__ import annotations

from typing import Optional

from .adversary import Adversary, FaultSpec, _WrapperProtocol
from .messages import DecisionPayload, FloodMessage, ValuePayload
from .node import Protocol


class LyingReporterAdversary(Adversary):
    """Rewrites its own phase-2 report bundle to frame honest neighbors.

    Every ``ValuePayload`` inside the initiated bundle is flipped and
    the recorded rounds are shifted, so the bundle accuses each
    neighbor of having transmitted things it never did (and omits what
    it actually did).  Forwarded bundles from others pass untouched.
    """

    name = "lying-reporter"

    def build(self, spec: FaultSpec) -> Protocol:
        from ..consensus.reliable import ReportBundle

        def transform(outbox, ctx):
            result = []
            for message, target in outbox:
                if (
                    isinstance(message, FloodMessage)
                    and isinstance(message.payload, ReportBundle)
                    and len(message.path) == 0
                    and message.payload.reporter == ctx.node
                ):
                    forged_entries = []
                    for subject, transcript in message.payload.entries:
                        forged = tuple(
                            (
                                round_no + 1,
                                FloodMessage(
                                    m.phase,
                                    ValuePayload(1 - m.payload.value),
                                    m.path,
                                )
                                if isinstance(m, FloodMessage)
                                and isinstance(m.payload, ValuePayload)
                                else m,
                            )
                            for round_no, m in transcript
                        )
                        forged_entries.append((subject, forged))
                    bundle = ReportBundle(ctx.node, tuple(forged_entries))
                    result.append(
                        (FloodMessage(message.phase, bundle, ()), target)
                    )
                else:
                    result.append((message, target))
            return result

        return _WrapperProtocol(spec.honest(), transform)


class SilentReporterAdversary(Adversary):
    """Participates in phases 1 and 3 but never sends its phase-2 report
    (and drops forwarded reports too): starves the claim machinery."""

    name = "silent-reporter"

    def build(self, spec: FaultSpec) -> Protocol:
        from ..consensus.reliable import ReportBundle

        def transform(outbox, ctx):
            return [
                (m, t)
                for m, t in outbox
                if not (
                    isinstance(m, FloodMessage)
                    and isinstance(m.payload, ReportBundle)
                )
            ]

        return _WrapperProtocol(spec.honest(), transform)


class DecisionForgeAdversary(Adversary):
    """Floods a forged phase-3 decision (and flips forwarded ones).

    ``value`` fixes the forged decision; default flips whatever the
    honest protocol would have decided.
    """

    name = "decision-forge"

    def __init__(self, value: Optional[int] = None):
        self.value = value

    def build(self, spec: FaultSpec) -> Protocol:
        forged_value = self.value

        def transform(outbox, ctx):
            result = []
            forged_any = False
            for message, target in outbox:
                if isinstance(message, FloodMessage) and isinstance(
                    message.payload, DecisionPayload
                ):
                    value = (
                        forged_value
                        if forged_value is not None
                        else 1 - message.payload.value
                    )
                    result.append(
                        (
                            FloodMessage(
                                message.phase,
                                DecisionPayload(value),
                                message.path,
                            ),
                            target,
                        )
                    )
                    forged_any = forged_any or len(message.path) == 0
                else:
                    result.append((message, target))
            if not forged_any and ctx.round_no == 2 * ctx.graph.n + 1:
                # The honest inner protocol may be type A or B-silent;
                # forge a decision out of thin air at phase-3 start.
                from ..consensus.algorithm2 import Algorithm2Protocol

                value = forged_value if forged_value is not None else 0
                result.append(
                    (
                        FloodMessage(
                            Algorithm2Protocol.PHASE3,
                            DecisionPayload(value),
                            (),
                        ),
                        None,
                    )
                )
            return result

        return _WrapperProtocol(spec.honest(), transform)


def algorithm2_attack_battery() -> list[Adversary]:
    """The Algorithm 2-specific attacks, for sweeps and benchmarks."""
    return [
        LyingReporterAdversary(),
        SilentReporterAdversary(),
        DecisionForgeAdversary(),
        DecisionForgeAdversary(value=0),
        DecisionForgeAdversary(value=1),
    ]
