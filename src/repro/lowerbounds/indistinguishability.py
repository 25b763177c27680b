"""Run an impossibility scenario end to end and report the violation.

The pipeline mirrors the proofs exactly:

1. run execution ``E`` on the covering network ``𝒢`` — every copy runs
   the honest per-node procedure with the construction's inputs, on the
   same engine as the projected executions;
2. project: build the real executions ``E1, E2, E3`` where the faulty
   nodes *replay* their copies' transcripts through one
   :class:`~repro.net.adversary.ReplayAdversary` (equivocating faults
   unicast two copies' transcripts, one per neighbor group, which
   requires hybrid-channel unicast power);
3. verify **indistinguishability**: each honest node of ``Ei`` behaves
   exactly like the copy that models it, so its output equals that
   copy's output in ``E``;
4. verdict: if the graph truly violates the condition, at least one
   execution must break agreement or validity — for a correct-under-the-
   conditions algorithm like Algorithm 1, validity pins ``E1 → 0`` and
   ``E3 → 1`` and the contradiction surfaces as an agreement violation
   in ``E2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Tuple

from ..consensus.runner import ConsensusResult, run_consensus
from ..graphs import Graph
from ..net.adversary import ReplayAdversary
from ..net.channels import hybrid_model, local_broadcast_model
from ..net.node import Outgoing, Protocol
from .constructions import ExecutionSpec, ImpossibilityScenario
from .covering import CopyId, run_covering

HonestFactory = Callable[[Hashable, int], Protocol]


@dataclass(frozen=True)
class ExecutionReport:
    """Outcome of one projected execution."""

    name: str
    result: ConsensusResult
    forced_output: Optional[int]
    indistinguishable: bool
    model_mismatches: Tuple[Hashable, ...]

    @property
    def violated(self) -> bool:
        """Did this execution break agreement or validity?"""
        return not (self.result.agreement and self.result.validity)

    @property
    def respected_forced_output(self) -> bool:
        if self.forced_output is None:
            return True
        return all(
            self.result.outputs[v] == self.forced_output
            for v in self.result.honest
        )


@dataclass(frozen=True)
class ScenarioReport:
    """The full verdict for one Figure-2/3/4/5 scenario."""

    scenario: ImpossibilityScenario
    copy_outputs: Dict[CopyId, Optional[int]]
    executions: Tuple[ExecutionReport, ...]

    @property
    def violation_demonstrated(self) -> bool:
        """At least one projected execution breaks consensus — the
        empirical content of the necessity lemmas."""
        return any(e.violated for e in self.executions)

    @property
    def fully_indistinguishable(self) -> bool:
        """Every honest node of every execution matched its model copy."""
        return all(e.indistinguishable for e in self.executions)

    def summary(self) -> str:
        lines = [
            f"scenario {self.scenario.kind} (f={self.scenario.f}, "
            f"t={self.scenario.t}) on n={self.scenario.graph.n}"
        ]
        for e in self.executions:
            verdict = "VIOLATED" if e.violated else "consensus ok"
            lines.append(
                f"  {e.name}: faulty={sorted(e.result.faulty, key=repr)} "
                f"agreement={e.result.agreement} validity={e.result.validity} "
                f"[{verdict}]"
            )
        lines.append(
            "  => violation demonstrated"
            if self.violation_demonstrated
            else "  => NO violation (unexpected for a deficient graph)"
        )
        return "\n".join(lines)


def _adversary_for(
    spec: ExecutionSpec,
    schedules: Dict[CopyId, Dict[int, Outgoing]],
    graph: Graph,
) -> ReplayAdversary:
    """Replay behaviors for one projected execution, from 𝒢 transcripts.

    Every non-equivocating faulty node ``x`` replays copy ``(x, 0)``.  An
    equivocating node unicasts each split group's copy transcript to the
    group's neighbors: per round, group by group, message by message,
    neighbors in ``repr`` order.
    """
    plan = {x: schedules[(x, 0)] for x in spec.faulty - spec.equivocators}
    for node, groups in spec.split_replay.items():
        neighbors = graph.neighbors(node)
        unicasts: Dict[int, Outgoing] = {}
        plan[node] = unicasts
        for targets, copy in groups:
            recipients = sorted(targets & neighbors, key=repr)
            for round_no, sends in schedules[copy].items():
                unicasts.setdefault(round_no, []).extend(
                    (message, nbr) for message, _ in sends for nbr in recipients
                )
    return ReplayAdversary(plan)


def run_scenario(
    scenario: ImpossibilityScenario,
    honest_factory: HonestFactory,
    rounds: Optional[int] = None,
) -> ScenarioReport:
    """Execute the scenario: ``E`` on ``𝒢``, then ``E1, E2, E3`` on ``G``."""
    protocols = {
        copy: honest_factory(copy[0], value)
        for copy, value in scenario.copy_inputs.items()
    }
    if rounds is None:
        budgets = [getattr(p, "total_rounds", None) for p in protocols.values()]
        known = [b for b in budgets if isinstance(b, int)]
        if not known:
            raise ValueError("rounds required: protocols expose no budget")
        rounds = max(known)
    copy_outputs, schedules = run_covering(scenario.network, protocols, rounds)

    reports: List[ExecutionReport] = []
    for spec in scenario.executions:
        adversary = _adversary_for(spec, schedules, scenario.graph)
        channel = (
            hybrid_model(spec.equivocators)
            if spec.equivocators
            else local_broadcast_model()
        )
        result = run_consensus(
            scenario.graph,
            honest_factory,
            spec.inputs,
            f=scenario.f,
            faulty=spec.faulty,
            adversary=adversary,
            channel=channel,
            max_rounds=rounds,
        )
        mismatches = tuple(
            v
            for v, copy in sorted(spec.honest_model.items(), key=lambda kv: repr(kv[0]))
            if result.outputs[v] != copy_outputs[copy]
        )
        reports.append(
            ExecutionReport(
                name=spec.name,
                result=result,
                forced_output=spec.forced_output,
                indistinguishable=not mismatches,
                model_mismatches=mismatches,
            )
        )
    return ScenarioReport(
        scenario=scenario,
        copy_outputs=copy_outputs,
        executions=tuple(reports),
    )
