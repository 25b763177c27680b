"""Impossibility reproductions: covering networks and projected executions.

Executable versions of the necessity proofs (Lemmas A.1, A.2, D.1, D.2 /
Figures 2-5): build the covering network, run the algorithm on it, replay
the transcripts into three real executions, and watch consensus break on
any graph that violates the paper's conditions.
"""

from .constructions import (
    ExecutionSpec,
    ImpossibilityScenario,
    connectivity_scenario,
    degree_scenario,
    hybrid_neighborhood_scenario,
)
from .covering import CopyId, CoveringNetwork, run_covering
from .indistinguishability import ExecutionReport, ScenarioReport, run_scenario

__all__ = [
    "CopyId",
    "CoveringNetwork",
    "ExecutionReport",
    "ExecutionSpec",
    "ImpossibilityScenario",
    "ScenarioReport",
    "connectivity_scenario",
    "degree_scenario",
    "hybrid_neighborhood_scenario",
    "run_covering",
    "run_scenario",
]
