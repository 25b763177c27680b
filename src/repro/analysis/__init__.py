"""Analysis layer: requirement curves, cost models, experiment sweeps."""

from .metrics import (
    CostModel,
    expected_flood_deliveries,
    expected_wheel_deliveries_at_rim,
    phase_count_table,
    predicted_costs,
)
from .requirements import (
    HybridRow,
    RequirementRow,
    equivocation_price,
    feasibility_matrix,
    hybrid_tradeoff_table,
    requirement_table,
    smallest_feasible_complete_graph,
)
from .replay import (
    ReplayOutcome,
    factory_from_flight,
    graph_from_flight,
    replay_flight,
)
from .sweep import (
    HybridEquivocatorPolicy,
    SweepRecord,
    SweepReport,
    SweepTask,
    consensus_sweep,
    fault_subsets,
    input_patterns,
    sweep_tasks,
)

__all__ = [
    "CostModel",
    "HybridEquivocatorPolicy",
    "HybridRow",
    "ReplayOutcome",
    "RequirementRow",
    "SweepRecord",
    "SweepReport",
    "SweepTask",
    "consensus_sweep",
    "factory_from_flight",
    "graph_from_flight",
    "replay_flight",
    "equivocation_price",
    "expected_flood_deliveries",
    "expected_wheel_deliveries_at_rim",
    "fault_subsets",
    "feasibility_matrix",
    "hybrid_tradeoff_table",
    "input_patterns",
    "phase_count_table",
    "predicted_costs",
    "requirement_table",
    "smallest_feasible_complete_graph",
    "sweep_tasks",
]
