"""Consensus layer: the paper's algorithms, conditions, and baselines.

* :mod:`~repro.consensus.conditions` — the tight feasibility conditions
  (Theorems 4.1/5.1, 6.1) plus the classical point-to-point bound;
* :mod:`~repro.consensus.flooding` — path-annotated flooding with the
  rules (i)-(iv) of Section 5.1;
* :mod:`~repro.consensus.algorithm1` — exact consensus under local
  broadcast (exponential phases, tight condition);
* :mod:`~repro.consensus.algorithm2` — the O(n)-round algorithm for
  2f-connected graphs (Appendix C), on reliable receipt (Definition C.1);
* :mod:`~repro.consensus.algorithm3` — the hybrid-model algorithm
  (Appendix D.2);
* :mod:`~repro.consensus.baselines` — classical point-to-point EIG and
  Dolev-style relay, for the model comparison;
* :mod:`~repro.consensus.async_alg` — the native asynchronous algorithm
  (arXiv:1909.02865): message-driven quorum decisions, no round schedule,
  no delay bound;
* :mod:`~repro.consensus.factory` — :class:`ProtocolFactory`, the one
  picklable honest-protocol factory over the :data:`KINDS` table;
* :mod:`~repro.consensus.synchronizer` — the α-synchronizer layer that
  instead runs the fixed-round protocols unchanged under asynchrony;
* :mod:`~repro.consensus.runner` — one-call experiment driver.
"""

from .algorithm1 import (
    Algorithm1Protocol,
    ExactConsensusProtocol,
    candidate_fault_sets,
    candidate_pairs,
    phase_count,
)
from .algorithm2 import Algorithm2Protocol, majority
from .algorithm3 import Algorithm3Protocol
from .async_alg import (
    DECIDE_PHASE,
    VALUES_PHASE,
    AsyncConsensusProtocol,
    vote_phase,
)
from .baselines import (
    DolevEIGProtocol,
    EIGEquivocatingAdversary,
    EIGProtocol,
)
from .conditions import (
    Clause,
    ConditionReport,
    async_threshold_connectivity,
    check_async_local_broadcast,
    check_directed_decomposition,
    check_hybrid,
    check_local_broadcast,
    check_point_to_point,
    hybrid_threshold_connectivity,
    local_broadcast_threshold_connectivity,
    max_f_async_local_broadcast,
    max_f_hybrid,
    max_f_local_broadcast,
    max_f_point_to_point,
)
from .factory import (
    KINDS,
    ProtocolFactory,
    ablated_algorithm1_factory,
    algorithm1_factory,
    algorithm2_factory,
    algorithm3_factory,
    async_factory,
    dolev_eig_factory,
    eig_factory,
)
from .flooding import FloodInstance, flood_rounds
from .iterative import (
    WMSRResult,
    is_r_robust,
    max_robustness,
    run_wmsr,
    wmsr_requirement,
)
from .path_engine import NodeBehavior, PathFloodEngine
from .path_oracle import PathOracle
from .reliable import (
    ClaimIndex,
    ReportBundle,
    detect_faults,
    reliable_payload,
    reliable_value,
)
from .runner import (
    OUTCOME_BUDGET_EXHAUSTED,
    OUTCOME_DECIDED,
    OUTCOME_DISAGREED,
    OUTCOME_STALLED,
    ConsensusResult,
    run_consensus,
)
from .synchronizer import (
    SYNCHRONIZER_MODES,
    AlphaSynchronizer,
    RoundMarker,
    SynchronizedFactory,
    synchronize_factory,
)

__all__ = [
    "Algorithm1Protocol",
    "Algorithm2Protocol",
    "Algorithm3Protocol",
    "AlphaSynchronizer",
    "AsyncConsensusProtocol",
    "ClaimIndex",
    "Clause",
    "ConditionReport",
    "ConsensusResult",
    "DECIDE_PHASE",
    "DolevEIGProtocol",
    "EIGEquivocatingAdversary",
    "EIGProtocol",
    "ExactConsensusProtocol",
    "FloodInstance",
    "KINDS",
    "NodeBehavior",
    "OUTCOME_BUDGET_EXHAUSTED",
    "OUTCOME_DECIDED",
    "OUTCOME_DISAGREED",
    "OUTCOME_STALLED",
    "PathFloodEngine",
    "PathOracle",
    "ProtocolFactory",
    "ReportBundle",
    "RoundMarker",
    "SYNCHRONIZER_MODES",
    "SynchronizedFactory",
    "VALUES_PHASE",
    "WMSRResult",
    "ablated_algorithm1_factory",
    "algorithm1_factory",
    "algorithm2_factory",
    "algorithm3_factory",
    "async_factory",
    "async_threshold_connectivity",
    "candidate_fault_sets",
    "candidate_pairs",
    "check_async_local_broadcast",
    "check_directed_decomposition",
    "check_hybrid",
    "check_local_broadcast",
    "check_point_to_point",
    "detect_faults",
    "dolev_eig_factory",
    "eig_factory",
    "flood_rounds",
    "hybrid_threshold_connectivity",
    "is_r_robust",
    "local_broadcast_threshold_connectivity",
    "majority",
    "max_f_async_local_broadcast",
    "max_f_hybrid",
    "max_f_local_broadcast",
    "max_f_point_to_point",
    "max_robustness",
    "phase_count",
    "reliable_payload",
    "reliable_value",
    "run_consensus",
    "run_wmsr",
    "synchronize_factory",
    "vote_phase",
    "wmsr_requirement",
]
