"""Algorithm 3: Byzantine consensus under the hybrid model (Appendix D.2).

At most ``t ≤ f`` faulty nodes may *equivocate* (full point-to-point
power); the remaining faults obey local broadcast.  The algorithm runs
one phase per pair ``(F, T)`` with ``|T| ≤ t``, ``F ⊆ V − T`` and
``|F| ≤ f − |T|``: ``T`` guesses the equivocating faults, ``F`` the
non-equivocating ones.  Within a phase everything is Algorithm 1 with
``F ∪ T`` excluded from paths and the case thresholds computed from
``ϕ = f − |T|``.

When ``t = 0`` the pair list collapses to Algorithm 1's; when ``t = f``
the conditions of Theorem 6.1 collapse to the classical point-to-point
requirements (κ ≥ 2f + 1 and n ≥ 3f + 1) — so this protocol doubles as
our executable bridge between the two classical models.
"""

from __future__ import annotations

from typing import Hashable, Optional

from ..graphs import Graph
from .algorithm1 import ExactConsensusProtocol
from .path_oracle import PathOracle


class Algorithm3Protocol(ExactConsensusProtocol):
    """Algorithm 3 (hybrid model) — the engine with an equivocation budget."""

    def __init__(
        self, graph: Graph, node: Hashable, f: int, t: int, input_value: int,
        oracle: Optional[PathOracle] = None,
    ):
        super().__init__(graph, node, f, input_value, t=t, oracle=oracle)
