"""Complexity accounting: rounds, phases, messages.

The paper's efficiency story (Sections 5.3, 7):

* Algorithm 1/3 run one flood per candidate fault set — the *phase
  count* is ``Σ_{k ≤ f} C(n, k)`` (resp. the (F, T)-pair count), i.e.
  exponential in ``f``; each phase costs ``n`` rounds;
* Algorithm 2 runs within a budget of ``3n`` rounds — ``O(n)`` —
  whenever the graph is 2f-connected (Theorem 5.6); a run may end at
  round ``2n + 1``, when every honest node is type B and decides as
  phase 3 starts;
* flooding message counts are driven by simple-path counts (each
  accepted path-annotated message corresponds to a simple path), which
  is the honest cost of the path-annotation defense.

These helpers compute the closed forms the cost benchmarks compare
against measured traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Dict

from ..consensus.algorithm1 import phase_count
from ..graphs import Graph, count_simple_paths


@dataclass(frozen=True, slots=True)
class CostModel:
    """Predicted costs for one (graph, f, t) instance."""

    n: int
    f: int
    t: int
    phases: int
    rounds_algorithm1: int
    rounds_algorithm2: int

    @property
    def round_blowup(self) -> float:
        """Algorithm 1 rounds / Algorithm 2 rounds."""
        return self.rounds_algorithm1 / self.rounds_algorithm2


def predicted_costs(graph: Graph, f: int, t: int = 0) -> CostModel:
    """Closed-form round/phase predictions for the exact and efficient
    algorithms on ``graph``."""
    n = graph.n
    phases = phase_count(n, f, t)
    return CostModel(
        n=n,
        f=f,
        t=t,
        phases=phases,
        rounds_algorithm1=phases * n,
        rounds_algorithm2=3 * n,
    )


def expected_flood_deliveries(graph: Graph) -> int:
    """Accepted messages in one fault-free flood phase: every ordered
    pair's simple paths each deliver exactly once, plus each node's own
    trivial path."""
    total = graph.n  # the trivial own-value paths
    nodes = sorted(graph.nodes, key=repr)
    for u in nodes:
        for v in nodes:
            if u != v:
                total += count_simple_paths(graph, u, v)
    return total


def expected_wheel_deliveries_at_rim(m: int) -> int:
    """Fault-free flood deliveries at one *rim* node of the wheel with
    ``m`` rim nodes (``wheel_graph(m + 1)``): the trivial own path plus
    one delivery per simple path from every other node.

    Closed form (receiver ``v`` on the rim, hub ``h``): the hub reaches
    ``v`` directly, via either arc to any of the ``m − 1`` other rim
    nodes' spokes... — enumerated by where each path leaves the rim for
    the hub (if at all).  ``2m − 1`` paths originate at the hub; a rim
    origin at rim-distance ``d`` from ``v`` contributes

    * 2 pure-rim paths (one per arc),
    * ``m − 1`` paths hopping straight to the hub and descending,
    * one path per proper rim-walk before or after the hub hop
      (``Σ_{t<m−d} (m−1−t) + Σ_{s<d} (m−1−s)``).

    Validated against :func:`count_simple_paths` for every wheel up to
    nine nodes; used by the ``--flood-receipt`` profile as the
    delivery-count check on wheels too large to cross-enumerate.
    """
    if m < 3:
        raise ValueError("a wheel needs at least three rim nodes")
    total = 1 + (2 * m - 1)
    for d in range(1, m):
        count = 2 + (m - 1)
        count += sum((m - 1 - t) for t in range(1, m - d))
        count += sum((m - 1 - s) for s in range(1, d))
        total += count
    return total


def phase_count_table(n: int, max_f: int) -> Dict[int, int]:
    """``f → Σ_{k ≤ f} C(n, k)`` — how fast Algorithm 1's phase count
    explodes on an ``n``-node graph."""
    return {f: sum(comb(n, k) for k in range(f + 1)) for f in range(max_f + 1)}
