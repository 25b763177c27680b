"""Feasibility conditions: Theorems 4.1/5.1, 6.1, and the classical bound.

The paper's headline results are *characterizations* — graph-theoretic
conditions that are simultaneously necessary and sufficient:

* **Local broadcast** (Theorems 4.1 + 5.1): min degree ≥ ``2f`` and
  vertex connectivity ≥ ``⌊3f/2⌋ + 1``.
* **Point-to-point** (Dolev '82, quoted in Section 1): ``n ≥ 3f + 1``
  and vertex connectivity ≥ ``2f + 1``.
* **Hybrid, ≤ t equivocating faults** (Theorem 6.1): connectivity ≥
  ``⌊3(f − t)/2⌋ + 2t + 1``; if ``t = 0`` min degree ≥ ``2f``; if
  ``t > 0`` every set ``S`` with ``0 < |S| ≤ t`` has ≥ ``2f + 1``
  neighbors.
* **Directed local broadcast** (companion paper arXiv:1911.07298): the
  directed generalization implemented here — minimum *in*-degree ≥
  ``2f`` and strong vertex connectivity ≥ ``⌊3f/2⌋ + 1`` on strongly
  connected digraphs, plus a source-component/relay decomposition for
  arbitrary digraphs (:func:`check_directed_decomposition`).  An
  undirected graph is the symmetric case — its in-degree is its degree
  and its strong κ its κ — so :func:`check_local_broadcast` is one
  checker for both graph kinds, its wording following
  ``graph.directed``.

Only :func:`check_local_broadcast`, :func:`check_directed_decomposition`
and :func:`max_f_local_broadcast` take a digraph.  The other conditions
are stated for undirected graphs, so their checkers and ``max_f_*`` raise
:class:`~repro.graphs.graph.GraphError` on any digraph rather than
answer with no theorem behind the answer.

Each checker returns a :class:`ConditionReport` listing every clause with
its required and measured value, so experiments can show *which*
condition fails and by how much.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..graphs import (
    Digraph,
    Graph,
    max_set_disjoint_paths,
    min_set_neighborhood,
    require_undirected,
    source_components,
    vertex_connectivity,
)


@dataclass(frozen=True, slots=True)
class Clause:
    """One atomic requirement: a measured quantity vs its threshold."""

    name: str
    required: int
    measured: int

    @property
    def holds(self) -> bool:
        return self.measured >= self.required

    @property
    def margin(self) -> int:
        return self.measured - self.required

    def __str__(self) -> str:
        verdict = "ok" if self.holds else "FAIL"
        return f"{self.name}: need >= {self.required}, have {self.measured} [{verdict}]"


@dataclass(frozen=True, slots=True)
class ConditionReport:
    """The outcome of a feasibility check on ``(G, f[, t])``."""

    model: str
    f: int
    t: Optional[int]
    clauses: Tuple[Clause, ...]

    @property
    def feasible(self) -> bool:
        return all(c.holds for c in self.clauses)

    def failing(self) -> List[Clause]:
        return [c for c in self.clauses if not c.holds]

    def __str__(self) -> str:
        t_part = "" if self.t is None else f", t={self.t}"
        head = f"{self.model} (f={self.f}{t_part}): " + (
            "FEASIBLE" if self.feasible else "infeasible"
        )
        return head + "".join(f"\n  {c}" for c in self.clauses)


def local_broadcast_threshold_connectivity(f: int) -> int:
    """The tight connectivity bound ``⌊3f/2⌋ + 1`` of Theorems 4.1/5.1."""
    return (3 * f) // 2 + 1


def hybrid_threshold_connectivity(f: int, t: int) -> int:
    """Theorem 6.1(i): ``⌊3(f − t)/2⌋ + 2t + 1``.

    Interpolates between the local-broadcast bound at ``t = 0`` and the
    point-to-point bound ``2f + 1`` at ``t = f`` — the paper's
    quantification of the price of equivocation.
    """
    if not 0 <= t <= f:
        raise ValueError("need 0 <= t <= f")
    return (3 * (f - t)) // 2 + 2 * t + 1


def check_local_broadcast(graph: Digraph, f: int) -> ConditionReport:
    """Theorem 4.1/5.1: consensus under local broadcast iff these hold.

    * ``n > f`` — trivial solvability;
    * minimum degree ≥ ``2f`` — on a digraph the minimum *in*-degree: a
      node must hear ``2f`` neighbors so that, with ``f`` of them
      faulty, honest witnesses still form a majority of what it heard
      (only in-arcs deliver information under local broadcast);
    * connectivity ≥ ``⌊3f/2⌋ + 1`` — on a digraph the strong form
      (arXiv:1911.07298): ``⌊3f/2⌋ + 1`` internally node-disjoint
      *directed* paths between every ordered pair.

    A :class:`~repro.graphs.graph.Graph` is the symmetric case: its
    in-degree is its degree and its strong κ its κ, so one set of
    clauses serves both kinds.  The model label and clause names follow
    ``graph.directed`` (``directed-local-broadcast``, "minimum
    in-degree", "strong connectivity").  A digraph that is not strongly
    connected has κ = 0 and so is infeasible here;
    :func:`check_directed_decomposition` refines that verdict via the
    condensation.
    """
    if f < 0:
        raise ValueError("f must be non-negative")
    directed = graph.directed
    clauses = (
        Clause("n > f (trivial solvability bound)", f + 1, graph.n),
        Clause(
            f"minimum {'in-' if directed else ''}degree >= 2f",
            2 * f,
            graph.min_in_degree(),
        ),
        Clause(
            f"{'strong ' if directed else ''}connectivity >= floor(3f/2) + 1",
            local_broadcast_threshold_connectivity(f),
            vertex_connectivity(graph),
        ),
    )
    model = "directed-local-broadcast" if directed else "local-broadcast"
    return ConditionReport(model, f, None, clauses)


def check_directed_decomposition(graph: Digraph, f: int) -> ConditionReport:
    """Directed feasibility on *arbitrary* digraphs via the condensation.

    Decomposes the digraph into its source strongly-connected component
    (the "core") and relay territory, the structure the companion paper
    (arXiv:1911.07298) characterizes:

    * ``n > f`` — trivial solvability;
    * the condensation has a **unique source component** — with two or
      more, consensus is impossible even fault-free: each source never
      learns the others' inputs, and validity on all-0 vs all-1 inputs
      forces disagreement;
    * the core satisfies the strong-form conditions (in-degree ≥ ``2f``,
      strong κ ≥ ``⌊3f/2⌋ + 1``) so it can decide among itself;
    * every non-core node has ≥ ``2f + 1`` internally node-disjoint
      directed core→v paths, the reliable-receipt threshold: ``f`` faults
      leave ``f + 1`` clean disjoint carriers of the core's decision,
      while a fabricated value would need ``f + 1`` disjoint paths each
      containing its own distinct fault.

    On a strongly connected digraph the core is the whole graph, the
    relay clause vanishes, and the verdict equals the strong form's.
    The clause set is a principled sufficient/necessary decomposition in
    this codebase's reliable-receipt calculus; the companion paper's
    exact characterization is finer-grained on relay territory.
    """
    if f < 0:
        raise ValueError("f must be non-negative")
    sources = source_components(graph)
    core = sources[0] if sources else frozenset()
    core_graph = graph.subgraph(core)
    clauses = [
        Clause("n > f (trivial solvability bound)", f + 1, graph.n),
        Clause(
            "condensation has a unique source component (1 = yes)",
            1,
            int(len(sources) == 1),
        ),
        Clause(
            "core minimum in-degree >= 2f", 2 * f, core_graph.min_in_degree()
        ),
        Clause(
            "core strong connectivity >= floor(3f/2) + 1",
            local_broadcast_threshold_connectivity(f),
            vertex_connectivity(core_graph),
        ),
    ]
    relay_nodes = sorted(graph.nodes - set(core), key=repr)
    if relay_nodes:
        fan_in = min(
            max_set_disjoint_paths(graph, core, v) for v in relay_nodes
        )
        clauses.append(
            Clause(
                "every non-core node has >= 2f + 1 disjoint core paths",
                2 * f + 1,
                fan_in,
            )
        )
    return ConditionReport("directed-decomposition", f, None, tuple(clauses))


def async_threshold_connectivity(f: int) -> int:
    """The asynchronous regime's connectivity bound ``2f + 1``.

    The asynchronous follow-up paper (arXiv:1909.02865) trades the
    synchronous model's ``⌊3f/2⌋ + 1`` connectivity for the classical
    point-to-point bound: with no round structure, reliable receipt must
    survive ``f`` faulty *and* arbitrarily slow path families, which is
    exactly what ``2f + 1`` internally disjoint paths buy (``f + 1`` of
    them fault-free, hence eventually delivering).
    """
    return 2 * f + 1


def check_async_local_broadcast(graph: Graph, f: int) -> ConditionReport:
    """Feasibility of the *asynchronous* algorithm (arXiv:1909.02865 regime).

    Three clauses, each tied to a mechanism of
    :mod:`repro.consensus.async_alg`:

    * ``n ≥ 3f + 1`` — the vote-quorum intersection: a decision cites
      ``n − f`` single-valued votes, and the next round's majority step
      needs ``n − 2f > f``;
    * connectivity ``≥ 2f + 1`` — totality of reliable receipt: ``f + 1``
      fault-free disjoint paths to every node, with no timing assumption;
    * minimum degree ``≥ ⌊3f/2⌋ + 1`` — the local-broadcast guarantee
      that a faulty node's initiation is witnessed by enough honest
      neighbors to propagate (implied by the connectivity clause, listed
      separately because it is the clause the paper family names).
    """
    require_undirected(graph, "the async-local-broadcast condition")
    if f < 0:
        raise ValueError("f must be non-negative")
    clauses = (
        Clause("n >= 3f + 1 (vote-quorum intersection)", 3 * f + 1, graph.n),
        Clause(
            "connectivity >= 2f + 1",
            async_threshold_connectivity(f),
            vertex_connectivity(graph),
        ),
        Clause(
            "minimum degree >= floor(3f/2) + 1",
            (3 * f) // 2 + 1,
            graph.min_in_degree(),
        ),
    )
    return ConditionReport("async-local-broadcast", f, None, clauses)


def check_point_to_point(graph: Graph, f: int) -> ConditionReport:
    """The classical Dolev bound: ``n ≥ 3f + 1`` and κ ≥ ``2f + 1``."""
    require_undirected(graph, "the point-to-point condition")
    if f < 0:
        raise ValueError("f must be non-negative")
    clauses = (
        Clause("n >= 3f + 1", 3 * f + 1, graph.n),
        Clause("connectivity >= 2f + 1", 2 * f + 1, vertex_connectivity(graph)),
    )
    return ConditionReport("point-to-point", f, None, clauses)


def check_hybrid(graph: Graph, f: int, t: int) -> ConditionReport:
    """Theorem 6.1: consensus under the hybrid model iff these hold."""
    require_undirected(graph, "the hybrid condition")
    if f < 0:
        raise ValueError("f must be non-negative")
    if not 0 <= t <= f:
        raise ValueError("need 0 <= t <= f")
    clauses = [
        Clause("n > f (trivial solvability bound)", f + 1, graph.n),
        Clause(
            "connectivity >= floor(3(f-t)/2) + 2t + 1",
            hybrid_threshold_connectivity(f, t),
            vertex_connectivity(graph),
        ),
    ]
    if t == 0:
        clauses.append(Clause("minimum degree >= 2f (t = 0)", 2 * f, graph.min_in_degree()))
    else:
        if graph.n > 0:
            measured, _ = min_set_neighborhood(graph, t)
        else:
            measured = 0
        clauses.append(
            Clause(
                "every S with 0 < |S| <= t has >= 2f + 1 neighbors",
                2 * f + 1,
                measured,
            )
        )
    return ConditionReport("hybrid", f, t, tuple(clauses))


def max_f_local_broadcast(graph: Digraph) -> int:
    """The largest ``f`` for which Theorem 5.1 (its strong form on a
    digraph) declares ``G`` feasible."""
    f = 0
    while check_local_broadcast(graph, f + 1).feasible:
        f += 1
    return f


def max_f_async_local_broadcast(graph: Graph) -> int:
    """The largest ``f`` for which the asynchronous regime is feasible."""
    f = 0
    while check_async_local_broadcast(graph, f + 1).feasible:
        f += 1
    return f


def max_f_point_to_point(graph: Graph) -> int:
    """The largest ``f`` satisfying the classical point-to-point bound."""
    f = 0
    while check_point_to_point(graph, f + 1).feasible:
        f += 1
    return f


def max_f_hybrid(graph: Graph, t: int) -> int:
    """The largest ``f ≥ t`` for which Theorem 6.1 declares feasibility.

    If even ``f = t`` is infeasible, the result is ``t - 1``: any value
    below ``t`` means that no ``f`` is feasible for this ``t``.
    """
    f = max(t, 0)
    if not check_hybrid(graph, f, t).feasible:
        return t - 1
    while check_hybrid(graph, f + 1, t).feasible:
        f += 1
    return f
