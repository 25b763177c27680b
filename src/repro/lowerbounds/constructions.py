"""Builders for the impossibility scenarios of Figures 2–5.

Each builder takes a *condition-violating* graph and produces an
:class:`ImpossibilityScenario`: the covering network ``𝒢``, the inputs of
the execution ``E`` on it, and the three projected executions
``E1, E2, E3`` with their fault sets, equivocators' split replays and
(where validity pins them down) forced outputs.  Every non-equivocating
faulty node replays its copy ``0``, so an :class:`ExecutionSpec` stores
only the split replays; its equivocators are their keys.

The listen maps are transcribed from the proofs.  There are three
builders, since Figure 3 is Figure 5 with ``R`` and ``T`` empty:

* **Figure 2 / Lemma A.1** (min degree < 2f): a node ``z`` with at most
  ``2f - 1`` neighbors, split ``(F¹, F²)``; ``W = V − N(z) − {z}``
  doubled.
* **Figure 4 / Lemma D.1** (hybrid: some ``S``, ``|S| ≤ t``, with ≤ 2f
  neighbors): ``N(S)`` split ``(F¹, F², R, T)``; ``W`` and ``T``
  doubled; ``T`` equivocates in ``E2``.
* **Figures 3 and 5 / Lemmas A.2 and D.2** (connectivity
  ≤ ⌊3(f−t)/2⌋ + 2t, which is ⌊3f/2⌋ at ``t = 0``): a cut partition
  ``(A, B, C)`` with ``C = C¹ ∪ C² ∪ C³ ∪ R ∪ T``, ``|R| = |T| = t``;
  ``A, B, R, T`` doubled; ``T`` equivocates in ``E1``/``E3`` and ``R``
  in ``E2``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, List, Optional, Tuple

from ..graphs import (
    Graph,
    GraphError,
    find_cut_partition,
    min_set_neighborhood,
    neighbors_of_set,
    require_undirected,
    split_into_parts,
)
from .covering import CopyId, CoveringNetwork


@dataclass(frozen=True)
class ExecutionSpec:
    """One projected execution ``Ei`` of the real graph ``G``."""

    name: str
    faulty: FrozenSet[Hashable]
    inputs: Dict[Hashable, int]
    # Honest node -> the copy that models it (for indistinguishability checks).
    honest_model: Dict[Hashable, CopyId]
    # Output forced by validity (all honest inputs equal), or None for the
    # middle execution where the contradiction appears.
    forced_output: Optional[int]
    # Equivocating faulty node -> [(target set, copy to replay to them)].
    # Every other faulty node x replays copy (x, 0) to all its neighbors.
    split_replay: Dict[Hashable, List[Tuple[FrozenSet[Hashable], CopyId]]] = (
        field(default_factory=dict)
    )

    @property
    def equivocators(self) -> FrozenSet[Hashable]:
        """The faulty nodes that need unicast (hybrid-channel) power."""
        return frozenset(self.split_replay)


@dataclass(frozen=True)
class ImpossibilityScenario:
    """A complete Figure-2/3/4/5 instance ready to run."""

    kind: str
    graph: Graph
    f: int
    t: int
    network: CoveringNetwork
    copy_inputs: Dict[CopyId, int]
    executions: Tuple[ExecutionSpec, ...]
    notes: Dict[str, object] = field(default_factory=dict)


def _single(nodes) -> Dict[Hashable, Tuple[int, ...]]:
    return {v: (0,) for v in nodes}


# ---------------------------------------------------------------------------
# Figure 2 — Lemma A.1 (degree necessity)
# ---------------------------------------------------------------------------


def degree_scenario(
    graph: Graph, f: int, z: Optional[Hashable] = None
) -> ImpossibilityScenario:
    """Build the Figure 2 scenario around a node of degree < 2f."""
    require_undirected(graph, "degree necessity")
    if f < 1:
        raise GraphError("degree necessity requires f >= 1")
    if z is None:
        z = min(graph.nodes, key=lambda v: (graph.in_degree(v), repr(v)))
    if graph.in_degree(z) >= 2 * f:
        raise GraphError(f"node {z!r} has degree >= 2f; no scenario exists")
    if graph.in_degree(z) < 1:
        raise GraphError("z needs at least one neighbor")
    nbrs = sorted(graph.neighbors(z), key=repr)
    # |F2| <= f and non-empty; |F1| <= f - 1.  deg(z) <= 2f - 1 makes this fit.
    f2_size = min(f, len(nbrs))
    f2 = set(nbrs[:f2_size])
    f1 = set(nbrs[f2_size:])
    if len(f1) > f - 1:
        raise GraphError("internal error: |F1| exceeds f - 1")
    w_set = graph.nodes - f1 - f2 - {z}

    copies: Dict[Hashable, Tuple[int, ...]] = _single(graph.nodes)
    for w in w_set:
        copies[w] = (0, 1)

    def listen_for(u: Hashable, i: int) -> Dict[Hashable, int]:
        lmap: Dict[Hashable, int] = {}
        for v in graph.neighbors(u):
            if v in w_set:
                if u in w_set:
                    lmap[v] = i  # W-W edges stay within the same copy layer
                elif u in f1:
                    lmap[v] = 0  # F1 exchanges with W0; W1 only overhears F1
                elif u in f2:
                    lmap[v] = 1  # F2 exchanges with W1; W0 only overhears F2
                else:  # u == z: z has no W neighbors by construction
                    raise GraphError("z unexpectedly adjacent to W")
            else:
                lmap[v] = 0  # single copies
        return lmap

    listen = {
        (u, i): listen_for(u, i) for u in graph.nodes for i in copies[u]
    }
    network = CoveringNetwork(graph, copies, listen)

    copy_inputs: Dict[CopyId, int] = {}
    for u in graph.nodes:
        for i in copies[u]:
            if u in w_set:
                copy_inputs[(u, i)] = 0 if i == 0 else 1
            elif u in f1 or u == z:
                copy_inputs[(u, i)] = 0
            else:  # F2
                copy_inputs[(u, i)] = 1

    all_zero = {v: 0 for v in graph.nodes}
    all_one = {v: 1 for v in graph.nodes}
    e2_inputs = {v: (0 if v == z else 1) for v in graph.nodes}

    def model_for(faulty, w_copy) -> Dict[Hashable, CopyId]:
        return {
            v: ((v, w_copy) if v in w_set else (v, 0))
            for v in graph.nodes - set(faulty)
        }

    executions = (
        ExecutionSpec("E1", frozenset(f2), all_zero, model_for(f2, 0), 0),
        ExecutionSpec("E2", frozenset(f1), e2_inputs, model_for(f1, 1), None),
        ExecutionSpec(
            "E3", frozenset(f1 | {z}), all_one, model_for(f1 | {z}, 1), 1
        ),
    )
    return ImpossibilityScenario(
        kind="degree",
        graph=graph,
        f=f,
        t=0,
        network=network,
        copy_inputs=copy_inputs,
        executions=executions,
        notes={"z": z, "F1": frozenset(f1), "F2": frozenset(f2), "W": frozenset(w_set)},
    )


# ---------------------------------------------------------------------------
# Figure 4 — Lemma D.1 (hybrid set-neighborhood necessity)
# ---------------------------------------------------------------------------


def hybrid_neighborhood_scenario(
    graph: Graph, f: int, t: int, s_set: Optional[FrozenSet[Hashable]] = None
) -> ImpossibilityScenario:
    """Build the Figure 4 scenario around a set ``S`` with ≤ 2f neighbors."""
    require_undirected(graph, "hybrid neighborhood necessity")
    if not 0 < t <= f:
        raise GraphError("hybrid neighborhood necessity requires 0 < t <= f")
    phi = f - t
    if s_set is None:
        value, witness = min_set_neighborhood(graph, t)
        if value > 2 * f:
            raise GraphError("every small set has > 2f neighbors; no scenario")
        s_set = witness
    s_set = frozenset(s_set)
    nbrs = neighbors_of_set(graph, s_set)
    if not nbrs:
        raise GraphError("S needs at least one neighbor")
    if len(nbrs) > 2 * f:
        raise GraphError("S has more than 2f neighbors")
    # Partition N(S) = (R_head, F1, F2, T, R_rest); R non-empty by giving it
    # the first node.  Capacities: 1 + phi + phi + t + (t - 1) = 2f.
    r_head, f1, f2, t_set, r_rest = (
        set(p)
        for p in split_into_parts(nbrs, [1, phi, phi, t, t - 1])
    )
    r_set = r_head | r_rest
    w_set = graph.nodes - s_set - nbrs

    copies: Dict[Hashable, Tuple[int, ...]] = _single(graph.nodes)
    for v in w_set | t_set:
        copies[v] = (0, 1)

    def listen_for(u: Hashable, i: int) -> Dict[Hashable, int]:
        lmap: Dict[Hashable, int] = {}
        for v in graph.neighbors(u):
            if v in t_set or v in w_set:
                if u in s_set or u in f1:
                    lmap[v] = 0  # S and F1 live on layer 0 of T/W
                elif u in f2 or u in r_set:
                    lmap[v] = 1  # F2 and R live on layer 1
                else:  # u in T or W: stay in-layer
                    lmap[v] = i
            else:
                lmap[v] = 0  # S, F1, F2, R are single
        return lmap

    listen = {(u, i): listen_for(u, i) for u in graph.nodes for i in copies[u]}
    network = CoveringNetwork(graph, copies, listen)

    copy_inputs: Dict[CopyId, int] = {}
    for u in graph.nodes:
        for i in copies[u]:
            if u in w_set or u in t_set:
                copy_inputs[(u, i)] = i
            elif u in s_set or u in f1:
                copy_inputs[(u, i)] = 0
            else:  # F2, R
                copy_inputs[(u, i)] = 1

    def model(layer: int, faulty) -> Dict[Hashable, CopyId]:
        return {
            v: ((v, layer) if v in w_set | t_set else (v, 0))
            for v in graph.nodes - set(faulty)
        }

    all_zero = {v: 0 for v in graph.nodes}
    all_one = {v: 1 for v in graph.nodes}
    e2_inputs = {v: (0 if v in s_set else 1) for v in graph.nodes}

    e1 = ExecutionSpec("E1", frozenset(f2 | r_set), all_zero,
                       model(0, f2 | r_set), 0)
    # E2: T equivocates — S-neighbors hear layer 0's transcript, everyone
    # else layer 1's.
    rest = frozenset(graph.nodes - s_set)
    e2 = ExecutionSpec(
        "E2", frozenset(f1 | t_set), e2_inputs, model(1, f1 | t_set), None,
        split_replay={
            x: [(frozenset(s_set), (x, 0)), (rest, (x, 1))] for x in t_set
        },
    )
    e3 = ExecutionSpec("E3", frozenset(f1 | s_set), all_one,
                       model(1, f1 | s_set), 1)
    return ImpossibilityScenario(
        kind="hybrid-neighborhood",
        graph=graph,
        f=f,
        t=t,
        network=network,
        copy_inputs=copy_inputs,
        executions=(e1, e2, e3),
        notes={
            "S": s_set,
            "F1": frozenset(f1),
            "F2": frozenset(f2),
            "R": frozenset(r_set),
            "T": frozenset(t_set),
            "W": frozenset(w_set),
        },
    )


# ---------------------------------------------------------------------------
# Figures 3 and 5 — Lemmas A.2 and D.2 (connectivity necessity)
# ---------------------------------------------------------------------------


def connectivity_scenario(
    graph: Graph, f: int, t: int = 0
) -> ImpossibilityScenario:
    """Build the Figure 5 scenario around a cut of size ≤ ⌊3(f−t)/2⌋ + 2t.

    At ``t = 0`` (``R`` and ``T`` empty, no equivocation) this is the
    Figure 3 scenario around a cut of size ≤ ⌊3f/2⌋.
    """
    require_undirected(graph, "connectivity necessity")
    if f < 1 or not 0 <= t <= f:
        raise GraphError(
            "connectivity necessity requires f >= 1 and 0 <= t <= f"
        )
    figure = 3 if t == 0 else 5
    phi = f - t
    max_cut = (3 * phi) // 2 + 2 * t
    parts = find_cut_partition(graph, max_cut)
    if parts is None:
        raise GraphError(
            f"graph is ({max_cut + 1})-connected; no Figure {figure} "
            "scenario exists"
        )
    a_side, b_side, cut = parts
    c1, c2, c3, r_set, t_set = (
        set(p)
        for p in split_into_parts(
            cut, [phi // 2, phi // 2, (phi + 1) // 2, t, t]
        )
    )
    doubled = a_side | b_side | r_set | t_set

    copies: Dict[Hashable, Tuple[int, ...]] = _single(graph.nodes)
    for v in doubled:
        copies[v] = (0, 1)

    def heard(u: Hashable, i: int, v: Hashable) -> int:
        """The copy of doubled neighbor ``v`` that copy ``(u, i)`` hears."""
        if u in a_side:
            return 1 - i if v in t_set else i  # A0 hears T1, A1 hears T0
        if u in b_side:
            return i
        if u in r_set:
            return 0 if v in t_set else i  # both R copies hear T0
        if u in t_set:
            # T1 models honest T in E2: hears A0, B1, R1, T1.  T0 is never
            # honest in a projected execution; it mirrors T1.
            return 1 - i if v in a_side else i
        if u in c1:
            return 0  # C1 models honest only in E1: all layer 0
        if u in c2:
            return 0 if v in a_side else 1
        return 0 if v in t_set else 1  # C3

    listen = {
        (u, i): {
            v: heard(u, i, v) if v in doubled else 0
            for v in graph.neighbors(u)
        }
        for u in graph.nodes
        for i in copies[u]
    }
    network = CoveringNetwork(graph, copies, listen)

    copy_inputs: Dict[CopyId, int] = {
        (u, i): i if u in doubled else (0 if u in c1 else 1)
        for u in graph.nodes
        for i in copies[u]
    }

    def model(a_c, b_c, r_c, t_c, faulty) -> Dict[Hashable, CopyId]:
        out: Dict[Hashable, CopyId] = {}
        for v in graph.nodes - set(faulty):
            if v in a_side:
                out[v] = (v, a_c)
            elif v in b_side:
                out[v] = (v, b_c)
            elif v in r_set:
                out[v] = (v, r_c)
            elif v in t_set:
                out[v] = (v, t_c)
            else:
                out[v] = (v, 0)
        return out

    all_zero = {v: 0 for v in graph.nodes}
    all_one = {v: 1 for v in graph.nodes}
    e2_inputs = {v: (0 if v in a_side else 1) for v in graph.nodes}
    a_frozen = frozenset(a_side)
    b_frozen = frozenset(b_side)
    not_a = frozenset(graph.nodes - a_side)
    not_b = frozenset(graph.nodes - b_side)

    e1 = ExecutionSpec(
        "E1", frozenset(c2 | c3 | t_set), all_zero,
        model(0, 0, 0, None, c2 | c3 | t_set), 0,
        split_replay={
            x: [(a_frozen, (x, 1)), (not_a, (x, 0))] for x in t_set
        },
    )
    e2 = ExecutionSpec(
        "E2", frozenset(c1 | c3 | r_set), e2_inputs,
        model(0, 1, None, 1, c1 | c3 | r_set), None,
        split_replay={
            x: [(a_frozen, (x, 0)), (not_a, (x, 1))] for x in r_set
        },
    )
    e3 = ExecutionSpec(
        "E3", frozenset(c1 | c2 | t_set), all_one,
        model(1, 1, 1, None, c1 | c2 | t_set), 1,
        split_replay={
            x: [(b_frozen, (x, 1)), (not_b, (x, 0))] for x in t_set
        },
    )
    return ImpossibilityScenario(
        kind="connectivity" if t == 0 else "hybrid-connectivity",
        graph=graph,
        f=f,
        t=t,
        network=network,
        copy_inputs=copy_inputs,
        executions=(e1, e2, e3),
        notes={
            "A": frozenset(a_side),
            "B": frozenset(b_side),
            "C1": frozenset(c1),
            "C2": frozenset(c2),
            "C3": frozenset(c3),
            "R": frozenset(r_set),
            "T": frozenset(t_set),
        },
    )
