"""Algorithm 1: exact Byzantine consensus under local broadcast.

One phase per candidate fault set ``F ⊆ V, |F| ≤ f`` (Section 5.1):

* **step (a)** — every node floods its current state ``γ_v`` with the
  path-annotated rules of :mod:`repro.consensus.flooding`;
* **step (b)** — for each ``u``, pick one ``uv``-path ``P_uv`` excluding
  ``F`` (Lemma 5.4 guarantees it exists) and classify ``u`` into ``Z_v``
  (received 0 along ``P_uv``) or ``N_v`` (otherwise);
* **step (c)** — choose ``(A_v, B_v)`` by the four-case rule; if
  ``v ∈ B_v`` and some value ``δ`` arrived along ``f + 1`` node-disjoint
  ``A_v v``-paths excluding ``F``, set ``γ_v := δ``.

The same engine, parameterized by the equivocation budget ``t``, runs the
hybrid-model Algorithm 3 (Appendix D.2): phases become pairs ``(F, T)``
with ``|T| ≤ t``, ``F ⊆ V − T``, ``|F| ≤ f − |T|``; paths must exclude
``F ∪ T``; the case thresholds use ``ϕ = f − |T|``.  The paper itself
notes Algorithm 3 *is* Algorithm 1 when ``t = 0``.

This algorithm is exponential by design — the paper says so — and the
library keeps it to small graphs; Appendix C's efficient algorithm lives
in :mod:`repro.consensus.algorithm2`.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import FrozenSet, Hashable, List, Optional, Tuple

from ..graphs import Graph, has_disjoint_mask_packing
from ..net.messages import ValuePayload
from ..net.node import Context, Protocol
from .flooding import FloodInstance, flood_rounds
from .path_oracle import PathOracle

CandidatePair = Tuple[FrozenSet[Hashable], FrozenSet[Hashable]]  # (F, T)


def candidate_fault_sets(graph: Graph, f: int) -> List[FrozenSet[Hashable]]:
    """All ``F ⊆ V`` with ``|F| ≤ f``, in a canonical order.

    Every node enumerates phases identically (the order is a pure
    function of the graph and ``f``), which the algorithm requires: phase
    ``i`` must mean the same candidate set everywhere.
    """
    nodes = sorted(graph.nodes, key=repr)
    out: List[FrozenSet[Hashable]] = []
    for size in range(0, f + 1):
        for combo in combinations(nodes, size):
            out.append(frozenset(combo))
    return out


def candidate_pairs(graph: Graph, f: int, t: int) -> List[CandidatePair]:
    """All ``(F, T)`` pairs of Algorithm 3, canonically ordered.

    ``T ⊆ V, |T| ≤ t`` ranges over possible equivocating sets and
    ``F ⊆ V − T, |F| ≤ f − |T|`` over the non-equivocating remainder.
    With ``t = 0`` this degenerates to Algorithm 1's ``(F, ∅)`` list.
    """
    nodes = sorted(graph.nodes, key=repr)
    pairs: List[CandidatePair] = []
    for t_size in range(0, t + 1):
        for t_combo in combinations(nodes, t_size):
            t_set = frozenset(t_combo)
            rest = [v for v in nodes if v not in t_set]
            for f_size in range(0, f - t_size + 1):
                for f_combo in combinations(rest, f_size):
                    pairs.append((frozenset(f_combo), t_set))
    return pairs


def phase_count(n: int, f: int, t: int = 0) -> int:
    """Closed-form number of phases (used by the cost benchmarks)."""
    if t == 0:
        return sum(comb(n, k) for k in range(f + 1))
    total = 0
    for j in range(t + 1):
        total += comb(n, j) * sum(comb(n - j, k) for k in range(f - j + 1))
    return total


class ExactConsensusProtocol(Protocol):
    """The shared phase engine behind Algorithms 1 and 3.

    ``t = 0`` is exactly Algorithm 1; ``t > 0`` is Algorithm 3.  Honest
    and (wrapped) faulty nodes both run this state machine — adversaries
    transform its outbox.
    """

    #: Flooding rule (ii), passed to every phase's :class:`FloodInstance`;
    #: only the rule-(ii) ablation turns it off.
    enable_rule_ii = True

    def __init__(self, graph: Graph, node: Hashable, f: int, input_value: int,
                 t: int = 0, oracle: Optional[PathOracle] = None):
        if input_value not in (0, 1):
            raise ValueError("binary input expected")
        if not 0 <= t <= f:
            raise ValueError("need 0 <= t <= f")
        if oracle is not None and oracle.graph != graph:
            raise ValueError("oracle was built for a different graph")
        self.graph = graph
        self.me = node
        self.f = f
        self.t = t
        # One oracle is typically shared by every instance on this graph
        # (the factory arranges that); a private one still caches the
        # per-phase pruned graph and BFS tree across step (b)'s n queries.
        self.oracle = oracle if oracle is not None else PathOracle(graph)
        self.gamma = input_value
        self.pairs = candidate_pairs(graph, f, t)
        self.rounds_per_phase = flood_rounds(graph)
        self.total_rounds = len(self.pairs) * self.rounds_per_phase
        self._flood: Optional[FloodInstance] = None
        self._output: Optional[int] = None
        # Step (b) orderings per equivocating set (one entry when t = 0):
        # (considered, repr-sorted considered, sorted considered - me).
        self._step_b_order: dict = {}
        # Diagnostics for the proof-invariant tests (Lemmas 5.2/5.3).
        self.gamma_history: List[int] = [input_value]

    # ------------------------------------------------------------------
    def on_round(self, ctx: Context) -> None:
        r = ctx.round_no
        if r > self.total_rounds:
            return
        phase_idx, within = divmod(r - 1, self.rounds_per_phase)
        within += 1
        if within == 1:
            self._flood = FloodInstance(
                self.graph,
                self.me,
                phase=("exact", phase_idx),
                default_payload=ValuePayload(1),
                validator=self._valid_payload,
                enable_rule_ii=self.enable_rule_ii,
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

    @staticmethod
    def _valid_payload(payload, full_path) -> bool:
        return isinstance(payload, ValuePayload)

    def output(self) -> Optional[int]:
        return self._output

    # ------------------------------------------------------------------
    # Steps (b) and (c)
    # ------------------------------------------------------------------
    def _finish_phase(self, phase_idx: int) -> None:
        fault_set, equiv_set = self.pairs[phase_idx]
        # One frozenset per phase: the oracle keys on it, and a shared
        # object hashes once (frozensets cache their hash).
        excluded = frozenset(fault_set | equiv_set)
        assert self._flood is not None
        delivered = self._flood.delivered
        phi = self.f - len(equiv_set)

        # --- Step (b): classify every u in V - T via one path P_uv that
        # excludes F ∪ T.  A missing delivery (a faulty internal node
        # dropped the message) reads as the default value 1, consistent
        # with Z_v := {u | 0 was received along P_uv}.
        z_set: set[Hashable] = set()
        me = self.me
        cached = self._step_b_order.get(equiv_set)
        if cached is None:
            considered = self.graph.nodes - equiv_set
            ordered = sorted(considered, key=repr)
            cached = (considered, ordered, [u for u in ordered if u != me])
            self._step_b_order[equiv_set] = cached
        considered, ordered, sources = cached
        # One batched oracle query per phase: every u shares the same
        # excluded set and target, so the key prefix renders once (the
        # answers and memo traffic equal the per-u loop it replaces).
        paths = iter(self.oracle.paths_excluding_many(sources, me, excluded))
        delivered_get = delivered.get
        for u in ordered:
            if u == me:
                payload = delivered_get((me,))
            else:
                path = next(paths)
                payload = delivered_get(path) if path is not None else None
            value = payload.value if isinstance(payload, ValuePayload) else 1
            if value == 0:
                z_set.add(u)
        n_set = considered - z_set

        # --- Step (c): the four-case choice of (A_v, B_v).
        z_in_f = len(z_set & fault_set)
        if z_in_f <= phi // 2:
            if len(n_set) > self.f:
                a_set, b_set = n_set, z_set  # case 1
            else:
                a_set, b_set = z_set, n_set  # case 2
        else:
            if len(z_set) > self.f:
                a_set, b_set = z_set, n_set  # case 3
            else:
                a_set, b_set = n_set, z_set  # case 4

        if self.me not in b_set:
            return
        # γ_v := δ if some δ arrived along f + 1 node-disjoint
        # A_v v-paths excluding F ∪ T.  Checking δ = 0 first is an
        # arbitrary-but-deterministic tie-break; Lemma 5.2 holds for
        # either δ that passes (each passing δ is some honest node's
        # start-of-phase state).
        #
        # Candidates come from the flood's per-origin sub-index (one
        # origin of A_v at a time instead of scanning all of
        # ``delivered``), and both "excludes F ∪ T" and Uv-disjointness
        # run on the recorded visited-set bitmasks: a path excludes the
        # candidate set iff its internal mask misses ``excl_mask``, and
        # mode="set" disjointness is pairwise AND over everything-but-me
        # masks.  Packing is existence-only, so the per-origin candidate
        # order is immaterial.
        index = self.graph.node_index()
        path_mask = self._flood.path_mask
        me_bit = 1 << index.index_of[self.me]
        excl_mask = index.mask_of(excluded)
        for delta in (0, 1):
            masks: List[int] = []
            for origin in sorted(a_set, key=repr):
                ends = (1 << index.index_of[origin]) | me_bit
                for p, payload in self._flood.origin_view(origin).items():  # repro: allow[REPRO001] insertion-ordered by the deterministic flood; packing is existence-only
                    if (
                        len(p) >= 2
                        and isinstance(payload, ValuePayload)
                        and payload.value == delta
                    ):
                        full = path_mask(p)
                        if full & ~ends & excl_mask == 0:
                            masks.append(full & ~me_bit)
            if has_disjoint_mask_packing(masks, self.f + 1):
                self.gamma = delta
                return


class Algorithm1Protocol(ExactConsensusProtocol):
    """Algorithm 1 (Section 5.1): the tight-condition local-broadcast
    consensus protocol.  Equivalent to the engine with ``t = 0``."""

    def __init__(self, graph: Graph, node: Hashable, f: int, input_value: int,
                 oracle: Optional[PathOracle] = None):
        super().__init__(graph, node, f, input_value, t=0, oracle=oracle)
