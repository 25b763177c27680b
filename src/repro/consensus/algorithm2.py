"""Algorithm 2: the O(n)-round consensus for 2f-connected graphs (App. C).

Three flooding phases of ``n`` rounds each (Theorem 5.6):

* **phase 1** (rounds ``1..n``) — every node floods its input value with
  the rules of Section 5.1;
* **phase 2** (rounds ``n+1..2n``) — every node floods a *report*: the
  complete timed transcript of everything each neighbor transmitted in
  phase 1 (under local broadcast a node hears all of it, so its own
  report is its one record of what it heard).  From the reports, each
  node runs the fault-localization rule of Appendix C: on ``2f``
  node-disjoint paths from every reliably-received origin, the first
  provable deviator per path is faulty.  A node that has localized all
  ``f`` faults becomes **type A**; everyone else is **type B**;
* **phase 3** (rounds ``2n+1..3n``) — type-B nodes decide the majority
  of the values they reliably received and flood that decision; type-A
  nodes adopt any decision arriving from a non-faulty node over a
  fault-free path, falling back to the majority of the non-faulty
  inputs they can read over fault-free paths (which, knowing the fault
  set, they always can).

Everything is expressed through :class:`~repro.consensus.flooding
.FloodInstance` and the reliable-receipt machinery of
:mod:`repro.consensus.reliable`.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Hashable, List, Optional, Set, Tuple

from ..graphs import Graph
from ..net.messages import DecisionPayload, ValuePayload
from ..net.node import Context, Protocol
from ..obs import NULL_METRICS
from .flooding import FloodInstance
from .path_oracle import PathOracle
from .reliable import ClaimIndex, ReportBundle, detect_faults, reliable_value

PathTuple = Tuple[Hashable, ...]


def majority(values: List[int]) -> int:
    """Majority of a list of bits; ties decide 0 (the paper's rule)."""
    ones = sum(values)
    zeros = len(values) - ones
    return 1 if ones > zeros else 0


def _valid_bundle(graph: Graph, memo: dict, payload, full_path) -> bool:
    """Phase-2 validator: a well-formed report bundle from ``full_path[0]``
    whose subjects are distinct neighbors of the reporter.

    Only the reporter test depends on the delivery.  The subject checks
    depend on the bundle alone, so ``memo`` (one per flood) keeps their
    verdict per bundle object: honest relays forward one object, so
    nearly every delivery is a hit.  Each entry holds its bundle, so no
    ``id()`` key is reused while the flood lives.
    """
    if not isinstance(payload, ReportBundle) or payload.reporter != full_path[0]:
        return False
    hit = memo.get(id(payload))
    if hit is None:
        subjects = [s for s, _ in payload.entries]
        hit = memo[id(payload)] = (
            payload,
            len(set(subjects)) == len(subjects)
            and all(
                s in graph.nodes and payload.reporter in graph.neighbors(s)
                for s in subjects
            ),
        )
    return hit[1]


class Algorithm2Protocol(Protocol):
    """Appendix C's efficient protocol.  Requires ``G`` 2f-connected."""

    PHASE1 = ("efficient", 1)
    PHASE2 = ("efficient", 2)
    PHASE3 = ("efficient", 3)

    def __init__(self, graph: Graph, node: Hashable, f: int, input_value: int,
                 oracle: Optional[PathOracle] = None):
        if input_value not in (0, 1):
            raise ValueError("binary input expected")
        if oracle is not None and oracle.graph != graph:
            raise ValueError("oracle was built for a different graph")
        self.graph = graph
        # One oracle is typically shared by every instance on this graph
        # (the factory does that): phase-2 fault localization walks the
        # same per-origin plans at every node.
        self.oracle = oracle if oracle is not None else PathOracle(graph)
        self.me = node
        self.f = f
        self.input_value = input_value
        self.n = graph.n
        self.total_rounds = 3 * self.n
        self._flood1: Optional[FloodInstance] = None
        self._flood2: Optional[FloodInstance] = None
        self._flood3: Optional[FloodInstance] = None
        self._transcripts: Dict[Hashable, List[Tuple[int, object]]] = {}
        self.reliable_values: Dict[Hashable, int] = {}
        self.detected: Set[Hashable] = set()
        self.node_type: Optional[str] = None  # "A" or "B" after phase 2
        self._output: Optional[int] = None
        # Cached per activation: phase-conclusion helpers run without a
        # context, so they read the registry from here.
        self._metrics = NULL_METRICS

    # ------------------------------------------------------------------
    def on_round(self, ctx: Context) -> None:
        self._metrics = ctx.metrics
        r = ctx.round_no
        n = self.n
        if r > self.total_rounds:
            return
        # Phase-1 transcript recording: transmissions of rounds 1..n are
        # heard in rounds 2..n+1.  Everything a neighbor sends is on the
        # record — that is the local broadcast advantage.
        if 2 <= r <= n + 1:
            for sender, message in ctx.inbox:
                self._transcripts.setdefault(sender, []).append((r - 1, message))

        if r == 1:
            self._flood1 = FloodInstance(
                self.graph,
                self.me,
                phase=self.PHASE1,
                default_payload=ValuePayload(1),
                validator=self._valid_value,
            )
            self._flood1.initiate(ctx, ValuePayload(self.input_value))
        elif r <= n:
            assert self._flood1 is not None
            self._flood1.process_round(ctx)
        elif r == n + 1:
            self._start_phase2(ctx)
        elif r <= 2 * n:
            assert self._flood2 is not None
            self._flood2.process_round(ctx)
            if r == 2 * n:
                self._conclude_phase2()
        elif r == 2 * n + 1:
            self._start_phase3(ctx)
        elif r <= 3 * n:
            assert self._flood3 is not None
            self._flood3.process_round(ctx)
            if r == 3 * n and self.node_type == "A":
                self._decide_type_a()

    def output(self) -> Optional[int]:
        return self._output

    # ------------------------------------------------------------------
    # Phase 2: reports and fault localization
    # ------------------------------------------------------------------
    def _start_phase2(self, ctx: Context) -> None:
        transcripts = {
            nbr: self._transcripts.get(nbr, [])
            # Reports cover the nodes *me hears* — in-neighbors on a
            # digraph, ordinary neighbors on a symmetric view.
            for nbr in self.graph.sorted_in_neighbors(self.me)
        }
        bundle = ReportBundle.build(self.me, transcripts)
        self._flood2 = FloodInstance(
            self.graph,
            self.me,
            phase=self.PHASE2,
            default_payload=None,
            validator=partial(_valid_bundle, self.graph, {}),
        )
        self._flood2.initiate(ctx, bundle)

    # Validators are static (or bound to the graph only): a flood that
    # held a bound method would hold its protocol in a reference cycle.
    @staticmethod
    def _valid_value(payload, full_path) -> bool:
        return isinstance(payload, ValuePayload)

    @staticmethod
    def _valid_decision(payload, full_path) -> bool:
        return isinstance(payload, DecisionPayload) and payload.value in (0, 1)

    def _conclude_phase2(self) -> None:
        assert self._flood1 is not None and self._flood2 is not None
        for origin in sorted(self.graph.nodes, key=repr):
            # The flood's per-origin sub-index is exactly the slice of
            # ``delivered`` the certificate for ``origin`` can use, and
            # its recorded visited masks feed the disjointness packing.
            value = reliable_value(
                self.graph,
                self.f,
                self.me,
                self._flood1.origin_view(origin),
                origin,
                metrics=self._metrics,
                path_mask=self._flood1.path_mask,
            )
            if value is not None:
                self.reliable_values[origin] = value
        # ``delivered`` holds this node's own report at ``(me,)``: the
        # claim index reads what the node heard from it.
        claims = ClaimIndex(
            self.graph,
            self.f,
            self.me,
            self._flood2.delivered,
            path_mask=self._flood2.path_mask,
        )
        self.detected = detect_faults(
            self.graph,
            self.f,
            self.me,
            self.reliable_values,
            claims,
            phase1_tag=self.PHASE1,
            first_round=1,
            oracle=self.oracle,
        )
        self.node_type = "A" if len(self.detected) == self.f else "B"
        self._metrics.inc("alg2.node_type", type=self.node_type)

    # ------------------------------------------------------------------
    # Phase 3: decide and disseminate
    # ------------------------------------------------------------------
    def _start_phase3(self, ctx: Context) -> None:
        self._flood3 = FloodInstance(
            self.graph,
            self.me,
            phase=self.PHASE3,
            default_payload=None,
            validator=self._valid_decision,
        )
        if self.node_type == "B":
            decision = majority(sorted(self.reliable_values.values()))
            self._output = decision
            self._flood3.initiate(ctx, DecisionPayload(decision))

    def _fault_free(self, path: PathTuple) -> bool:
        """No *detected* faulty node appears as an internal node."""
        return not any(z in self.detected for z in path[1:-1])

    def _decide_type_a(self) -> None:
        assert self._flood3 is not None and self._flood1 is not None
        # Adopt a decision that arrived from a non-faulty origin over a
        # fault-free path.  Only type-B nodes flood decisions, so an
        # honest origin's decision is an honest type-B decision.
        decisions = sorted(
            payload.value
            for path, payload in self._flood3.delivered.items()
            if len(path) >= 2
            and isinstance(payload, DecisionPayload)
            and path[0] not in self.detected
            and self._fault_free(path)
        )
        if decisions:
            self._output = decisions[0]
            return
        # No type-B node exists: reconstruct every non-faulty node's input
        # over fault-free paths (knowing the fault set makes Observation
        # B.1 usable directly) and take the majority.  Each undetected
        # origin's first fault-free delivery is read.  That needs sound
        # detection (the detected set is exactly the faulty one, as in
        # synchronous runs): then every fault-free path from an undetected
        # origin carries that origin's value, and any one will do.  Async
        # schedulers can leave detection unsound; there a path through an
        # undetected faulty relay may carry another value, so reading the
        # first path instead of the ``repr``-least one could change the
        # output.
        inputs: List[int] = []
        for origin in sorted(self.graph.nodes - self.detected, key=repr):
            # repro: allow[REPRO001] insertion order is the deterministic
            # flood-processing order, and any fault-free path will do.
            for path, payload in self._flood1.origin_view(origin).items():
                if isinstance(payload, ValuePayload) and self._fault_free(path):
                    inputs.append(payload.value)
                    break
        self._output = majority(inputs)
