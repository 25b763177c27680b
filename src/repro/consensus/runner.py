"""One-call experiment runner: wire up a graph, inputs, faults, adversary.

Every correctness experiment in the library is phrased as: *run protocol
P on graph G with inputs I, faulty set X behaving as adversary A, under
channel model M; then check agreement / validity / termination over the
honest nodes*.  :func:`run_consensus` does exactly that and returns a
structured verdict, so tests and benchmarks stay declarative.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, Hashable, Iterable, Mapping, Optional, Union

from ..graphs import Graph
from ..net.adversary import Adversary, FaultSpec, HonestFactory
from ..net.channels import ChannelModel, local_broadcast_model
from ..net.node import Protocol
from ..net.sched import EventDrivenNetwork, SchedulerSpec
from ..net.simulator import SimulationError, SynchronousNetwork
from ..net.trace import Trace
from ..obs import (
    FlightRecord,
    MetricsRegistry,
    WallTimings,
    encode_label,
    flight_from_trace,
)


#: The four ways a run can end (``ConsensusResult.outcome``).
OUTCOME_DECIDED = "decided"
OUTCOME_DISAGREED = "disagreed"
OUTCOME_BUDGET_EXHAUSTED = "budget_exhausted"
OUTCOME_STALLED = "stalled"

#: Budget slack for message-driven protocols under a scheduler that
#: declares *no* delay bound: the soft ``budget_hint`` (unit-delay ticks)
#: cannot be scaled by a worst-case delay, so scale by this instead.
#: Quiescence detection usually stops such runs long before the cap.
_UNBOUNDED_BUDGET_SLACK = 8


@dataclass(frozen=True)
class ConsensusResult:
    """Outcome of one run, evaluated over the honest nodes only."""

    outputs: Dict[Hashable, Optional[int]]
    honest: FrozenSet[Hashable]
    faulty: FrozenSet[Hashable]
    honest_inputs: Dict[Hashable, int]
    rounds: int
    transmissions: int
    deliveries: int
    trace: Trace = field(repr=False)
    #: Message-driven runs only: the network went quiescent (nothing in
    #: flight, nothing sent, no local timers armed) with honest nodes
    #: still undecided — a genuine non-termination, not clock exhaustion.
    stalled: bool = False
    #: Canonical metrics snapshot when the run was metered (content
    #: data: virtual time only, byte-identical across engines/workers).
    metrics: Optional[dict] = None
    #: QUARANTINED wall-clock timings when metered.  Never compare these
    #: for determinism — strip via :func:`repro.obs.strip_timings`.
    timings: Optional[dict] = field(default=None, compare=False)
    #: The flight recording's header and outcome lines, built at run end
    #: (``run_consensus(..., flight=True)`` only); :attr:`flight` adds
    #: the event stream from the trace on first access.
    _flight_frame: Optional[tuple[dict, dict]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @cached_property
    def flight(self) -> Optional[FlightRecord]:
        """The causal flight recording (``flight=True`` runs only):
        header + happened-before event stream + outcome as a replayable
        :class:`~repro.obs.FlightRecord`.

        The event stream is serialized from :attr:`trace` on first
        access and cached, so a caller that never reads it (a sweep
        keeping only anomalous runs) never pays for it.  Derived
        entirely from the trace and the run's configuration, it stays
        out of ``repr`` and equality like the trace itself.
        """
        if self._flight_frame is None:
            return None
        header, outcome = self._flight_frame
        return flight_from_trace(self.trace, header, outcome)

    @property
    def honest_outputs(self) -> Dict[Hashable, Optional[int]]:
        return {v: self.outputs[v] for v in self.honest}

    @property
    def terminated(self) -> bool:
        """Every honest node decided (output is not None)."""
        return all(self.outputs[v] is not None for v in self.honest)

    @property
    def agreement(self) -> bool:
        """All honest outputs exist and are equal."""
        values = {self.outputs[v] for v in self.honest}
        return self.terminated and len(values) == 1

    @property
    def validity(self) -> bool:
        """Every honest output is the input of some honest node."""
        legal = set(self.honest_inputs.values())
        return self.terminated and all(
            self.outputs[v] in legal for v in self.honest
        )

    @property
    def consensus(self) -> bool:
        return self.terminated and self.agreement and self.validity

    @property
    def decision(self) -> Optional[int]:
        """The common honest output, when agreement holds."""
        if not self.agreement:
            return None
        # repro: allow[REPRO001] agreement holds here, so the set is a
        # singleton and iteration order is vacuous.
        return next(iter({self.outputs[v] for v in self.honest}))

    @property
    def outcome(self) -> str:
        """How the run ended, as a four-way verdict.

        ``"decided"`` — every honest node decided and the decisions
        satisfy agreement and validity; ``"disagreed"`` — every honest
        node decided but the decisions violate agreement or validity (a
        genuine safety failure); ``"budget_exhausted"`` — some honest
        node was still undecided when the virtual-time budget ran out;
        ``"stalled"`` (message-driven protocols only) — the run went
        quiescent with honest nodes undecided, so no amount of further
        virtual time could have helped.  The distinction matters for
        asynchronous runs: with a correctly scaled budget
        (``total_rounds × worst_case_delay`` for fixed-round protocols,
        ``budget_hint`` for message-driven ones), only ``"disagreed"``
        convicts the protocol of losing consensus, while the other two
        convict it of not terminating — and ``"stalled"`` proves it.
        """
        if not self.terminated:
            return OUTCOME_STALLED if self.stalled else OUTCOME_BUDGET_EXHAUSTED
        if not (self.agreement and self.validity):
            return OUTCOME_DISAGREED
        return OUTCOME_DECIDED


def run_consensus(
    graph: Graph,
    honest_factory: HonestFactory,
    inputs: Mapping[Hashable, int],
    f: int,
    faulty: Iterable[Hashable] = (),
    adversary: Optional[Adversary] = None,
    channel: Optional[ChannelModel] = None,
    max_rounds: Optional[int] = None,
    scheduler: Optional[SchedulerSpec] = None,
    metrics: Union[bool, MetricsRegistry, None] = None,
    flight: bool = False,
    run_spec: Optional[Mapping] = None,
) -> ConsensusResult:
    """Run one consensus execution and evaluate the three properties.

    ``honest_factory(node, input_value)`` builds the honest protocol;
    faulty nodes get ``adversary.build(...)`` instead.  ``max_rounds``
    defaults to the honest protocols' own ``total_rounds`` budget (every
    protocol in this library precomputes its round count — the paper's
    algorithms are all fixed-round).

    ``scheduler`` selects the timing model: ``None`` runs the classic
    synchronous simulator; a :class:`~repro.net.sched.SchedulerSpec`
    runs the event-driven core with a fresh scheduler built for this
    run.  The lockstep spec is trace-equivalent to ``None``; the
    asynchronous specs deliberately stress the fixed-round protocols
    outside their synchrony assumption.

    ``metrics`` meters the run: ``True`` builds a fresh
    :class:`~repro.obs.MetricsRegistry`; passing a registry (e.g. one
    with an NDJSON event log attached) uses it.  The canonical snapshot
    lands on ``ConsensusResult.metrics`` and the wall-clock duration —
    quarantined — on ``ConsensusResult.timings``.

    ``flight=True`` records the run as a causal flight recording
    (:class:`~repro.obs.FlightRecord` on ``ConsensusResult.flight``,
    built on first access): the full happened-before event stream plus
    everything needed to re-execute the run byte-identically
    (:func:`repro.analysis.replay_flight`).  ``run_spec`` is an optional
    JSON-ready dict stored verbatim in the flight header (provenance —
    e.g. the sweep task index that produced the recording); it must be
    canonical itself, since replay byte-compares headers.
    """
    faulty_set = frozenset(faulty)
    unknown = faulty_set - graph.nodes
    if unknown:
        raise ValueError(f"faulty nodes not in graph: {sorted(unknown, key=repr)}")
    if len(faulty_set) > f:
        raise ValueError(f"|faulty| = {len(faulty_set)} exceeds f = {f}")
    if faulty_set and adversary is None:
        raise ValueError("an adversary is required when faulty nodes exist")
    missing_inputs = graph.nodes - set(inputs)
    if missing_inputs:
        raise ValueError(f"missing inputs for {sorted(missing_inputs, key=repr)}")

    channel = channel if channel is not None else local_broadcast_model()
    honest = frozenset(graph.nodes - faulty_set)

    protocols: Dict[Hashable, Protocol] = {}
    for node in sorted(graph.nodes, key=repr):
        if node in faulty_set:
            assert adversary is not None
            spec = FaultSpec(
                node=node,
                graph=graph,
                channel=channel,
                input_value=inputs[node],
                f=f,
                faulty=faulty_set,
                honest_factory=honest_factory,
            )
            protocols[node] = adversary.build(spec)
        else:
            protocols[node] = honest_factory(node, inputs[node])

    #: Quiescence-aware run loop iff every honest protocol is
    #: message-driven (no round schedule — e.g. the asynchronous
    #: algorithm): such protocols act only on arrivals and local timers,
    #: so "nothing in flight + nothing sent + no timer armed" proves the
    #: run can never progress again.
    message_driven = all(
        getattr(protocols[v], "message_driven", False)
        for v in sorted(honest, key=repr)
    )

    if max_rounds is None:
        known = []
        for v in sorted(honest, key=repr):
            budget = getattr(protocols[v], "total_rounds", None)
            if not isinstance(budget, int):
                if getattr(protocols[v], "message_driven", False):
                    # No round schedule exists; the protocol publishes a
                    # *soft* tick envelope instead (unit-delay
                    # denominated).  Scale it like a round budget when
                    # the scheduler declares a bound; under an unbounded
                    # scheduler apply a fixed slack — the quiescence
                    # check below, not the cap, is the real terminator.
                    hint = getattr(protocols[v], "budget_hint", None)
                    if isinstance(hint, int):
                        if scheduler is None:
                            known.append(hint)
                        elif scheduler.bounded:
                            known.append(scheduler.horizon(hint))
                        else:
                            known.append(hint * _UNBOUNDED_BUDGET_SLACK)
                continue
            if scheduler is not None and not getattr(
                protocols[v], "budget_in_ticks", False
            ):
                # The protocol's own budget counts synchronous *rounds*;
                # the event core counts virtual *ticks*.  Under delays up
                # to d, round r's messages need not land before tick r·d,
                # so capping ticks at the round budget would abort
                # slow-but-correct runs and report clock exhaustion as a
                # consensus failure.  Scale by the declared delay bound.
                # (Protocols that declare ``budget_in_ticks`` — the
                # α-synchronizer wrapper — already account for delays.)
                if not scheduler.bounded:
                    raise ValueError(
                        "max_rounds required: scheduler "
                        f"{scheduler.name!r} declares no delay bound"
                    )
                budget = scheduler.horizon(budget)
            known.append(budget)
        if not known:
            raise ValueError("max_rounds required: protocols expose no budget")
        max_rounds = max(known)

    if metrics is True:
        registry: Optional[MetricsRegistry] = MetricsRegistry()
    elif metrics:
        registry = metrics
    else:
        registry = None

    if scheduler is None:
        net = SynchronousNetwork(graph, protocols, channel, metrics=registry)
    else:
        net = EventDrivenNetwork(
            graph, protocols, scheduler.build(graph), channel, metrics=registry
        )
    stalled = False
    timer = WallTimings()
    with timer.time("run"):
        if message_driven:
            stalled = _run_message_driven(net, max_rounds, honest)
        else:
            try:
                net.run_until_decided(max_rounds, honest=set(honest))
            except SimulationError:
                pass  # non-termination is reported through the result, not raised
    snapshot = registry.snapshot() if registry is not None else None
    result = ConsensusResult(
        outputs=net.outputs(),
        honest=honest,
        faulty=faulty_set,
        honest_inputs={v: inputs[v] for v in sorted(honest, key=repr)},
        rounds=net.trace.rounds,
        transmissions=net.trace.transmission_count,
        deliveries=net.trace.delivery_count,
        trace=net.trace,
        stalled=stalled,
        metrics=snapshot,
        timings=timer.snapshot() if registry is not None else None,
    )
    if flight:
        header = _flight_header(
            graph, inputs, f, faulty_set, adversary, channel, scheduler,
            max_rounds, honest_factory, snapshot, run_spec,
        )
        outcome_line = {
            "type": "outcome",
            "outcome": result.outcome,
            "stalled": result.stalled,
            "rounds": result.rounds,
            "outputs": [
                [encode_label(v), result.outputs[v]]
                for v in sorted(result.outputs, key=repr)
            ],
        }
        # The result dataclass is frozen for callers; the header and
        # outcome capture run state, so they are attached here, before
        # the result escapes.  The event stream waits for `flight`.
        object.__setattr__(result, "_flight_frame", (header, outcome_line))
    if registry is not None:
        registry.emit(
            "result",
            outcome=result.outcome,
            decision=result.decision,
            rounds=result.rounds,
            transmissions=result.transmissions,
            deliveries=result.deliveries,
        )
    return result


def _flight_header(
    graph: Graph,
    inputs: Mapping[Hashable, int],
    f: int,
    faulty_set: FrozenSet[Hashable],
    adversary: Optional[Adversary],
    channel: ChannelModel,
    scheduler: Optional[SchedulerSpec],
    max_rounds: int,
    honest_factory: HonestFactory,
    snapshot: Optional[dict],
    run_spec: Optional[Mapping],
) -> dict:
    """The flight header: everything a replay needs, JSON-canonical.

    Factories publish their own rebuild recipe via a duck-typed
    ``flight_spec()``; one without it is recorded as opaque — the flight
    stays fully analyzable, and only ``replay`` refuses it.  The
    adversary is recorded by battery name (plus its seed/crash knobs
    when present), the scheduler as its frozen spec fields, and
    ``max_rounds`` as the *resolved* budget so replay never re-derives.
    """
    spec_fn = getattr(honest_factory, "flight_spec", None)
    factory_spec = (
        spec_fn()
        if callable(spec_fn)
        else {"kind": "opaque", "repr": repr(honest_factory)}
    )
    adversary_spec = None
    if adversary is not None:
        adversary_spec = {
            "name": adversary.name,
            "seed": getattr(adversary, "seed", None),
        }
        crash_round = getattr(adversary, "crash_round", None)
        if crash_round is not None:
            adversary_spec["crash_round"] = crash_round
    nodes = sorted(graph.nodes, key=repr)
    if graph.directed:
        # Arcs are ordered pairs: no endpoint canonicalization, or the
        # direction would be lost on replay.
        graph_spec = {
            "nodes": [encode_label(v) for v in nodes],
            "edges": [
                [encode_label(u), encode_label(v)]
                for u, v in sorted(graph.arcs(), key=repr)
            ],
            "directed": True,
        }
    else:
        edge_pairs = sorted(
            (tuple(sorted(edge, key=repr)) for edge in graph.edges()),
            key=repr,
        )
        graph_spec = {
            "nodes": [encode_label(v) for v in nodes],
            "edges": [
                [encode_label(u), encode_label(v)] for u, v in edge_pairs
            ],
        }
    header = {
        "type": "header",
        "version": 1,
        "graph": graph_spec,
        "f": f,
        "faulty": [encode_label(v) for v in sorted(faulty_set, key=repr)],
        "inputs": [[encode_label(v), inputs[v]] for v in nodes],
        "adversary": adversary_spec,
        "channel": {
            "kind": channel.kind,
            "equivocators": [
                encode_label(v)
                for v in sorted(channel.equivocators, key=repr)
            ],
        },
        "scheduler": None if scheduler is None else asdict(scheduler),
        "max_rounds": max_rounds,
        "factory": factory_spec,
        "metered": snapshot is not None,
        "spec": dict(run_spec) if run_spec else {},
    }
    if snapshot is not None:
        header["spans"] = snapshot.get("spans", [])
    return header


def _run_message_driven(net, max_ticks: int, honest: FrozenSet[Hashable]) -> bool:
    """Run until every honest node decided, quiescence, or the tick cap.

    Returns ``True`` iff the run *stalled*: the network carried no
    undelivered messages, the last tick produced no transmissions, and no
    honest protocol had a local timer armed — so the state is a fixpoint
    and further ticks are provably futile.  (Timers on *faulty* wrappers
    are invisible here; under the feasibility conditions honest quorums
    never depend on them, see ``consensus/async_alg.py``.)
    """
    watch = sorted(honest, key=repr)

    def undecided() -> bool:
        return any(not net.protocols[v].finished for v in watch)

    for _ in range(max_ticks):
        if not undecided():
            return False
        sent_before = net.trace.transmission_count
        net.step()
        if (
            net.trace.transmission_count == sent_before
            and net.in_flight == 0
            and not any(getattr(net.protocols[v], "armed", False) for v in watch)
        ):
            return undecided()
    return False
