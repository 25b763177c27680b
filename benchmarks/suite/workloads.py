"""The benchmark's workloads: inputs from one seed, calls, and checks.

Each workload is a closed loop with one client.  Its *calls* are the
requests that client issues and waits for — one public entry-point
invocation (or a fixed group of them) — listed in a canonical cycle
that is a pure function of the seed.  The runner times each call with
``perf_counter`` and checks its output after the clock stops.

Every call runs in one of three modes:

* ``E2E`` — what a user runs: the untraced configuration whose timings
  are the end-to-end metrics.  Sweeps run serially: on a shared 2-CPU
  host a two-worker pool's wall time follows whether a second core is
  free, not the program;
* ``TRACE`` — the layer-split configuration: the same serial sweeps,
  metered, so the counters come from the runs' own snapshots;
* ``POOL`` — the metered two-worker sweep whose quarantined ``timings``
  give the pool numbers.

Counts (runs, outcomes, transmissions, deliveries, flight blobs) are
identical in all three modes; the runner checks that.
"""

from __future__ import annotations

import pickle
import random
import statistics
import zlib
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Tuple

from repro import analysis, consensus, graphs, net, obs

E2E = "e2e"
TRACE = "trace"
POOL = "pool"

#: Every workload tolerates one Byzantine node.
F = 1
#: Pool workers for the metered pool sweeps (the benchmark box has 2 CPUs).
POOL_WORKERS = 2
#: Flight blobs replayed byte-for-byte after the timed section.
REPLAY_SAMPLE = 8


@dataclass
class Outcome:
    """What one call did, read after its timer stopped."""

    runs: int
    failed: int
    #: Deterministic counts: compared with the golden file at the default
    #: seed and between the traced and untraced runs of one seed.
    signature: Dict[str, int]
    #: Metrics snapshots of the call's runs (metered modes only).
    snapshots: List[dict] = field(default_factory=list)
    #: Quarantined sweep ``timings`` sections (metered sweeps only).
    timings: List[dict] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)


def _feasible(graph, name: str) -> None:
    report = consensus.check_local_broadcast(graph, F)
    if not report.feasible:
        raise RuntimeError(f"{name} violates the f={F} local broadcast condition")


def _build(kind: str, n: int):
    return graphs.wheel_graph(n) if kind == "wheel" else graphs.cycle_graph(n)


class Workload:
    """Base class: subclasses set ``name`` and the call hooks."""

    name = ""
    #: Whether the calls are sweeps, whose traced run also measures the
    #: process pool (``POOL`` mode and the spawn-floor probe).
    pooled = False

    def __init__(self, seed: int):
        self.seed = seed
        self.calls: List[object] = []
        self.oracle_hits = 0
        self.oracle_misses = 0

    def run(self, spec, mode: str, ledger) -> object:
        """One call: the timed section."""
        raise NotImplementedError

    def outcome(self, spec, raw) -> Outcome:
        """Checks and counts for one call (untimed)."""
        raise NotImplementedError

    def finish(self) -> List[str]:
        """Checks that run once, after the timed section."""
        return []

    def pool_probe(self) -> Dict[str, float]:
        """Pool spawn floor and payload size (pooled workloads only)."""
        return {}

    def _count_oracle(self, factory) -> None:
        self.oracle_hits += factory.oracle.hits
        self.oracle_misses += factory.oracle.misses


# ---------------------------------------------------------------------------
# alg1-battery: many small exact-phase floods, one run per call
# ---------------------------------------------------------------------------


class Alg1Battery(Workload):
    name = "alg1-battery"
    GRAPHS = (("cycle", 7), ("cycle", 9), ("wheel", 6), ("wheel", 7))

    def __init__(self, seed: int):
        super().__init__(seed)
        self.graphs = [_build(kind, n) for kind, n in self.GRAPHS]
        for (kind, n), graph in zip(self.GRAPHS, self.graphs):
            _feasible(graph, f"{kind}:{n}")
        # One long-lived factory per graph: a battery reuses its oracle.
        self.factories = [consensus.algorithm1_factory(g, F) for g in self.graphs]
        self.adversaries = net.standard_adversaries(seed)
        self.patterns = [analysis.input_patterns(g) for g in self.graphs]
        self.calls = [
            (gi, node, ai, pattern)
            for gi, graph in enumerate(self.graphs)
            for node in sorted(graph.nodes, key=repr)
            for ai in range(len(self.adversaries))
            for pattern in self.patterns[gi]
        ]

    def run(self, spec, mode, ledger):
        gi, node, ai, pattern = spec
        return consensus.run_consensus(
            self.graphs[gi],
            self.factories[gi],
            self.patterns[gi][pattern],
            f=F,
            faulty=[node],
            adversary=self.adversaries[ai],
            metrics=mode != E2E,
        )

    def outcome(self, spec, raw):
        decided = raw.outcome == consensus.OUTCOME_DECIDED
        return Outcome(
            runs=1,
            failed=0 if decided else 1,
            signature={
                "runs": 1,
                "decided": int(decided),
                "transmissions": raw.transmissions,
                "deliveries": raw.deliveries,
            },
            snapshots=[raw.metrics] if raw.metrics else [],
            problems=[] if decided else [f"{spec}: {raw.outcome}"],
        )

    def finish(self):
        self.oracle_hits = sum(f.oracle.hits for f in self.factories)
        self.oracle_misses = sum(f.oracle.misses for f in self.factories)
        return []


# ---------------------------------------------------------------------------
# Sweep workloads
# ---------------------------------------------------------------------------


class _Sweeps(Workload):
    """Calls made of ``consensus_sweep`` invocations.

    Graphs and factories are built inside each call, as a sweep user's
    command does, so every call starts from a cold oracle in both the
    pooled and the serial configuration.
    """

    pooled = True

    def _workers(self, mode: str) -> int:
        return POOL_WORKERS if mode == POOL else 1

    def outcome(self, spec, raw) -> Outcome:
        runs = decided = transmissions = max_rounds = 0
        snapshots, timings, problems = [], [], []
        for label, report, factory in raw:
            runs += report.runs
            done = report.outcomes.get(consensus.OUTCOME_DECIDED, 0)
            decided += done
            transmissions += sum(r.transmissions for r in report.records)
            max_rounds = max(max_rounds, report.max_rounds)
            if done != report.runs:
                problems.append(f"{spec} {label}: {report.outcomes}")
            if report.metrics is not None:
                snapshots.append(report.metrics)
            if report.timings is not None:
                timings.append(report.timings)
            self._count_oracle(factory)
        return Outcome(
            runs=runs,
            failed=runs - decided,
            signature={
                "runs": runs,
                "decided": decided,
                "transmissions": transmissions,
                "max_rounds": max_rounds,
            },
            snapshots=snapshots,
            timings=timings,
            problems=problems,
        )

    def _pool_floor(self, graph, factory) -> Dict[str, float]:
        """Spawn, pickle and merge cost of the pool: a one-task sweep at
        two workers minus the same sweep run serially, as the median of 5
        back-to-back pairs after one untimed serial sweep warms the
        factory's oracle (so both sides run the task warm)."""

        def one_task(workers: int) -> float:
            start = perf_counter()
            analysis.consensus_sweep(
                graph, factory, F, workers=workers,
                adversaries=[net.SilentAdversary()], patterns=["all-zero"],
                fault_limit=1, seed=self.seed,
            )
            return perf_counter() - start

        one_task(1)
        floors = [one_task(POOL_WORKERS) - one_task(1) for _ in range(5)]
        return {
            "pool_floor_ms": statistics.median(floors) * 1000.0,
            "payload_bytes": float(len(pickle.dumps(factory))),
        }


def _sampled_calls(graph, seed: int, per_pattern: int) -> List[Tuple[str, int]]:
    """``per_pattern`` calls per input pattern, each with its own sample
    seed that picks the call's fault placements, so calls cost about the
    same and a run holds enough of them for a stable median."""
    rng = random.Random(seed)
    return [
        (pattern, rng.randrange(2 ** 31))
        for pattern in analysis.input_patterns(graph)
        for _ in range(per_pattern)
    ]


class Alg2Sweep(_Sweeps):
    name = "alg2-sweep"
    GRAPH = ("wheel", 8)
    #: Fault placements per call: one pattern x 7 adversaries x 1 seeded
    #: placement = 7 runs.  Placements on W8 cost within about 15% of
    #: each other, so every call costs about the same.
    PLACEMENTS = 1

    def __init__(self, seed: int):
        super().__init__(seed)
        graph = _build(*self.GRAPH)
        _feasible(graph, "wheel:8")
        self.adversaries = net.standard_adversaries(seed)
        self.calls = _sampled_calls(graph, seed, per_pattern=4)

    def run(self, spec, mode, ledger):
        pattern, sample = spec
        graph = _build(*self.GRAPH)
        factory = consensus.algorithm2_factory(graph, F)
        report = analysis.consensus_sweep(
            graph,
            factory,
            F,
            adversaries=self.adversaries,
            fault_limit=self.PLACEMENTS,
            patterns=[pattern],
            seed=sample,
            workers=self._workers(mode),
            metrics=mode != E2E,
        )
        return [("algorithm2", report, factory)]

    def pool_probe(self):
        graph = _build(*self.GRAPH)
        factory = consensus.algorithm2_factory(graph, F)
        return self._pool_floor(graph, factory)


# ---------------------------------------------------------------------------
# flood-receipt-n40: the large-n analytic path, no simulator
# ---------------------------------------------------------------------------


class FloodReceipt(Workload):
    name = "flood-receipt-n40"
    N = 40

    def __init__(self, seed: int):
        super().__init__(seed)
        self.graph = graphs.wheel_graph(self.N)
        self.nodes = sorted(self.graph.nodes, key=repr)
        self.expected = analysis.expected_wheel_deliveries_at_rim(self.N - 1)
        rng = random.Random(seed)
        rim = self.nodes[1:]
        self.calls = [
            (rng.choice(rim), tuple(rng.randrange(2) for _ in self.nodes))
            for _ in range(8)
        ]

    def run(self, spec, mode, ledger):
        receiver, bits = spec
        graph, nodes = self.graph, self.nodes
        metrics = obs.MetricsRegistry() if mode != E2E else obs.NULL_METRICS
        engine = consensus.PathFloodEngine(
            graph,
            {v: consensus.NodeBehavior.honest(bit) for v, bit in zip(nodes, bits)},
            metrics=metrics,
        )
        deliveries = engine.deliveries_at(receiver)
        # One pass splits the deliveries per origin and records each
        # path's visited-set mask, as ``repro profile --flood-receipt``.
        with ledger.span("graphs.index"):
            index = graph.node_index()
            by_origin: Dict[object, dict] = {}
            masks: Dict[tuple, int] = {}
            for path, value in deliveries.items():
                by_origin.setdefault(path[0], {})[path] = value
                masks[path] = index.mask_of(path)
        received = {}
        for origin in nodes:
            payload = consensus.reliable_payload(
                graph,
                F,
                receiver,
                by_origin.get(origin, {}),
                origin,
                metrics=metrics,
                path_mask=masks.__getitem__,
            )
            if payload is not None:
                received[origin] = payload
        snapshot = metrics.snapshot() if mode != E2E else None
        return len(deliveries), received, snapshot

    def outcome(self, spec, raw):
        receiver, bits = spec
        count, received, snapshot = raw
        # The analytic engine floods plain ints, so a receipt is the bit.
        good_values = received == dict(zip(self.nodes, bits))
        problems = []
        if count != self.expected:
            problems.append(f"receiver {receiver}: {count} deliveries, "
                            f"closed form says {self.expected}")
        if not good_values:
            problems.append(f"receiver {receiver}: reliable receipt lost or "
                            "changed an input")
        return Outcome(
            runs=1,
            failed=1 if problems else 0,
            signature={"runs": 1, "deliveries": count, "origins": len(received)},
            snapshots=[snapshot] if snapshot else [],
            problems=problems,
        )


# ---------------------------------------------------------------------------
# async-observed: event-driven engine, schedulers, metrics and flights
# ---------------------------------------------------------------------------


class AsyncObserved(Workload):
    name = "async-observed"
    GRAPH = ("wheel", 6)
    #: Fault placements per sweep: one pattern x 7 adversaries x 2 seeded
    #: placements x 2 schedulers = 28 runs per algorithm, 56 per call.
    PLACEMENTS = 2

    def __init__(self, seed: int):
        super().__init__(seed)
        graph = _build(*self.GRAPH)
        if not consensus.check_async_local_broadcast(graph, F).feasible:
            raise RuntimeError("wheel:6 violates the async f=1 condition")
        self.adversaries = net.standard_adversaries(seed)
        self.calls = _sampled_calls(graph, seed, per_pattern=4)
        self._rng = random.Random(seed)
        self._seen_blobs = 0
        #: Seeded reservoir of flight blobs to replay after the timed section.
        self.sample: List[Tuple[str, bytes]] = []

    def run(self, spec, mode, ledger):
        pattern, sample = spec
        graph = _build(*self.GRAPH)
        # The sample seed also seeds the timing, so one run covers as many
        # seeded-async schedules as it makes calls.
        schedulers = [
            net.parse_scheduler(kind, seed=sample, max_delay=3)
            for kind in ("seeded-async", "adversarial")
        ]
        out = []
        for label, make in (
            ("algorithm2", consensus.algorithm2_factory),
            ("async", consensus.async_factory),
        ):
            factory = make(graph, F)
            report = analysis.consensus_sweep(
                graph,
                factory,
                F,
                adversaries=self.adversaries,
                fault_limit=self.PLACEMENTS,
                patterns=[pattern],
                schedulers=schedulers,
                seed=sample,
                metrics=True,
                capture="anomalies",
            )
            out.append((label, report, factory))
        return out

    def outcome(self, spec, raw):
        runs = decided = disagreed = transmissions = deliveries = 0
        blobs = blob_bytes = failed = 0
        snapshots, problems = [], []
        for label, report, factory in raw:
            runs += report.runs
            outcomes = report.outcomes
            decided += outcomes.get(consensus.OUTCOME_DECIDED, 0)
            disagreed += outcomes.get(consensus.OUTCOME_DISAGREED, 0)
            transmissions += sum(r.transmissions for r in report.records)
            deliveries += report.metrics["counters"].get("net.deliveries", 0)
            snapshots.append(report.metrics)
            self._count_oracle(factory)
            anomalies = {
                i for i, r in enumerate(report.records)
                if r.outcome != consensus.OUTCOME_DECIDED
            }
            if set(report.flights) != anomalies:
                failed += len(set(report.flights) ^ anomalies)
                problems.append(f"{spec} {label}: captured flights "
                                "differ from the non-decided runs")
            if label == "async" and anomalies:
                failed += len(anomalies)
                problems.append(f"{spec} async: {outcomes}")
            for index in sorted(report.flights):
                blob = report.flights[index]
                blobs += 1
                blob_bytes += len(blob.encode("utf-8"))
                self._keep(f"{spec} {label} task {index}", blob)
        return Outcome(
            runs=runs,
            failed=failed,
            signature={
                "runs": runs,
                "decided": decided,
                "disagreed": disagreed,
                "transmissions": transmissions,
                "deliveries": deliveries,
                "blobs": blobs,
                "blob_bytes": blob_bytes,
            },
            snapshots=snapshots,
            problems=problems,
        )

    def _keep(self, key: str, blob: str) -> None:
        """Reservoir sampling: a seeded uniform sample of every blob seen,
        held compressed so the sample barely moves peak memory."""
        self._seen_blobs += 1
        if len(self.sample) < REPLAY_SAMPLE:
            slot = len(self.sample)
            self.sample.append(None)
        else:
            slot = self._rng.randrange(self._seen_blobs)
            if slot >= REPLAY_SAMPLE:
                return
        self.sample[slot] = (key, zlib.compress(blob.encode("utf-8")))

    def finish(self):
        problems = []
        for key, packed in self.sample:
            blob = zlib.decompress(packed).decode("utf-8")
            replay = analysis.replay_flight(obs.FlightRecord.loads(blob))
            if not replay.identical:
                problems.append(f"{key}: replay diverged ({replay.diff})")
        return problems


WORKLOADS = {
    cls.name: cls
    for cls in (Alg1Battery, Alg2Sweep, FloodReceipt, AsyncObserved)
}


def build(name: str, seed: int) -> Workload:
    """Set up one workload (graphs, feasibility checks, call cycle)."""
    return WORKLOADS[name](seed)


def merged_counter(snapshots: List[dict], name: str) -> int:
    """Sum of one counter over snapshots, across all its label sets."""
    total = 0
    for snap in snapshots:
        for key, value in (snap.get("counters") or {}).items():
            if key == name or key.startswith(name + "{"):
                total += value
    return total


def pool_numbers(timings: List[dict]) -> Dict[str, float]:
    """Pool overhead share and utilization from metered sweep timings."""
    total = sum(t["total_s"] for t in timings)
    busy = sum(t["tasks_sum_s"] for t in timings)
    capacity = sum(t["workers"] * t["total_s"] for t in timings)
    overhead = sum(t["total_s"] - t["tasks_sum_s"] / t["workers"] for t in timings)
    return {
        "pool_overhead_frac": overhead / total if total > 0 else 0.0,
        "utilization": busy / capacity if capacity > 0 else 0.0,
    }
