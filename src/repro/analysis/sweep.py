"""Deterministic experiment sweeps: families × fault sets × adversaries.

The characterization experiments need a *universal* quantifier made
concrete: "consensus holds for every fault placement and every adversary
we model".  :func:`consensus_sweep` enumerates fault subsets (all of
them, or a seeded sample) and runs the full adversary battery on each,
collecting a single verdict plus per-run records for reporting.

The sweep is organized as a flat, canonically ordered work-list of
``(faulty, scheduler, adversary, pattern)`` tasks (:func:`sweep_tasks`).
Each task is a pure function of its inputs, so the engine can execute
them in any order — serially (``workers=1``, the default) or fanned out
across a seeded :class:`~concurrent.futures.ProcessPoolExecutor`
(``workers=N``) — and still assemble a **byte-identical**
:class:`SweepReport`: tasks are submitted in contiguous chunks (to
amortize IPC on 10k+-task sweeps), results stream back as workers
finish, and every record is slotted into the canonical position its
task index dictates.

The ``schedulers`` axis multiplies every ``(faulty, adversary,
pattern)`` scenario by a timing model: ``None`` (the synchronous fast
path) and/or any :class:`~repro.net.sched.SchedulerSpec` — so one sweep
can quantify how an algorithm behaves when message timing, not just
fault placement, is adversarial.

Cross-process determinism rests on two properties the library maintains
deliberately: every run-affecting iteration is ``repr``-sorted (never
raw set order, which would leak each worker's ``PYTHONHASHSEED``), and
all randomness is seeded per task, never drawn from shared mutable
state.  Contexts that cannot be pickled (e.g. an ad-hoc adversary built
around a lambda) fall back to the serial path with a warning rather than
failing — the report is identical either way.
"""

from __future__ import annotations

import json
import pickle
import random
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass, field
from itertools import combinations
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from ..consensus.runner import OUTCOME_DECIDED, run_consensus
from ..net.adversary import Adversary, HonestFactory, standard_adversaries
from ..net.channels import ChannelModel, hybrid_model
from ..net.sched import SchedulerSpec
from ..graphs import Graph
from ..obs import Stopwatch, merge_snapshots

#: A scheduler-axis entry: ``None`` is the engine's default synchronous
#: (lockstep) timing.
SchedulerAxisEntry = Optional[SchedulerSpec]

#: Record label for the ``None`` (default synchronous timing) axis entry.
_SYNC_NAME = "sync"


def _scheduler_name(spec: SchedulerAxisEntry) -> str:
    return _SYNC_NAME if spec is None else spec.name


@dataclass(frozen=True)
class SweepRecord:
    """One (fault set, scheduler, adversary, input pattern) run.

    ``outcome`` carries the runner's verdict (``"decided"`` /
    ``"disagreed"`` / ``"budget_exhausted"`` / ``"stalled"`` — the last
    only from message-driven protocols whose run went quiescent), so
    asynchronous sweeps can tell a genuine safety failure from a run
    that merely ran out of virtual time or provably never would have
    progressed.
    """

    faulty: Tuple[Hashable, ...]
    adversary: str
    inputs_name: str
    consensus: bool
    agreement: bool
    validity: bool
    rounds: int
    transmissions: int
    decision: Optional[int]
    scheduler: str = _SYNC_NAME
    outcome: str = OUTCOME_DECIDED
    #: Canonical per-run metrics snapshot (metered sweeps only).
    #: Content data — virtual time only; participates in byte-identity.
    metrics: Optional[dict] = None
    #: Whether the swept graph was a true digraph.  Dropped from the
    #: serialized record when False so undirected report JSON keeps its
    #: historical bytes.
    directed: bool = False


@dataclass
class SweepReport:
    """Aggregate of a full sweep.

    ``metrics`` (metered sweeps) is the canonical merge of every
    record's snapshot — computed from the slotted record list, i.e. the
    same canonical order :attr:`outcomes` counts over, so it is
    byte-identical at any worker count.  ``timings`` is the quarantined
    wall-clock section: real durations, excluded (via
    :func:`repro.obs.strip_timings`) from every determinism comparison.
    """

    records: List[SweepRecord] = field(default_factory=list)
    metrics: Optional[dict] = None
    timings: Optional[dict] = None
    #: Captured flight recordings (``capture=`` sweeps only), keyed by
    #: canonical task index — the same key at any worker count.  Carried
    #: *outside* :meth:`to_dict` deliberately: the report JSON keeps its
    #: historical shape, and flight blobs are written to their own files
    #: by the CLI.
    flights: Dict[int, str] = field(default_factory=dict)

    @property
    def runs(self) -> int:
        return len(self.records)

    @property
    def all_consensus(self) -> bool:
        return all(r.consensus for r in self.records)

    @property
    def failures(self) -> List[SweepRecord]:
        return [r for r in self.records if not r.consensus]

    @property
    def max_transmissions(self) -> int:
        return max((r.transmissions for r in self.records), default=0)

    @property
    def max_rounds(self) -> int:
        return max((r.rounds for r in self.records), default=0)

    @property
    def outcomes(self) -> Dict[str, int]:
        """Record count per outcome, in canonical (sorted) key order."""
        counts: Dict[str, int] = {}
        for r in self.records:
            counts[r.outcome] = counts.get(r.outcome, 0) + 1
        return {k: counts[k] for k in sorted(counts)}

    def to_dict(self) -> dict:
        """A JSON-ready summary plus every record (canonical order).

        Un-metered reports keep their historical shape: the optional
        ``metrics``/``timings`` keys (and each record's ``metrics``)
        appear only when the sweep was metered.
        """
        payload = {
            "runs": self.runs,
            "all_consensus": self.all_consensus,
            "failures": len(self.failures),
            "outcomes": self.outcomes,
            "max_rounds": self.max_rounds,
            "max_transmissions": self.max_transmissions,
            "records": [self._record_dict(r) for r in self.records],
        }
        if self.metrics is not None:
            payload["metrics"] = self.metrics
        if self.timings is not None:
            payload["timings"] = self.timings
        return payload

    @staticmethod
    def _record_dict(record: SweepRecord) -> dict:
        d = asdict(record)
        if d.get("metrics") is None:
            d.pop("metrics", None)
        if not d.get("directed"):
            d.pop("directed", None)
        return d

    def to_json(self, indent: Optional[int] = 2, **extra) -> str:
        """Serialize :meth:`to_dict`; non-JSON node labels fall back to
        ``repr`` so any hashable node type survives the round trip.
        ``extra`` keys (e.g. the CLI's graph spec and worker count) are
        merged into the payload so every producer shares one policy."""
        payload = {**self.to_dict(), **extra}
        return json.dumps(payload, indent=indent, sort_keys=True, default=repr)


def input_patterns(graph: Graph) -> Dict[str, Dict[Hashable, int]]:
    """The canonical input assignments every sweep exercises."""
    nodes = sorted(graph.nodes, key=repr)
    half = len(nodes) // 2
    return {
        "all-zero": {v: 0 for v in nodes},
        "all-one": {v: 1 for v in nodes},
        "alternating": {v: i % 2 for i, v in enumerate(nodes)},
        "split": {v: (0 if i < half else 1) for i, v in enumerate(nodes)},
    }


def fault_subsets(
    graph: Graph,
    f: int,
    limit: Optional[int] = None,
    seed: int = 0,
    include_empty: bool = False,
) -> List[Tuple[Hashable, ...]]:
    """Subsets of size ≤ f to place faults on (exactly-f subsets first).

    With ``limit`` set, a seeded sample keeps sweeps tractable on larger
    graphs while staying reproducible.
    """
    nodes = sorted(graph.nodes, key=repr)
    sizes = range(0 if include_empty else 1, f + 1)
    subsets: List[Tuple[Hashable, ...]] = []
    for size in sorted(sizes, reverse=True):
        subsets.extend(combinations(nodes, size))
    if limit is not None and len(subsets) > limit:
        rng = random.Random(seed)
        subsets = rng.sample(subsets, limit)
        subsets.sort(key=repr)
    return subsets


# ---------------------------------------------------------------------------
# The work-list engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepTask:
    """One unit of sweep work, addressed by its canonical ``index``.

    Deliberately tiny and picklable: the heavyweight, shared inputs
    (graph, factory, adversary battery, patterns, scheduler axis)
    travel to each worker exactly once via the pool initializer; tasks
    only name which combination to run.
    """

    index: int
    faulty: Tuple[Hashable, ...]
    adversary_index: int
    inputs_name: str
    scheduler_index: int = 0


@dataclass(frozen=True)
class HybridEquivocatorPolicy:
    """Per-task hybrid channel: the first ``t`` faulty nodes equivocate.

    The hybrid model (Section 6) grants point-to-point power to at most
    ``t`` *faulty* nodes — so the channel depends on each task's fault
    placement and cannot be one fixed :class:`ChannelModel` for a whole
    sweep.  This policy rebuilds it per task from the canonically sorted
    fault tuple, mirroring what ``python -m repro run --t`` does for a
    single run.  Frozen and picklable, so parallel sweeps ship it to
    workers unchanged.
    """

    t: int

    def __post_init__(self) -> None:
        if self.t < 0:
            raise ValueError("t must be >= 0")

    def __call__(self, faulty: Tuple[Hashable, ...]) -> ChannelModel:
        chosen = sorted(faulty, key=repr)[: self.t]
        return hybrid_model(frozenset(chosen))


#: Maps one task's fault tuple to the channel model of that run.
ChannelPolicy = Callable[[Tuple[Hashable, ...]], ChannelModel]


@dataclass(frozen=True)
class _SweepContext:
    """Everything a worker needs to execute any task of one sweep."""

    graph: Graph
    honest_factory: HonestFactory
    f: int
    adversaries: Tuple[Adversary, ...]
    patterns: Dict[str, Dict[Hashable, int]]
    schedulers: Tuple[SchedulerAxisEntry, ...] = (None,)
    channel_policy: Optional[ChannelPolicy] = None
    #: Metered sweep: every task runs with a fresh metrics registry and
    #: its snapshot rides the record back to the parent.
    metered: bool = False
    #: Flight capture policy: ``None`` (off), ``"anomalies"`` (retain a
    #: recording only for tasks that did not decide cleanly), or
    #: ``"all"``.  Recordings are keyed by canonical task index, so the
    #: captured set is worker-count-invariant.
    capture: Optional[str] = None


def sweep_tasks(
    graph: Graph,
    f: int,
    adversaries: Sequence[Adversary],
    patterns: Dict[str, Dict[Hashable, int]],
    fault_limit: Optional[int] = None,
    seed: int = 0,
    schedulers: Sequence[SchedulerAxisEntry] = (None,),
) -> List[SweepTask]:
    """The canonical work-list: faults × schedulers × adversaries × patterns.

    The nesting order (faults outermost, patterns innermost) is the
    report's record order — a pure function of the arguments, never of
    execution schedule.
    """
    tasks: List[SweepTask] = []
    for faulty in fault_subsets(graph, f, limit=fault_limit, seed=seed):
        for scheduler_index in range(len(schedulers)):
            for adversary_index in range(len(adversaries)):
                # repro: allow[REPRO001] pattern order IS the canonical
                # record order: input_patterns builds this dict in a fixed
                # literal order and CLI subsets preserve it.
                for name in patterns:
                    tasks.append(
                        SweepTask(
                            len(tasks),
                            tuple(faulty),
                            adversary_index,
                            name,
                            scheduler_index,
                        )
                    )
    return tasks


def _execute_task(
    context: _SweepContext, task: SweepTask
) -> Tuple[SweepRecord, Optional[str]]:
    """Run one task (pure given its inputs).

    Returns the :class:`SweepRecord` plus — on capturing sweeps, per the
    context's ``capture`` policy — the run's flight recording as an
    NDJSON blob.  The blob's header provenance is the canonical task
    index, never anything execution-dependent, so capture output is
    byte-identical at any worker count.
    """
    adversary = context.adversaries[task.adversary_index]
    scheduler = context.schedulers[task.scheduler_index]
    policy = context.channel_policy
    channel = policy(task.faulty) if policy is not None else None
    capture = context.capture
    result = run_consensus(
        context.graph,
        context.honest_factory,
        context.patterns[task.inputs_name],
        f=context.f,
        faulty=task.faulty,
        adversary=adversary,
        channel=channel,
        scheduler=scheduler,
        metrics=context.metered,
        flight=capture is not None,
        run_spec={"task": task.index} if capture is not None else None,
    )
    blob = None
    if capture is not None and (
        capture == "all" or result.outcome != OUTCOME_DECIDED
    ):
        assert result.flight is not None
        blob = result.flight.to_ndjson()
    record = SweepRecord(
        faulty=task.faulty,
        adversary=adversary.name,
        inputs_name=task.inputs_name,
        consensus=result.consensus,
        agreement=result.agreement,
        validity=result.validity,
        rounds=result.rounds,
        transmissions=result.transmissions,
        decision=result.decision,
        scheduler=_scheduler_name(scheduler),
        outcome=result.outcome,
        metrics=result.metrics,
        directed=context.graph.directed,
    )
    return record, blob


# Per-worker context, installed once by the pool initializer so each chunk
# submission only ships SweepTasks.  (Module-level state is required for
# ProcessPoolExecutor initializers; it is only ever set in workers.)
_WORKER_CONTEXT: Optional[_SweepContext] = None

# Chunks per worker: enough slack for load balancing across uneven task
# costs, few enough futures to amortize IPC on 10k+-task sweeps.
_CHUNKS_PER_WORKER = 4


def _worker_init(payload: bytes) -> None:
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = pickle.loads(payload)


def _worker_run_chunk(
    tasks: Sequence[SweepTask],
) -> Tuple[
    List[Tuple[int, SweepRecord, Optional[str], Optional[float]]],
    Optional[float],
]:
    """Execute one chunk; returns slotted entries plus the chunk's wall time.

    Each entry is ``(index, record, flight_blob, seconds)``: the flight
    blob (capturing sweeps only) rides next to — never inside — the
    record, and per-task/per-chunk wall seconds are measured only on
    metered sweeps; both stay out of the canonical report body.
    """
    assert _WORKER_CONTEXT is not None, "worker used before initialization"
    metered = _WORKER_CONTEXT.metered
    chunk_watch = Stopwatch() if metered else None
    entries: List[Tuple[int, SweepRecord, Optional[str], Optional[float]]] = []
    for task in tasks:
        task_watch = Stopwatch() if metered else None
        record, blob = _execute_task(_WORKER_CONTEXT, task)
        entries.append(
            (
                task.index,
                record,
                blob,
                task_watch.elapsed() if task_watch else None,
            )
        )
    return entries, chunk_watch.elapsed() if chunk_watch else None


def _chunked(tasks: List[SweepTask], n_workers: int) -> List[List[SweepTask]]:
    """Contiguous chunks of the canonical work-list (IPC amortization)."""
    size = max(1, -(-len(tasks) // (n_workers * _CHUNKS_PER_WORKER)))
    return [tasks[i : i + size] for i in range(0, len(tasks), size)]


def consensus_sweep(
    graph: Graph,
    honest_factory: HonestFactory,
    f: int,
    adversaries: Optional[Sequence[Adversary]] = None,
    fault_limit: Optional[int] = None,
    patterns: Optional[Iterable[str]] = None,
    seed: int = 0,
    workers: int = 1,
    schedulers: Optional[Sequence[SchedulerAxisEntry]] = None,
    channel_policy: Optional[ChannelPolicy] = None,
    metrics: bool = False,
    capture: Optional[str] = None,
) -> SweepReport:
    """Run the full battery and report whether consensus *always* held.

    ``workers=1`` (default) executes the work-list serially in canonical
    order.  ``workers=N`` fans the same work-list out across ``N``
    processes in contiguous chunks and streams the records back into
    canonical slots — the returned report is record-for-record identical
    to the serial one.

    ``schedulers`` is the timing axis: each entry is ``None`` (the
    default synchronous timing) or a :class:`~repro.net.sched.SchedulerSpec`;
    every ``(faulty, adversary, pattern)`` scenario runs once per entry.
    Defaults to ``(None,)`` — existing sweeps are unchanged.

    ``channel_policy`` derives each task's channel model from its fault
    tuple — required by the hybrid model, where the equivocator set *is*
    a subset of the faulty set (see :class:`HybridEquivocatorPolicy`).
    Without one, every task runs on :func:`run_consensus`'s
    local-broadcast default.

    ``metrics=True`` meters every task: each record carries its run's
    canonical snapshot, the report carries their canonical merge
    (computed from the slotted record list — byte-identical at any
    worker count), and a separate quarantined ``timings`` section
    carries per-task/per-chunk wall time and worker utilization.

    ``capture`` turns on the flight recorder: ``"anomalies"`` retains a
    replayable :class:`~repro.obs.FlightRecord` NDJSON blob for every
    task whose outcome was not ``"decided"`` (the forensic default —
    disagreements, stalls and budget exhaustions arrive with their full
    causal history attached); ``"all"`` retains every task's recording.
    Blobs land on :attr:`SweepReport.flights` keyed by canonical task
    index — the keys and the bytes are identical at any worker count —
    and never enter the report JSON.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if capture not in (None, "anomalies", "all"):
        raise ValueError(
            f"capture must be None, 'anomalies' or 'all', not {capture!r}"
        )
    adversaries = (
        list(adversaries) if adversaries is not None else standard_adversaries(seed)
    )
    scheduler_axis: Tuple[SchedulerAxisEntry, ...] = (
        tuple(schedulers) if schedulers is not None else (None,)
    )
    if not scheduler_axis:
        raise ValueError("schedulers must contain at least one entry")
    all_patterns = input_patterns(graph)
    chosen = (
        {k: all_patterns[k] for k in patterns} if patterns is not None else all_patterns
    )
    tasks = sweep_tasks(
        graph,
        f,
        adversaries,
        chosen,
        fault_limit=fault_limit,
        seed=seed,
        schedulers=scheduler_axis,
    )
    context = _SweepContext(
        graph=graph,
        honest_factory=honest_factory,
        f=f,
        adversaries=tuple(adversaries),
        patterns=chosen,
        schedulers=scheduler_axis,
        channel_policy=channel_policy,
        metered=metrics,
        capture=capture,
    )

    payload: Optional[bytes] = None
    if workers > 1 and tasks:
        try:
            payload = pickle.dumps(context)
        except Exception as exc:  # lambda-laden adversaries, ad-hoc factories
            warnings.warn(
                f"sweep context is not picklable ({exc!r}); "
                "falling back to the serial path",
                RuntimeWarning,
                stacklevel=2,
            )

    total_watch = Stopwatch() if metrics else None
    task_seconds: List[Optional[float]] = [None] * len(tasks)
    chunk_stats: List[dict] = []

    flights: Dict[int, str] = {}
    if payload is None:
        records = []
        for t in tasks:
            task_watch = Stopwatch() if metrics else None
            record, blob = _execute_task(context, t)
            records.append(record)
            if blob is not None:
                flights[t.index] = blob
            if task_watch is not None:
                task_seconds[t.index] = task_watch.elapsed()
        return _assemble_report(
            records, metrics, 1, total_watch, task_seconds, chunk_stats,
            flights,
        )

    slots: List[Optional[SweepRecord]] = [None] * len(tasks)
    n_workers = min(workers, len(tasks))
    with ProcessPoolExecutor(
        max_workers=n_workers,
        initializer=_worker_init,
        initargs=(payload,),
    ) as pool:
        futures = [
            pool.submit(_worker_run_chunk, chunk)
            for chunk in _chunked(tasks, n_workers)
        ]
        for future in as_completed(futures):
            entries, chunk_wall = future.result()
            for index, record, blob, seconds in entries:
                slots[index] = record
                if blob is not None:
                    flights[index] = blob
                task_seconds[index] = seconds
            if chunk_wall is not None:
                chunk_stats.append({"tasks": len(entries), "seconds": chunk_wall})
    assert all(r is not None for r in slots)
    return _assemble_report(
        list(slots), metrics, n_workers, total_watch, task_seconds,
        chunk_stats, flights,
    )  # type: ignore[arg-type]


def _assemble_report(
    records: List[SweepRecord],
    metered: bool,
    n_workers: int,
    total_watch: Optional[Stopwatch],
    task_seconds: List[Optional[float]],
    chunk_stats: List[dict],
    flights: Optional[Dict[int, str]] = None,
) -> SweepReport:
    """Slot-ordered records → report, with the canonical metrics merge.

    Both :attr:`SweepReport.outcomes` and the metrics merge consume the
    same slotted list — the canonical task order — so neither can drift
    from the other or double-count under any worker count.  All wall
    numbers go to the quarantined ``timings`` section only; flight
    blobs (already keyed by canonical index) attach as-is.
    """
    flights = flights or {}
    if not metered:
        return SweepReport(records=records, flights=flights)
    merged = merge_snapshots([r.metrics for r in records])
    measured = [s for s in task_seconds if s is not None]
    total_s = total_watch.elapsed() if total_watch is not None else 0.0
    timings = {
        "total_s": total_s,
        "workers": n_workers,
        "tasks_s": task_seconds,
        "tasks_sum_s": sum(measured),
        "chunks": chunk_stats,
        "utilization": (
            sum(measured) / (n_workers * total_s) if total_s > 0 else None
        ),
    }
    return SweepReport(
        records=records, metrics=merged, timings=timings, flights=flights
    )
