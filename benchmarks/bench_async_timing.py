"""Asynchronous & adversarial timing: what the scheduler axis buys.

Three claims from the scheduling subsystem, printed as tables and
asserted in shape (wall-clock claims stay unasserted — determinism and
outcome claims hold on any hardware):

* the engine's default synchronous timing and the lockstep scheduler
  agree record-for-record inside a sweep, and forcing lockstep through
  per-recipient scheduling costs a bounded constant factor over the
  unit-delay path (printed, not asserted);
* the timing axis is a genuine scenario unlock: seeded per-link delays
  break Algorithm 2's fixed-phase synchrony assumption on C4 (some runs
  lose consensus) while Algorithm 1 on C5 rides out the same jitter —
  exactly the kind of contrast the asynchronous follow-up paper
  (arXiv:1909.02865) is about;
* every asynchronous outcome is deterministic: the same seed reproduces
  the same report byte-for-byte.

Budget-accounting note: the runner now scales the virtual-tick budget
to ``total_rounds × max_delay`` for bounded schedulers.  Re-running
this benchmark under the corrected budget left every count above
unchanged — the bare fixed-round protocols are tick-driven and always
emit an output by their own ``total_rounds``, so none of the recorded
failures was ever clock exhaustion.  The new ``outcome`` field proves
it run-by-run (asserted below: every failure is ``"disagreed"``); the
scaling matters for message-driven termination, e.g. every
α-synchronizer-wrapped run (see ``bench_synchronizer.py``).
"""

from __future__ import annotations

import time

from _tables import print_table
from repro.analysis import consensus_sweep
from repro.consensus import algorithm1_factory, algorithm2_factory
from repro.graphs import cycle_graph, paper_figure_1a
from repro.net import (
    EventDrivenNetwork,
    LockstepScheduler,
    Protocol,
    SchedulerSpec,
    TamperForwardAdversary,
)

MAX_DELAY = 3

AXIS = [
    ("sync", None),
    ("lockstep", SchedulerSpec("lockstep")),
    ("seeded-async", SchedulerSpec("seeded-async", seed=7, max_delay=MAX_DELAY)),
    ("adversarial", SchedulerSpec("adversarial", max_delay=MAX_DELAY)),
]

SUBJECTS = [
    ("alg1/C5", paper_figure_1a(), algorithm1_factory),
    ("alg2/C4", cycle_graph(4), algorithm2_factory),
]


def stripped(report):
    """Records minus the scheduler label, for cross-engine comparison."""
    return [
        (r.faulty, r.adversary, r.inputs_name, r.consensus, r.agreement,
         r.validity, r.rounds, r.transmissions, r.decision)
        for r in report.records
    ]


# ---------------------------------------------------------------------------
# 1. The timing axis as a scenario unlock
# ---------------------------------------------------------------------------


def axis_rows():
    rows, reports = [], {}
    for subject, graph, factory_builder in SUBJECTS:
        for name, spec in AXIS:
            start = time.perf_counter()
            report = consensus_sweep(
                graph,
                factory_builder(graph, 1),
                f=1,
                patterns=["alternating"],
                schedulers=[spec],
            )
            elapsed = time.perf_counter() - start
            reports[(subject, name)] = report
            held = sum(r.consensus for r in report.records)
            rows.append((
                subject, name, report.runs, f"{held}/{report.runs}",
                report.max_rounds, f"{elapsed:.2f}s",
            ))
    return rows, reports


def test_timing_axis_unlocks_asynchrony_failures(benchmark):
    rows, reports = benchmark.pedantic(axis_rows, rounds=1, iterations=1)
    print_table(
        f"adversary battery x timing axis (max_delay={MAX_DELAY})",
        ["subject", "scheduler", "runs", "consensus", "max rounds", "wall"],
        rows,
    )
    for subject, _, _ in SUBJECTS:
        # The lockstep scheduler == the default synchronous timing.
        assert stripped(reports[(subject, "lockstep")]) == stripped(
            reports[(subject, "sync")]
        )
        # Synchrony is the algorithms' home turf: everything holds.
        assert reports[(subject, "sync")].all_consensus
    # The unlock: per-link jitter breaks Algorithm 2's fixed phases on
    # C4 — some (not all) scenarios lose consensus — while Algorithm 1's
    # longer phase structure rides out the same jitter on C5.
    jittered = reports[("alg2/C4", "seeded-async")]
    assert 0 < len(jittered.failures) < jittered.runs
    assert reports[("alg1/C5", "seeded-async")].all_consensus
    # Every lost run is a genuine disagreement, not clock exhaustion:
    # the delay-aware budget (rounds × max_delay) never expired on an
    # undecided honest node.
    for subject, _, _ in SUBJECTS:
        for name, _ in AXIS:
            for record in reports[(subject, name)].records:
                assert record.outcome in ("decided", "disagreed")
                assert (record.outcome == "decided") == record.consensus


def test_async_reports_are_seed_deterministic(benchmark):
    def twice():
        graph = cycle_graph(4)
        specs = [
            SchedulerSpec("seeded-async", seed=7, max_delay=MAX_DELAY),
            SchedulerSpec("adversarial", max_delay=MAX_DELAY),
        ]
        return [
            consensus_sweep(
                graph, algorithm2_factory(graph, 1), f=1,
                patterns=["alternating"], schedulers=specs,
            ).to_json()
            for _ in range(2)
        ]

    first, second = benchmark.pedantic(twice, rounds=1, iterations=1)
    assert first == second


# ---------------------------------------------------------------------------
# 2. Scheduled lockstep vs the engine's unit-delay path
# ---------------------------------------------------------------------------


class ScheduledLockstep(LockstepScheduler):
    """Lockstep timing through ``schedule``: an overridden ``delay``
    keeps the engine off its unit-delay path."""

    def delay(self, send, recipient):
        return 1


class Flood(Protocol):
    """Broadcast-heavy load: every round, re-broadcast everything heard."""

    def __init__(self, tag):
        self.tag = tag

    def on_round(self, ctx):
        if ctx.round_no == 1:
            ctx.broadcast((self.tag, 0))
        for sender, message in ctx.inbox[:8]:
            ctx.broadcast((self.tag, sender, message))

    def output(self):
        return None


def overhead_rows():
    graph = cycle_graph(8)
    rounds = 6
    start = time.perf_counter()
    unit = EventDrivenNetwork(graph, {v: Flood(v) for v in graph.nodes})
    unit.run(rounds)
    mid = time.perf_counter()
    event = EventDrivenNetwork(
        graph, {v: Flood(v) for v in graph.nodes}, ScheduledLockstep()
    )
    event.run(rounds)
    end = time.perf_counter()
    identical = (
        unit.trace.transmissions == event.trace.transmissions
        and unit.trace.deliveries == event.trace.deliveries
    )
    return [(
        unit.trace.transmission_count,
        unit.trace.delivery_count,
        f"{mid - start:.3f}s",
        f"{end - mid:.3f}s",
        f"{(end - mid) / max(mid - start, 1e-9):.2f}x",
        identical,
    )]


def test_event_core_overhead_bounded(benchmark):
    rows = benchmark.pedantic(overhead_rows, rounds=1, iterations=1)
    print_table(
        "broadcast-heavy C8 run: unit-delay path vs scheduled lockstep",
        ["transmissions", "deliveries", "unit delay", "scheduled", "overhead",
         "identical trace"],
        rows,
    )
    assert rows[0][-1]  # byte-identical traces on the hot path


# ---------------------------------------------------------------------------
# 3. Delivery-latency profile per scheduler
# ---------------------------------------------------------------------------


def latency_rows():
    graph = paper_figure_1a()
    inputs = {v: v % 2 for v in graph.nodes}
    rows = []
    from repro.consensus import run_consensus

    for name, spec in AXIS[1:]:  # event-core schedulers only
        result = run_consensus(
            graph,
            algorithm1_factory(graph, 1),
            inputs,
            f=1,
            faulty=[2],
            adversary=TamperForwardAdversary(),
            scheduler=spec,
            flight=True,  # the mean latency reads every delivery record
        )
        deliveries = result.trace.deliveries
        mean = sum(d.latency for d in deliveries) / max(len(deliveries), 1)
        rows.append((
            name, len(deliveries), f"{mean:.2f}",
            result.trace.max_latency, result.consensus,
        ))
    return rows


def test_latency_profile_per_scheduler(benchmark):
    rows = benchmark.pedantic(latency_rows, rounds=1, iterations=1)
    print_table(
        "alg1 on C5, tamper-forward fault: delivery latency by scheduler",
        ["scheduler", "deliveries", "mean latency", "max latency", "consensus"],
        rows,
    )
    by_name = {row[0]: row for row in rows}
    assert by_name["lockstep"][3] == 1
    assert by_name["adversarial"][3] == MAX_DELAY
    assert 1 <= by_name["seeded-async"][3] <= MAX_DELAY
