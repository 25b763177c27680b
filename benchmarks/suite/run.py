"""Repo benchmark: four workloads, end-to-end metrics and a layer ledger.

Run from the repository root (the script finds ``src/`` itself)::

    python3 benchmarks/suite/run.py --workload alg1-battery --seed 7 \\
        --seconds 10 --trace 0          # one workload, end-to-end metrics
    python3 benchmarks/suite/run.py --workload alg1-battery --trace 1
                                        # the same workload's layer ledger
    python3 benchmarks/suite/run.py     # every workload, one child each
    python3 benchmarks/suite/run.py --repeat 10 --json calibration.json
    python3 benchmarks/suite/run.py --profile alg2-sweep
    python3 benchmarks/suite/run.py --record-golden

Each workload is measured for ``--seconds`` of calls: a closed loop that
issues the workload's next call when the previous one returns, in a
seeded shuffle of its call cycle.  Outputs are checked after each call's
timer stops; at the default seed the counts are also compared with
``golden.json``.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The exit status is 0 only when every check passed; 2 means the
benchmark could not run at all (for instance, no ``src/repro`` beside
it).
"""

from time import perf_counter

# Set-up time counts from here: before any import of the program.
_STARTED = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from bisect import bisect_right  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, Iterator, List, Optional, Sequence, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"

DEFAULT_SEED = 7
DEFAULT_SECONDS = 25.0
#: Child processes timed per run for ``setup_s`` (the median is reported).
SETUP_SAMPLES = 11
#: Median time of one ``reference_loop`` on the calibration box (2-CPU VM,
#: Python 3.11.7, a quiet period): end-to-end times are reported at it.
REFERENCE_S = 0.0115
#: Reference loops timed before a run's set-up; ``REFERENCE_REPS`` more
#: follow each ``BETWEEN_CALLS_S`` of call time.
REFERENCE_WARMUP = 5
REFERENCE_REPS = 2
BETWEEN_CALLS_S = 0.25
#: Reference samples on each side of a call that set its speed factor.
SPEED_WINDOW = 4
CHILD_TIMEOUT_S = 900

WORKLOAD_NAMES = (
    "alg1-battery",
    "alg2-sweep",
    "flood-receipt-n40",
    "async-observed",
)

#: ``(name, unit)`` of every end-to-end metric (``--trace 0``).
END_TO_END = (
    ("setup_s", "s"),
    ("runs_per_s", "runs/s"),
    ("call_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: ``(name, unit)`` of every per-layer metric (``--trace 1``).  Times and
#: counts are per run (one consensus run, or one flood-receipt call).
PER_LAYER = (
    ("bench.wall_ms", "ms/run"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.unattributed_frac", "ratio"),
    ("net.simulator.self_ms", "ms/run"),
    ("net.simulator.calls", "calls/run"),
    ("net.simulator.ns_per_delivery", "ns/delivery"),
    ("net.deliveries", "count/run"),
    ("net.transmissions", "count/run"),
    ("net.sched.self_ms", "ms/run"),
    ("net.sched.calls", "calls/run"),
    ("net.adversary.self_ms", "ms/run"),
    ("consensus.runner.self_ms", "ms/run"),
    ("consensus.runner.calls", "calls/run"),
    ("consensus.algorithm1.self_ms", "ms/run"),
    ("consensus.algorithm2.self_ms", "ms/run"),
    ("consensus.async_alg.self_ms", "ms/run"),
    ("consensus.flooding.self_ms", "ms/run"),
    ("consensus.flooding.calls", "calls/run"),
    ("consensus.flooding.ns_per_path", "ns/path"),
    ("flood.accepted", "count/run"),
    ("flood.rejected", "count/run"),
    ("flood.accept_ratio", "ratio"),
    ("consensus.reliable.claim_index.self_ms", "ms/run"),
    ("consensus.reliable.detect_faults.self_ms", "ms/run"),
    ("consensus.reliable.receipt.self_ms", "ms/run"),
    ("reliable.queries", "count/run"),
    ("reliable.packing_checks", "count/run"),
    ("reliable.precheck_saved", "count/run"),
    ("consensus.path_oracle.self_ms", "ms/run"),
    ("oracle.hits", "count/run"),
    ("oracle.misses", "count/run"),
    ("oracle.hit_ratio", "ratio"),
    ("consensus.path_engine.self_ms", "ms/run"),
    ("consensus.path_engine.ns_per_delivery", "ns/delivery"),
    ("path_engine.deliveries", "count/run"),
    ("graphs.index.self_ms", "ms/run"),
    ("graphs.connectivity.self_ms", "ms/run"),
    ("analysis.sweep.self_ms", "ms/run"),
    ("analysis.sweep.pool_overhead_frac", "ratio"),
    ("analysis.sweep.utilization", "ratio"),
    ("analysis.sweep.pool_floor_ms", "ms"),
    ("analysis.sweep.payload_bytes", "bytes"),
    ("obs.trace.self_ms", "ms/run"),
    ("obs.trace.bytes", "bytes/run"),
    ("obs.trace.events", "count/run"),
    ("obs.trace.ns_per_event", "ns/event"),
    ("obs.registry.self_ms", "ms/run"),
)


@dataclass
class Call:
    """One timed call: its index in the cycle, latency, and outcome."""

    index: int
    seconds: float
    outcome: object


def schedule(n_calls: int, seed: int) -> Iterator[int]:
    """Call indices: the cycle in a seeded shuffle, reshuffled each pass,
    so any prefix of a run is an unbiased sample of the cycle."""
    rng = random.Random(seed)
    while True:
        order = list(range(n_calls))
        rng.shuffle(order)
        yield from order


def timed_call(workload, index: int, mode: str, ledger) -> Call:
    """One call, timed; its output is checked after the timer stops."""
    spec = workload.calls[index]
    start = perf_counter()
    raw = workload.run(spec, mode, ledger)
    elapsed = perf_counter() - start
    return Call(index, elapsed, workload.outcome(spec, raw))


def reference_loop() -> int:
    """Fixed pure-Python work that shares no code with the program: every
    simple path from each node of a 14-node wheel, as growing tuples with
    dict inserts and set membership — the same kind of work as a flood."""
    n = 14
    nbrs = {0: tuple(range(1, n))}
    for v in range(1, n):
        nbrs[v] = (0, 1 + v % (n - 1), 1 + (v - 2) % (n - 1))
    paths: Dict[tuple, int] = {}
    for start in range(n):
        _walk(nbrs, paths, (start,), {start}, 1 << start)
    return len(paths)


def _walk(nbrs: dict, paths: dict, prefix: tuple, seen: set, mask: int) -> None:
    for w in nbrs[prefix[-1]]:
        if w in seen:
            continue
        path = prefix + (w,)
        paths[path] = mask | (1 << w)
        seen.add(w)
        _walk(nbrs, paths, path, seen, mask | (1 << w))
        seen.discard(w)


class Speedometer:
    """The machine's speed around each call, from reference loops timed
    between calls.  A shared host's speed drifts by up to 2x, over
    seconds as well as minutes (other tenants on the same cores), in runs
    of the program and of the reference loop alike.  Each call's time is
    scaled to the speed of the box the benchmark was calibrated on by
    the median of the reference samples nearest it."""

    def __init__(self) -> None:
        #: ``(calls completed before the sample, seconds)``, in order.
        self.samples: List[Tuple[int, float]] = []

    def sample(self, position: int, reps: int) -> None:
        for _ in range(reps):
            start = perf_counter()
            reference_loop()
            self.samples.append((position, perf_counter() - start))

    def factors(self, n_calls: int) -> List[float]:
        """Per call: the median of the ``SPEED_WINDOW`` samples before it
        and the ``SPEED_WINDOW`` after it, relative to the calibration
        box."""
        positions = [p for p, _ in self.samples]
        out = []
        for i in range(n_calls):
            cut = bisect_right(positions, i)
            near = self.samples[max(0, cut - SPEED_WINDOW):cut + SPEED_WINDOW]
            out.append(statistics.median(s for _, s in near) / REFERENCE_S)
        return out


def measure(workload, mode: str, seconds: float, ledger,
            speed: Optional[Speedometer] = None) -> List[Call]:
    """Closed loop: issue calls until ``seconds`` of call time have passed.

    Between calls, once per ``BETWEEN_CALLS_S`` of call time (after every
    longer call), two things run untimed: the cyclic garbage collector —
    a call's unreachable cycles (the path engine's recursive closure
    holds a whole delivery dict) would otherwise survive into later
    calls and make peak memory depend on when it last ran — and
    ``REFERENCE_REPS`` reference loops for ``speed``.  One more sample
    follows the last call, so every call has samples after it.
    """
    calls: List[Call] = []
    spent = due = 0.0
    for index in schedule(len(workload.calls), workload.seed):
        if spent >= seconds:
            break
        calls.append(timed_call(workload, index, mode, ledger))
        spent += calls[-1].seconds
        due += calls[-1].seconds
        if due >= BETWEEN_CALLS_S or spent >= seconds:
            gc.collect()
            if speed is not None:
                speed.sample(len(calls), REFERENCE_REPS)
            due = 0.0
    return calls


def load_golden() -> dict:
    if not GOLDEN.exists():
        return {"seed": DEFAULT_SEED, "workloads": {}}
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def golden_problems(name: str, seed: int, n_calls: int,
                    calls: List[Call]) -> Tuple[List[str], int]:
    """Mismatches against the golden counts (default seed only) and the
    number of runs in the mismatched calls."""
    golden = load_golden()
    if seed != golden["seed"]:
        return [], 0
    entry = golden["workloads"].get(name)
    if entry is None:
        return [f"no golden counts recorded for {name}"], 0
    if len(entry["calls"]) != n_calls:
        return [f"golden cycle has {len(entry['calls'])} calls, "
                f"the workload {n_calls}"], 0
    problems, failed = [], 0
    for call in calls:
        actual = [call.outcome.signature[f] for f in entry["fields"]]
        expected = entry["calls"][call.index]
        if actual != expected:
            problems.append(f"call {call.index}: counts {actual} != golden "
                            f"{expected} ({entry['fields']})")
            failed += call.outcome.runs
    return problems, failed


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_command(*args: str) -> List[str]:
    return [sys.executable, str(Path(__file__).resolve()), *args]


def setup_seconds(name: str, seed: int) -> List[Tuple[float, float]]:
    """Set-up time of fresh processes (imports, graphs, checks, calls),
    each with the median reference loop time the process measured right
    after it.  The probes may write bytecode caches whatever the
    caller's ``PYTHONDONTWRITEBYTECODE``, so set-up is measured as an
    installed program pays it: from ``__pycache__``, not recompiling
    every source."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            child_command("--setup-probe", "--workload", name,
                          "--seed", str(seed)),
            stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
            check=True, env=env,
        )
        probe = json.loads(done.stdout.splitlines()[-1])
        samples.append((probe["setup_s"], probe["reference_s"]))
    return samples


def problems_to_result(calls: List[Call], extra: List[str],
                       extra_failed: int) -> Tuple[int, int, List[str]]:
    attempted = sum(c.outcome.runs for c in calls)
    failed = sum(c.outcome.failed for c in calls) + extra_failed
    problems = [p for c in calls for p in c.outcome.problems] + extra
    if problems and failed == 0:
        failed = len(problems)
    return attempted, failed, problems


# ---------------------------------------------------------------------------
# End-to-end run (--trace 0)
# ---------------------------------------------------------------------------


def run_end_to_end(name: str, seed: int, seconds: float) -> dict:
    import workloads
    from ledger import NULL_LEDGER

    speed = Speedometer()
    speed.sample(0, REFERENCE_WARMUP)
    setup = setup_seconds(name, seed)
    workload = workloads.build(name, seed)
    calls = measure(workload, workloads.E2E, seconds, NULL_LEDGER, speed)
    golden, golden_failed = golden_problems(name, seed, len(workload.calls), calls)
    attempted, failed, problems = problems_to_result(
        calls, golden + workload.finish(), golden_failed
    )
    latencies = [c.seconds for c in calls]
    factors = speed.factors(len(calls))
    scaled = [t / k for t, k in zip(latencies, factors)]
    setup_factors = [ref / REFERENCE_S for _, ref in setup]
    setup_scaled = [s / k for (s, _), k in zip(setup, setup_factors)]
    raw = {
        "setup_s": statistics.median(s for s, _ in setup),
        "runs_per_s": attempted / sum(latencies),
        "call_p50_ms": statistics.median(latencies) * 1000.0,
    }
    values = {
        "setup_s": statistics.median(setup_scaled),
        "runs_per_s": attempted / sum(scaled),
        "call_p50_ms": statistics.median(scaled) * 1000.0,
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = [
        f"{name}: {len(calls)} calls, {attempted} runs in "
        f"{sum(latencies):.2f} s of calls (seed {seed})",
        f"  speed factor: median {statistics.median(factors):.4f}, range "
        f"{min(factors):.4f}-{max(factors):.4f} over the calls "
        f"({len(speed.samples)} reference samples); median "
        f"{statistics.median(setup_factors):.4f} over the {len(setup)} set-up "
        "probes; times below are at calibration speed",
        "  as measured: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()),
    ]
    return finish_result(notes, attempted, failed, problems, values, END_TO_END)


# ---------------------------------------------------------------------------
# Layer ledger (--trace 1)
# ---------------------------------------------------------------------------


def measure_pairs(name: str, seed: int, seconds: float):
    """The same call sequence untraced and traced, alternating call by
    call, each side on its own freshly set-up workload so neither
    inherits the other's caches.  One throwaway call first warms what
    every process pays once (bytecode specialization, allocator arenas,
    module-level memos), so the first baseline call does not carry it."""
    import workloads
    from ledger import NULL_LEDGER, Ledger

    warm = workloads.build(name, seed)
    order = schedule(len(warm.calls), seed)
    first = next(order)
    warm.run(warm.calls[first], workloads.TRACE, NULL_LEDGER)
    del warm

    baseline = workloads.build(name, seed)
    workload = workloads.build(name, seed)
    ledger = Ledger()
    untraced: List[Call] = []
    traced: List[Call] = []
    spent = 0.0
    index = first
    while spent < seconds:
        untraced.append(timed_call(baseline, index, workloads.TRACE, NULL_LEDGER))
        with ledger.installed():
            traced.append(timed_call(workload, index, workloads.TRACE, ledger))
        spent += untraced[-1].seconds + traced[-1].seconds
        gc.collect()
        index = next(order)
    return workload, ledger, untraced, traced


def run_traced(name: str, seed: int, seconds: float) -> dict:
    import workloads
    from ledger import NULL_LEDGER

    workload, ledger, untraced, traced = measure_pairs(name, seed, seconds)
    extra = [
        f"call {t.index}: traced counts {t.outcome.signature} != untraced "
        f"{u.outcome.signature}"
        for u, t in zip(untraced, traced)
        if u.outcome.signature != t.outcome.signature
    ]
    golden, golden_failed = golden_problems(name, seed, len(workload.calls), traced)
    extra += golden + workload.finish()
    attempted, failed, problems = problems_to_result(traced, extra, golden_failed)

    pool = {"pool_overhead_frac": 0.0, "utilization": 0.0,
            "pool_floor_ms": 0.0, "payload_bytes": 0.0}
    hits, misses = workload.oracle_hits, workload.oracle_misses
    if workload.pooled:
        spec = workload.calls[traced[0].index]
        metered = workload.outcome(
            spec, workload.run(spec, workloads.POOL, NULL_LEDGER)
        )
        if metered.signature != traced[0].outcome.signature:
            problems.append("metered pool call counts differ from the serial run")
            failed += metered.runs
        pool.update(workloads.pool_numbers(metered.timings))
        pool.update(workload.pool_probe())

    wall = sum(c.seconds for c in traced)
    baseline_wall = sum(c.seconds for c in untraced)
    snapshots = [s for c in traced for s in c.outcome.snapshots]

    def counter(metric_name: str) -> int:
        return workloads.merged_counter(snapshots, metric_name)

    def ns_per(layer: str, work: float) -> float:
        return ledger.self_seconds(layer) * 1e9 / work if work else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    deliveries = counter("net.deliveries")
    accepted, rejected = counter("flood.accepted"), counter("flood.rejected")
    engine_deliveries = ledger.counts.get("path_engine.deliveries", 0)
    events = ledger.counts.get("obs.trace.events", 0)
    attributed = sum(cell[0] for cell in ledger.cells.values())
    # Totals, divided per run below (ratios and per-unit costs are not).
    totals = {
        "bench.wall_ms": wall * 1000.0,
        "net.deliveries": deliveries,
        "net.transmissions": counter("net.transmissions"),
        "flood.accepted": accepted,
        "flood.rejected": rejected,
        "reliable.queries": counter("reliable.queries"),
        "reliable.packing_checks": counter("reliable.packing_checks"),
        "reliable.precheck_saved": counter("reliable.precheck_saved"),
        "oracle.hits": hits,
        "oracle.misses": misses,
        "path_engine.deliveries": engine_deliveries,
        "obs.trace.bytes": ledger.counts.get("obs.trace.bytes", 0),
        "obs.trace.events": events,
    }
    for metric_name, _ in PER_LAYER:
        layer, _, kind = metric_name.rpartition(".")
        if kind == "self_ms":
            totals[metric_name] = ledger.self_seconds(layer) * 1000.0
        elif kind == "calls":
            totals[metric_name] = ledger.calls(layer)
    values = {key: value / attempted for key, value in totals.items()}
    values.update({
        "bench.trace_overhead_frac": wall / baseline_wall - 1.0,
        "bench.unattributed_frac": 1.0 - attributed / wall,
        "net.simulator.ns_per_delivery": ns_per("net.simulator", deliveries),
        "consensus.flooding.ns_per_path": ns_per(
            "consensus.flooding", accepted + rejected
        ),
        "flood.accept_ratio": ratio(accepted, accepted + rejected),
        "oracle.hit_ratio": ratio(hits, hits + misses),
        "consensus.path_engine.ns_per_delivery": ns_per(
            "consensus.path_engine", engine_deliveries
        ),
        "obs.trace.ns_per_event": ns_per("obs.trace", events),
        **{f"analysis.sweep.{key}": value for key, value in pool.items()},
    })
    notes = [
        f"{name}: traced {len(traced)} calls, {attempted} runs in {wall:.2f} s "
        f"(untraced {baseline_wall:.2f} s; seed {seed})",
        "  layer self time, share of traced wall:",
    ]
    for layer in sorted(ledger.cells, key=lambda k: -ledger.cells[k][0]):
        seconds_in = ledger.cells[layer][0]
        notes.append(f"    {layer:<36} {seconds_in:8.3f} s "
                     f"{100.0 * seconds_in / wall:5.1f}%")
    return finish_result(notes, attempted, failed, problems, values, PER_LAYER)


def finish_result(notes: List[str], attempted: int, failed: int,
                  problems: List[str], values: Dict[str, float],
                  catalogue) -> dict:
    for problem in problems:
        notes.append(f"  FAIL {problem}")
    return {
        "notes": notes,
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in catalogue
        },
    }


def emit(result: dict) -> int:
    for line in result.pop("notes", []):
        print(line)
    for name, entry in result["metrics"].items():
        print(f"  {name:<42} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result, sort_keys=False), flush=True)
    return 0 if result["correct"] else 1


# ---------------------------------------------------------------------------
# Several workloads / repeats, each run in a child process
# ---------------------------------------------------------------------------


def run_child(name: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        child_command("--workload", name, "--seed", str(seed),
                      "--seconds", repr(seconds), "--trace", str(trace)),
        stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
    )
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"{name} (seed {seed}) printed no result; "
                         f"exit status {done.returncode}") from None
    result["lines"] = lines[:-1]
    return result


def run_all(names: Sequence[str], seed: int, seconds: float, trace: int) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result = run_child(name, seed, seconds, trace)
        for line in result["lines"]:
            print(line)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric_name, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric_name}"] = entry
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


def run_repeat(names: Sequence[str], seed: int, seconds: float, trace: int,
               repeat: int, json_path: Optional[str]) -> int:
    """K runs per workload (seeds ``seed .. seed+K-1``): median and
    quartiles of every metric, and the relative spread (IQR / median)."""
    summary: Dict[str, dict] = {}
    correct = True
    for name in names:
        runs = [run_child(name, seed + k, seconds, trace) for k in range(repeat)]
        correct = correct and all(r["correct"] for r in runs)
        series = {
            metric_name: (entry["unit"],
                          [r["metrics"][metric_name]["value"] for r in runs])
            for metric_name, entry in runs[0]["metrics"].items()
        }
        factors = [float(line.split()[3].rstrip(",")) for r in runs
                   for line in r["lines"] if line.startswith("  speed factor:")]
        if len(factors) == repeat:
            series["speed_factor"] = ("ratio", factors)
        rows = {}
        for metric_name, (unit, values) in series.items():
            q1, median, q3 = statistics.quantiles(values, n=4)
            rows[metric_name] = {
                "unit": unit,
                "median": median,
                "q1": q1,
                "q3": q3,
                "rel_iqr": (q3 - q1) / median if median else 0.0,
                "values": values,
            }
            print(f"{name:<18} {metric_name:<42} median {median:.6g} "
                  f"[{q1:.6g}, {q3:.6g}] spread {rows[metric_name]['rel_iqr']:.3f}")
        summary[name] = {
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": rows,
        }
    if json_path:
        record = {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "seconds": seconds,
            "repeat": repeat,
            "seeds": [seed, seed + repeat - 1],
            "trace": trace,
            "workloads": summary,
        }
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2)
            handle.write("\n")
        print(f"wrote {json_path}")
    print(json.dumps({"correct": correct}), flush=True)
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# cProfile cross-check, golden counts, set-up probe
# ---------------------------------------------------------------------------


def run_profile(name: str, seed: int, seconds: float) -> int:
    """Span self time per module beside cProfile tottime per module."""
    import cProfile
    import pstats

    import workloads
    from ledger import NULL_LEDGER, Ledger, fold_profile

    workload = workloads.build(name, seed)
    ledger = Ledger()
    with ledger.installed():
        traced = measure(workload, workloads.TRACE, seconds / 2, ledger)
    wall = sum(c.seconds for c in traced)
    spans: Dict[str, float] = {}
    for layer, cell in ledger.cells.items():
        module = ledger.modules.get(layer, "repro." + layer)
        module = module[len("repro."):] if module.startswith("repro.") else module
        spans[module] = spans.get(module, 0.0) + cell[0]

    profiled = workloads.build(name, seed)
    profiler = cProfile.Profile()
    profiler.enable()
    for call in traced:
        timed_call(profiled, call.index, workloads.TRACE, NULL_LEDGER)
    profiler.disable()
    folded = fold_profile(pstats.Stats(profiler).stats, str(HERE))
    total = sum(folded.values())
    print(f"{name}: {len(traced)} calls; share of time per module "
          "(cProfile tottime with built-in, <string> and stdlib frames "
          "folded into their callers | span self time)")
    for module in sorted(set(folded) | set(spans),
                         key=lambda m: -folded.get(m, 0.0)):
        prof = f"{100.0 * folded.get(module, 0.0) / total:5.1f}%"
        span = (f"{100.0 * spans[module] / wall:5.1f}%"
                if module in spans else "    -")
        print(f"  {module:<32} {prof}  {span}")
    return 0


def record_golden(names: Sequence[str]) -> int:
    """Run every call of each workload once at the default seed and store
    the counts in ``golden.json`` (other current workloads' entries are
    kept, entries of removed workloads dropped)."""
    import workloads
    from ledger import NULL_LEDGER

    golden = load_golden()
    golden["seed"] = DEFAULT_SEED
    for name in names:
        workload = workloads.build(name, DEFAULT_SEED)
        rows, fields = [], None
        for spec in workload.calls:
            outcome = workload.outcome(
                spec, workload.run(spec, workloads.E2E, NULL_LEDGER)
            )
            if outcome.problems:
                raise SystemExit(f"{name}: refusing to record a failing call: "
                                 f"{outcome.problems}")
            fields = fields or sorted(outcome.signature)
            rows.append([outcome.signature[f] for f in fields])
        problems = workload.finish()
        if problems:
            raise SystemExit(f"{name}: refusing to record: {problems}")
        golden["workloads"][name] = {"fields": fields, "calls": rows}
        print(f"{name}: recorded {len(rows)} calls")
    golden["workloads"] = {k: golden["workloads"][k]
                           for k in sorted(golden["workloads"])
                           if k in WORKLOAD_NAMES}
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, separators=(",", ":"))
        handle.write("\n")
    return 0


def setup_probe(name: str, seed: int) -> int:
    import workloads

    workloads.build(name, seed)
    elapsed = perf_counter() - _STARTED
    speed = Speedometer()
    speed.sample(0, REFERENCE_REPS)
    print(json.dumps({
        "setup_s": elapsed,
        "reference_s": statistics.median(s for _, s in speed.samples),
    }), flush=True)
    return 0


# ---------------------------------------------------------------------------


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="one workload (default: all, each in a child)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="call time measured per run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: per-layer ledger instead of end-to-end metrics")
    parser.add_argument("--repeat", type=int, default=0, metavar="K",
                        help="K child runs per workload; print quartiles")
    parser.add_argument("--json", metavar="FILE",
                        help="with --repeat: write the quartiles to FILE")
    parser.add_argument("--profile", choices=WORKLOAD_NAMES, metavar="NAME",
                        help="cProfile tottime per module beside span self time")
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite golden.json from the default seed")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.repeat < 0 or args.repeat == 1:
        parser.error("--repeat needs at least 2 runs")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"benchmark: no program at {SRC / 'repro'}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    if args.record_golden:
        return record_golden(names)
    if args.profile:
        return run_profile(args.profile, args.seed, args.seconds)
    if args.repeat:
        return run_repeat(names, args.seed, args.seconds, args.trace,
                          args.repeat, args.json)
    if not args.workload:
        return run_all(names, args.seed, args.seconds, args.trace)
    if args.trace:
        return emit(run_traced(args.workload, args.seed, args.seconds))
    return emit(run_end_to_end(args.workload, args.seed, args.seconds))


if __name__ == "__main__":
    sys.exit(main())
