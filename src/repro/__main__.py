"""Command-line interface: quick checks and demos without writing code.

Usage::

    python -m repro check --graph cycle:5 --f 1 [--t 1]
    python -m repro run   --graph cycle:5 --f 1 --algorithm 1 \
                          --faulty 3 --adversary tamper-forward
    python -m repro sweep --graph cycle:5 --f 1 --workers 2
    python -m repro sweep --graph cycle:5 --f 1 \
                          --scheduler seeded-async --seed 7 --max-delay 3
    python -m repro lint  src benchmarks examples [--format json]
    python -m repro compare --max-f 5
    python -m repro demo-impossibility --kind degree --f 1

Graph specs: ``cycle:N``, ``complete:N``, ``path:N``, ``wheel:N``,
``circulant:N:d1,d2``, ``harary:K:N``, ``petersen``, ``fig1a``,
``fig1b``, ``random_regular:N:D[:SEED]``, ``gnp:N[:C[:SEED]]``.
Directed specs (true digraphs — every command accepts them):
``random_digraph:N:P[:SEED]`` and ``oneway:N[:K]``.

Schedulers (``run``/``sweep`` ``--scheduler``): ``sync`` (the default:
the paper's synchronous rounds), ``lockstep`` (the same unit-delay
timing, named as a scheduler), ``seeded-async`` (seeded random
per-link delays), ``adversarial`` (worst-case cut-straddling timing).
``sweep`` accepts a comma-separated list to multiply the work-list by a
timing axis.

``--synchronizer alpha|ack`` wraps the chosen algorithm in the
α-synchronizer (:mod:`repro.consensus.synchronizer`), which recovers
the synchronous round abstraction — and with it consensus — under the
asynchronous schedulers::

    python -m repro sweep --graph cycle:4 --f 1 --algorithm 2 \\
                          --scheduler seeded-async --synchronizer alpha

``--algorithm async`` runs the native asynchronous algorithm
(:mod:`repro.consensus.async_alg`, arXiv:1909.02865): message-driven,
no round schedule, and no delay bound read anywhere — pair it with
``--declare-unbounded`` to prove the point end to end::

    python -m repro sweep --graph wheel:5 --f 1 --algorithm async \\
                          --scheduler seeded-async,adversarial \\
                          --declare-unbounded

``run``, ``sweep`` and ``profile`` map their options to the recipe dicts
a flight header records (:func:`factory_spec`, an adversary's
``{name, seed}``) and build them as ``trace replay`` does, so a sweep
row reproduces through ``run --faulty … --adversary …``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import NoReturn

from . import analysis, consensus, graphs
from .lowerbounds import (
    connectivity_scenario,
    degree_scenario,
    run_scenario,
)
from .net import EquivocatingAdversary, standard_adversaries
from .net.channels import local_broadcast_model
from .net.sched import SCHEDULER_KINDS, parse_scheduler
from .obs import FlightReplayError


class UsageError(ValueError):
    """A malformed option value (graph spec, adversary, input pattern);
    :func:`main` reports it through :func:`_usage_error`."""


def _spec_int(spec: str, token: str, what: str) -> int:
    """Parse one integer field of a graph spec, failing loudly: the bare
    ``ValueError`` out of ``int()`` names neither the spec nor the field."""
    try:
        return int(token)
    except ValueError:
        raise UsageError(
            f"graph spec {spec!r}: {what} must be an integer, got {token!r}"
        ) from None


def _spec_float(spec: str, token: str, what: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise UsageError(
            f"graph spec {spec!r}: {what} must be a number, got {token!r}"
        ) from None


def _fault_bound(token: str) -> int:
    """argparse type of every ``--f``: a non-negative integer, so a bad
    bound exits 2 with a usage line instead of a traceback or a report."""
    try:
        value = int(token)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {token!r}"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _usage_error(args: argparse.Namespace, message: str) -> NoReturn:
    """Reject a command line whose check needs more than one option (or
    the parsed graph): one argparse-style line on stderr, exit 2."""
    print(f"python -m repro {args.command}: error: {message}", file=sys.stderr)
    raise SystemExit(2)


class _Parser(argparse.ArgumentParser):
    """argparse's own errors (missing option, bad ``int``, bad choice) as
    one stderr line with exit 2 on every subparser; ``-h`` still helps."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"{self.prog}: error: {message}\n")


def _check_workers(args: argparse.Namespace) -> None:
    workers = getattr(args, "workers", 1)
    if workers < 1:
        _usage_error(args, f"argument --workers: must be >= 1, got {workers}")


def _check_t(args: argparse.Namespace) -> None:
    """``--t`` counts equivocating faults among the ``--f`` faulty ones;
    only Algorithm 3 runs on the hybrid channel it describes (``profile``
    and ``check`` still read it for their predictions)."""
    t = getattr(args, "t", None)
    if t is None:
        return
    if not 0 <= t <= args.f:
        _usage_error(args, f"argument --t: must be in 0..{args.f}, got {t}")
    if args.command in ("run", "sweep") and args.algorithm != "3":
        _usage_error(args, "argument --t: only --algorithm 3 takes t")


def _check_outputs(args: argparse.Namespace) -> None:
    """A ``--output``/``--metrics``/``--trace`` file must have a directory
    to land in before any run starts, not after the work is done."""
    for option in ("output", "metrics", "trace"):
        path = getattr(args, option, None)
        if path and path != "-" and not os.path.isdir(
            os.path.dirname(path) or "."
        ):
            _usage_error(args, f"{path}: No such file or directory")


def _parse_faulty(args: argparse.Namespace, nodes: list) -> list:
    """``--faulty``: comma-separated indices into the repr-sorted nodes,
    at most ``--f`` distinct ones."""
    faulty = []
    for token in args.faulty.split(","):
        try:
            index = int(token)
        except ValueError:
            _usage_error(
                args, f"argument --faulty: invalid node index {token!r}"
            )
        if not 0 <= index < len(nodes):
            _usage_error(
                args,
                f"argument --faulty: node index {index} out of range "
                f"0..{len(nodes) - 1}",
            )
        faulty.append(nodes[index])
    distinct = len(set(faulty))
    if distinct > args.f:
        _usage_error(
            args, f"argument --faulty: {distinct} faulty nodes exceed f = {args.f}"
        )
    return faulty


def parse_graph(spec: str) -> graphs.Graph:
    """Parse a ``family:args`` graph spec into a Graph (or Digraph).

    A builder's :class:`~repro.graphs.GraphError` (``cycle:2``,
    ``random_regular:5:3``) becomes a :class:`UsageError` naming the
    spec, as does any unknown or malformed spec.
    """
    try:
        return _build_graph(spec)
    except graphs.GraphError as exc:
        raise UsageError(f"graph spec {spec!r}: {exc}") from None


def _spec_offsets(spec: str, token: str, what: str) -> list:
    return [_spec_int(spec, x, what) for x in token.split(",")]


_N = ("N", _spec_int)
_SEED = ("SEED", _spec_int, 0)
#: family -> (builder, fields); a field is ``(name, parse)`` when
#: required, ``(name, parse, default)`` when it may be omitted.
_GRAPH_SPECS = {
    "cycle": (graphs.cycle_graph, [_N]),
    "complete": (graphs.complete_graph, [_N]),
    "path": (graphs.path_graph, [_N]),
    "wheel": (graphs.wheel_graph, [_N]),
    "star": (graphs.star_graph, [_N]),
    "circulant": (graphs.circulant_graph, [_N, ("OFFSETS", _spec_offsets)]),
    "harary": (graphs.harary_graph, [("K", _spec_int), _N]),
    "petersen": (graphs.petersen_graph, []),
    "fig1a": (graphs.paper_figure_1a, []),
    "fig1b": (graphs.paper_figure_1b, []),
    "random_regular": (graphs.random_regular_graph, [_N, ("D", _spec_int), _SEED]),
    "gnp": (graphs.gnp_supercritical_graph, [_N, ("C", _spec_float, 2.0), _SEED]),
    "random_digraph": (graphs.random_digraph, [_N, ("P", _spec_float), _SEED]),
    "oneway": (graphs.oneway_ring, [_N, ("K", _spec_int, 1)]),
}
_GRAPH_SPECS["gnp_supercritical"] = _GRAPH_SPECS["gnp"]


def _build_graph(spec: str) -> graphs.Graph:
    family, *tokens = spec.split(":")
    if family not in _GRAPH_SPECS:
        raise UsageError(f"unknown graph spec {spec!r}")
    builder, fields = _GRAPH_SPECS[family]
    required = [field[0] for field in fields if len(field) == 2]
    if not len(required) <= len(tokens) <= len(fields):
        shape = ":".join(required) + "".join(
            f"[:{field[0]}]" for field in fields[len(required):]
        )
        raise UsageError(
            f"graph spec {spec!r}: {family} takes {shape or 'no fields'} "
            f"(got {len(tokens)} field(s))"
        )
    values = [parse(spec, token, name)
              for (name, parse, *_), token in zip(fields, tokens)]
    return builder(*values, *(field[2] for field in fields[len(tokens):]))


def parse_scheduler_axis(args: argparse.Namespace) -> list:
    """Parse ``--scheduler`` (a comma-separated list) into a timing axis.

    Malformed lists are usage errors: an empty token (``sync,`` /
    ``,,sync``) would silently duplicate the default synchronous entry,
    and a repeated kind would silently double a slice of the work-list —
    both would skew every aggregate the report prints.  So are a
    ``--max-delay`` below 1, ``run`` with more than one scheduler, and
    ``--declare-unbounded`` with a fixed-round algorithm: the runner
    cannot budget a round-scheduled protocol with no declared delay
    bound, and only the native asynchronous algorithm runs in that
    regime.

    ``--declare-unbounded`` strips the delay-bound declaration from
    every asynchronous entry; ``--target-window`` arms the adversarial
    scheduler's synchronizer-boundary targeting.  Both decorate
    whichever entries they apply to.
    """
    spec = args.scheduler
    axis = []
    seen = set()
    for token in spec.split(","):
        name = token.strip()
        if not name:
            _usage_error(
                args,
                f"empty scheduler token in {spec!r}; "
                "use a comma-separated list like 'sync,seeded-async'",
            )
        if name not in ("sync", *SCHEDULER_KINDS):
            choices = ["sync", *SCHEDULER_KINDS]
            _usage_error(args, f"unknown scheduler {name!r}; choose from {choices}")
        if name in seen:
            _usage_error(
                args,
                f"duplicate scheduler {name!r} in {spec!r}; "
                "each axis entry may appear once",
            )
        seen.add(name)
        try:
            axis.append(
                parse_scheduler(
                    name, seed=args.seed, max_delay=args.max_delay,
                    unbounded=args.declare_unbounded, window=args.target_window,
                )
            )
        except ValueError as exc:  # e.g. --max-delay 0
            _usage_error(args, str(exc))
    if args.command == "run" and len(axis) != 1:
        _usage_error(args, "run takes exactly one --scheduler")
    if args.algorithm != "async" and any(
        entry is not None and not entry.bounded for entry in axis
    ):
        _usage_error(
            args,
            "--declare-unbounded strips the delay bound the fixed-round "
            "algorithms' budgets need; use --algorithm async (or drop "
            "the flag)",
        )
    return axis


def cmd_check(args: argparse.Namespace) -> int:
    graph = parse_graph(args.graph)
    try:  # before any output: a digraph has no hybrid condition
        hybrid = (None if args.t is None
                  else consensus.check_hybrid(graph, args.f, args.t))
    except graphs.GraphError as exc:
        raise UsageError(f"argument --t: {exc}") from None
    if graph.directed:
        print(f"digraph: n={graph.n}, arcs={graph.arc_count}, "
              f"min in-degree={graph.min_in_degree()}, "
              f"min out-degree={graph.min_out_degree()}, "
              f"strong kappa={graphs.vertex_connectivity(graph)}")
        print(consensus.check_local_broadcast(graph, args.f))
        print(consensus.check_directed_decomposition(graph, args.f))
        directed_max = consensus.max_f_local_broadcast(graph)
        closure_max = consensus.max_f_local_broadcast(graph.to_undirected())
        print(f"max f (directed local broadcast): {directed_max}")
        print(f"max f (symmetric closure):        {closure_max}")
        return 0
    print(f"graph: n={graph.n}, m={graph.edge_count}, "
          f"min degree={graph.min_in_degree()}, "
          f"kappa={graphs.vertex_connectivity(graph)}")
    print(consensus.check_local_broadcast(graph, args.f))
    print(consensus.check_async_local_broadcast(graph, args.f))
    print(consensus.check_point_to_point(graph, args.f))
    if hybrid is not None:
        print(hybrid)
    print(f"max f (local broadcast): {consensus.max_f_local_broadcast(graph)}")
    print(f"max f (async LB):        {consensus.max_f_async_local_broadcast(graph)}")
    print(f"max f (point-to-point):  {consensus.max_f_point_to_point(graph)}")
    return 0


def factory_spec(args: argparse.Namespace, axis=()) -> dict:
    """``--algorithm``/``--synchronizer`` as the ``flight_spec()`` dict a
    flight header records; :func:`~repro.analysis.factory_from_flight`
    builds it, for ``run``/``sweep``/``profile`` as for ``trace replay``.
    """
    kind = "async" if args.algorithm == "async" else f"algorithm{args.algorithm}"
    spec = {"kind": kind, "f": args.f}
    if args.algorithm == "3":
        spec["t"] = args.t or 0
    if args.synchronizer == "none":
        return spec
    if args.algorithm == "async":
        raise UsageError(
            "the async algorithm is natively asynchronous; "
            "use --synchronizer none"
        )
    ack = args.synchronizer == "ack"
    return {
        "kind": "synchronized",
        "inner": spec,
        # The worst declared delay bound across the axis: a window larger
        # than one entry's bound only stretches rounds further.
        "window": max(
            (entry.worst_case_delay for entry in axis if entry is not None),
            default=1,
        ),
        "mode": args.synchronizer,
        # Ack mode's deg - f marker quorum with its α-window timeout gate:
        # sound, since parse_scheduler_axis has already refused every
        # unbounded entry for a fixed-round algorithm.
        "f": args.f if ack else 0,
        "ack_timeout": ack,
    }


def write_metrics(path: str, metrics, timings, what: str = "metrics") -> None:
    """Print ``{"metrics", "timings"}`` (``path`` ``-``) or write it to ``path``.

    The payload keeps the quarantine split explicit: ``metrics`` is
    canonical content, ``timings`` is wall-clock commentary (strip it
    before any determinism comparison).
    """
    payload = json.dumps(
        {"metrics": metrics, "timings": timings},
        indent=2, sort_keys=True, default=repr,
    )
    if path == "-":
        print(payload)
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(payload + "\n")
    print(f"wrote {what} to {path}")


def cmd_run(args: argparse.Namespace) -> int:
    graph = parse_graph(args.graph)
    nodes = sorted(graph.nodes, key=repr)
    faulty = _parse_faulty(args, nodes) if args.faulty else []
    # Resolved even with no faulty node, so a misspelt name never passes
    # silently; seeded as sweep seeds its battery, so a row replays here.
    adversary = analysis.adversary_from_flight(
        {"name": args.adversary, "seed": args.seed}
    )
    axis = parse_scheduler_axis(args)
    factory = analysis.factory_from_flight(graph, factory_spec(args, axis))
    inputs = {v: i % 2 for i, v in enumerate(nodes)}
    channel = local_broadcast_model()
    if args.t:  # Algorithm 3 only (_check_t)
        # Same canonical (repr-sorted) prefix rule as sweep's
        # HybridEquivocatorPolicy, so a sweep record's scenario replays
        # identically here regardless of --faulty argument order.
        channel = analysis.HybridEquivocatorPolicy(args.t)(tuple(faulty))
    result = consensus.run_consensus(
        graph, factory, inputs, f=args.f, faulty=faulty,
        adversary=adversary if faulty else None, channel=channel,
        scheduler=axis[0], metrics=args.metrics is not None,
        flight=bool(args.trace),
    )
    print(f"inputs        : {inputs}")
    print(f"faulty        : {faulty} ({args.adversary if faulty else 'none'})")
    print(f"scheduler     : {args.scheduler}")
    print(f"synchronizer  : {args.synchronizer}")
    print(f"honest outputs: {result.honest_outputs}")
    print(f"agreement     : {result.agreement}")
    print(f"validity      : {result.validity}")
    print(f"outcome       : {result.outcome}")
    print(f"rounds        : {result.rounds}")
    print(f"transmissions : {result.transmissions}")
    print(f"max latency   : {result.trace.max_latency}")
    if args.metrics is not None:
        write_metrics(args.metrics, result.metrics, result.timings)
    if args.trace:
        assert result.flight is not None
        result.flight.save(args.trace)
        print(f"wrote flight recording to {args.trace}")
    return 0 if result.consensus else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    graph = parse_graph(args.graph)
    channel_policy = None
    adversaries = None
    if args.t:
        # Mirror cmd_run: Algorithm 3's whole point is the hybrid
        # channel, whose equivocator set is (a prefix of) each
        # task's fault placement — derive it per task.
        channel_policy = analysis.HybridEquivocatorPolicy(args.t)
        if args.t >= args.f:
            # Every fault placement is fully equivocating, so the
            # equivocation behavior is physically possible on each
            # faulty node — add it to the battery the sweep runs.
            adversaries = standard_adversaries(args.seed) + [
                EquivocatingAdversary()
            ]
    patterns = args.patterns.split(",") if args.patterns else None
    if patterns is not None:
        known = sorted(analysis.input_patterns(graph))
        unknown = [p for p in patterns if p not in known]
        if unknown:
            raise UsageError(
                f"unknown input patterns {unknown}; choose from {known}"
            )
    schedulers = parse_scheduler_axis(args)
    factory = analysis.factory_from_flight(graph, factory_spec(args, schedulers))
    if args.capture:
        # Before the first task: a bad --capture path fails before any run.
        os.makedirs(args.capture, exist_ok=True)
    report = analysis.consensus_sweep(
        graph,
        factory,
        f=args.f,
        adversaries=adversaries,
        fault_limit=args.fault_limit,
        patterns=patterns,
        seed=args.seed,
        workers=args.workers,
        schedulers=schedulers,
        channel_policy=channel_policy,
        metrics=args.metrics is not None,
        capture=args.capture_policy if args.capture else None,
    )
    text = report.to_json(
        graph=args.graph, f=args.f, workers=args.workers,
        scheduler=args.scheduler, synchronizer=args.synchronizer,
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {report.runs} records to {args.output}")
    else:
        print(text)
    if args.metrics not in (None, "-"):
        # Side file with just the aggregate: the merged canonical
        # snapshot plus the quarantined wall-clock section.
        write_metrics(args.metrics, report.metrics, report.timings,
                      what="merged metrics")
    if args.capture:
        # One file per retained task, named by canonical task index — the
        # same index at any --workers, so a capture directory diffs clean
        # across worker counts.
        for index in sorted(report.flights):
            path = os.path.join(args.capture, f"flight-{index:05d}.ndjson")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(report.flights[index])
        # On stderr: without --output, stdout is the one JSON report.
        print(f"captured {len(report.flights)} flight recordings "
              f"({args.capture_policy}) to {args.capture}", file=sys.stderr)
    if args.exit_zero:
        return 0
    return 0 if report.all_consensus else 1


def _profile_flood_receipt(args: argparse.Namespace) -> int:
    """``profile --flood-receipt``: one analytic fault-free flood plus
    reliable receipt at a single receiver.

    No simulator: the backward-search :class:`~repro.consensus.path_engine
    .PathFloodEngine` materializes every delivery at the receiver
    directly, already grouped per origin with each path's visited mask;
    Definition C.1 is then evaluated for every origin over its group,
    packing disjointness over those masks.  This is the harness that
    exercises the bitmask path-set core at scales the round simulator
    cannot touch (``wheel:99`` completes in seconds); on wheel graphs
    the delivery count is checked against the closed form of
    :func:`~repro.analysis.metrics.expected_wheel_deliveries_at_rim`.
    """
    from time import perf_counter

    from .analysis.metrics import expected_wheel_deliveries_at_rim
    from .consensus.path_engine import NodeBehavior, PathFloodEngine
    from .consensus.reliable import reliable_payload
    from .obs import MetricsRegistry, bench_json, bench_record, check

    graph = parse_graph(args.graph)
    nodes = sorted(graph.nodes, key=repr)
    inputs = {v: i % 2 for i, v in enumerate(nodes)}
    metrics = MetricsRegistry()
    engine = PathFloodEngine(
        graph,
        {v: NodeBehavior.honest(inputs[v]) for v in nodes},
        metrics=metrics,
    )
    # Deterministic receiver choice; for wheel:N (hub 0, rim 1..N-1)
    # this is always a rim node, which the closed form assumes.
    receiver = nodes[-1]
    t0 = perf_counter()
    by_origin, path_masks = engine.deliveries_by_origin(receiver)
    flood_s = perf_counter() - t0

    t0 = perf_counter()
    received: dict = {}
    for origin in nodes:
        payload = reliable_payload(
            graph,
            args.f,
            receiver,
            by_origin.get(origin, {}),
            origin,
            metrics=metrics,
            path_mask=path_masks.__getitem__,
        )
        if payload is not None:
            received[origin] = payload
    receipt_s = perf_counter() - t0

    checks = [
        check("reliable_origins", graph.n, len(received)),
        check(
            "reliable_values_match_inputs",
            True,
            all(received.get(v) == inputs[v] for v in nodes),
        ),
    ]
    predictions = {"n": graph.n, "f": args.f}
    if args.graph.startswith("wheel:"):
        expected = expected_wheel_deliveries_at_rim(graph.n - 1)
        predictions["expected_deliveries"] = expected
        checks.append(check("flood_deliveries", expected, len(path_masks)))

    timings = {
        "flood": flood_s,
        "receipt": receipt_s,
        "total": flood_s + receipt_s,
    }
    record = bench_record(
        args.name or "profile_flood_receipt",
        spec={
            "graph": args.graph,
            "n": graph.n,
            "f": args.f,
            "mode": "flood-receipt",
            "receiver": receiver,
        },
        predictions=predictions,
        measured={
            "deliveries": len(path_masks),
            "reliable_origins": len(received),
        },
        checks=checks,
        metrics=metrics.snapshot(),
        timings=timings,
    )
    print(f"profile: flood+receipt on {args.graph} "
          f"(n={graph.n}, f={args.f}, receiver={receiver!r})")
    print(f"  flood   deliveries={len(path_masks)} in {flood_s:.3f}s")
    print(f"  receipt origins={len(received)}/{graph.n} in {receipt_s:.3f}s")
    for entry in checks:
        verdict = "ok" if entry["ok"] else "FAIL"
        print(f"  check   {entry['name']}: expected={entry['expected']} "
              f"actual={entry['actual']} {verdict}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(bench_json(record) + "\n")
        print(f"wrote bench record to {args.output}")
    return 0 if all(entry["ok"] for entry in checks) else 1


def cmd_profile(args: argparse.Namespace) -> int:
    """Metered fault-free run + metered sweep, checked against the
    closed forms of :mod:`repro.analysis.metrics`.

    With ``--output`` the result is written as a ``BENCH_<name>.json``
    record (schema in :mod:`repro.obs.bench`); exit status reports
    whether every closed-form check passed.
    """
    from .analysis.metrics import expected_flood_deliveries, predicted_costs
    from .obs import bench_json, bench_record, check, render_key

    if args.flood_receipt:
        if args.trace:
            raise UsageError(
                "--trace records a simulated run; --flood-receipt is "
                "analytic (no network events to record)"
            )
        return _profile_flood_receipt(args)
    graph = parse_graph(args.graph)
    factory = analysis.factory_from_flight(graph, factory_spec(args))
    nodes = sorted(graph.nodes, key=repr)
    inputs = {v: i % 2 for i, v in enumerate(nodes)}
    result = consensus.run_consensus(
        graph, factory, inputs, f=args.f, metrics=True,
        flight=bool(args.trace),
    )
    report = analysis.consensus_sweep(
        graph,
        factory,
        f=args.f,
        fault_limit=args.fault_limit,
        seed=args.seed,
        workers=args.workers,
        metrics=True,
    )
    costs = predicted_costs(graph, args.f, args.t or 0)
    flood_total = expected_flood_deliveries(graph)
    predictions = {
        "n": costs.n,
        "phases": costs.phases,
        "rounds_algorithm1": costs.rounds_algorithm1,
        "rounds_algorithm2": costs.rounds_algorithm2,
        "round_blowup": costs.round_blowup,
        "expected_flood_deliveries": flood_total,
    }

    checks = []
    probe = factory(nodes[0], 0)
    budget = getattr(probe, "total_rounds", None)
    if args.algorithm in ("1", "2") and isinstance(budget, int):
        predicted_budget = (
            costs.rounds_algorithm2 if args.algorithm == "2"
            else costs.rounds_algorithm1
        )
        checks.append(check("round_budget", predicted_budget, budget))
        checks.append(
            check("rounds_within_budget", True, result.rounds <= budget)
        )
    if args.algorithm == "2":
        # Phase 1 is one full flood; every node's own trivial path is
        # not a delivery, hence the − n (Section 5.3's honest cost).
        accepted = result.metrics["counters"].get(
            render_key("flood.accepted", {"phase": ("efficient", 1)}), 0
        )
        checks.append(
            check("phase1_flood_accepted", flood_total - graph.n, accepted)
        )

    timings = {
        "run": result.timings,
        "sweep": report.timings,
        # The one number the perf regression gate compares across
        # commits: fault-free run + whole sweep, in seconds.
        "total": (result.timings.get("run", {}).get("seconds", 0.0)
                  + (report.timings or {}).get("total_s", 0.0)),
    }
    record = bench_record(
        args.name or f"profile_alg{args.algorithm}",
        spec={
            "graph": args.graph,
            "n": graph.n,
            "f": args.f,
            "t": args.t or 0,
            "algorithm": args.algorithm,
            "fault_limit": args.fault_limit,
            "seed": args.seed,
            "workers": args.workers,
        },
        predictions=predictions,
        measured={
            "rounds": result.rounds,
            "transmissions": result.transmissions,
            "deliveries": result.deliveries,
            "outcome": result.outcome,
            "sweep_runs": report.runs,
            "sweep_all_consensus": report.all_consensus,
            "sweep_outcomes": report.outcomes,
            "sweep_max_rounds": report.max_rounds,
            "sweep_max_transmissions": report.max_transmissions,
        },
        checks=checks,
        metrics=result.metrics,
        timings=timings,
    )

    print(f"profile: algorithm {args.algorithm} on {args.graph} "
          f"(n={graph.n}, f={args.f})")
    for key in sorted(predictions):
        print(f"  predict {key:<26}= {predictions[key]}")
    print(f"  run     rounds={result.rounds} "
          f"transmissions={result.transmissions} outcome={result.outcome}")
    print(f"  sweep   runs={report.runs} outcomes={report.outcomes}")
    utilization = (report.timings or {}).get("utilization")
    if utilization is not None:
        print(f"  wall    run={timings['run']['run']['seconds']:.3f}s "
              f"sweep={report.timings['total_s']:.3f}s "
              f"utilization={utilization:.2f}")
    for entry in checks:
        verdict = "ok" if entry["ok"] else "FAIL"
        print(f"  check   {entry['name']}: expected={entry['expected']} "
              f"actual={entry['actual']} {verdict}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(bench_json(record) + "\n")
        print(f"wrote bench record to {args.output}")
    if args.trace:
        # The metered fault-free run's flight: spans land in the header,
        # so `trace export-chrome` overlays phase spans on the timeline.
        assert result.flight is not None
        result.flight.save(args.trace)
        print(f"wrote flight recording to {args.trace}")
    return 0 if all(entry["ok"] for entry in checks) else 1


def cmd_trace(args: argparse.Namespace) -> int:
    """Forensics on a flight recording; exit codes are the contract.

    ``summary``/``critical-path`` exit 0 when the causal record is
    consistent, 1 on :meth:`~repro.obs.CausalDag.check` violations or
    failed tick accounting.  ``blame`` exits 0 when the
    anomaly is attributed to faulty nodes, 1 when the run was clean
    (nothing to blame), 2 when an anomaly could not be attributed —
    blaming an honest node is a bug in the model, never an exit code.
    ``replay`` exits 0 on byte-identical re-execution, 1 on divergence,
    2 when the recording is not replayable.  Every action exits 2 with a
    one-line message when the file breaks the flight schema
    (:meth:`~repro.obs.FlightRecord.loads`).
    """
    from .obs import FlightError

    try:
        return _trace_action(args)
    except FlightError as exc:
        print(f"trace {args.action}: {args.file}: {exc}", file=sys.stderr)
        return 2


def _trace_action(args: argparse.Namespace) -> int:
    from .obs import (
        FlightRecord,
        FlightReplayError,
        blame,
        critical_path,
        export_chrome,
        summarize,
    )

    record = FlightRecord.load(args.file)

    def emit(data: dict) -> None:
        print(json.dumps(data, indent=2, sort_keys=True, default=repr))

    if args.action == "summary":
        data = summarize(record)
        if args.as_json:
            emit(data)
        else:
            run = data["run"]
            sched = run["scheduler"]
            print(f"flight  : {args.file}")
            print(f"  outcome={run['outcome']} rounds={run['rounds']} "
                  f"n={run['n']} f={run['f']}")
            print(f"  factory={run['factory']} adversary={run['adversary']} "
                  f"scheduler={sched['kind'] if sched else 'sync'}")
            print(f"  events: sends={run['sends']} "
                  f"deliveries={run['deliveries']} "
                  f"decisions={run['decisions']} "
                  f"causal_violations={run['causal_violations']}")
            print(f"  {'node':<8}{'role':<8}{'sends':>6}{'delivs':>8}"
                  f"{'decided@':>10}  decision")
            for row in data["nodes"]:
                role = "faulty" if row["faulty"] else "honest"
                decided = row["decided_at"] if row["decided_at"] is not None else "-"
                decision = row["decision"] if row["decision"] is not None else "-"
                print(f"  {str(row['node']):<8}{role:<8}{row['sends']:>6}"
                      f"{row['deliveries']:>8}{str(decided):>10}  {decision}")
        return 0 if data["run"]["causal_violations"] == 0 else 1

    if args.action == "critical-path":
        data = critical_path(record)
        if args.as_json:
            emit(data)
        else:
            print(f"critical path: {data['length']} events, "
                  f"span={data['span']} ticks "
                  f"(latency sum={data['latency_sum']}, "
                  f"consistent={data['consistent']}, "
                  f"causal_violations={data['causal_violations']})")
            print(f"  root cause: {data['root_cause']}")
            for hop in data["hops"]:
                print(f"  {hop}")
        return 0 if data["consistent"] and not data["causal_violations"] else 1

    if args.action == "blame":
        data = blame(record)
        if args.as_json:
            emit(data)
        else:
            print(f"outcome : {data['outcome']} ({data['reason']})")
            print(f"faulty  : {data['faulty']}")
            print(f"verdict : {data['verdict']}")
            print(f"blamed  : {data['blamed']}")
            for entry in data["frontier"]:
                print(f"  commission: {entry}")
            for entry in data["omissions"]:
                print(f"  omission  : {entry}")
            for entry in data["timing_suspects"]:
                print(f"  timing    : {entry}")
        return {"attributed": 0, "clean": 1, "unattributed": 2}[data["verdict"]]

    if args.action == "export-chrome":
        payload = export_chrome(record)
        out = args.output or args.file + ".chrome.json"
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, sort_keys=True) + "\n")
        print(f"wrote {len(payload['traceEvents'])} trace events to {out} "
              "(load in chrome://tracing or ui.perfetto.dev)")
        return 0

    if args.action == "replay":
        try:
            outcome = analysis.replay_flight(record)
        except FlightReplayError as exc:
            print(f"not replayable: {exc}")
            return 2
        replayed = outcome.result
        print(f"replayed: outcome={replayed.outcome} "
              f"rounds={replayed.rounds} "
              f"decisions={len(replayed.flight.decides)}")
        if outcome.identical:
            print("identical: replay reproduced the recording byte for byte")
            return 0
        print(f"DIVERGED: {outcome.diff}")
        return 1

    raise SystemExit(f"unknown trace action {args.action!r}")


def cmd_lint(args: argparse.Namespace) -> int:
    from .lint.cli import run_lint

    return run_lint(args)


def cmd_compare(args: argparse.Namespace) -> int:
    print(f"{'f':>3} {'kappa p2p':>10} {'kappa LB':>9} "
          f"{'min n p2p':>10} {'min n LB':>9}")
    for row in analysis.requirement_table(args.max_f):
        print(f"{row.f:>3} {row.p2p_connectivity:>10} "
              f"{row.lb_connectivity:>9} {row.p2p_min_nodes:>10} "
              f"{row.lb_min_nodes:>9}")
    return 0


def cmd_demo_impossibility(args: argparse.Namespace) -> int:
    if args.kind == "degree":
        graph = graphs.path_graph(3) if args.f == 1 else (
            graphs.degree_deficient_graph(args.f)
        )
        scenario = degree_scenario(graph, args.f)
    else:  # argparse restricts --kind to degree or connectivity
        graph = graphs.low_connectivity_graph(args.f)
        scenario = connectivity_scenario(graph, args.f)
    factory = consensus.algorithm1_factory(graph, args.f)
    outcome = run_scenario(scenario, factory)
    print(outcome.summary())
    print(f"indistinguishability: {outcome.fully_indistinguishable}")
    return 0 if outcome.violation_demonstrated else 1


def _add_problem(p: argparse.ArgumentParser, algorithm: str = "") -> None:
    """``--graph``/``--f``/``--t``, plus ``--algorithm`` with a default."""
    p.add_argument("--graph", required=True)
    p.add_argument("--f", type=_fault_bound, required=True)
    p.add_argument("--t", type=int, default=None)
    if algorithm:
        p.add_argument("--algorithm", default=algorithm,
                       choices=["1", "2", "3", "async"])


def _add_timing(p: argparse.ArgumentParser) -> None:
    """The asynchronous-timing options ``run`` and ``sweep`` share."""
    p.add_argument("--synchronizer", default="none",
                   choices=["none", "alpha", "ack"],
                   help="wrap the protocol in an α-synchronizer so it "
                        "keeps its round structure under async timing "
                        "(window = the worst declared delay; ack mode "
                        "tolerates f marker-withholding faults); "
                        "--algorithm async needs none")
    p.add_argument("--max-delay", type=int, default=3,
                   help="worst-case per-link delay for async schedulers")
    p.add_argument("--declare-unbounded", action="store_true",
                   help="withdraw the delay-bound declaration from the "
                        "async schedulers (same delays on the wire; "
                        "bound-reading layers must refuse or go native)")
    p.add_argument("--target-window", type=int, default=0,
                   help="adversarial scheduler: land bottleneck traffic "
                        "exactly on the α-synchronizer activation ticks "
                        "of this window (0 = flat max-delay stretching)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="python -m repro",
        description="Exact Byzantine consensus under local broadcast "
                    "(PODC 2019 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate feasibility conditions")
    _add_problem(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("run", help="run a consensus algorithm")
    _add_problem(p, algorithm="1")
    p.add_argument("--faulty", default="",
                   help="comma-separated node indices")
    p.add_argument("--adversary", default="tamper-forward")
    p.add_argument("--scheduler", default="sync",
                   help="timing model: sync, lockstep, seeded-async, "
                        "adversarial")
    _add_timing(p)
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the seeded-async scheduler and the "
                        "battery's random adversary (as in sweep)")
    p.add_argument("--metrics", nargs="?", const="-", default=None,
                   metavar="FILE",
                   help="meter the run; print the canonical snapshot "
                        "(plus quarantined wall timings) to stdout, or "
                        "write it to FILE")
    p.add_argument("--trace", default="", metavar="FILE",
                   help="record a causal flight recording (happened-"
                        "before NDJSON) of the run to FILE; analyze or "
                        "re-execute it with `python -m repro trace`")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser(
        "sweep",
        help="run the adversary battery over every fault placement "
             "and emit a JSON report",
    )
    _add_problem(p, algorithm="1")
    p.add_argument("--workers", type=int, default=1,
                   help="process fan-out (1 = serial; report is identical)")
    p.add_argument("--fault-limit", type=int, default=None,
                   help="seeded sample size of fault subsets")
    p.add_argument("--patterns", default="",
                   help="comma-separated input-pattern names "
                        "(default: all four)")
    p.add_argument("--scheduler", default="sync",
                   help="comma-separated timing axis: sync, lockstep, "
                        "seeded-async, adversarial")
    _add_timing(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default="",
                   help="write the JSON report here instead of stdout")
    p.add_argument("--exit-zero", action="store_true",
                   help="exit 0 even when some runs miss consensus "
                        "(async schedulers legitimately break the "
                        "fixed-round algorithms; use for determinism "
                        "smoke checks)")
    p.add_argument("--metrics", nargs="?", const="-", default=None,
                   metavar="FILE",
                   help="meter every run: the report gains per-record "
                        "snapshots, a canonical merge, and quarantined "
                        "wall timings; with FILE also write the "
                        "aggregate there")
    p.add_argument("--capture", default="", metavar="DIR",
                   help="write flight recordings of captured runs to "
                        "DIR as flight-<index>.ndjson (index = canonical "
                        "task index, invariant under --workers)")
    p.add_argument("--capture-policy", default="anomalies",
                   choices=["anomalies", "all"],
                   help="which runs --capture retains: only those that "
                        "failed to decide (default), or every run")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser(
        "profile",
        help="metered fault-free run + sweep, checked against the "
             "closed-form cost model; optionally emit BENCH_<name>.json",
    )
    _add_problem(p, algorithm="2")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--fault-limit", type=int, default=None,
                   help="seeded sample size of fault subsets")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--name", default="",
                   help="bench record name (default profile_alg<N>)")
    p.add_argument("--output", default="",
                   help="write the BENCH record JSON to this path")
    p.add_argument("--flood-receipt", action="store_true",
                   help="profile one analytic flood (backward-search "
                        "path engine) plus reliable receipt at a single "
                        "receiver instead of a simulated run — scales "
                        "to graphs far beyond the simulator (e.g. "
                        "wheel:99); on wheels the delivery count is "
                        "checked against the closed form")
    p.add_argument("--trace", default="", metavar="FILE",
                   help="also record a causal flight recording of the "
                        "metered fault-free run to FILE (header carries "
                        "the phase spans; see `trace export-chrome`)")
    p.set_defaults(fn=cmd_profile, synchronizer="none")

    p = sub.add_parser(
        "trace",
        help="forensics on a flight recording: summary, critical-path, "
             "blame, export-chrome, replay",
    )
    p.add_argument("action",
                   choices=["summary", "critical-path", "blame",
                            "export-chrome", "replay"])
    p.add_argument("file", help="flight recording (NDJSON) to analyze")
    p.add_argument("--json", dest="as_json", action="store_true",
                   help="print the full analysis as JSON instead of the "
                        "human-readable digest")
    p.add_argument("--output", default="", metavar="FILE",
                   help="export-chrome: write the Chrome trace-event "
                        "JSON here (default: <file>.chrome.json)")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser(
        "lint",
        help="AST-based determinism & protocol-contract checker "
             "(REPRO001-REPRO005)",
    )
    from .lint.cli import add_lint_arguments

    add_lint_arguments(p)
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser("compare", help="print the model-requirement table")
    p.add_argument("--max-f", type=int, default=5)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("demo-impossibility",
                       help="run a covering-network violation demo")
    p.add_argument("--kind", default="degree",
                   choices=["degree", "connectivity"])
    p.add_argument("--f", type=_fault_bound, default=1)
    p.set_defaults(fn=cmd_demo_impossibility)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _check_workers(args)
    _check_t(args)
    if args.command in ("run", "sweep", "profile"):
        _check_outputs(args)
    try:
        return args.fn(args)
    except (UsageError, FlightReplayError) as exc:
        _usage_error(args, str(exc))
    except OSError as exc:
        # A file the user named (--metrics, --trace, --output, a flight
        # to read) that cannot be opened: one line, not a traceback.
        if exc.filename is None:
            raise
        _usage_error(args, f"{exc.filename}: {exc.strerror}")


if __name__ == "__main__":
    sys.exit(main())
