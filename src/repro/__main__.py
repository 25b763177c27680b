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

Schedulers (``run``/``sweep`` ``--scheduler``): ``sync`` (the default
synchronous simulator), ``lockstep`` (event-driven core, trace-identical
to ``sync``), ``seeded-async`` (seeded random per-link delays),
``adversarial`` (worst-case cut-straddling timing).  ``sweep`` accepts a
comma-separated list to multiply the work-list by a timing axis.

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
"""

from __future__ import annotations

import argparse
import json
import sys

from . import consensus, graphs
from .analysis import requirement_table
from .lowerbounds import (
    connectivity_scenario,
    degree_scenario,
    run_scenario,
)
from .net import EquivocatingAdversary, standard_adversaries
from .net.channels import local_broadcast_model
from .net.sched import SCHEDULER_KINDS, parse_scheduler


def _spec_int(spec: str, token: str, what: str) -> int:
    """Parse one integer field of a graph spec, failing loudly: the bare
    ``ValueError`` out of ``int()`` names neither the spec nor the field."""
    try:
        return int(token)
    except ValueError:
        raise SystemExit(
            f"graph spec {spec!r}: {what} must be an integer, got {token!r}"
        ) from None


def _spec_float(spec: str, token: str, what: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise SystemExit(
            f"graph spec {spec!r}: {what} must be a number, got {token!r}"
        ) from None


def parse_graph(spec: str) -> graphs.Graph:
    """Parse a ``family:args`` graph spec into a Graph (or Digraph).

    A builder's :class:`~repro.graphs.GraphError` (``cycle:2``,
    ``random_regular:5:3``) exits with the spec named, not a traceback.
    """
    try:
        return _build_graph(spec)
    except graphs.GraphError as exc:
        raise SystemExit(f"graph spec {spec!r}: {exc}") from None


def _build_graph(spec: str) -> graphs.Graph:
    parts = spec.split(":")
    family = parts[0]
    if family == "random_digraph":
        if len(parts) < 3 or len(parts) > 4:
            raise SystemExit(
                f"graph spec {spec!r}: random_digraph takes N:P[:SEED] "
                f"(got {len(parts) - 1} field(s))"
            )
        n = _spec_int(spec, parts[1], "N")
        p = _spec_float(spec, parts[2], "P")
        seed = _spec_int(spec, parts[3], "SEED") if len(parts) > 3 else 0
        return graphs.random_digraph(n, p, seed)
    if family == "oneway":
        if len(parts) < 2 or len(parts) > 3:
            raise SystemExit(
                f"graph spec {spec!r}: oneway takes N[:K] "
                f"(got {len(parts) - 1} field(s))"
            )
        n = _spec_int(spec, parts[1], "N")
        k = _spec_int(spec, parts[2], "K") if len(parts) > 2 else 1
        return graphs.oneway_ring(n, k)
    if family == "cycle":
        return graphs.cycle_graph(_spec_int(spec, parts[1], "N"))
    if family == "complete":
        return graphs.complete_graph(_spec_int(spec, parts[1], "N"))
    if family == "path":
        return graphs.path_graph(_spec_int(spec, parts[1], "N"))
    if family == "wheel":
        return graphs.wheel_graph(_spec_int(spec, parts[1], "N"))
    if family == "star":
        return graphs.star_graph(_spec_int(spec, parts[1], "N"))
    if family == "circulant":
        offsets = [_spec_int(spec, x, "offset") for x in parts[2].split(",")]
        return graphs.circulant_graph(_spec_int(spec, parts[1], "N"), offsets)
    if family == "harary":
        return graphs.harary_graph(
            _spec_int(spec, parts[1], "K"), _spec_int(spec, parts[2], "N")
        )
    if family == "petersen":
        return graphs.petersen_graph()
    if family == "fig1a":
        return graphs.paper_figure_1a()
    if family == "fig1b":
        return graphs.paper_figure_1b()
    if family == "random_regular":
        seed = _spec_int(spec, parts[3], "SEED") if len(parts) > 3 else 0
        return graphs.random_regular_graph(
            _spec_int(spec, parts[1], "N"), _spec_int(spec, parts[2], "D"), seed
        )
    if family in ("gnp", "gnp_supercritical"):
        c = _spec_float(spec, parts[2], "C") if len(parts) > 2 else 2.0
        seed = _spec_int(spec, parts[3], "SEED") if len(parts) > 3 else 0
        return graphs.gnp_supercritical_graph(
            _spec_int(spec, parts[1], "N"), c, seed
        )
    raise SystemExit(f"unknown graph spec {spec!r}")


def parse_scheduler_axis(
    spec: str, seed: int, max_delay: int, unbounded: bool = False, window: int = 0
):
    """Parse a comma-separated ``--scheduler`` list into a sweep axis.

    Malformed lists fail loudly: an empty token (``sync,`` / ``,,sync``)
    would silently duplicate the synchronous fast path, and a repeated
    kind would silently double a slice of the work-list — both would
    skew every aggregate the report prints, so both are errors.

    ``unbounded`` (``--declare-unbounded``) strips the delay-bound
    declaration from every asynchronous entry; ``window``
    (``--target-window``) arms the adversarial scheduler's synchronizer-
    boundary targeting.  Both decorate whichever entries they apply to.
    """
    axis = []
    seen = set()
    for token in spec.split(","):
        name = token.strip()
        if not name:
            raise SystemExit(
                f"empty scheduler token in {spec!r}; "
                "use a comma-separated list like 'sync,seeded-async'"
            )
        if name not in ("sync", *SCHEDULER_KINDS):
            choices = ["sync", *SCHEDULER_KINDS]
            raise SystemExit(f"unknown scheduler {name!r}; choose from {choices}")
        if name in seen:
            raise SystemExit(
                f"duplicate scheduler {name!r} in {spec!r}; "
                "each axis entry may appear once"
            )
        seen.add(name)
        try:
            axis.append(
                parse_scheduler(
                    name, seed=seed, max_delay=max_delay,
                    unbounded=unbounded, window=window,
                )
            )
        except ValueError as exc:  # e.g. --max-delay 0
            raise SystemExit(str(exc))
    return axis


def require_bounded_axis(algorithm: str, axis) -> None:
    """Fail fast on ``--declare-unbounded`` with a fixed-round algorithm.

    The runner cannot budget a round-scheduled protocol with no declared
    delay bound (it would raise mid-run); only the native asynchronous
    algorithm runs in that regime.
    """
    if algorithm != "async" and any(
        spec is not None and not spec.bounded for spec in axis
    ):
        raise SystemExit(
            "--declare-unbounded strips the delay bound the fixed-round "
            "algorithms' budgets need; use --algorithm async (or drop "
            "the flag)"
        )


def apply_synchronizer(factory, mode: str, axis, f: int = 0):
    """Wrap ``factory`` for ``--synchronizer``; ``none`` is the identity.

    The window is the worst declared delay bound across the axis — a
    window larger than one entry's bound only stretches rounds further,
    never breaks them.  ``f`` arms ack mode's fault-tolerant ``deg − f``
    marker quorum; its α-window timeout gate requires every axis entry
    to declare a bound (``sync`` counts: its delays are exactly 1).
    """
    if mode == "none":
        return factory
    # An unbounded axis entry never reaches this point: require_bounded_axis
    # rejects every fixed-round algorithm on such an axis first, and the
    # async algorithm refuses synchronizers in build_factory.
    window = max(
        (spec.worst_case_delay for spec in axis if spec is not None),
        default=1,
    )
    # Every axis entry is bounded here (checked above), so ack mode's
    # α-window gate is sound — arm it explicitly, since the factory
    # derivation only sees a single scheduler spec, not the axis.
    return consensus.synchronize_factory(
        factory,
        mode=mode,
        window=window,
        f=f if mode == "ack" else 0,
        ack_timeout=True if mode == "ack" else None,
    )


def find_adversary(name: str):
    # The standard battery plus the hybrid-only equivocator, so every
    # adversary a sweep record can name is replayable through `run`.
    candidates = standard_adversaries() + [EquivocatingAdversary()]
    for adversary in candidates:
        if adversary.name == name:
            return adversary
    names = [a.name for a in candidates]
    raise SystemExit(f"unknown adversary {name!r}; choose from {names}")


def cmd_check(args: argparse.Namespace) -> int:
    graph = parse_graph(args.graph)
    if graph.directed:
        print(f"digraph: n={graph.n}, arcs={graph.arc_count}, "
              f"min in-degree={graph.min_in_degree()}, "
              f"min out-degree={graph.min_out_degree()}, "
              f"strong kappa={graphs.directed_vertex_connectivity(graph)}")
        print(consensus.check_directed_local_broadcast(graph, args.f))
        print(consensus.check_directed_decomposition(graph, args.f))
        directed_max = consensus.max_f_directed_local_broadcast(graph)
        closure_max = consensus.max_f_local_broadcast(graph.to_undirected())
        print(f"max f (directed local broadcast): {directed_max}")
        print(f"max f (symmetric closure):        {closure_max}")
        return 0
    print(f"graph: n={graph.n}, m={graph.edge_count}, "
          f"min degree={graph.min_degree()}, "
          f"kappa={graphs.vertex_connectivity(graph)}")
    print(consensus.check_local_broadcast(graph, args.f))
    print(consensus.check_async_local_broadcast(graph, args.f))
    print(consensus.check_point_to_point(graph, args.f))
    if args.t is not None:
        print(consensus.check_hybrid(graph, args.f, args.t))
    print(f"max f (local broadcast): {consensus.max_f_local_broadcast(graph)}")
    print(f"max f (async LB):        {consensus.max_f_async_local_broadcast(graph)}")
    print(f"max f (point-to-point):  {consensus.max_f_point_to_point(graph)}")
    return 0


def build_factory(args: argparse.Namespace, graph: graphs.Graph):
    """The ``--algorithm`` dispatch shared by ``run`` and ``sweep``."""
    if args.algorithm == "1":
        return consensus.algorithm1_factory(graph, args.f)
    if args.algorithm == "2":
        return consensus.algorithm2_factory(graph, args.f)
    if args.algorithm == "3":
        return consensus.algorithm3_factory(graph, args.f, args.t or 0)
    if args.algorithm == "async":
        if args.synchronizer != "none":
            raise SystemExit(
                "the async algorithm is natively asynchronous; "
                "use --synchronizer none"
            )
        return consensus.async_factory(graph, args.f)
    raise SystemExit(f"unknown algorithm {args.algorithm!r}")


def build_metrics(args: argparse.Namespace):
    """``--metrics``/``--events`` → a metered registry, or ``None``.

    ``--metrics`` with no value prints the snapshot to stdout; with a
    path it writes there.  ``--events FILE`` attaches an NDJSON event
    log; giving it alone still meters the run (events need a registry).
    """
    from .obs import EventLog, MetricsRegistry

    if args.metrics is None and not args.events:
        return None
    events = EventLog.open(args.events) if args.events else None
    return MetricsRegistry(events=events)


def emit_metrics(args: argparse.Namespace, registry, metrics, timings) -> None:
    """Write/print a run's metrics per ``--metrics`` and close the log.

    The payload keeps the quarantine split explicit: ``metrics`` is
    canonical content, ``timings`` is wall-clock commentary (strip it
    before any determinism comparison).
    """
    if registry is None:
        return
    if args.metrics is not None:
        payload = json.dumps(
            {"metrics": metrics, "timings": timings},
            indent=2, sort_keys=True, default=repr,
        )
        if args.metrics == "-":
            print(payload)
        else:
            with open(args.metrics, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
            print(f"wrote metrics to {args.metrics}")
    if registry.events is not None:
        count = registry.events.count
        registry.events.close()
        print(f"wrote {count} events to {args.events}")


def cmd_run(args: argparse.Namespace) -> int:
    graph = parse_graph(args.graph)
    factory = build_factory(args, graph)
    nodes = sorted(graph.nodes, key=repr)
    inputs = {v: i % 2 for i, v in enumerate(nodes)}
    faulty = []
    adversary = None
    channel = local_broadcast_model()
    if args.faulty:
        faulty = [nodes[int(i)] for i in args.faulty.split(",")]
        adversary = find_adversary(args.adversary)
    if args.algorithm == "3" and args.t:
        # Same canonical (repr-sorted) prefix rule as sweep's
        # HybridEquivocatorPolicy, so a sweep record's scenario replays
        # identically here regardless of --faulty argument order.
        from .analysis import HybridEquivocatorPolicy

        channel = HybridEquivocatorPolicy(args.t)(tuple(faulty))
    axis = parse_scheduler_axis(
        args.scheduler, args.seed, args.max_delay,
        unbounded=args.declare_unbounded, window=args.target_window,
    )
    if len(axis) != 1:
        raise SystemExit("run takes exactly one --scheduler")
    require_bounded_axis(args.algorithm, axis)
    factory = apply_synchronizer(factory, args.synchronizer, axis, f=args.f)
    registry = build_metrics(args)
    result = consensus.run_consensus(
        graph, factory, inputs, f=args.f, faulty=faulty,
        adversary=adversary, channel=channel, scheduler=axis[0],
        metrics=registry, flight=bool(args.trace),
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
    emit_metrics(args, registry, result.metrics, result.timings)
    if args.trace:
        assert result.flight is not None
        result.flight.save(args.trace)
        print(f"wrote flight recording to {args.trace}")
    return 0 if result.consensus else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    from .analysis import HybridEquivocatorPolicy, consensus_sweep

    graph = parse_graph(args.graph)
    channel_policy = None
    adversaries = None
    factory = build_factory(args, graph)
    if args.algorithm == "3" and args.t:
        # Mirror cmd_run: Algorithm 3's whole point is the hybrid
        # channel, whose equivocator set is (a prefix of) each
        # task's fault placement — derive it per task.
        channel_policy = HybridEquivocatorPolicy(args.t)
        if args.t >= args.f:
            # Every fault placement is fully equivocating, so the
            # equivocation behavior is physically possible on each
            # faulty node — add it to the battery the sweep runs.
            adversaries = standard_adversaries(args.seed) + [
                EquivocatingAdversary()
            ]
    patterns = args.patterns.split(",") if args.patterns else None
    if patterns is not None:
        from .analysis import input_patterns

        known = sorted(input_patterns(graph))
        unknown = [p for p in patterns if p not in known]
        if unknown:
            raise SystemExit(
                f"unknown input patterns {unknown}; choose from {known}"
            )
    schedulers = parse_scheduler_axis(
        args.scheduler, args.seed, args.max_delay,
        unbounded=args.declare_unbounded, window=args.target_window,
    )
    require_bounded_axis(args.algorithm, schedulers)
    factory = apply_synchronizer(factory, args.synchronizer, schedulers, f=args.f)
    metered = args.metrics is not None or bool(args.events)
    report = consensus_sweep(
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
        metrics=metered,
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
    if metered and args.metrics not in (None, "-"):
        # Side file with just the aggregate: the merged canonical
        # snapshot plus the quarantined wall-clock section.
        with open(args.metrics, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(
                {"metrics": report.metrics, "timings": report.timings},
                indent=2, sort_keys=True, default=repr,
            ) + "\n")
        print(f"wrote merged metrics to {args.metrics}")
    if args.events:
        # Canonical slot order (records are slotted by task index), so
        # the NDJSON stream is byte-identical at any worker count.
        from .obs import EventLog

        with EventLog.open(args.events) as events:
            for index, rec in enumerate(report.records):
                events.emit(
                    "record",
                    index=index,
                    faulty=rec.faulty,
                    adversary=rec.adversary,
                    inputs=rec.inputs_name,
                    scheduler=rec.scheduler,
                    outcome=rec.outcome,
                    rounds=rec.rounds,
                    transmissions=rec.transmissions,
                    decision=rec.decision,
                )
            events.emit(
                "summary",
                runs=report.runs,
                all_consensus=report.all_consensus,
                outcomes=report.outcomes,
            )
            count = events.count
        print(f"wrote {count} events to {args.events}")
    if args.capture:
        # One file per retained task, named by canonical task index — the
        # same index at any --workers, so a capture directory diffs clean
        # across worker counts.
        import os

        os.makedirs(args.capture, exist_ok=True)
        for index in sorted(report.flights):
            path = os.path.join(args.capture, f"flight-{index:05d}.ndjson")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(report.flights[index])
        print(f"captured {len(report.flights)} flight recordings "
              f"({args.capture_policy}) to {args.capture}")
    if args.exit_zero:
        return 0
    return 0 if report.all_consensus else 1


def _profile_flood_receipt(args: argparse.Namespace) -> int:
    """``profile --flood-receipt``: one analytic fault-free flood plus
    reliable receipt at a single receiver.

    No simulator: the prefix-sharing :class:`~repro.consensus.path_engine
    .PathFloodEngine` materializes every delivery at the receiver
    directly, then Definition C.1 is evaluated for every origin over the
    per-origin delivery slices.  This is the harness that exercises the
    bitmask path-set core at scales the round simulator cannot touch
    (``wheel:99`` completes in seconds); on wheel graphs the delivery
    count is checked against the closed form of
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
    deliveries = engine.deliveries_at(receiver)
    flood_s = perf_counter() - t0

    # One pass splits the delivery set per origin and records each
    # path's visited-set bitmask — the receipt layer then never scans
    # the full dict and packs disjointness over plain ints.
    index = graph.node_index()
    by_origin: dict = {}
    path_masks: dict = {}
    t0 = perf_counter()
    for path, value in deliveries.items():
        by_origin.setdefault(path[0], {})[path] = value
        path_masks[path] = index.mask_of(path)
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
        checks.append(check("flood_deliveries", expected, len(deliveries)))

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
            "deliveries": len(deliveries),
            "reliable_origins": len(received),
        },
        checks=checks,
        metrics=metrics.snapshot(),
        timings=timings,
    )
    print(f"profile: flood+receipt on {args.graph} "
          f"(n={graph.n}, f={args.f}, receiver={receiver!r})")
    print(f"  flood   deliveries={len(deliveries)} in {flood_s:.3f}s")
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
    from .analysis import consensus_sweep
    from .analysis.metrics import expected_flood_deliveries, predicted_costs
    from .obs import bench_json, bench_record, check, render_key

    if args.flood_receipt:
        if args.trace:
            raise SystemExit(
                "--trace records a simulated run; --flood-receipt is "
                "analytic (no network events to record)"
            )
        return _profile_flood_receipt(args)
    graph = parse_graph(args.graph)
    factory = build_factory(args, graph)
    nodes = sorted(graph.nodes, key=repr)
    inputs = {v: i % 2 for i, v in enumerate(nodes)}
    result = consensus.run_consensus(
        graph, factory, inputs, f=args.f, metrics=True,
        flight=bool(args.trace),
    )
    report = consensus_sweep(
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
    internally consistent, 1 otherwise.  ``blame`` exits 0 when the
    anomaly is attributed to faulty nodes, 1 when the run was clean
    (nothing to blame), 2 when an anomaly could not be attributed —
    blaming an honest node is a bug in the model, never an exit code.
    ``replay`` exits 0 on byte-identical re-execution, 1 on divergence,
    2 when the recording is not replayable.  Every action exits 2 with a
    one-line message when the file is malformed.
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
                  f"consistent={data['consistent']})")
            print(f"  root cause: {data['root_cause']}")
            for hop in data["hops"]:
                print(f"  {hop}")
        return 0 if data["consistent"] else 1

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
        from .analysis import replay_flight

        try:
            outcome = replay_flight(record)
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
    for row in requirement_table(args.max_f):
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
    elif args.kind == "connectivity":
        graph = graphs.low_connectivity_graph(args.f)
        scenario = connectivity_scenario(graph, args.f)
    else:
        raise SystemExit("kind must be 'degree' or 'connectivity'")
    factory = consensus.algorithm1_factory(graph, args.f)
    outcome = run_scenario(scenario, factory)
    print(outcome.summary())
    print(f"indistinguishability: {outcome.fully_indistinguishable}")
    return 0 if outcome.violation_demonstrated else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Exact Byzantine consensus under local broadcast "
                    "(PODC 2019 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate feasibility conditions")
    p.add_argument("--graph", required=True)
    p.add_argument("--f", type=int, required=True)
    p.add_argument("--t", type=int, default=None)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("run", help="run a consensus algorithm")
    p.add_argument("--graph", required=True)
    p.add_argument("--f", type=int, required=True)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--algorithm", default="1",
                   choices=["1", "2", "3", "async"])
    p.add_argument("--faulty", default="",
                   help="comma-separated node indices")
    p.add_argument("--adversary", default="tamper-forward")
    p.add_argument("--scheduler", default="sync",
                   help="timing model: sync, lockstep, seeded-async, "
                        "adversarial")
    p.add_argument("--synchronizer", default="none",
                   choices=["none", "alpha", "ack"],
                   help="wrap the protocol in an α-synchronizer so it "
                        "keeps its round structure under async timing "
                        "(ack mode tolerates f marker-withholding "
                        "faults); --algorithm async needs none")
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
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the seeded-async scheduler")
    p.add_argument("--metrics", nargs="?", const="-", default=None,
                   metavar="FILE",
                   help="meter the run; print the canonical snapshot "
                        "(plus quarantined wall timings) to stdout, or "
                        "write it to FILE")
    p.add_argument("--events", default="", metavar="FILE",
                   help="write an NDJSON event stream (ticks, spans, "
                        "decisions, result) to FILE; implies metering")
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
    p.add_argument("--graph", required=True)
    p.add_argument("--f", type=int, required=True)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--algorithm", default="1",
                   choices=["1", "2", "3", "async"])
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
    p.add_argument("--synchronizer", default="none",
                   choices=["none", "alpha", "ack"],
                   help="wrap the swept protocol in an α-synchronizer "
                        "(window = the axis's worst declared delay; "
                        "ack mode tolerates f withheld markers)")
    p.add_argument("--max-delay", type=int, default=3,
                   help="worst-case per-link delay for async schedulers")
    p.add_argument("--declare-unbounded", action="store_true",
                   help="withdraw the delay-bound declaration from the "
                        "async schedulers (same delays on the wire)")
    p.add_argument("--target-window", type=int, default=0,
                   help="adversarial scheduler: land bottleneck traffic "
                        "exactly on α-window activation ticks "
                        "(0 = flat max-delay stretching)")
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
    p.add_argument("--events", default="", metavar="FILE",
                   help="write one NDJSON record event per task (in "
                        "canonical slot order) plus a summary to FILE; "
                        "implies metering")
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
    p.add_argument("--graph", required=True)
    p.add_argument("--f", type=int, required=True)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--algorithm", default="2",
                   choices=["1", "2", "3", "async"])
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--fault-limit", type=int, default=None,
                   help="seeded sample size of fault subsets")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--name", default="",
                   help="bench record name (default profile_alg<N>)")
    p.add_argument("--output", default="",
                   help="write the BENCH record JSON to this path")
    p.add_argument("--flood-receipt", action="store_true",
                   help="profile one analytic flood (prefix-sharing "
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
    p.add_argument("--f", type=int, default=1)
    p.set_defaults(fn=cmd_demo_impossibility)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
