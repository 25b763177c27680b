"""Deterministic observability: metrics, spans, flights, quarantined timings.

The package splits measurement into two regimes the rest of the repo
must never mix:

* **content** — counters/gauges/histograms/spans over *virtual* time
  (simulator ticks, message counts, cache hits).  Pure functions of a
  run; included in reports; covered by the byte-identical-reports
  invariant.
* **timings** — wall-clock durations via ``time.perf_counter`` (the
  one REPRO002-exempt clock), confined to :mod:`repro.obs.timings`
  and to a ``timings`` section that :func:`strip_timings` removes
  before any determinism comparison.

Import discipline: this package imports nothing from ``repro.net`` /
``repro.consensus`` / ``repro.analysis``; those layers import the
:data:`NULL_METRICS` default (and registry types) from here.
"""

from .bench import BENCH_SCHEMA, bench_json, bench_path, bench_record, check, write_bench
from .registry import (
    NULL_METRICS,
    MetricsRegistry,
    NullMetrics,
    merge_snapshots,
    render_key,
    strip_timings,
)
from .spans import SpanTracer
from .timings import Stopwatch, WallTimings
from .trace import (
    CausalDag,
    FlightError,
    FlightRecord,
    FlightReplayError,
    blame,
    canonical_json,
    critical_path,
    decode_label,
    encode_label,
    export_chrome,
    flight_from_trace,
    label_key,
    summarize,
)

__all__ = [
    "BENCH_SCHEMA",
    "CausalDag",
    "FlightError",
    "FlightRecord",
    "FlightReplayError",
    "MetricsRegistry",
    "NULL_METRICS",
    "NullMetrics",
    "SpanTracer",
    "Stopwatch",
    "WallTimings",
    "bench_json",
    "bench_path",
    "bench_record",
    "blame",
    "canonical_json",
    "check",
    "critical_path",
    "decode_label",
    "encode_label",
    "export_chrome",
    "flight_from_trace",
    "label_key",
    "merge_snapshots",
    "render_key",
    "strip_timings",
    "summarize",
    "write_bench",
]
