"""Unit tests for the observability core: registry, spans, timings,
bench records.

The load-bearing properties: snapshots are *canonical* (fully sorted,
insertion-order independent), merges are lossless and order-insensitive,
``NULL_METRICS`` is a true no-op, and the wall-clock quarantine
(``strip_timings``) removes every ``"timings"`` section wherever it
hides.
"""

import json

import pytest

from repro.obs import (
    NULL_METRICS,
    MetricsRegistry,
    NullMetrics,
    SpanTracer,
    Stopwatch,
    WallTimings,
    bench_json,
    bench_record,
    check,
    merge_snapshots,
    render_key,
    strip_timings,
    write_bench,
)


class TestRenderKey:
    def test_plain_name(self):
        assert render_key("net.ticks", {}) == "net.ticks"

    def test_labels_sorted(self):
        assert render_key("x", {"b": 1, "a": 2}) == "x{a=2,b=1}"

    def test_non_string_values_use_repr(self):
        key = render_key("flood.accepted", {"phase": ("efficient", 1)})
        assert key == "flood.accepted{phase=('efficient', 1)}"


class TestRegistry:
    def test_counters_accumulate(self):
        m = MetricsRegistry()
        m.inc("hits")
        m.inc("hits", 2)
        m.inc("hits", kind="path")
        assert m.counter("hits") == 3
        assert m.counter("hits", kind="path") == 1
        assert m.counter("absent") == 0

    def test_gauge_keeps_max(self):
        m = MetricsRegistry()
        m.gauge_max("depth", 3)
        m.gauge_max("depth", 7)
        m.gauge_max("depth", 5)
        assert m.snapshot()["gauges"] == {"depth": 7}

    def test_histogram_snapshot_is_lossless(self):
        m = MetricsRegistry()
        for v in (3, 1, 3, 2):
            m.observe("delay", v)
        hist = m.snapshot()["histograms"]["delay"]
        assert hist == {
            "count": 4,
            "sum": 9,
            "min": 1,
            "max": 3,
            "values": [[1, 1], [2, 1], [3, 2]],
        }

    def test_snapshot_is_insertion_order_independent(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.inc("x")
        a.inc("y")
        b.inc("y")
        b.inc("x")
        assert a.snapshot() == b.snapshot()
        assert list(a.snapshot()["counters"]) == ["x", "y"]

    def test_snapshot_includes_spans(self):
        m = MetricsRegistry()
        m.span("phase", 1, 4, node=0)
        snap = m.snapshot()
        assert snap["spans"] == [
            {"name": "phase", "start": 1, "end": 4, "labels": {"node": 0}}
        ]

    def test_enabled_flag(self):
        assert MetricsRegistry().enabled is True
        assert NULL_METRICS.enabled is False


class TestNullMetrics:
    def test_all_operations_are_noops(self):
        n = NullMetrics()
        n.inc("x")
        n.gauge_max("g", 5)
        n.observe("h", 1)
        n.span("s", 0, 1)
        assert n.counter("x") == 0
        assert n.snapshot() == {}

    def test_singleton_is_shared_default(self):
        assert isinstance(NULL_METRICS, NullMetrics)


class TestMerge:
    def _one(self, seed):
        m = MetricsRegistry()
        m.inc("runs.c", seed)
        m.gauge_max("g", seed)
        m.observe("h", seed)
        m.span("work", 0, seed)
        return m.snapshot()

    def test_merge_sums_counters_and_maxes_gauges(self):
        merged = merge_snapshots([self._one(1), self._one(3)])
        assert merged["runs"] == 2
        assert merged["counters"]["runs.c"] == 4
        assert merged["gauges"]["g"] == 3

    def test_merge_unions_histograms(self):
        merged = merge_snapshots([self._one(1), self._one(3), self._one(1)])
        assert merged["histograms"]["h"] == {
            "count": 3,
            "sum": 5,
            "min": 1,
            "max": 3,
            "values": [[1, 2], [3, 1]],
        }

    def test_merge_folds_spans_into_duration_histograms(self):
        merged = merge_snapshots([self._one(2), self._one(5)])
        spans = merged["histograms"]["span.work.ticks"]
        assert spans["count"] == 2
        assert spans["values"] == [[2, 1], [5, 1]]

    def test_merge_is_order_insensitive(self):
        parts = [self._one(s) for s in (4, 1, 2)]
        assert merge_snapshots(parts) == merge_snapshots(parts[::-1])


class TestStripTimings:
    def test_removes_nested_timings_keys(self):
        payload = {
            "metrics": {"counters": {"x": 1}},
            "timings": {"total_s": 0.5},
            "records": [
                {"rounds": 3, "timings": {"seconds": 0.1}},
                {"rounds": 4},
            ],
        }
        stripped = strip_timings(payload)
        assert "timings" not in stripped
        assert all("timings" not in r for r in stripped["records"])
        assert stripped["records"][0]["rounds"] == 3

    def test_does_not_mutate_input(self):
        payload = {"timings": {"t": 1}, "keep": 2}
        strip_timings(payload)
        assert "timings" in payload


class TestSpanTracer:
    def test_record_and_canonical_order(self):
        t = SpanTracer()
        t.record("b", 5, 9)
        t.record("a", 2, 3, node=1)
        snap = t.snapshot()
        assert [s["name"] for s in snap] == ["a", "b"]
        assert snap[0]["labels"] == {"node": 1}

    def test_negative_duration_rejected(self):
        t = SpanTracer()
        with pytest.raises(ValueError):
            t.record("bad", 5, 3)


class TestTimings:
    def test_stopwatch_elapsed_is_nonnegative(self):
        watch = Stopwatch()
        assert watch.elapsed() >= 0.0

    def test_walltimings_accumulates_calls(self):
        t = WallTimings()
        with t.time("step"):
            pass
        with t.time("step"):
            pass
        snap = t.snapshot()
        assert snap["step"]["calls"] == 2
        assert snap["step"]["seconds"] >= 0.0


class TestBench:
    def test_check_rows(self):
        assert check("n", 5, 5)["ok"] is True
        assert check("n", 5, 6)["ok"] is False

    def test_record_shape_and_canonical_json(self):
        record = bench_record("demo", spec={"f": 1}, checks=[check("a", 1, 1)])
        assert record["bench"] == "demo"
        assert record["schema"] == 1
        parsed = json.loads(bench_json(record))
        assert parsed["spec"] == {"f": 1}

    def test_write_bench_names_file(self, tmp_path):
        record = bench_record("demo", spec={})
        path = write_bench(record, tmp_path)
        assert path.name == "BENCH_demo.json"
        assert json.loads(path.read_text())["bench"] == "demo"


class TestCells:
    """Pre-rendered hot-path cells must be snapshot-neutral until used."""

    def test_counter_cell_creates_no_key_until_called(self):
        reg = MetricsRegistry()
        cell = reg.counter_cell("flood.accepted", phase="p")
        assert reg.snapshot()["counters"] == {}
        cell()
        cell(3)
        assert reg.snapshot()["counters"] == {"flood.accepted{phase=p}": 4}

    def test_counter_cell_matches_inc_key(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter_cell("x", rule="ii", phase=1)(2)
        b.inc("x", 2, phase=1, rule="ii")
        assert a.snapshot()["counters"] == b.snapshot()["counters"]

    def test_gauge_cell_keeps_max_and_no_key_until_called(self):
        reg = MetricsRegistry()
        cell = reg.gauge_cell("flood.path_set.max", phase="p")
        assert reg.snapshot()["gauges"] == {}
        cell(5)
        cell(3)
        cell(9)
        assert reg.snapshot()["gauges"] == {"flood.path_set.max{phase=p}": 9}

    def test_observe_zero_count_records_nothing(self):
        reg = MetricsRegistry()
        reg.observe("sched.delay", 1, 0)
        reg.observe("sched.delay", 1, -2)
        assert reg.snapshot()["histograms"] == {}

    def test_observe_bulk_equals_repeated_singles(self):
        bulk, singles = MetricsRegistry(), MetricsRegistry()
        bulk.observe("sched.delay", 1, 4)
        for _ in range(4):
            singles.observe("sched.delay", 1)
        assert bulk.snapshot() == singles.snapshot()

    def test_null_metrics_cells_are_noops(self):
        cell = NULL_METRICS.counter_cell("x")
        gauge = NULL_METRICS.gauge_cell("y")
        cell()
        cell(5)
        gauge(7)
        assert NULL_METRICS.snapshot() == {}
