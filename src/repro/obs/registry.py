"""The deterministic metrics registry.

Three metric kinds, all with canonical snapshots:

* **counters** — monotone integer totals (``inc``);
* **gauges** — running maxima (``gauge_max``; the only gauge fold the
  sweep merge can make order-independent, which is why it is the only
  one offered);
* **histograms** — exact value→count maps (``observe``), not bucketed
  approximations: the quantities measured here (delays in ticks,
  path-set sizes, deliveries per tick) are small integers, so exact
  distributions cost little and merge losslessly.

Metric identity is ``name{label=value,...}`` with labels sorted and
rendered via ``repr`` for non-strings — the same convention the rest
of the repo uses for canonical node ordering.  ``snapshot`` emits
every section in sorted-key order, so *equal metric states always
serialize identically*; :func:`merge_snapshots` folds per-run
snapshots (counters sum, gauges max, histograms union, spans to
duration histograms) commutatively, so a sweep's merged metrics are a
pure function of the canonical record list regardless of how many
workers produced it.

Everything here is virtual-time/content data.  Wall-clock numbers
live in :mod:`repro.obs.timings` and are stripped by
:func:`strip_timings` before any byte-identity comparison.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from .spans import SpanTracer


def _label_text(value: object) -> str:
    return value if isinstance(value, str) else repr(value)


#: Rendered-key memo: metric call sites use a small fixed vocabulary of
#: (name, labels) pairs but fire per message, so the sort/format work is
#: paid once per distinct key.  Unhashable label values fall through to
#: direct rendering.
_KEY_CACHE: Dict[tuple, str] = {}


def render_key(name: str, labels: Dict[str, object]) -> str:
    """Canonical ``name{k=v,...}`` metric key (labels repr-sorted)."""
    if not labels:
        return name
    try:
        cache_key = (name, *sorted(labels.items()))
        key = _KEY_CACHE.get(cache_key)
    except TypeError:
        cache_key = None
        key = None
    if key is None:
        inner = ",".join(
            f"{k}={_label_text(labels[k])}" for k in sorted(labels)
        )
        key = f"{name}{{{inner}}}"
        if cache_key is not None:
            _KEY_CACHE[cache_key] = key
    return key


def _hist_snapshot(bucket: Dict[float, int]) -> dict:
    """Canonical view of one exact-value histogram."""
    pairs = sorted(bucket.items())
    return {
        "count": sum(c for _, c in pairs),
        "sum": sum(v * c for v, c in pairs),
        "min": pairs[0][0] if pairs else None,
        "max": pairs[-1][0] if pairs else None,
        "values": [[v, c] for v, c in pairs],
    }


class MetricsRegistry:
    """Counters, max-gauges, exact histograms and spans."""

    #: Instrumentation sites may branch on this to skip building labels.
    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._hists: Dict[str, Dict[float, int]] = {}
        self.spans = SpanTracer()

    # -- writers -------------------------------------------------------
    def inc(self, name: str, n: int = 1, **labels: object) -> None:
        """Add ``n`` to a counter."""
        key = render_key(name, labels)
        self._counters[key] = self._counters.get(key, 0) + n

    def gauge_max(self, name: str, value: float, **labels: object) -> None:
        """Raise a high-water-mark gauge to ``value`` if it is larger."""
        key = render_key(name, labels)
        prev = self._gauges.get(key)
        if prev is None or value > prev:
            self._gauges[key] = value

    def observe(
        self, name: str, value: float, n: int = 1, **labels: object
    ) -> None:
        """Count ``n`` observations of ``value`` in an exact histogram.

        ``n = 0`` records nothing at all — not even an empty bucket, so
        a guarded bulk observation can never add a histogram key that
        the one-call-per-observation form would not have created
        (snapshot identity is byte-level).
        """
        if n <= 0:
            return
        bucket = self._hists.setdefault(render_key(name, labels), {})
        bucket[value] = bucket.get(value, 0) + n

    # -- pre-rendered hot-path cells -----------------------------------
    def counter_cell(self, name: str, **labels: object):
        """A bound incrementer for one counter key.

        Hot paths (the flooding rules fire per message) render the
        ``name{labels}`` key once and call the returned closure with
        just the increment, skipping the kwargs/sort/format work of
        :meth:`inc`.  The key is *not* created until the first call, so
        handing out a cell never changes a snapshot by itself.
        """
        key = render_key(name, labels)
        counters = self._counters

        def add(n: int = 1) -> None:
            counters[key] = counters.get(key, 0) + n

        return add

    def gauge_cell(self, name: str, **labels: object):
        """A bound high-water-mark setter for one gauge key (same
        contract as :meth:`counter_cell`: no key until the first call)."""
        key = render_key(name, labels)
        gauges = self._gauges

        def raise_to(value: float) -> None:
            prev = gauges.get(key)
            if prev is None or value > prev:
                gauges[key] = value

        return raise_to

    def hist_cell(self, name: str, **labels: object):
        """A bound observer for one histogram key (same contract as
        :meth:`counter_cell`: no key until the first call, and — like
        :meth:`observe` — ``n <= 0`` records nothing at all)."""
        key = render_key(name, labels)
        hists = self._hists

        def observe_value(value: float, n: int = 1) -> None:
            if n <= 0:
                return
            bucket = hists.get(key)
            if bucket is None:
                bucket = hists[key] = {}
            bucket[value] = bucket.get(value, 0) + n

        return observe_value

    def span(self, name: str, start: int, end: int, **labels: object) -> None:
        """Record a closed virtual-time span."""
        self.spans.record(name, start, end, **labels)

    # -- readers -------------------------------------------------------
    def counter(self, name: str, **labels: object) -> int:
        """Current value of one counter (0 if never incremented)."""
        return self._counters.get(render_key(name, labels), 0)

    def snapshot(self) -> dict:
        """Canonical content snapshot (sorted keys, no wall-clock data)."""
        return {
            "counters": {k: self._counters[k] for k in sorted(self._counters)},
            "gauges": {k: self._gauges[k] for k in sorted(self._gauges)},
            "histograms": {
                k: _hist_snapshot(self._hists[k]) for k in sorted(self._hists)
            },
            "spans": self.spans.snapshot(),
        }


def _null_cell(*args: object) -> None:
    """Shared no-op closure handed out by :class:`NullMetrics` cells."""


class NullMetrics:
    """No-op registry: the default so call sites never branch.

    Every writer is a ``pass``; readers report emptiness.  A single
    shared instance (:data:`NULL_METRICS`) is used everywhere metrics
    are off, so the instrumented hot paths cost one attribute check.
    """

    enabled = False

    def inc(self, name: str, n: int = 1, **labels: object) -> None:
        pass

    def gauge_max(self, name: str, value: float, **labels: object) -> None:
        pass

    def observe(
        self, name: str, value: float, n: int = 1, **labels: object
    ) -> None:
        pass

    def counter_cell(self, name: str, **labels: object):
        return _null_cell

    def gauge_cell(self, name: str, **labels: object):
        return _null_cell

    def hist_cell(self, name: str, **labels: object):
        return _null_cell

    def span(self, name: str, start: int, end: int, **labels: object) -> None:
        pass

    def counter(self, name: str, **labels: object) -> int:
        return 0

    def snapshot(self) -> dict:
        return {}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<NullMetrics>"


#: Shared no-op instance: the default value of ``Context.metrics``.
NULL_METRICS = NullMetrics()


def merge_snapshots(snapshots: Iterable[Optional[dict]]) -> dict:
    """Fold per-run snapshots into one canonical aggregate.

    Counters sum, gauges take the max, histograms union their exact
    value maps, and spans collapse into ``span.<name>.ticks`` duration
    histograms (per-run span lists would bloat a sweep report; their
    distributions are what the profile reader wants).  Every fold is
    commutative and associative, but the sweep engine still calls this
    on the canonically ordered record list — by task slot, never by
    completion order — so the merged section is byte-identical at any
    worker count by construction, not by luck.
    """
    counters: Dict[str, int] = {}
    gauges: Dict[str, float] = {}
    hists: Dict[str, Dict[float, int]] = {}
    runs = 0
    for snap in snapshots:
        if not snap:
            continue
        runs += 1
        src_counters = snap.get("counters", {})
        for key in sorted(src_counters):
            counters[key] = counters.get(key, 0) + src_counters[key]
        src_gauges = snap.get("gauges", {})
        for key in sorted(src_gauges):
            value = src_gauges[key]
            prev = gauges.get(key)
            if prev is None or value > prev:
                gauges[key] = value
        src_hists = snap.get("histograms", {})
        for key in sorted(src_hists):
            bucket = hists.setdefault(key, {})
            for value, count in src_hists[key].get("values", ()):
                bucket[value] = bucket.get(value, 0) + count
        for span in snap.get("spans", ()):
            key = render_key(f"span.{span['name']}.ticks", span["labels"])
            bucket = hists.setdefault(key, {})
            ticks = span["end"] - span["start"]
            bucket[ticks] = bucket.get(ticks, 0) + 1
    return {
        "runs": runs,
        "counters": {k: counters[k] for k in sorted(counters)},
        "gauges": {k: gauges[k] for k in sorted(gauges)},
        "histograms": {k: _hist_snapshot(hists[k]) for k in sorted(hists)},
    }


def strip_timings(payload: object) -> object:
    """A deep copy of ``payload`` with every ``"timings"`` key removed.

    This is the determinism quarantine in executable form: comparing
    ``strip_timings(a) == strip_timings(b)`` (or their sorted-key JSON)
    checks exactly the content sections the byte-identity invariant
    covers.
    """
    if isinstance(payload, dict):
        return {
            key: strip_timings(payload[key])
            for key in sorted(payload, key=repr)
            if key != "timings"
        }
    if isinstance(payload, (list, tuple)):
        return [strip_timings(item) for item in payload]
    return payload
