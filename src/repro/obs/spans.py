"""Virtual-time span tracing anchored to simulator ticks.

A *span* is a named interval ``[start, end]`` of virtual time — the
simulator's tick counter, never a wall clock — with a small set of
labels (origin node, round number, …).  Protocols use spans to expose
latency structure the closed forms in :mod:`repro.analysis.metrics`
do not capture: how long each origin's flood took to certify, when a
vote fired relative to the flood completing, how late the decide came.

Because spans carry only virtual timestamps, they are part of the
*content* of a run: two runs producing byte-identical traces must
produce identical span lists (property-tested across the engine's
unit-delay and scheduled lockstep paths), and span data participates in the byte-identical-reports
invariant of the sweep engine.  Wall-clock durations never belong
here — they live in :mod:`repro.obs.timings`, quarantined from all
determinism comparisons.
"""

from __future__ import annotations

from typing import Dict, List, Tuple


def _canonical_labels(labels: Dict[str, object]) -> Dict[str, object]:
    """Labels re-keyed in sorted order so snapshots are canonical."""
    return {k: labels[k] for k in sorted(labels)}


def _sort_key(span: dict) -> Tuple[str, str, int, int]:
    return (span["name"], repr(span["labels"]), span["start"], span["end"])


class SpanTracer:
    """Records finished spans.

    The protocol tracks a span's start tick in its own state and reports
    the whole interval in one :meth:`record` call.  ``snapshot`` returns a canonically sorted list of plain dicts, so
    equal span sets always serialize identically regardless of the
    order they were recorded in.
    """

    def __init__(self) -> None:
        self._spans: List[dict] = []

    def record(self, name: str, start: int, end: int, **labels: object) -> None:
        """Record one finished span ``[start, end]`` in virtual ticks."""
        if end < start:
            raise ValueError(f"span {name!r} ends at {end} before start {start}")
        self._spans.append(
            {
                "name": name,
                "start": int(start),
                "end": int(end),
                "labels": _canonical_labels(labels),
            }
        )

    def snapshot(self) -> List[dict]:
        """All closed spans, canonically sorted."""
        return sorted((dict(s) for s in self._spans), key=_sort_key)
