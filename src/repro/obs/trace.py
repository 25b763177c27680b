"""The causal flight recorder: happened-before traces as replayable files.

A *flight recording* is one run of either simulation engine serialized
as canonical NDJSON: a header line (everything needed to re-execute the
run — graph, inputs, fault wiring, scheduler, factory recipe), one line
per event (sends, per-recipient deliveries, decision instants) in a
canonical total order, and an outcome line.  Because every event carries
the happened-before links the engines stamp
(:data:`~repro.net.trace.CAUSE_DELIVERY` /
:data:`~repro.net.trace.CAUSE_INPUT` /
:data:`~repro.net.trace.CAUSE_TIMER` plus the ``send_index`` join), the
event stream *is* a happened-before DAG:

* ``deliver`` → the ``send`` it descends from (``send`` field);
* ``send``/``decide`` → every ``deliver`` that landed in the emitting
  activation's inbox (same node, same tick), with the recorded primary
  cause being the last delivery drained;
* roots are spontaneous events (``input`` at the first activation,
  ``timer`` later).

On top of that DAG this module implements the forensic analyses the
``python -m repro trace`` CLI exposes: per-node :func:`summarize`
timelines, the :func:`critical_path` into a decision (checked against
tick accounting: the causal chain's delivery latencies must sum exactly
to its time span), :func:`blame` (walk back from divergent or stalled
decisions to the earliest fault-attributable frontier), and
:func:`export_chrome` (Chrome trace-event / Perfetto JSON).

Import discipline: like the rest of :mod:`repro.obs`, this module
imports nothing from ``repro.net`` / ``repro.consensus`` /
``repro.analysis``.  :func:`flight_from_trace` duck-types the trace
object (``transmissions`` / ``deliveries`` / ``decisions`` attribute
access only); the cause-kind strings are re-declared here and their
equality with the engine constants is pinned by tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

#: Must equal ``repro.net.trace.CAUSE_*`` (asserted by the test suite);
#: re-declared so the obs layer stays import-pure.
CAUSE_DELIVERY = "delivery"
CAUSE_INPUT = "input"
CAUSE_TIMER = "timer"

#: Flight-file format version this module reads and writes.
FLIGHT_VERSION = 1

#: Canonical order of same-tick events: everything due at tick ``t``
#: lands first (rank 0), then the sends the activations of tick ``t``
#: emit (rank 1), then the decisions they reach (rank 2).  Within one
#: rank the record index — itself deterministic — breaks ties, so the
#: order is total and every happened-before edge points strictly
#: backwards in it (acyclicity by construction; re-checked by
#: :meth:`CausalDag.check`).
_RANK = {"deliver": 0, "send": 1, "decide": 2}


class FlightError(ValueError):
    """A flight file is malformed or internally inconsistent."""


class FlightReplayError(FlightError):
    """A flight recording cannot be re-executed (opaque labels/factory)."""


# ---------------------------------------------------------------------------
# Canonical JSON encoding
# ---------------------------------------------------------------------------


def canonical_json(obj: object) -> str:
    """Sorted-key, compact JSON — the one serialization flights use.

    ``default=repr`` is a deterministic last resort for exotic values
    (e.g. span label objects); node labels never rely on it — they go
    through :func:`encode_label` so tuples survive the round trip.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=repr)


def encode_label(label: object) -> object:
    """Node label → JSON value.  ``int``/``str``/``bool``/``None`` pass
    through; tuples become ``{"__t": [...]}`` (replayable); anything
    else becomes ``{"__r": repr(...)}`` (display-only — replay refuses)."""
    if label is None or isinstance(label, (bool, int, str)):
        return label
    if isinstance(label, tuple):
        return {"__t": [encode_label(x) for x in label]}
    return {"__r": repr(label)}


def decode_label(obj: object) -> object:
    """Inverse of :func:`encode_label`; raises
    :class:`FlightReplayError` on display-only (``__r``) labels."""
    if isinstance(obj, dict):
        if "__t" in obj:
            return tuple(decode_label(x) for x in obj["__t"])
        if "__r" in obj:
            raise FlightReplayError(
                f"label {obj['__r']} was recorded by repr only and cannot "
                "be reconstructed for replay"
            )
        raise FlightError(f"unrecognized label encoding {obj!r}")
    return obj


def label_key(enc: object) -> str:
    """Canonical string identity of one *encoded* label — used as a
    dict key and sort key throughout the analyses (total order over
    mixed label types, independent of hash seeds)."""
    return canonical_json(enc)


def label_text(enc: object) -> str:
    """Human-facing form of one encoded label (CLI tables, track names)."""
    if isinstance(enc, str):
        return enc
    return canonical_json(enc)


def event_order(event: dict) -> Tuple[int, int, int]:
    """The canonical total order of the event stream (see :data:`_RANK`)."""
    return (event["t"], _RANK[event["type"]], event["i"])


# ---------------------------------------------------------------------------
# The record
# ---------------------------------------------------------------------------


@dataclass
class FlightRecord:
    """One recorded run: header + canonical event stream + outcome.

    ``header`` and ``outcome`` are plain JSON-ready dicts (labels
    pre-encoded via :func:`encode_label`, messages as ``repr`` strings);
    ``events`` is the stream in :func:`event_order`.  Serialization is
    canonical, so byte-comparing two recordings *is* comparing the runs.
    """

    header: dict
    events: List[dict] = field(default_factory=list)
    outcome: dict = field(default_factory=dict)

    # -- views ---------------------------------------------------------
    def of_type(self, kind: str) -> List[dict]:
        return [e for e in self.events if e["type"] == kind]

    @property
    def sends(self) -> List[dict]:
        return self.of_type("send")

    @property
    def delivers(self) -> List[dict]:
        return self.of_type("deliver")

    @property
    def decides(self) -> List[dict]:
        return self.of_type("decide")

    # -- serialization -------------------------------------------------
    def lines(self) -> Iterator[str]:
        yield canonical_json(self.header)
        for event in self.events:
            yield canonical_json(event)
        yield canonical_json(self.outcome)

    def to_ndjson(self) -> str:
        return "\n".join(self.lines()) + "\n"

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_ndjson())

    @classmethod
    def loads(cls, text: str) -> "FlightRecord":
        """Parse NDJSON; malformed input raises :class:`FlightError`
        naming the offending line by its 1-based number."""
        numbers: List[int] = []
        rows: List[dict] = []
        for number, line in enumerate(text.splitlines(), 1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FlightError(
                    f"line {number} is not valid JSON ({exc.msg})"
                ) from None
            if not isinstance(row, dict):
                raise FlightError(f"line {number} is not a JSON object")
            numbers.append(number)
            rows.append(row)
        if len(rows) < 2:
            raise FlightError("flight file needs at least header and outcome")
        header, outcome = rows[0], rows[-1]
        if header.get("type") != "header":
            raise FlightError(f"line {numbers[0]} is not a flight header")
        if outcome.get("type") != "outcome":
            raise FlightError(
                f"line {numbers[-1]} is not a flight outcome "
                "(the recording is incomplete)"
            )
        version = header.get("version")
        if version != FLIGHT_VERSION:
            raise FlightError(
                f"unsupported flight version {version!r} "
                f"(this reader speaks {FLIGHT_VERSION})"
            )
        events = rows[1:-1]
        for number, event in zip(numbers[1:], events):
            if event.get("type") not in _RANK:
                raise FlightError(
                    f"line {number}: unknown event type {event.get('type')!r}"
                )
        return cls(header=header, events=events, outcome=outcome)

    @classmethod
    def load(cls, path: str) -> "FlightRecord":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.loads(handle.read())


def flight_from_trace(trace: object, header: dict, outcome: dict) -> FlightRecord:
    """Serialize one engine trace into a :class:`FlightRecord`.

    ``trace`` is duck-typed (``transmissions`` / ``deliveries`` /
    ``decisions`` lists with the :mod:`repro.net.trace` field names);
    ``header``/``outcome`` are pre-built by the caller (the runner owns
    the run's configuration — this layer owns only the event stream).

    Each message is ``repr``-ed once per transmission: a delivery that
    carries its send's very object reuses the send's string, and only a
    delivery whose message is some other object is encoded on its own.
    Node labels are encoded once per node.
    """
    codes: Dict[object, object] = {}

    def enc(label: object) -> object:
        if label not in codes:
            codes[label] = encode_label(label)
        return codes[label]

    events: List[dict] = []
    sends = trace.transmissions
    send_msgs: List[str] = []
    for i, t in enumerate(sends):
        sent_at = t.sent_at if t.sent_at is not None else t.round_no
        msg = repr(t.message)
        send_msgs.append(msg)
        events.append(
            {
                "type": "send",
                "i": i,
                "t": sent_at,
                "node": enc(t.sender),
                "target": None if t.target is None else enc(t.target),
                "to": [enc(r) for r in t.recipients],
                "msg": msg,
                "cause": {"kind": t.cause_kind, "i": t.cause_index},
            }
        )
    for i, d in enumerate(trace.deliveries):
        k = d.send_index
        if 0 <= k < len(sends) and d.message is sends[k].message:
            msg = send_msgs[k]
        else:
            msg = repr(d.message)
        events.append(
            {
                "type": "deliver",
                "i": i,
                "t": d.delivered_at,
                "sent": d.sent_at,
                "send": k,
                "from": enc(d.sender),
                "to": enc(d.recipient),
                "msg": msg,
            }
        )
    for i, dec in enumerate(trace.decisions):
        events.append(
            {
                "type": "decide",
                "i": i,
                "t": dec.decided_at,
                "node": enc(dec.node),
                "value": dec.value,
                "cause": {"kind": dec.cause_kind, "i": dec.cause_index},
            }
        )
    events.sort(key=event_order)
    return FlightRecord(header=dict(header), events=events, outcome=dict(outcome))


# ---------------------------------------------------------------------------
# The happened-before DAG
# ---------------------------------------------------------------------------


def _eid(event: dict) -> Tuple[str, int]:
    return (event["type"], event["i"])


class CausalDag:
    """Happened-before structure over one :class:`FlightRecord`.

    Parent edges (cause → effect read backwards):

    * a ``deliver``'s parent is its originating ``send``;
    * a ``send``/``decide``'s parents are the ``deliver`` events to the
      same node at the same tick — exactly the activation inbox both
      engines drain — with the stamped ``cause.i`` as the primary
      parent (the last delivery drained);
    * events with cause ``input``/``timer`` are roots.

    These message edges are what :meth:`critical_path` measures — along
    them, only delivery hops advance virtual time, which is what makes
    the span-equals-latency-sum accounting check possible.  The *full*
    Lamport happened-before relation additionally orders each node's own
    events (state carries causality across ticks); :meth:`process_parent`
    exposes that edge, and :meth:`ancestors` includes it on request —
    ``blame`` needs it, because a timer-driven decision causally depends
    on everything its node ever received, not just its last inbox.
    """

    def __init__(self, record: FlightRecord):
        self.record = record
        self.send_by_i: Dict[int, dict] = {}
        self.deliver_by_i: Dict[int, dict] = {}
        self.decide_by_i: Dict[int, dict] = {}
        #: (label_key(node), tick) → the deliveries drained into that
        #: activation's inbox, in drain order (record-index ascending).
        self.inbox: Dict[Tuple[str, int], List[dict]] = {}
        #: event id → the same node's previous event in canonical order
        #: (the Lamport process edge); roots have no entry.
        self._process_prev: Dict[Tuple[str, int], dict] = {}
        last_at_node: Dict[str, dict] = {}
        for event in record.events:
            kind = event["type"]
            if kind == "send":
                self.send_by_i[event["i"]] = event
            elif kind == "deliver":
                self.deliver_by_i[event["i"]] = event
                key = (label_key(event["to"]), event["t"])
                self.inbox.setdefault(key, []).append(event)
            else:
                self.decide_by_i[event["i"]] = event
            node_key = label_key(
                event["to"] if kind == "deliver" else event["node"]
            )
            if node_key in last_at_node:
                self._process_prev[_eid(event)] = last_at_node[node_key]
            last_at_node[node_key] = event

    # -- structure -----------------------------------------------------
    def parents(self, event: dict) -> List[dict]:
        if event["type"] == "deliver":
            send = self.send_by_i.get(event["send"])
            return [send] if send is not None else []
        return list(self.inbox.get((label_key(event["node"]), event["t"]), ()))

    def process_parent(self, event: dict) -> Optional[dict]:
        """The same node's previous event, or ``None`` at its first."""
        return self._process_prev.get(_eid(event))

    def primary_parent(self, event: dict) -> Optional[dict]:
        cause = event.get("cause")
        if cause and cause.get("kind") == CAUSE_DELIVERY:
            return self.deliver_by_i.get(cause.get("i"))
        if event["type"] == "deliver":
            return self.send_by_i.get(event["send"])
        return None

    def ancestors(
        self, seeds: List[dict], process: bool = False
    ) -> Dict[Tuple[str, int], dict]:
        """Every event causally before (or equal to) any seed.

        With ``process=True`` the walk follows the full happened-before
        relation (message edges plus each node's local event order);
        the default is message edges only.
        """
        seen: Dict[Tuple[str, int], dict] = {}
        stack = list(seeds)
        while stack:
            event = stack.pop()
            eid = _eid(event)
            if eid in seen:
                continue
            seen[eid] = event
            stack.extend(self.parents(event))
            if process:
                prev = self.process_parent(event)
                if prev is not None:
                    stack.append(prev)
        return seen

    # -- validation ----------------------------------------------------
    def check(self) -> List[str]:
        """Structural violations (empty list = a well-formed causal DAG).

        Every parent edge must point strictly backwards in the canonical
        event order — which simultaneously proves acyclicity (the order
        is a topological witness) and the timestamp law
        ``cause.t < effect.t`` for cross-tick (delivery) edges.
        """
        problems: List[str] = []
        events = self.record.events
        for prev, event in zip(events, events[1:]):
            if event_order(prev) >= event_order(event):
                problems.append(
                    f"event stream out of canonical order at {_eid(event)}"
                )
        for event in events:
            kind = event["type"]
            if kind == "deliver":
                send = self.send_by_i.get(event["send"])
                if send is None:
                    problems.append(f"deliver {event['i']} orphaned: no send "
                                    f"{event['send']}")
                    continue
                if send["t"] != event["sent"]:
                    problems.append(
                        f"deliver {event['i']} disagrees with its send on "
                        f"the send instant ({event['sent']} vs {send['t']})"
                    )
                if event["t"] <= send["t"]:
                    problems.append(
                        f"deliver {event['i']} at t={event['t']} not after "
                        f"its send at t={send['t']}"
                    )
                if send["node"] != event["from"]:
                    problems.append(
                        f"deliver {event['i']} names sender {event['from']!r} "
                        f"but send {send['i']} was by {send['node']!r}"
                    )
                if event["to"] not in send["to"]:
                    problems.append(
                        f"deliver {event['i']} recipient {event['to']!r} not "
                        f"in send {send['i']}'s recipient set"
                    )
                continue
            cause = event.get("cause") or {}
            ck, ci = cause.get("kind"), cause.get("i")
            inbox = self.parents(event)
            if ck == CAUSE_DELIVERY:
                primary = self.deliver_by_i.get(ci)
                if primary is None:
                    problems.append(
                        f"{kind} {event['i']} cites missing delivery {ci}"
                    )
                    continue
                if (
                    label_key(primary["to"]) != label_key(event["node"])
                    or primary["t"] != event["t"]
                ):
                    problems.append(
                        f"{kind} {event['i']} cites delivery {ci}, which "
                        "landed on a different node or tick"
                    )
                if not inbox or inbox[-1]["i"] != ci:
                    problems.append(
                        f"{kind} {event['i']}'s primary cause {ci} is not "
                        "the last delivery of its activation inbox"
                    )
            elif ck in (CAUSE_INPUT, CAUSE_TIMER):
                if inbox:
                    problems.append(
                        f"{kind} {event['i']} claims a spontaneous "
                        f"({ck}) cause but its activation inbox at "
                        f"t={event['t']} is non-empty"
                    )
                if ck == CAUSE_INPUT and event["t"] > 1:
                    problems.append(
                        f"{kind} {event['i']} claims an input cause at "
                        f"t={event['t']} > 1"
                    )
                if ck == CAUSE_TIMER and event["t"] <= 1:
                    problems.append(
                        f"{kind} {event['i']} claims a timer cause at "
                        f"t={event['t']} <= 1"
                    )
            else:
                problems.append(f"{kind} {event['i']} has no cause link")
            for parent in inbox:
                if event_order(parent) >= event_order(event):
                    problems.append(
                        f"edge {_eid(parent)} -> {_eid(event)} does not "
                        "point backwards in canonical order"
                    )
        return problems

    # -- longest causal chain ------------------------------------------
    def critical_path(self, target: Optional[dict] = None) -> dict:
        """The longest happened-before chain into ``target``.

        ``target`` defaults to the latest decision (by canonical order),
        or — for runs that never decided — the latest event of any kind,
        so stalls still yield the chain that got the run furthest.

        The result carries a built-in accounting check: along the chain
        only delivery edges advance virtual time (sends and decisions
        happen *at* the tick of their causing delivery), so the chain's
        time span must equal the sum of its delivery latencies exactly
        (``consistent``).  Under lockstep timing every latency is 1 and
        the span equals the number of delivery hops.
        """
        events = self.record.events
        if not events:
            return {
                "target": None, "length": 0, "span": 0,
                "latency_sum": 0, "consistent": True, "hops": [],
            }
        depth: Dict[Tuple[str, int], int] = {}
        pred: Dict[Tuple[str, int], Optional[dict]] = {}
        for event in events:  # canonical order is topological
            best: Optional[dict] = None
            best_rank = (-1, (-1, -1, -1))
            for parent in self.parents(event):
                rank = (depth[_eid(parent)], event_order(parent))
                if rank > best_rank:
                    best, best_rank = parent, rank
            eid = _eid(event)
            depth[eid] = best_rank[0] + 1 if best is not None else 0
            pred[eid] = best
        if target is None:
            decides = self.record.decides
            target = decides[-1] if decides else events[-1]
        chain: List[dict] = []
        cursor: Optional[dict] = target
        while cursor is not None:
            chain.append(cursor)
            cursor = pred[_eid(cursor)]
        chain.reverse()
        hops = [self._hop(event) for event in chain]
        latency_sum = sum(
            e["t"] - e["sent"] for e in chain if e["type"] == "deliver"
        )
        span = chain[-1]["t"] - chain[0]["t"]
        return {
            "target": self._hop(target),
            "length": depth[_eid(target)],
            "span": span,
            "latency_sum": latency_sum,
            "consistent": span == latency_sum,
            "root_cause": (chain[0].get("cause") or {}).get("kind"),
            "hops": hops,
        }

    @staticmethod
    def _hop(event: dict) -> dict:
        brief = {"type": event["type"], "i": event["i"], "t": event["t"]}
        if event["type"] == "deliver":
            brief["from"] = event["from"]
            brief["to"] = event["to"]
            brief["latency"] = event["t"] - event["sent"]
        else:
            brief["node"] = event["node"]
            brief["cause"] = (event.get("cause") or {}).get("kind")
        if event["type"] == "decide":
            brief["value"] = event["value"]
        else:
            brief["msg"] = _clip(event["msg"])
        return brief


def _clip(text: str, width: int = 64) -> str:
    return text if len(text) <= width else text[: width - 1] + "…"


# ---------------------------------------------------------------------------
# Analyses
# ---------------------------------------------------------------------------


def summarize(record: FlightRecord) -> dict:
    """Per-node timelines plus a run digest (the ``trace summary`` view)."""
    header = record.header
    faulty_keys = {label_key(x) for x in header.get("faulty", [])}
    rows: Dict[str, dict] = {}
    for enc in header.get("graph", {}).get("nodes", []):
        rows[label_key(enc)] = {
            "node": enc,
            "faulty": label_key(enc) in faulty_keys,
            "sends": 0,
            "deliveries": 0,
            "first_send": None,
            "last_send": None,
            "last_delivery": None,
            "decided_at": None,
            "decision": None,
            "decision_cause": None,
            "causes": {CAUSE_DELIVERY: 0, CAUSE_INPUT: 0, CAUSE_TIMER: 0},
        }

    def row(enc: object) -> dict:
        return rows.setdefault(
            label_key(enc),
            {
                "node": enc, "faulty": label_key(enc) in faulty_keys,
                "sends": 0, "deliveries": 0, "first_send": None,
                "last_send": None, "last_delivery": None,
                "decided_at": None, "decision": None,
                "decision_cause": None,
                "causes": {CAUSE_DELIVERY: 0, CAUSE_INPUT: 0, CAUSE_TIMER: 0},
            },
        )

    for event in record.events:
        if event["type"] == "send":
            r = row(event["node"])
            r["sends"] += 1
            if r["first_send"] is None:
                r["first_send"] = event["t"]
            r["last_send"] = event["t"]
            kind = (event.get("cause") or {}).get("kind")
            if kind in r["causes"]:
                r["causes"][kind] += 1
        elif event["type"] == "deliver":
            r = row(event["to"])
            r["deliveries"] += 1
            r["last_delivery"] = event["t"]
        else:
            r = row(event["node"])
            r["decided_at"] = event["t"]
            r["decision"] = event["value"]
            r["decision_cause"] = (event.get("cause") or {}).get("kind")

    dag = CausalDag(record)
    return {
        "run": {
            "outcome": record.outcome.get("outcome"),
            "rounds": record.outcome.get("rounds"),
            "n": len(header.get("graph", {}).get("nodes", [])),
            "f": header.get("f"),
            "faulty": header.get("faulty", []),
            "scheduler": header.get("scheduler"),
            "factory": header.get("factory", {}).get("kind"),
            "adversary": (header.get("adversary") or {}).get("name"),
            "sends": len(record.sends),
            "deliveries": len(record.delivers),
            "decisions": len(record.decides),
            "causal_violations": len(dag.check()),
        },
        "nodes": [rows[k] for k in sorted(rows)],
    }


def critical_path(record: FlightRecord) -> dict:
    """Longest causal chain into the (latest) decision; see
    :meth:`CausalDag.critical_path` for the accounting check."""
    return CausalDag(record).critical_path()


def blame(record: FlightRecord) -> dict:
    """Forensics for a run that lost consensus or never finished.

    Walks backwards from the *divergence anchors* — the honest decision
    events when the run disagreed, the undecided honest nodes' last
    activity when it stalled — through the happened-before DAG, and
    reports the **frontier**: the earliest transmissions by faulty nodes
    that are ancestors of the anchors and have no faulty transmission in
    their own past.  Faulty nodes that went quiet (never sent, or
    stopped before every honest node did) are reported as omission
    suspects — a silent fault leaves no commission frontier to find.

    By construction ``blamed`` only ever names faulty nodes; an honest
    node can appear in the causal walk but never at the frontier.  The
    verdict is three-valued (the CLI's exit-code contract):

    * ``"attributed"`` — anomalous run, non-empty ``blamed`` (exit 0);
    * ``"clean"`` — the run decided with agreement and validity, there
      is nothing to blame (exit 1);
    * ``"unattributed"`` — anomalous run but no fault-attributable
      cause (e.g. a fault-free run broken by timing alone); the report
      then carries the highest-latency ancestor deliveries as timing
      suspects (exit 2).
    """
    header = record.header
    outcome = record.outcome.get("outcome")
    faulty_enc = {label_key(x): x for x in header.get("faulty", [])}
    node_enc = {label_key(x): x for x in header.get("graph", {}).get("nodes", [])}
    honest_keys = sorted(k for k in node_enc if k not in faulty_enc)
    decides = record.decides
    honest_decides = [
        e for e in decides if label_key(e["node"]) not in faulty_enc
    ]

    report = {
        "outcome": outcome,
        "faulty": [faulty_enc[k] for k in sorted(faulty_enc)],
        "anchors": [],
        "frontier": [],
        "omissions": [],
        "timing_suspects": [],
        "blamed": [],
        "reason": "",
        "verdict": "clean",
    }
    if outcome == "decided":
        report["reason"] = "run decided with agreement and validity"
        return report

    dag = CausalDag(record)
    anchors: List[dict] = []
    if outcome == "disagreed":
        values = sorted({e["value"] for e in honest_decides}, key=repr)
        honest_inputs = {
            value
            for enc, value in header.get("inputs", [])
            if label_key(enc) not in faulty_enc
        }
        invalid = [
            e for e in honest_decides if e["value"] not in honest_inputs
        ]
        if len(values) > 1:
            anchors = honest_decides
            report["reason"] = (
                f"honest nodes decided conflicting values {values}"
            )
        elif invalid:
            anchors = invalid
            report["reason"] = (
                "honest nodes decided a value no honest node proposed"
            )
        else:
            anchors = honest_decides
            report["reason"] = "run recorded as disagreed"
    else:  # stalled / budget_exhausted
        decided_keys = {label_key(e["node"]) for e in decides}
        undecided = [k for k in honest_keys if k not in decided_keys]
        last_activity: Dict[str, dict] = {}
        for event in record.events:
            if event["type"] == "send":
                last_activity[label_key(event["node"])] = event
            elif event["type"] == "deliver":
                last_activity[label_key(event["to"])] = event
        anchors = [last_activity[k] for k in undecided if k in last_activity]
        report["reason"] = (
            f"honest nodes {[label_text(node_enc[k]) for k in undecided]} "
            f"undecided ({outcome})"
        )

    # The walk follows the full happened-before relation (message edges
    # plus process order): a decision made on a timer causally depends
    # on every delivery its node ever drained, not just its last inbox.
    ancestry = dag.ancestors(anchors, process=True)

    def is_faulty_send(event: dict) -> bool:
        return (
            event["type"] == "send"
            and label_key(event["node"]) in faulty_enc
        )

    def upstream_tainted(event: dict, tainted) -> bool:
        prev = dag.process_parent(event)
        if prev is not None and tainted[_eid(prev)]:
            return True
        for parent in dag.parents(event):
            if tainted[_eid(parent)]:
                return True
        return False

    # Taint propagation in canonical (topological) order: an event is
    # tainted iff a faulty transmission lies in its causal past.  The
    # frontier is then every faulty send among the anchors' ancestors
    # whose own past is clean — the *earliest* fault-attributable acts.
    tainted: Dict[Tuple[str, int], bool] = {}
    for event in record.events:
        tainted[_eid(event)] = (
            upstream_tainted(event, tainted) or is_faulty_send(event)
        )
    frontier = sorted(
        (
            e
            for eid, e in ancestry.items()
            if is_faulty_send(e) and not upstream_tainted(e, tainted)
        ),
        key=event_order,
    )

    # Omission forensics: commission analysis cannot see a fault that
    # consists of *not* sending.  A faulty node is suspect if it never
    # transmitted at all, or fell silent while every honest node was
    # still talking.
    send_count: Dict[str, int] = {}
    last_send: Dict[str, int] = {}
    for event in record.sends:
        k = label_key(event["node"])
        send_count[k] = send_count.get(k, 0) + 1
        last_send[k] = event["t"]
    honest_horizon = min(
        (last_send[k] for k in honest_keys if k in last_send), default=None
    )
    omissions = []
    for k in sorted(faulty_enc):
        sends = send_count.get(k, 0)
        if sends == 0:
            omissions.append(
                {"node": faulty_enc[k], "sends": 0, "last_send": None,
                 "kind": "silent"}
            )
        elif honest_horizon is not None and last_send[k] < honest_horizon:
            omissions.append(
                {"node": faulty_enc[k], "sends": sends,
                 "last_send": last_send[k], "kind": "withheld"}
            )

    blamed_keys = sorted(
        {label_key(e["node"]) for e in frontier}
        | {label_key(o["node"]) for o in omissions}
    )
    report["anchors"] = [CausalDag._hop(e) for e in sorted(anchors, key=event_order)]
    report["frontier"] = [CausalDag._hop(e) for e in frontier]
    report["omissions"] = omissions
    report["blamed"] = [faulty_enc[k] for k in blamed_keys]
    if blamed_keys:
        report["verdict"] = "attributed"
    else:
        report["verdict"] = "unattributed"
        slow = sorted(
            (e for e in ancestry.values() if e["type"] == "deliver"),
            key=lambda e: (-(e["t"] - e["sent"]),) + event_order(e),
        )[:5]
        report["timing_suspects"] = [CausalDag._hop(e) for e in slow]
        if not report["reason"]:
            report["reason"] = "no fault-attributable cause found"
    return report


# ---------------------------------------------------------------------------
# Chrome trace-event export
# ---------------------------------------------------------------------------

#: Microseconds per virtual tick in the exported timeline.
_TICK_US = 1000


def export_chrome(record: FlightRecord) -> dict:
    """Chrome trace-event (Perfetto-loadable) JSON for one flight.

    One thread track per node (canonical label order), each send and
    delivery as a small slice with a flow arrow connecting them, each
    decision as a thread-scoped instant.  When the recording carries
    span data (metered runs), the spans are overlaid as slices on the
    track of the node they name — or a dedicated ``spans`` track.
    """
    nodes = record.header.get("graph", {}).get("nodes", [])
    keys = sorted(label_key(enc) for enc in nodes)
    tids = {k: i for i, k in enumerate(keys)}
    by_key = {label_key(enc): enc for enc in nodes}
    events: List[dict] = [
        {"ph": "M", "pid": 0, "tid": 0, "name": "process_name",
         "args": {"name": "repro flight"}},
    ]
    for k in keys:
        name = label_text(by_key[k])
        if k in {label_key(x) for x in record.header.get("faulty", [])}:
            name += " (faulty)"
        events.append(
            {"ph": "M", "pid": 0, "tid": tids[k], "name": "thread_name",
             "args": {"name": f"node {name}"}}
        )
    for event in record.events:
        ts = event["t"] * _TICK_US
        if event["type"] == "send":
            events.append(
                {
                    "ph": "X", "pid": 0,
                    "tid": tids.get(label_key(event["node"]), len(keys)),
                    "ts": ts, "dur": _TICK_US // 4,
                    "name": f"send {_clip(event['msg'], 40)}",
                    "cat": "send",
                    "args": {"i": event["i"], "cause": event.get("cause")},
                }
            )
        elif event["type"] == "deliver":
            src = tids.get(label_key(event["from"]), len(keys))
            dst = tids.get(label_key(event["to"]), len(keys))
            events.append(
                {
                    "ph": "X", "pid": 0, "tid": dst, "ts": ts,
                    "dur": _TICK_US // 4,
                    "name": f"recv {_clip(event['msg'], 40)}",
                    "cat": "deliver",
                    "args": {"i": event["i"], "latency": event["t"] - event["sent"]},
                }
            )
            events.append(
                {"ph": "s", "pid": 0, "tid": src, "ts": event["sent"] * _TICK_US,
                 "id": event["i"], "name": "flight", "cat": "flow"}
            )
            events.append(
                {"ph": "f", "bp": "e", "pid": 0, "tid": dst, "ts": ts,
                 "id": event["i"], "name": "flight", "cat": "flow"}
            )
        else:
            events.append(
                {
                    "ph": "i", "pid": 0,
                    "tid": tids.get(label_key(event["node"]), len(keys)),
                    "ts": ts, "s": "t",
                    "name": f"decide {event['value']}",
                    "cat": "decide",
                    "args": {"cause": (event.get("cause") or {}).get("kind")},
                }
            )
    spans = record.header.get("spans") or []
    if spans:
        events.append(
            {"ph": "M", "pid": 0, "tid": len(keys), "name": "thread_name",
             "args": {"name": "spans"}}
        )
    for span in spans:
        labels = span.get("labels") or {}
        owner = None
        for field_name in ("origin", "node"):
            if field_name in labels:
                owner = tids.get(label_key(encode_label(labels[field_name])))
                if owner is not None:
                    break
        start, end = span.get("start", 0), span.get("end", 0)
        events.append(
            {
                "ph": "X", "pid": 0,
                "tid": owner if owner is not None else len(keys),
                "ts": start * _TICK_US,
                "dur": max((end - start) * _TICK_US, 1),
                "name": span.get("name", "span"),
                "cat": "span",
                "args": {"labels": labels},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
