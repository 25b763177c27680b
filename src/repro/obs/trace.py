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
from json.encoder import encode_basestring_ascii as _escape
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

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
#: backwards in it (acyclicity by construction; checked at load by
#: :meth:`FlightRecord.loads`, delivery edges by :meth:`CausalDag.check`).
_RANK = {"deliver": 0, "send": 1, "decide": 2}


class FlightError(ValueError):
    """A flight file is malformed or internally inconsistent."""


class FlightReplayError(FlightError):
    """A flight recording cannot be re-executed (opaque labels/factory)."""


# ---------------------------------------------------------------------------
# Canonical JSON encoding
# ---------------------------------------------------------------------------


#: One encoder for every flight line: ``json.dumps`` with keyword
#: arguments builds a fresh encoder per call.
_CANONICAL_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), default=repr
)


def canonical_json(obj: object) -> str:
    """Sorted-key, compact JSON — the one serialization flights use.

    ``default=repr`` is a deterministic last resort for exotic values
    (e.g. span label objects); node labels never rely on it — they go
    through :func:`encode_label` so tuples survive the round trip.
    """
    return _CANONICAL_ENCODER.encode(obj)


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
        if "__r" in obj:
            raise FlightReplayError(
                f"label {obj['__r']} was recorded by repr only and cannot "
                "be reconstructed for replay"
            )
        return tuple(decode_label(x) for x in obj["__t"])
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


#: The flight format, checked by :meth:`FlightRecord.loads`.  A type is
#: an exact JSON type (``int`` rejects ``bool``; ``object`` is anything);
#: ``(None, X)`` is X or null; ``[X]`` an array of X, ``[X, Y]`` a pair;
#: a dict an object with exactly its fields (``"name?"`` optional, ``"*"``
#: admits others).  ``NODE`` is an encoded label (:func:`encode_label`)
#: naming a node of the header's graph, whose ``GRAPH_NODE`` list is read
#: first.
GRAPH_NODE, NODE = "a label", "a node of the graph"
_CAUSE = {"kind": str, "i": (None, int)}
SCHEMA: Dict[str, dict] = {
    "header": {
        "type": str, "version": int, "f": int, "max_rounds": int,
        "graph": {"nodes": [GRAPH_NODE], "edges": [[NODE, NODE]],
                  "directed?": bool},
        "faulty": [NODE], "inputs": [[NODE, int]],
        "adversary": (None, {"name": str, "seed": (None, int),
                             "crash_round?": int, "value?": (None, int)}),
        "channel": {"kind": str, "equivocators": [NODE]},
        "scheduler": (None, {"kind": str, "*": object}),
        "factory": {"kind": str, "*": object}, "metered": bool, "spec": dict,
        "spans?": [{"name": str, "start": int, "end": int, "labels": dict}],
    },
    "send": {"type": str, "i": int, "t": int, "node": NODE, "msg": str,
             "target": (None, NODE), "to": [NODE], "cause": _CAUSE},
    "deliver": {"type": str, "i": int, "t": int, "sent": int, "send": int,
                "from": NODE, "to": NODE, "msg": str},
    "decide": {"type": str, "i": int, "t": int, "node": NODE, "value": int,
               "cause": _CAUSE},
    "outcome": {"type": str, "outcome": str, "stalled": bool, "rounds": int,
                "outputs": [[NODE, (None, int)]]},
}


def _is_label(v: object) -> bool:
    if type(v) is dict and len(v) == 1:
        return type(v.get("__r")) is str or (
            type(v.get("__t")) is list and all(map(_is_label, v["__t"])))
    return v is None or type(v) in (int, str, bool)


def _conform(value: object, spec: object, where: str, nodes: Set[str]) -> None:
    """Raise :class:`FlightError` at the first part of ``value`` (named
    by ``where``) that breaks ``spec``; collect ``GRAPH_NODE`` labels."""
    if isinstance(spec, tuple) and value is None:
        return
    want = spec[1] if isinstance(spec, tuple) else spec
    if isinstance(want, str):
        ok = _is_label(value) and (want == GRAPH_NODE or label_key(value) in nodes)
    elif isinstance(want, (dict, list)):
        ok = type(value) is type(want) and (
            type(value) is dict or len(want) in (1, len(value)))
    else:
        ok = want is object or type(value) is want
    if not ok:
        what = {dict: "an object", list: "an array"}.get(type(want), want)
        null = " or null" if isinstance(spec, tuple) else ""
        raise FlightError(f"{where} is not {getattr(what, '__name__', what)}"
                          f"{null} (got {_clip(canonical_json(value), 40)})")
    at = where if where.endswith(" ") else f"{where}."  # a line's fields
    if isinstance(want, dict):
        # repro: allow[REPRO001] SCHEMA order: graph nodes before labels.
        for key, sub in want.items():
            name = key.rstrip("?")
            if name in value:
                _conform(value[name], sub, at + name, nodes)
            elif key[-1] not in "?*":
                raise FlightError(f"{at}{name} is missing")
        extra = sorted(value.keys() - {k.rstrip("?") for k in want})
        if extra and "*" not in want:
            raise FlightError(f"{at}{extra[0]} is not declared")
    elif isinstance(want, list):
        for k, item in enumerate(value):
            _conform(item, want[k % len(want)], f"{where}[{k}]", nodes)
    elif want == GRAPH_NODE:
        nodes.add(label_key(value))


# ---------------------------------------------------------------------------
# Event lines from SCHEMA
# ---------------------------------------------------------------------------


class _OffSchema(Exception):
    """A value the compiled templates do not render exactly as
    :func:`canonical_json` would; its line falls back to that."""


def _off() -> str:
    raise _OffSchema


def _text(value: object, memo: dict) -> str:
    """JSON text of an exact ``int`` or ``str``, kept in ``memo``."""
    out = memo[value] = repr(value) if type(value) is int else _escape(value)
    return out


def _expr(spec: object, x: str, env: dict) -> str:
    """Source of an expression: the JSON text of variable ``x`` under
    ``spec``, or a call of ``_off()``.  A plain ``int``/``str`` value or
    label is looked up in ``memo`` (a ``bool`` never reaches it, so
    ``True`` cannot meet ``1``); tuple and ``__r`` labels are objects,
    left to :func:`canonical_json`."""
    if isinstance(spec, tuple):
        return f'("null" if {x} is None else {_expr(spec[1], x, env)})'
    if isinstance(spec, list) and len(spec) == 1:
        y = x + "_"
        return (f'("[" + ",".join([{_expr(spec[0], y, env)} for {y} in {x}])'
                f' + "]" if type({x}) is list else _off())')
    if isinstance(spec, dict):
        name = f"_object{len(env)}"
        env[name] = _compile(spec, env)
        return f"{name}({x}, memo)"
    if spec is int:
        return f"(repr({x}) if type({x}) is int else _off())"
    types = {str: (str,), NODE: (int, str)}[spec]
    guard = " or ".join(f"type({x}) is {t.__name__}" for t in types)
    return f"((memo.get({x}) or _text({x}, memo)) if {guard} else _off())"


def _compile(spec: dict, env: dict) -> Callable[[object, dict], str]:
    """The renderer ``(value, memo) -> JSON text`` of an object ``spec``
    with exactly its fields, in sorted order.  A missing field raises
    ``KeyError``; with the length check, no field can be extra."""
    keys = sorted(spec)
    names = [f"v{n}" for n in range(len(keys))]
    form = "{" + ",".join(f"{_escape(k)}:%s" for k in keys) + "}"
    texts = ", ".join(_expr(spec[k], v, env) for k, v in zip(keys, names))
    source = "\n".join([
        "def render(x, memo):",
        f"    if type(x) is not dict or len(x) != {len(keys)}:",
        "        _off()",
        *(f"    {v} = x[{k!r}]" for k, v in zip(keys, names)),
        f"    return {form!r} % ({texts},)",
    ])
    scope = dict(env)
    exec(source, scope)
    return scope["render"]


#: Event kind -> its line renderer: a cache, filled from :data:`SCHEMA`
#: on first use (not at import).  A line that finds it empty or partly
#: filled still gets its canonical bytes.
_TEMPLATES: Dict[str, Callable[[dict, dict], str]] = {}


def event_line(event: dict, memo: dict) -> str:
    """``canonical_json(event)``, formatted by the event kind's template
    compiled from :data:`SCHEMA`.  ``memo`` (one per recording) maps each
    string and label to its JSON text, so a message that several lines
    carry is escaped once.  An event that is not exactly its kind's shape
    goes through :func:`canonical_json`."""
    if not _TEMPLATES:
        env = {"_off": _off, "_text": _text}
        _TEMPLATES.update({k: _compile(SCHEMA[k], env) for k in sorted(_RANK)})
    kind = event.get("type")
    render = _TEMPLATES.get(kind) if type(kind) is str else None
    if render is not None:
        try:
            return render(event, memo)
        except (_OffSchema, KeyError):
            pass
    return canonical_json(event)


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
        memo: dict = {}
        for event in self.events:
            yield event_line(event, memo)
        yield canonical_json(self.outcome)

    def to_ndjson(self) -> str:
        return "\n".join(self.lines()) + "\n"

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_ndjson())

    @classmethod
    def loads(cls, text: str) -> "FlightRecord":
        """Parse NDJSON and check it against :data:`SCHEMA` and
        :func:`event_order` (event ids unique); the first problem raises
        :class:`FlightError` naming its 1-based line and field."""
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
        nodes: Set[str] = set()
        seen: Set[Tuple[str, int]] = set()  # event ids
        for index, (number, row) in enumerate(zip(numbers, rows)):
            kind = row.get("type")
            if 0 < index < len(rows) - 1 and (
                    type(kind) is not str or kind not in _RANK):
                raise FlightError(f"line {number}: unknown event type {kind!r}")
            _conform(row, SCHEMA[kind], f"line {number}: field ", nodes)
            if kind in _RANK:
                if _eid(row) in seen or index > 1 and (
                    event_order(rows[index - 1]) >= event_order(row)
                ):
                    raise FlightError(f"line {number}: {kind} {row['i']} repeats "
                                      "an id or breaks the canonical event order")
                seen.add(_eid(row))
        return cls(header=header, events=rows[1:-1], outcome=outcome)

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
    A message object that many transmissions relay may keep its own
    ``repr`` (a phase-2 report bundle does), so it is spelled out once
    per object.  Node labels are encoded once per node.
    :meth:`FlightRecord.lines` then escapes each distinct string once
    (:func:`event_line`).
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
        """Causal-law violations (empty list = a well-formed causal DAG).

        The canonical order is checked at load (and holds by construction
        in :func:`flight_from_trace`), so inbox edges point backwards; a
        delivery must still follow and agree with its send, and a primary
        cause must be the last delivery of its own activation inbox.
        """
        problems: List[str] = []
        for event in self.record.events:
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
            ck, ci = event["cause"]["kind"], event["cause"]["i"]
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
                "target": None, "length": 0, "span": 0, "latency_sum": 0,
                "consistent": True, "root_cause": None, "hops": [],
                "causal_violations": 0,
            }
        depth: Dict[Tuple[str, int], int] = {}
        pred: Dict[Tuple[str, int], Optional[dict]] = {}
        for event in events:  # canonical order is topological
            best: Optional[dict] = None
            best_rank = (-1, (-1, -1, -1))
            # A send after its delivery (a causal violation) ranks last.
            for parent in self.parents(event):
                rank = (depth.get(_eid(parent), -2), event_order(parent))
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
            "root_cause": hops[0].get("cause"),
            "hops": hops,
            "causal_violations": len(self.check()),
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
            brief["cause"] = event["cause"]["kind"]
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
    faulty_keys = {label_key(x) for x in header["faulty"]}
    rows: Dict[str, dict] = {}
    for enc in header["graph"]["nodes"]:
        rows[label_key(enc)] = {
            "node": enc, "faulty": label_key(enc) in faulty_keys,
            "sends": 0, "deliveries": 0, "first_send": None,
            "last_send": None, "last_delivery": None,
            "decided_at": None, "decision": None, "decision_cause": None,
            "causes": {CAUSE_DELIVERY: 0, CAUSE_INPUT: 0, CAUSE_TIMER: 0},
        }

    for event in record.events:
        if event["type"] == "send":
            r = rows[label_key(event["node"])]
            r["sends"] += 1
            if r["first_send"] is None:
                r["first_send"] = event["t"]
            r["last_send"] = event["t"]
            kind = event["cause"]["kind"]
            if kind in r["causes"]:
                r["causes"][kind] += 1
        elif event["type"] == "deliver":
            r = rows[label_key(event["to"])]
            r["deliveries"] += 1
            r["last_delivery"] = event["t"]
        else:
            r = rows[label_key(event["node"])]
            r["decided_at"] = event["t"]
            r["decision"] = event["value"]
            r["decision_cause"] = event["cause"]["kind"]

    dag = CausalDag(record)
    return {
        "run": {
            "outcome": record.outcome["outcome"],
            "rounds": record.outcome["rounds"],
            "n": len(header["graph"]["nodes"]),
            "f": header["f"],
            "faulty": header["faulty"],
            "scheduler": header["scheduler"],
            "factory": header["factory"]["kind"],
            "adversary": header["adversary"] and header["adversary"]["name"],
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
    outcome = record.outcome["outcome"]
    faulty_enc = {label_key(x): x for x in header["faulty"]}
    node_enc = {label_key(x): x for x in header["graph"]["nodes"]}
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
            for enc, value in header["inputs"]
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
        # A delivery before its send (a causal violation) has no taint yet.
        return any(tainted.get(_eid(parent)) for parent in dag.parents(event))

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
    by_key = {label_key(enc): enc for enc in record.header["graph"]["nodes"]}
    keys = sorted(by_key)
    tids = {k: i for i, k in enumerate(keys)}
    faulty = {label_key(x) for x in record.header["faulty"]}
    events: List[dict] = [
        {"ph": "M", "pid": 0, "tid": 0, "name": "process_name",
         "args": {"name": "repro flight"}},
    ]
    for k in keys:
        name = label_text(by_key[k])
        if k in faulty:
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
                    "tid": tids[label_key(event["node"])],
                    "ts": ts, "dur": _TICK_US // 4,
                    "name": f"send {_clip(event['msg'], 40)}",
                    "cat": "send",
                    "args": {"i": event["i"], "cause": event["cause"]},
                }
            )
        elif event["type"] == "deliver":
            src = tids[label_key(event["from"])]
            dst = tids[label_key(event["to"])]
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
                    "tid": tids[label_key(event["node"])],
                    "ts": ts, "s": "t",
                    "name": f"decide {event['value']}",
                    "cat": "decide",
                    "args": {"cause": event["cause"]["kind"]},
                }
            )
    spans = record.header["spans"] if "spans" in record.header else []
    if spans:
        events.append(
            {"ph": "M", "pid": 0, "tid": len(keys), "name": "thread_name",
             "args": {"name": "spans"}}
        )
    for span in spans:
        labels = span["labels"]
        owner = None
        for field_name in ("origin", "node"):
            if field_name in labels:
                owner = tids.get(label_key(encode_label(labels[field_name])))
                if owner is not None:
                    break
        start, end = span["start"], span["end"]
        events.append(
            {
                "ph": "X", "pid": 0,
                "tid": owner if owner is not None else len(keys),
                "ts": start * _TICK_US,
                "dur": max((end - start) * _TICK_US, 1),
                "name": span["name"],
                "cat": "span",
                "args": {"labels": labels},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
