"""The flight schema gate: one format, checked at load.

``FlightRecord.loads`` checks every line against ``obs.trace.SCHEMA``,
so the analyses index fields directly.  The ``trace`` contract this
file pins:

* a file that breaks the schema makes every action exit 2 with one
  stderr line and nothing on stdout;
* a well-typed file that breaks a causal law makes ``summary`` and
  ``critical-path`` exit 1 with ``causal_violations >= 1`` — a finding,
  not a schema error;
* no action ever ends in a traceback.

The gate mutates one field of one line of a small recorded corpus
(hypothesis) and runs all five actions in process.  Whether a mutant
*must* be refused is read off the ``SCHEMA`` table by path, so the
oracle is independent of the walker that enforces it.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.__main__ import main
from repro.obs import FlightError, FlightRecord, label_key
from repro.obs.trace import GRAPH_NODE, NODE, SCHEMA

#: One small flight per engine path: sync Algorithm 1 with a fault,
#: Algorithm 2 under seeded-async timing (a disagreement), the
#: α-synchronizer, the native async algorithm (metered, so the header
#: carries spans), and a directed graph (no faults: a null adversary).
CORPUS = {
    "alg1-fault": ["--graph", "cycle:4", "--f", "1", "--algorithm", "1",
                   "--faulty", "0", "--adversary", "random"],
    "alg2-seeded": ["--graph", "cycle:4", "--f", "1", "--algorithm", "2",
                    "--faulty", "0", "--adversary", "tamper-forward",
                    "--scheduler", "seeded-async", "--seed", "7",
                    "--max-delay", "2"],
    "alpha": ["--graph", "cycle:4", "--f", "1", "--algorithm", "1",
              "--scheduler", "seeded-async", "--seed", "3",
              "--max-delay", "2", "--synchronizer", "alpha"],
    "async": ["--graph", "wheel:5", "--f", "1", "--algorithm", "async",
              "--faulty", "1", "--adversary", "tamper-forward",
              "--scheduler", "seeded-async", "--seed", "5"],
    "directed": ["--graph", "oneway:4", "--f", "0", "--algorithm", "1"],
}

ACTIONS = ("summary", "critical-path", "blame", "export-chrome", "replay")

#: The values a mutation sets a field to.
VALUES = (None, -1, "x", [], {}, True)


def quiet_main(argv) -> tuple:
    """``main(argv)`` in process; returns (exit code, stdout, stderr).
    An exception escaping ``main`` fails the calling test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@functools.lru_cache(maxsize=None)
def recorded() -> dict:
    """name -> the recorded flight's lines (parsed), recorded once."""
    flights = {}
    with tempfile.TemporaryDirectory() as root:
        for name, args in CORPUS.items():
            path = os.path.join(root, f"{name}.ndjson")
            extra = ["--metrics", os.path.join(root, "m.json")] * (name == "async")
            code, _, _ = quiet_main(["run", *args, *extra, "--trace", path])
            assert code in (0, 1), name
            with open(path, encoding="utf-8") as handle:
                flights[name] = [json.loads(line) for line in handle]
    return flights


def copy_of(name: str) -> list:
    return json.loads(json.dumps(recorded()[name]))


def write(lines, path) -> str:
    text = "".join(json.dumps(line) + "\n" for line in lines)
    path.write_text(text)
    return text


def sites(obj, path=()):
    """Every (path to a dict, key) in one parsed line, and every dict."""
    if isinstance(obj, dict):
        yield path, None
        for key in sorted(obj):
            yield path, key
            yield from sites(obj[key], path + (key,))
    elif isinstance(obj, list):
        for k, item in enumerate(obj):
            yield from sites(item, path + (k,))


def spec_at(spec, path):
    """The declared spec at ``path``; ``None`` inside an open part."""
    for step in path:
        if isinstance(spec, tuple):
            spec = spec[1]
        if isinstance(spec, dict):
            if step in spec or f"{step}?" in spec:
                spec = spec.get(step, spec.get(f"{step}?"))
            else:
                return None  # admitted by "*"
        elif isinstance(spec, list):
            spec = spec[0] if len(spec) == 1 else spec[step]
        else:
            return None  # inside a `dict`/`object` value
    return spec


def admits(spec, value, nodes) -> bool:
    """Whether ``value`` can stand where ``spec`` is declared."""
    if isinstance(spec, tuple):
        return value is None or admits(spec[1], value, nodes)
    if isinstance(spec, dict):
        required = [k for k in spec if not k.endswith("?") and k != "*"]
        return type(value) is dict and not (set(required) - set(value))
    if isinstance(spec, list):
        return type(value) is list and len(spec) in (1, len(value))
    if spec is NODE:
        return label_key(value) in nodes
    if spec is GRAPH_NODE or spec is object:
        return True
    return type(value) is spec


def mutate(lines, index, path, key, op):
    """A copy of ``lines`` with one field of line ``index`` changed, and
    whether the schema table says the result must be refused."""
    lines = json.loads(json.dumps(lines))
    line = lines[index]
    kind = "header" if index == 0 else line["type"]
    nodes = {label_key(x) for x in lines[0]["graph"]["nodes"]}
    target = line
    for step in path:
        target = target[step]
    container = spec_at(SCHEMA[kind], path)
    if isinstance(container, tuple):
        container = container[1]
    if op == "extra":
        target["extra"] = 1
        return lines, isinstance(container, dict) and "*" not in container
    if op == "delete":
        del target[key]
        return lines, isinstance(container, dict) and key in container
    target[key] = op[1]
    spec = spec_at(SCHEMA[kind], path + (key,))
    pinned = path == () and key in ("type", "version")
    return lines, pinned or (spec is not None and not admits(spec, op[1], nodes))


@st.composite
def mutants(draw):
    name = draw(st.sampled_from(sorted(CORPUS)))
    lines = recorded()[name]
    # Header, outcome and events are drawn equally often.
    last = len(lines) - 1
    index = draw(st.one_of(st.just(0), st.just(last), st.integers(1, last - 1)))
    path, key = draw(st.sampled_from(list(sites(lines[index]))))
    if key is None:
        op = "extra"
    else:
        op = draw(st.sampled_from(["delete", *(("set", v) for v in VALUES)]))
    return (name, index, path, key, op)


class TestMutationGate:
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mutant=mutants())
    def test_no_traceback_and_exit_2_on_every_schema_violation(
        self, tmp_path, mutant
    ):
        name, index, path, key, op = mutant
        lines, must_reject = mutate(recorded()[name], index, path, key, op)
        flight = tmp_path / "mutant.ndjson"
        text = write(lines, flight)
        try:
            FlightRecord.loads(text)
            rejected = False
        except FlightError:
            rejected = True
        assert rejected or not must_reject
        for action in ACTIONS:
            extra = ["--output", str(tmp_path / "c.json")] * (action == "export-chrome")
            code, out, err = quiet_main(["trace", action, str(flight), *extra])
            assert code in (0, 1, 2), action
            assert "Traceback" not in out + err
            if rejected:
                assert code == 2 and out == "", action
                assert err.count("\n") == 1
                assert err.startswith(f"trace {action}: {flight}: ")

    def test_every_corpus_flight_loads_and_replays(self, tmp_path):
        for name in CORPUS:
            flight = tmp_path / f"{name}.ndjson"
            write(recorded()[name], flight)
            for action in ("summary", "critical-path", "replay"):
                code, _, _ = quiet_main(["trace", action, str(flight)])
                assert code == 0, (name, action)


class TestLoadErrors:
    """Each refusal names the line and the field."""

    @pytest.mark.parametrize("edit,fragment", [
        (lambda lines: lines[1].update(t=True), "line 2: field t is not int"),
        (lambda lines: lines[0]["graph"].update(extra=1),
         "line 1: field graph.extra is not declared"),
        (lambda lines: lines[-1].pop("stalled"), "field stalled is missing"),
        (lambda lines: lines[1].update(node=99),
         "line 2: field node is not a node of the graph"),
        (lambda lines: lines[0].update(faulty=[{"__t": [0], "__r": "0"}]),
         "line 1: field faulty[0] is not a node of the graph"),
        (lambda lines: lines[0]["inputs"].append([0]),
         "line 1: field inputs[4] is not an array"),
        (lambda lines: lines[0].update(scheduler={"seed": 1}),
         "line 1: field scheduler.kind is missing"),
        (lambda lines: lines[1].update(cause={"kind": "input", "i": "x"}),
         "field cause.i is not int or null"),
        (lambda lines: lines.insert(1, lines.pop(2)),
         "breaks the canonical event order"),
        (lambda lines: lines.insert(2, dict(lines[1], t=lines[1]["t"] + 1)),
         "line 3: send 0 repeats an id"),
    ], ids=["bool-for-int", "undeclared", "missing", "unknown-node",
            "bad-label-shape", "short-pair", "scheduler-no-kind",
            "cause-index", "order", "repeated-id"])
    def test_refusal_names_line_and_field(self, edit, fragment):
        lines = copy_of("alg1-fault")
        assert lines[1]["type"] == "send" and lines[1]["i"] == 0
        edit(lines)
        with pytest.raises(FlightError) as excinfo:
            FlightRecord.loads("".join(json.dumps(x) + "\n" for x in lines))
        assert str(excinfo.value).startswith("line ")
        assert fragment in str(excinfo.value)


class TestCausalViolationsExitOne:
    """Well-typed but causally inconsistent: exit 1, never 2."""

    def assert_exit_one(self, lines, tmp_path):
        flight = tmp_path / "inconsistent.ndjson"
        FlightRecord.loads(write(lines, flight))  # well-typed: it loads
        for action in ("summary", "critical-path"):
            code, out, err = quiet_main(["trace", action, str(flight), "--json"])
            assert code == 1 and err == "", action
            report = json.loads(out)
            counts = report["run"] if action == "summary" else report
            assert counts["causal_violations"] >= 1, action

    def test_delivery_disagreeing_with_its_send(self, tmp_path):
        lines = copy_of("alg1-fault")
        deliver = next(x for x in lines if x["type"] == "deliver")
        deliver["sent"] -= 1
        self.assert_exit_one(lines, tmp_path)

    def test_decision_citing_a_delivery_of_another_tick(self, tmp_path):
        lines = copy_of("alg1-fault")
        decide = next(
            x for x in lines
            if x["type"] == "decide" and x["cause"]["kind"] == "delivery"
        )
        earlier = next(
            x for x in lines if x["type"] == "deliver" and x["t"] < decide["t"]
        )
        decide["cause"]["i"] = earlier["i"]
        self.assert_exit_one(lines, tmp_path)
