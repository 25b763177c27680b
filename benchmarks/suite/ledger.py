"""Outside-in layer ledger: per-layer self time from boundary spans.

The ledger wraps public callables at each layer boundary of ``repro``
with ``perf_counter`` spans and keeps one stack of open spans, so a
layer's *self* time is its spans' inclusive time minus the part covered
by spans nested inside them.  Aggregates live in memory (one
``[self_seconds, calls]`` cell per layer, plus counters read off return
values) and are read once the traced section ends.

Nothing in ``src/`` is changed: :meth:`Ledger.install` swaps attributes
on the live modules and classes, and :meth:`Ledger.uninstall` puts the
originals back.  A module-level function is replaced in every
``repro.*`` module that bound it by name (``runner`` imports
``flight_from_trace`` that way).  A boundary that no longer exists is
skipped with a warning, so a refactor that moves one never breaks the
benchmark — it only drops that layer's numbers to zero.

:func:`fold_profile` is the independent cross-check: stdlib ``cProfile``
tottime aggregated per ``repro`` module.
"""

from __future__ import annotations

import functools
import sys
import warnings
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple


def _event_count(record) -> int:
    return len(record.events)


#: ``(layer, module, qualname, counter)``: the callables timed as each
#: layer, and an optional ``(name, fn)`` counting work in the return value.
BOUNDARIES: Tuple[Tuple[str, str, str, Optional[Tuple[str, Callable]]], ...] = (
    ("net.simulator", "repro.net.simulator", "SynchronousNetwork.step", None),
    ("net.sched", "repro.net.sched.base", "EventDrivenNetwork.step", None),
    ("net.sched", "repro.net.sched.base", "Scheduler.schedule", None),
    ("consensus.runner", "repro.consensus.runner", "run_consensus", None),
    ("consensus.algorithm1", "repro.consensus.algorithm1",
     "ExactConsensusProtocol.on_round", None),
    ("consensus.algorithm2", "repro.consensus.algorithm2",
     "Algorithm2Protocol.on_round", None),
    ("consensus.async_alg", "repro.consensus.async_alg",
     "AsyncConsensusProtocol.on_round", None),
    ("consensus.flooding", "repro.consensus.flooding",
     "FloodInstance.initiate", None),
    ("consensus.flooding", "repro.consensus.flooding",
     "FloodInstance.process_round", None),
    ("consensus.reliable.claim_index", "repro.consensus.reliable",
     "ClaimIndex.__init__", None),
    ("consensus.reliable.detect_faults", "repro.consensus.reliable",
     "detect_faults", None),
    ("consensus.reliable.receipt", "repro.consensus.reliable",
     "reliable_value", None),
    ("consensus.reliable.receipt", "repro.consensus.reliable",
     "reliable_payload", None),
    ("consensus.path_oracle", "repro.consensus.path_oracle",
     "PathOracle.path_excluding", None),
    ("consensus.path_oracle", "repro.consensus.path_oracle",
     "PathOracle.paths_excluding_many", None),
    ("consensus.path_oracle", "repro.consensus.path_oracle",
     "PathOracle.disjoint_paths_excluding", None),
    ("consensus.path_oracle", "repro.consensus.path_oracle",
     "PathOracle.disjoint_paths_between", None),
    ("consensus.path_engine", "repro.consensus.path_engine",
     "PathFloodEngine.deliveries_at", ("path_engine.deliveries", len)),
    ("graphs.connectivity", "repro.graphs.connectivity",
     "max_disjoint_paths", None),
    ("graphs.connectivity", "repro.graphs.connectivity",
     "vertex_connectivity", None),
    ("analysis.sweep", "repro.analysis.sweep", "consensus_sweep", None),
    ("obs.trace", "repro.obs.trace", "flight_from_trace",
     ("obs.trace.events", _event_count)),
    ("obs.trace", "repro.obs.trace", "FlightRecord.to_ndjson",
     ("obs.trace.bytes", len)),
    ("obs.registry", "repro.obs.registry", "MetricsRegistry.snapshot", None),
    ("obs.registry", "repro.obs.registry", "merge_snapshots", None),
)

#: Faulty-node wrappers: every ``Protocol`` subclass with its own
#: ``on_round`` in a ``repro.net.adversary*`` module (nested classes
#: included) is timed as this layer.
ADVERSARY_LAYER = ("net.adversary", "repro.net.adversary")


class Ledger:
    """Per-layer self time and call counts, plus boundary counters."""

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self._clock = clock
        self._stack: List[List[float]] = []
        #: layer -> [self seconds, calls]
        self.cells: Dict[str, List[float]] = {}
        #: layer -> defining module (for the cProfile cross-check)
        self.modules: Dict[str, str] = {}
        self.counts: Dict[str, int] = {}
        self._patches: List[Tuple[object, str, object, bool]] = []

    # -- spans ---------------------------------------------------------
    def _cell(self, layer: str) -> List[float]:
        cell = self.cells.get(layer)
        if cell is None:
            cell = self.cells[layer] = [0.0, 0]
        return cell

    def timed(self, layer: str, fn: Callable, counter=None) -> Callable:
        """``fn`` wrapped in a span booked to ``layer``."""
        cell = self._cell(layer)
        stack = self._stack
        counts = self.counts
        clock = self._clock

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                cell[0] += elapsed - frame[0]
                cell[1] += 1
                if stack:
                    stack[-1][0] += elapsed
            if counter is not None:
                name, count = counter
                counts[name] = counts.get(name, 0) + count(result)
            return result

        return span

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """A span around a region of the benchmark's own code."""
        cell = self._cell(layer)
        frame = [0.0]
        self._stack.append(frame)
        start = self._clock()
        try:
            yield
        finally:
            elapsed = self._clock() - start
            self._stack.pop()
            cell[0] += elapsed - frame[0]
            cell[1] += 1
            if self._stack:
                self._stack[-1][0] += elapsed

    def self_seconds(self, layer: str) -> float:
        cell = self.cells.get(layer)
        return cell[0] if cell else 0.0

    def calls(self, layer: str) -> int:
        cell = self.cells.get(layer)
        return int(cell[1]) if cell else 0

    # -- patching ------------------------------------------------------
    def _patch(self, owner: object, attr: str, value: object) -> None:
        had = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, value)

    def install(self, boundaries=BOUNDARIES, adversary=ADVERSARY_LAYER) -> None:
        """Wrap every boundary that exists in the loaded ``repro``."""
        for layer, module_name, qualname, counter in boundaries:
            module = sys.modules.get(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                warnings.warn(
                    f"trace boundary {module_name}:{qualname} not found; "
                    "its layer is skipped",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            self.modules.setdefault(layer, module_name)
            wrapped = self.timed(layer, original, counter)
            if owner_name:
                self._patch(owner, attr, wrapped)
            else:
                for loaded in _repro_modules():
                    for name, value in list(vars(loaded).items()):
                        if value is original:
                            self._patch(loaded, name, wrapped)
        if adversary is not None:
            self._install_adversaries(*adversary)

    def _install_adversaries(self, layer: str, prefix: str) -> None:
        node = sys.modules.get("repro.net.node")
        protocol = getattr(node, "Protocol", None)
        if protocol is None:
            warnings.warn("repro.net.node.Protocol not found; the adversary "
                          "layer is skipped", RuntimeWarning, stacklevel=3)
            return
        self.modules.setdefault(layer, prefix)
        seen = set()
        for module in _repro_modules():
            if not module.__name__.startswith(prefix):
                continue
            for cls in _classes_in(module):
                if cls in seen or not issubclass(cls, protocol):
                    continue
                seen.add(cls)
                if "on_round" in vars(cls):
                    self._patch(
                        cls, "on_round", self.timed(layer, vars(cls)["on_round"])
                    )

    def uninstall(self) -> None:
        """Restore every patched attribute (newest first)."""
        while self._patches:
            owner, attr, original, had = self._patches.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @contextmanager
    def installed(self) -> Iterator["Ledger"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


class NullLedger:
    """Tracing off: the benchmark's own spans cost nothing."""

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        yield


NULL_LEDGER = NullLedger()


def _repro_modules() -> List[object]:
    return [
        sys.modules[name]
        for name in sorted(sys.modules)
        if (name == "repro" or name.startswith("repro."))
        and sys.modules[name] is not None
    ]


def _classes_in(module) -> List[type]:
    """Classes defined at module level and one level of nesting."""
    found: List[type] = []
    for value in list(vars(module).values()):
        if isinstance(value, type) and value.__module__ == module.__name__:
            found.append(value)
            for inner in list(vars(value).values()):
                if isinstance(inner, type):
                    found.append(inner)
    return found


# ---------------------------------------------------------------------------
# cProfile cross-check
# ---------------------------------------------------------------------------


def profile_module(filename: str, bench_dir: str) -> Optional[str]:
    """``repro`` module (minus the ``repro.`` prefix) of a profiled frame,
    ``"bench"`` for the benchmark's own files, ``None`` for everything
    else (built-ins, ``<string>``-compiled dataclass methods, stdlib)."""
    path = filename.replace("\\", "/")
    marker = "/src/repro/"
    if marker in path and path.endswith(".py"):
        dotted = path.split(marker, 1)[1][: -len(".py")].replace("/", ".")
        if dotted.endswith("__init__"):
            dotted = dotted[: -len("__init__")].rstrip(".") or "repro"
        return dotted
    if path.startswith(bench_dir.replace("\\", "/") + "/"):
        return "bench"
    return None


def fold_profile(stats: dict, bench_dir: str) -> Dict[str, float]:
    """Tottime per module with foreign frames folded into their callers.

    ``stats`` is ``pstats.Stats(...).stats``.  A frame outside ``repro``
    — ``{built-in ...}``, a ``<string>`` dataclass ``__hash__``/``__eq__``
    or a stdlib function — hands its tottime up to its callers in
    proportion to the time each caller spent in it, repeatedly, until it
    reaches a ``repro`` (or benchmark) frame.  Without the fold cProfile
    books the hashing of frozen dataclasses to ``builtins.hash``.
    """
    totals: Dict[str, float] = {}

    def add(module: str, amount: float) -> None:
        totals[module] = totals.get(module, 0.0) + amount

    def fold(func, amount: float, path: frozenset) -> None:
        module = profile_module(func[0], bench_dir)
        if module is not None:
            add(module, amount)
            return
        # Recursive foreign frames (repr -> __repr__ -> repr ...) call
        # each other in cycles; a caller already on the path is skipped.
        callers = stats.get(func, (0, 0, 0.0, 0.0, {}))[4]
        weights = {
            c: v[3] or v[2] for c, v in callers.items() if c not in path
        }
        total = sum(weights.values())
        if total <= 0:
            add("other", amount)
            return
        for caller in sorted(weights, key=repr):
            fold(caller, amount * weights[caller] / total, path | {caller})

    for func in sorted(stats, key=repr):
        tottime = stats[func][2]
        if tottime > 0:
            fold(func, tottime, frozenset((func,)))
    return totals
