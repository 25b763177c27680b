"""One picklable honest-protocol factory for every protocol kind.

Algorithms 1 and 3 (Section 5.1, Appendix D.2), Appendix C's Algorithm
2, the native asynchronous algorithm (arXiv:1909.02865), the
point-to-point EIG baselines and the rule-(ii) ablation are all built
the same way: a ``(node, input) → protocol`` callable whose instances
share one :class:`~repro.consensus.path_oracle.PathOracle`.
:data:`KINDS` names every kind once, with its protocol class and the
spec fields it takes beyond ``f``; :class:`ProtocolFactory` is the one
factory over that table.  Its ``flight_spec()`` is the recipe a flight
header records, and :func:`repro.analysis.factory_from_flight` rebuilds
it as ``ProtocolFactory(kind, graph, **spec-minus-kind)``.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Tuple

from ..graphs import Graph
from ..net.adversary import HonestFactory
from ..net.node import Protocol
from .ablation import AblatedExactConsensus
from .algorithm1 import Algorithm1Protocol, ExactConsensusProtocol
from .algorithm2 import Algorithm2Protocol
from .async_alg import AsyncConsensusProtocol
from .baselines import DolevEIGProtocol, EIGProtocol
from .path_oracle import PathOracle

#: Default of a spec field that has none: the field must be given.
REQUIRED = object()

#: kind -> (protocol class, spec fields beyond ``f`` with their defaults).
#: The class is called as ``cls(graph, node, f, input, oracle=…, **fields)``.
KINDS: Dict[str, Tuple[type, Dict[str, object]]] = {
    "algorithm1": (Algorithm1Protocol, {}),
    "algorithm2": (Algorithm2Protocol, {}),
    "algorithm3": (ExactConsensusProtocol, {"t": REQUIRED}),
    "async": (AsyncConsensusProtocol, {"patience": None}),
    "eig": (EIGProtocol, {}),
    "dolev-eig": (DolevEIGProtocol, {}),
    "ablated-algorithm1": (AblatedExactConsensus, {}),
}


class ProtocolFactory:
    """Picklable ``(node, input) → protocol`` factory for one :data:`KINDS` kind.

    All instances it builds share one :class:`PathOracle`, so per-graph
    path work (pruned graphs, BFS trees, disjoint-path families,
    localization plans) is done once per graph, not once per node.
    Being a plain class (not a closure), the factory crosses process
    boundaries: pickling it carries the warm oracle, whose own
    ``__reduce__`` ships only the structural memos, so sweep workers
    start warm.  Unknown or missing spec fields raise ``TypeError`` here,
    not at the first protocol built.
    """

    def __init__(self, kind: str, graph: Graph, f: int, **params):
        if kind not in KINDS:
            raise ValueError(
                f"unknown protocol kind {kind!r}; choose from {sorted(KINDS)}"
            )
        fields = KINDS[kind][1]
        for name in params:
            if name not in fields:
                raise TypeError(
                    f"{kind} got an unexpected keyword argument {name!r}"
                )
        self.params = {}
        for name in sorted(fields):
            value = params.get(name, fields[name])
            if value is REQUIRED:
                raise TypeError(f"{kind} missing required argument {name!r}")
            self.params[name] = value
        self.kind = kind
        self.graph = graph
        self.f = f
        self.oracle = PathOracle(graph)

    def __call__(self, node: Hashable, input_value: int) -> Protocol:
        return KINDS[self.kind][0](
            self.graph, node, self.f, input_value,
            oracle=self.oracle, **self.params,
        )

    def flight_spec(self) -> dict:
        """JSON-ready recipe for the flight recorder (the graph travels
        separately in the flight header)."""
        return {"kind": self.kind, "f": self.f, **self.params}


def flight_spec_of(factory: HonestFactory) -> dict:
    """``factory.flight_spec()``, or an opaque spec (replay refuses it)
    naming ``module.qualname``: unlike a default ``repr`` it has no
    memory address, so it is the same bytes in every worker process."""
    spec = getattr(factory, "flight_spec", None)
    if callable(spec):
        return spec()
    named = factory if hasattr(factory, "__qualname__") else type(factory)
    return {"kind": "opaque", "name": f"{named.__module__}.{named.__qualname__}"}


def algorithm1_factory(graph: Graph, f: int) -> ProtocolFactory:
    """Algorithm 1 (Section 5.1)."""
    return ProtocolFactory("algorithm1", graph, f)


def algorithm2_factory(graph: Graph, f: int) -> ProtocolFactory:
    """Algorithm 2, the O(n)-round algorithm (Appendix C)."""
    return ProtocolFactory("algorithm2", graph, f)


def algorithm3_factory(graph: Graph, f: int, t: int) -> ProtocolFactory:
    """Algorithm 3, hybrid model with ``t`` equivocators (Appendix D.2)."""
    return ProtocolFactory("algorithm3", graph, f, t=t)


def async_factory(
    graph: Graph, f: int, patience: Optional[int] = None
) -> ProtocolFactory:
    """The native asynchronous algorithm (arXiv:1909.02865)."""
    return ProtocolFactory("async", graph, f, patience=patience)


def eig_factory(graph: Graph, f: int) -> ProtocolFactory:
    """Point-to-point EIG on a complete graph."""
    return ProtocolFactory("eig", graph, f)


def dolev_eig_factory(graph: Graph, f: int) -> ProtocolFactory:
    """EIG over Dolev-style reliable transmission."""
    return ProtocolFactory("dolev-eig", graph, f)


def ablated_algorithm1_factory(graph: Graph, f: int) -> ProtocolFactory:
    """Algorithm 1 with flooding rule (ii) disabled."""
    return ProtocolFactory("ablated-algorithm1", graph, f)
