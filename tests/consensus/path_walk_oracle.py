"""Reference oracle for :class:`repro.consensus.PathFloodEngine`.

Enumerates every simple path with :func:`~repro.graphs.all_simple_paths`
and re-walks each one from its origin, applying every relay's rule in
turn — the definition the engine's backward search must reproduce
delivery for delivery, insertion order included.
"""

from typing import Dict, Hashable, Optional

from repro.consensus import PathFloodEngine
from repro.graphs import all_simple_paths


def value_along(engine: PathFloodEngine, path: tuple) -> Optional[int]:
    """The value delivered along ``path`` (origin first, receiver last),
    or ``None`` if some relay dropped it.

    A silent origin is substituted by its *neighbor* — the first hop —
    so the walk starts with the default value in that case, exactly
    mirroring the simulator's substitution rule.
    """
    value: Optional[int] = engine.effective_initial(path[0])
    for node in path[1:-1]:
        value = engine.behaviors[node].forward(value)
        if value is None:
            return None
    return value


def naive_deliveries_at(
    engine: PathFloodEngine, receiver: Hashable
) -> Dict[tuple, int]:
    """Every delivery at ``receiver``: the own path first, then each
    origin's simple paths in ``repr`` order of origins and in
    :func:`all_simple_paths` order within one origin."""
    graph = engine.graph
    out = {(receiver,): engine.effective_initial(receiver)}
    for origin in sorted(graph.nodes - {receiver}, key=repr):
        for path in all_simple_paths(graph, origin, receiver):
            value = value_along(engine, path)
            if value is not None:
                out[path] = value
    return out
