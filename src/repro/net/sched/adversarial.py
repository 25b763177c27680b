"""A worst-case timing adversary within the model's physics.

The adversary controls *when* — never *what* or *to whom*: it assigns
each delivery a delay in ``{1, …, max_delay}`` subject to the base
class's FIFO-per-link clamp and (unlike the seeded scheduler) full
local-broadcast atomicity, the timing analogue of "received identically
by each of its neighbors".

Strategy — maximize disagreement windows.  Disagreement between honest
nodes persists as long as the information reconciling them is in
flight, so the adversary stretches exactly the traffic that crosses the
graph's sparsest information bottleneck:

1. at :meth:`bind`, take a minimum vertex cut and the two (or more)
   sides it separates (computed once per graph by
   :func:`bottleneck_sides`) — the paper's feasibility conditions
   (Theorems 4.1/5.1) make the cut *the* place where consensus is fragile;
2. every delivery whose sender and recipient lie on different sides, or
   that involves a cut node, takes ``max_delay`` ticks;
3. traffic within one side is delivered at unit delay, so each side
   converges *internally* as fast as possible — onto different states.

Broadcast atomicity then drags every broadcast by a boundary node up to
``max_delay`` (the slowest recipient sets the shared instant), which is
precisely the constraint's bite: the adversary cannot rush a broadcast
to one side while stalling it to the other.

For complete (cut-free) graphs the fallback bottleneck is the canonical
half-split of the repr-sorted node order; a *disconnected* graph is
partitioned component by component (each component gets its own
bottleneck analysis, with side labels offset so they never collide) —
half-splitting the whole node order there would let phantom
cross-component "deliveries" shape the delays of traffic that can
actually occur.  Everything is deterministic — the schedule is a pure
function of (graph, max_delay, window), so adversarial sweeps stay
byte-identical across runs and worker counts.

Window targeting (``window=W``): instead of flat ``max_delay``
stretching, bottleneck-crossing deliveries are timed to land exactly on
the α-synchronizer's activation ticks ``(r − 1)·W + 1`` — the latest
instant a window-``W`` synchronizer tolerates, so every such message is
maximally stale *when the synchronizer reads it* while still arriving
inside its soundness envelope (``W ≤ max_delay`` is enforced).
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Dict, Hashable, Mapping, Optional

from ...graphs import Graph, GraphError, is_strongly_connected, minimum_vertex_cut
from ..channels import ChannelModel
from .base import Scheduler
from .events import SendEvent

#: Side label for cut nodes (and anything else straddling the bottleneck).
_BOUNDARY = -1


class AdversarialScheduler(Scheduler):
    """Cut-straddling delays that keep the two sides maximally stale."""

    name = "adversarial"
    atomic_broadcast = True

    def __init__(
        self,
        max_delay: int = 3,
        window: Optional[int] = None,
        declare_bound: bool = True,
    ):
        if max_delay < 1:
            raise ValueError("max_delay must be >= 1")
        if window is not None and not 1 <= window <= max_delay:
            raise ValueError(
                f"window must be in [1, max_delay]; got {window} with "
                f"max_delay {max_delay}"
            )
        self.max_delay = max_delay
        self.window = window
        self.bounded = declare_bound

    @property
    def worst_case_delay(self) -> "int | None":
        return self.max_delay if self.bounded else None

    def bind(self, graph: Graph, channel: ChannelModel) -> None:
        super().bind(graph, channel)
        self._side = bottleneck_sides(graph)

    @staticmethod
    def _partition(graph: Graph) -> Dict[Hashable, int]:
        """Label each node with its bottleneck side (cut nodes: boundary)."""
        side: Dict[Hashable, int] = {}
        if graph.n and not is_strongly_connected(graph):
            # Partition each component on its own bottleneck.  Offsetting
            # the side labels keeps them distinct across components; the
            # cross-component pairs that end up "on different sides" name
            # deliveries no link can carry, so only the intra-component
            # structure ever reaches ``delay``.
            offset = 0
            for component in sorted(
                graph.connected_components(),
                key=lambda comp: repr(sorted(comp, key=repr)),
            ):
                sub_side = AdversarialScheduler._partition(
                    graph.remove_nodes(graph.nodes - component)
                )
                relabel: Dict[int, int] = {}
                for v in sorted(sub_side, key=repr):
                    label = sub_side[v]
                    if label == _BOUNDARY:
                        side[v] = _BOUNDARY
                        continue
                    if label not in relabel:
                        relabel[label] = offset + len(relabel)
                    side[v] = relabel[label]
                offset += len(relabel)
            return side
        try:
            cut = minimum_vertex_cut(graph)
        except GraphError:
            # Complete (cut-free): no proper vertex cut exists.  Fall
            # back to the canonical half-split of the node order.
            nodes = sorted(graph.nodes, key=repr)
            half = (len(nodes) + 1) // 2
            for i, v in enumerate(nodes):
                side[v] = 0 if i < half else 1
            return side
        for v in cut:
            side[v] = _BOUNDARY
        remainder = graph.remove_nodes(cut)
        components = sorted(
            remainder.connected_components(),
            key=lambda comp: repr(sorted(comp, key=repr)),
        )
        for index, component in enumerate(components):
            for v in component:
                side[v] = index
        return side

    def delay(self, send: SendEvent, recipient: Hashable) -> int:
        a = self._side.get(send.sender, _BOUNDARY)
        b = self._side.get(recipient, _BOUNDARY)
        if not (a == _BOUNDARY or b == _BOUNDARY or a != b):
            return 1
        if self.window:
            # Land exactly on the next α-schedule activation tick
            # (r−1)·W + 1: the smallest d ≥ 1 with send.time + d ≡ 1
            # (mod W).  d ≤ W ≤ max_delay, so the declared bound holds.
            d = (1 - send.time) % self.window
            return d if d else self.window
        return self.max_delay


@lru_cache(maxsize=512)
def bottleneck_sides(graph: Graph) -> Mapping[Hashable, int]:
    """The adversary's side labels for ``graph``, computed once per graph.

    The partition is a pure function of the (immutable, hashable) graph,
    and every run binds a fresh scheduler to it, so the minimum vertex
    cut behind it is computed once, not once per run.  Memoized behind a
    module-level LRU, like
    :func:`~repro.graphs.connectivity.vertex_connectivity`; the mapping
    is read-only because every scheduler bound to the graph shares it.
    A digraph is cut on its symmetric closure (on a ``Graph``, itself).
    """
    closure = graph.to_undirected()
    return MappingProxyType(AdversarialScheduler._partition(closure))
