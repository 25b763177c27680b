"""Property tests: the bitmask fast paths decide exactly like the
label-space implementations they replaced.

Three oracles are kept in this file or in the shipped tree:

* ``LegacyFlood`` below is the pre-refactor :class:`FloodInstance`
  acceptance logic (hash-and-walk ``is_path``, label-space rule-(ii)
  slots) — hypothesis feeds both implementations identical adversarial
  message streams and the delivered dicts, per-origin sub-indexes and
  metric snapshots must match byte for byte;
* :meth:`PathFloodEngine.naive_deliveries_at` is the retained
  enumerate-and-rewalk reference for the prefix-sharing DFS;
* :func:`has_disjoint_path_packing` is the frozenset twin of the mask
  packing, and a fresh :func:`reliable_payload` call is the oracle for
  :class:`ReceiptTracker`'s incremental verdicts.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consensus import (
    FloodInstance,
    NodeBehavior,
    PathFloodEngine,
    reliable_payload,
)
from repro.consensus.reliable import ReceiptTracker
from repro.graphs import (
    all_simple_paths,
    cycle_graph,
    has_disjoint_mask_packing,
    has_disjoint_path_packing,
    is_path,
    max_disjoint_path_packing,
    paper_figure_1a,
    wheel_graph,
)
from repro.net import (
    Context,
    FloodMessage,
    ValuePayload,
    local_broadcast_model,
)
from repro.obs import NULL_METRICS, MetricsRegistry

BATTERY = [
    ("cycle:4", cycle_graph(4)),
    ("cycle:5", cycle_graph(5)),
    ("wheel:5", wheel_graph(5)),
    ("wheel:6", wheel_graph(6)),
    ("fig1a", paper_figure_1a()),
]


def ctx_for(graph, node, round_no, inbox, metrics=NULL_METRICS):
    return Context(
        node=node,
        graph=graph,
        round_no=round_no,
        channel=local_broadcast_model(),
        inbox=inbox,
        metrics=metrics,
    )


class LegacyFlood:
    """The pre-refactor acceptance logic, verbatim: label-space rule
    checks, ``(sender, Π)`` tuple slots, per-accept gauge updates."""

    def __init__(self, graph, me, phase, default_payload=None,
                 validator=None, enable_rule_ii=True):
        self.graph = graph
        self.me = me
        self.phase = phase
        self.default_payload = default_payload
        self.validator = validator
        self.enable_rule_ii = enable_rule_ii
        self.delivered = {}
        self._seen = set()
        self._defaults_applied = False

    def initiate(self, ctx, payload):
        self.delivered[(self.me,)] = payload
        ctx.broadcast(FloodMessage(self.phase, payload, ()))
        ctx.metrics.inc("flood.initiated", phase=self.phase)

    def process_round(self, ctx):
        accepted = 0
        for sender, message in ctx.inbox:
            if not isinstance(message, FloodMessage) or message.phase != self.phase:
                continue
            if self._accept(ctx, sender, message):
                accepted += 1
        if not self._defaults_applied:
            self._defaults_applied = True
            if self.default_payload is not None:
                for nbr in sorted(self.graph.neighbors(self.me), key=repr):
                    substitute = FloodMessage(self.phase, self.default_payload, ())
                    if self._accept(ctx, nbr, substitute):
                        accepted += 1
                        ctx.metrics.inc(
                            "flood.default_substituted", phase=self.phase
                        )
        return accepted

    def _accept(self, ctx, sender, message):
        metrics = ctx.metrics
        extended = message.extended_by(sender)
        if not is_path(self.graph, extended):
            metrics.inc("flood.rejected", phase=self.phase, rule="i")
            return False
        if self.me in message.path:
            metrics.inc("flood.rejected", phase=self.phase, rule="iii")
            return False
        if self.validator is not None and not self.validator(
            message.payload, extended
        ):
            metrics.inc("flood.rejected", phase=self.phase, rule="validator")
            return False
        key = (sender, message.path)
        if self.enable_rule_ii:
            if key in self._seen:
                metrics.inc("flood.rejected", phase=self.phase, rule="ii")
                return False
            self._seen.add(key)
        self.delivered[extended + (self.me,)] = message.payload
        ctx.broadcast(FloodMessage(self.phase, message.payload, extended))
        metrics.inc("flood.accepted", phase=self.phase)
        metrics.gauge_max(
            "flood.path_set.max", len(self.delivered), phase=self.phase
        )
        return True

    def paths_from(self, origin):
        return {
            p: payload for p, payload in self.delivered.items() if p[0] == origin
        }


@st.composite
def message_streams(draw):
    """(graph, me, options, rounds-of-inboxes): a mix of genuine
    forwarded traffic (random walks), the empty initiation path, junk
    sequences with off-graph labels, duplicate slots, and wrong-phase
    noise — every branch of rules (i)-(iv)."""
    name, graph = draw(st.sampled_from(BATTERY))
    nodes = sorted(graph.nodes)
    me = draw(st.sampled_from(nodes))
    nbrs = sorted(graph.neighbors(me))
    rounds = []
    for round_no in range(draw(st.integers(1, 3))):
        inbox = []
        for _ in range(draw(st.integers(0, 7))):
            sender = draw(st.sampled_from(nbrs))
            kind = draw(st.integers(0, 5))
            if kind <= 1:
                path = ()
            elif kind <= 3:
                walk = [draw(st.sampled_from(nodes))]
                for _ in range(draw(st.integers(0, 3))):
                    walk.append(
                        draw(st.sampled_from(sorted(graph.neighbors(walk[-1]))))
                    )
                path = tuple(walk)
            else:
                path = tuple(
                    draw(st.lists(st.integers(0, len(nodes)), max_size=4))
                )
            phase = draw(st.sampled_from(["p", "p", "p", "q"]))
            value = draw(st.integers(0, 1))
            inbox.append((sender, FloodMessage(phase, ValuePayload(value), path)))
        rounds.append(inbox)
    default = draw(st.sampled_from([None, ValuePayload(1)]))
    use_validator = draw(st.booleans())
    rule_ii = draw(st.booleans())
    initiate = draw(st.booleans())
    return graph, me, default, use_validator, rule_ii, initiate, rounds


class TestFloodEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(message_streams())
    def test_bitmask_flood_matches_legacy(self, stream):
        """Identical adversarial inboxes → identical delivered dicts
        (insertion order included), per-origin sub-indexes, accepted
        counts and metric snapshots."""
        graph, me, default, use_validator, rule_ii, initiate, rounds = stream
        validator = (
            (lambda payload, path: getattr(payload, "value", None) != 1)
            if use_validator
            else None
        )
        new_metrics, old_metrics = MetricsRegistry(), MetricsRegistry()
        new = FloodInstance(
            graph, me, phase="p", default_payload=default,
            validator=validator, enable_rule_ii=rule_ii,
        )
        old = LegacyFlood(
            graph, me, phase="p", default_payload=default,
            validator=validator, enable_rule_ii=rule_ii,
        )
        round_no = 1
        if initiate:
            new.initiate(ctx_for(graph, me, 1, [], new_metrics), ValuePayload(0))
            old.initiate(ctx_for(graph, me, 1, [], old_metrics), ValuePayload(0))
            round_no = 2
        for inbox in rounds:
            nctx = ctx_for(graph, me, round_no, list(inbox), new_metrics)
            octx = ctx_for(graph, me, round_no, list(inbox), old_metrics)
            assert new.process_round(nctx) == old.process_round(octx)
            sent = [o.message for o in nctx.outbox]
            assert sent == [o.message for o in octx.outbox]
            round_no += 1
        assert new.delivered == old.delivered
        assert list(new.delivered) == list(old.delivered)
        assert new_metrics.snapshot() == old_metrics.snapshot()
        for origin in sorted(graph.nodes, key=repr):
            assert new.paths_from(origin) == old.paths_from(origin)
            assert list(new.paths_from(origin)) == list(old.paths_from(origin))
            assert new.origin_count(origin) == len(old.paths_from(origin))

    @settings(max_examples=60, deadline=None)
    @given(message_streams())
    def test_path_mask_matches_label_sets(self, stream):
        """Every recorded visited-set mask decodes to exactly the path's
        node set."""
        graph, me, default, _, rule_ii, initiate, rounds = stream
        flood = FloodInstance(
            graph, me, phase="p", default_payload=default,
            enable_rule_ii=rule_ii,
        )
        round_no = 1
        if initiate:
            flood.initiate(ctx_for(graph, me, 1, []), ValuePayload(0))
            round_no = 2
        for inbox in rounds:
            flood.process_round(ctx_for(graph, me, round_no, list(inbox)))
            round_no += 1
        index = graph.node_index()
        for path in flood.delivered:
            assert flood.path_mask(path) == index.mask_of(path)


BEHAVIOR_MAKERS = [
    NodeBehavior.honest,
    NodeBehavior.lying_init,
    NodeBehavior.tamper_forward,
    NodeBehavior.drop_forward,
    lambda value: NodeBehavior.silent(),
]


class TestEngineEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(BATTERY),
        st.integers(0, 10**6),
    )
    def test_prefix_dfs_matches_naive_walk(self, battery, seed):
        """The prefix-sharing DFS delivers exactly what enumerating all
        simple paths and re-walking each one delivers — same keys, same
        values, same insertion order — under every behavior mix."""
        name, graph = battery
        nodes = sorted(graph.nodes, key=repr)
        behaviors = {}
        for i, v in enumerate(nodes):
            maker = BEHAVIOR_MAKERS[(seed // (5**i)) % len(BEHAVIOR_MAKERS)]
            behaviors[v] = maker(i % 2)
        engine = PathFloodEngine(graph, behaviors)
        for receiver in nodes:
            fast = engine.deliveries_at(receiver)
            naive = engine.naive_deliveries_at(receiver)
            assert fast == naive
            assert list(fast) == list(naive)

    def test_dfs_metrics_track_deliveries_and_prunes(self):
        graph = cycle_graph(5)
        behaviors = {v: NodeBehavior.honest(v % 2) for v in graph.nodes}
        behaviors[2] = NodeBehavior.drop_forward(0)
        metrics = MetricsRegistry()
        engine = PathFloodEngine(graph, behaviors, metrics=metrics)
        out = engine.deliveries_at(0)
        counters = metrics.snapshot()["counters"]
        assert counters["path_engine.paths_delivered"] == len(out) - 1
        assert counters["path_engine.prefixes_pruned"] > 0
        assert metrics.snapshot()["gauges"]["path_engine.path_set.max"] == len(out)


def drive_flood(graph, me, inputs):
    """Run one full fault-free flood phase at ``me`` through the
    simulator contract: initiation round, then n rounds of everyone's
    honest forwarding, computed via the analytic engine's delivery set
    (identical traffic, no scheduler needed)."""
    flood = FloodInstance(graph, me, phase="p")
    flood.initiate(ctx_for(graph, me, 1, []), ValuePayload(inputs[me]))
    engine = PathFloodEngine(
        graph, {v: NodeBehavior.honest(inputs[v]) for v in graph.nodes}
    )
    # Feed deliveries as the messages that would produce them: a path
    # (o, ..., u, me) arrives from neighbor u carrying path (o, ..).
    pending = [
        (path, value)
        for path, value in engine.deliveries_at(me).items()
        if len(path) >= 2
    ]
    # Shorter paths arrive earlier; ties in canonical order (that is the
    # deterministic synchronous schedule).
    pending.sort(key=lambda pv: (len(pv[0]), tuple(map(repr, pv[0]))))
    return flood, pending


class TestReceiptTracker:
    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(BATTERY), st.integers(0, 10**6))
    def test_incremental_verdicts_match_fresh_calls(self, battery, seed):
        """After every delivery burst, the tracker's verdict for every
        origin equals a fresh ``reliable_payload`` call, and re-asking
        without new deliveries serves the cached verdict (counted under
        ``reliable.dirty_skips``) without changing it."""
        name, graph = battery
        nodes = sorted(graph.nodes, key=repr)
        me = nodes[seed % len(nodes)]
        inputs = {v: (seed >> i) & 1 for i, v in enumerate(nodes)}
        flood, pending = drive_flood(graph, me, inputs)
        tracker = ReceiptTracker(graph, 1, me, flood)
        # Deliver in bursts; check the tracker between bursts.
        burst = max(1, len(pending) // 3)
        round_no = 2
        while True:
            chunk, pending = pending[:burst], pending[burst:]
            inbox = [
                (path[-2], FloodMessage("p", ValuePayload(value), path[:-2]))
                for path, value in chunk
            ]
            flood.process_round(ctx_for(graph, me, round_no, inbox))
            round_no += 1
            for origin in nodes:
                fresh = reliable_payload(
                    graph, 1, me, flood.paths_from(origin), origin
                )
                metrics = MetricsRegistry()
                assert tracker.payload_from(origin, metrics=metrics) == fresh
                # Second ask with no new deliveries: cached, one skip.
                again = MetricsRegistry()
                assert tracker.payload_from(origin, metrics=again) == fresh
                assert again.snapshot()["counters"] == {
                    "reliable.dirty_skips": 1
                }
            if not pending:
                break


def path_pool(graph, u, v, cap=14):
    pool = []
    for path in all_simple_paths(graph, u, v):
        pool.append(tuple(path))
        if len(pool) >= cap:
            break
    return pool


class TestMaskPacking:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(BATTERY), st.integers(0, 10**6), st.integers(1, 4))
    def test_mask_packing_matches_frozenset_packing(self, battery, seed, k):
        """``has_disjoint_mask_packing`` over interior-node masks decides
        exactly like the frozenset packing (and brackets the exact
        maximum packing) on real uv-path pools."""
        name, graph = battery
        nodes = sorted(graph.nodes, key=repr)
        u = nodes[seed % len(nodes)]
        v = nodes[(seed // 7) % len(nodes)]
        if u == v:
            return
        pool = path_pool(graph, u, v)
        # Drop a pseudo-random subset so pools of every shape appear.
        pool = [p for i, p in enumerate(pool) if (seed >> i) & 1 or i == 0]
        index = graph.node_index()
        masks = [index.interior_mask(p) for p in pool]
        expected = has_disjoint_path_packing(pool, k, mode="uv")
        assert has_disjoint_mask_packing(masks, k) == expected
        best = max_disjoint_path_packing(pool, mode="uv")
        assert has_disjoint_mask_packing(masks, best)
        assert not has_disjoint_mask_packing(masks, best + 1)
