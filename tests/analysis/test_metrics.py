"""Cost models vs measured traces."""

from repro.analysis import (
    expected_flood_deliveries,
    phase_count_table,
    predicted_costs,
)
from repro.consensus import algorithm1_factory, algorithm2_factory, run_consensus
from repro.graphs import complete_graph, cycle_graph, paper_figure_1a


class TestPredictions:
    def test_costs_for_c5(self):
        cm = predicted_costs(paper_figure_1a(), 1)
        assert cm.phases == 6
        assert cm.rounds_algorithm1 == 30
        assert cm.rounds_algorithm2 == 15
        assert cm.round_blowup == 2.0

    def test_costs_hybrid(self):
        cm = predicted_costs(complete_graph(4), 1, t=1)
        assert cm.phases == 9

    def test_phase_count_table_monotone(self):
        table = phase_count_table(10, 4)
        values = list(table.values())
        assert values == sorted(values)
        assert table[0] == 1
        assert table[1] == 11

    def test_exponential_blowup_visible(self):
        table = phase_count_table(20, 5)
        assert table[5] > 20_000


class TestMeasuredAgainstPredicted:
    def test_algorithm1_rounds_match(self):
        g = paper_figure_1a()
        cm = predicted_costs(g, 1)
        res = run_consensus(g, algorithm1_factory(g, 1), {v: v % 2 for v in g.nodes}, f=1)
        assert res.rounds == cm.rounds_algorithm1

    def test_algorithm2_rounds_within_3n(self):
        g = cycle_graph(4)
        cm = predicted_costs(g, 1)
        res = run_consensus(g, algorithm2_factory(g, 1), {v: 0 for v in g.nodes}, f=1)
        assert res.rounds <= cm.rounds_algorithm2

    def test_flood_deliveries_formula(self):
        g = cycle_graph(4)
        # Per pair: 2 simple paths; 12 ordered pairs; plus 4 trivial paths.
        assert expected_flood_deliveries(g) == 12 * 2 + 4

    def test_flood_deliveries_match_fault_free_phase(self):
        """In a fault-free Algorithm 1 run, each phase accepts exactly
        the predicted number of messages (all simple paths deliver)."""
        from repro.consensus import Algorithm1Protocol
        from repro.net import EventDrivenNetwork, local_broadcast_model

        g = cycle_graph(4)
        protos = {v: Algorithm1Protocol(g, v, 1, v % 2) for v in g.nodes}
        net = EventDrivenNetwork(g, protos, channel=local_broadcast_model())
        net.run(g.n)  # exactly one phase
        delivered = sum(len(p._flood.delivered) for p in protos.values())
        assert delivered == expected_flood_deliveries(g)
