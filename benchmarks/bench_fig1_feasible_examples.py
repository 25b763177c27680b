"""FIG1 — Figure 1's example graphs satisfy the conditions and solve
consensus (Section 4 / Theorem 5.1).

Regenerates: the figure's claim that (a) the 5-cycle works for f = 1 and
(b) the 8-node example works for f = 2 — plus the end-to-end consensus
runs that make it operational.
"""

import pytest

from _tables import print_table
from repro.consensus import (
    algorithm1_factory,
    check_local_broadcast,
    run_consensus,
)
from repro.graphs import paper_figure_1a, paper_figure_1b, vertex_connectivity
from repro.net import TamperForwardAdversary


def fig1_rows():
    rows = []
    for name, graph, f in [
        ("Figure 1(a): C5", paper_figure_1a(), 1),
        ("Figure 1(b): C8(1,2)", paper_figure_1b(), 2),
    ]:
        report = check_local_broadcast(graph, f)
        rows.append(
            (
                name,
                f,
                graph.min_in_degree(),
                2 * f,
                vertex_connectivity(graph),
                (3 * f) // 2 + 1,
                "yes" if report.feasible else "NO",
            )
        )
    return rows


def run_fig1a():
    g = paper_figure_1a()
    return run_consensus(
        g, algorithm1_factory(g, 1), {v: v % 2 for v in g.nodes}, f=1,
        faulty=[3], adversary=TamperForwardAdversary(),
    )


def test_fig1_conditions(benchmark):
    rows = benchmark(fig1_rows)
    print_table(
        "Figure 1: example graphs vs Theorem 4.1 conditions",
        ["graph", "f", "min deg", "need", "kappa", "need", "feasible"],
        rows,
    )
    assert all(row[-1] == "yes" for row in rows)
    # Tightness: both graphs meet the degree bound with zero slack.
    assert rows[0][2] == rows[0][3]
    assert rows[1][2] == rows[1][3]


def test_fig1a_consensus_run(benchmark):
    result = benchmark.pedantic(run_fig1a, rounds=1, iterations=1)
    print_table(
        "Figure 1(a): Algorithm 1 vs a tampering fault",
        ["agreement", "validity", "rounds", "transmissions"],
        [(result.agreement, result.validity, result.rounds, result.transmissions)],
    )
    assert result.consensus


@pytest.mark.benchmark(warmup=False)
def test_fig1b_consensus_run(benchmark):
    def run():
        g = paper_figure_1b()
        return run_consensus(
            g, algorithm1_factory(g, 2), {v: v % 2 for v in g.nodes}, f=2,
            faulty=[2, 5], adversary=TamperForwardAdversary(),
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Figure 1(b): Algorithm 1 with two tampering faults",
        ["agreement", "validity", "rounds", "transmissions"],
        [(result.agreement, result.validity, result.rounds, result.transmissions)],
    )
    assert result.consensus
