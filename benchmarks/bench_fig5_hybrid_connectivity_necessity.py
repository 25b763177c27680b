"""FIG5 — Lemma D.2 / Figure 5: hybrid connectivity ≤ ⌊3(f−t)/2⌋ + 2t is
fatal.

Regenerates: the five-way cut partition (C¹, C², C³, R, T), the covering
network with doubled A/B/R/T, equivocating replays in all three
executions, and the forced violation in E2.
"""

from _tables import print_table
from repro.consensus import algorithm3_factory
from repro.graphs import Graph, vertex_connectivity
from repro.lowerbounds import connectivity_scenario, run_scenario


def two_k4_sharing_two():
    edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    edges += [(a, b) for a in [2, 3, 4, 5] for b in [2, 3, 4, 5] if a < b]
    return Graph(range(6), edges)


def two_k5_sharing_three():
    edges = [(a, b) for a in range(5) for b in range(a + 1, 5)]
    edges += [(a, b) for a in [2, 3, 4, 5, 6] for b in [2, 3, 4, 5, 6] if a < b]
    return Graph(range(7), edges)


CASES = [
    ("two K4 sharing 2", two_k4_sharing_two(), 1, 1),   # kappa 2 < 3
    ("two K5 sharing 3", two_k5_sharing_three(), 2, 1),  # kappa 3 < 4
]


def run_all():
    rows = []
    for name, graph, f, t in CASES:
        scenario = connectivity_scenario(graph, f, t)
        outcome = run_scenario(scenario, algorithm3_factory(graph, f, t))
        need = (3 * (f - t)) // 2 + 2 * t + 1
        flags = ["V" if e.violated else "ok" for e in outcome.executions]
        rows.append(
            (
                name,
                f,
                t,
                vertex_connectivity(graph),
                need,
                *flags,
                "yes" if outcome.violation_demonstrated else "NO",
                "yes" if outcome.fully_indistinguishable else "NO",
            )
        )
    return rows


def test_fig5_hybrid_connectivity_necessity(benchmark):
    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print_table(
        "Figure 5 / Lemma D.2: hybrid cut-limited graphs break in E2",
        ["graph", "f", "t", "kappa", "need", "E1", "E2", "E3",
         "violated", "indist."],
        rows,
    )
    for row in rows:
        assert row[-2] == "yes"
        assert row[-1] == "yes"
        assert row[6] == "V"
