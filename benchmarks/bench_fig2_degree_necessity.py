"""FIG2 — Lemma A.1 / Figure 2: degree < 2f makes consensus impossible.

Regenerates: the covering-network construction on degree-deficient
graphs, the three projected executions, and the forced agreement
violation in E2 — while the same pipeline has nothing to attack on
condition-satisfying graphs.
"""

from _tables import print_table
from repro.consensus import algorithm1_factory
from repro.graphs import GraphError, paper_figure_1a, path_graph, star_graph
from repro.lowerbounds import degree_scenario, run_scenario


CASES = [
    ("P3 (ends deg 1)", path_graph(3), 1),
    ("P4", path_graph(4), 1),
    ("star K_{1,3}", star_graph(3), 1),
]


def run_all():
    rows = []
    for name, graph, f in CASES:
        scenario = degree_scenario(graph, f)
        outcome = run_scenario(scenario, algorithm1_factory(graph, f))
        flags = ["V" if e.violated else "ok" for e in outcome.executions]
        rows.append(
            (
                name,
                f,
                graph.min_in_degree(),
                2 * f,
                *flags,
                "yes" if outcome.violation_demonstrated else "NO",
                "yes" if outcome.fully_indistinguishable else "NO",
            )
        )
    return rows


def test_fig2_degree_necessity(benchmark):
    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print_table(
        "Figure 2 / Lemma A.1: degree-deficient graphs break in E2",
        ["graph", "f", "min deg", "need", "E1", "E2", "E3", "violated",
         "indist."],
        rows,
    )
    for row in rows:
        assert row[-2] == "yes"  # violation demonstrated
        assert row[-1] == "yes"  # honest nodes matched their model copies
        assert row[5] == "V"     # and the break lands in E2


def test_fig2_no_scenario_on_feasible_graph(benchmark):
    def attempt():
        try:
            degree_scenario(paper_figure_1a(), 1)
            return False
        except GraphError:
            return True

    rejected = benchmark(attempt)
    print_table(
        "Control: Figure 1(a) admits no degree scenario",
        ["graph", "scenario rejected"],
        [("C5 (f=1)", rejected)],
    )
    assert rejected
