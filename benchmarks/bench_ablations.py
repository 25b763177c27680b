"""ABL — ablations of the design choices DESIGN.md calls out.

Regenerates: (a) flooding rule (ii) is load-bearing — the same re-init
attack that is harmless under the paper's rules breaks validity when the
rule is removed; (b) Definition C.1's ``f + 1`` threshold is exactly the
safety margin — at ``f`` a single faulty relay forges reliable receipt.
"""

from _tables import print_table
from repro.consensus import (
    ablated_algorithm1_factory,
    algorithm1_factory,
    reliable_value,
    run_consensus,
)
from repro.consensus.ablation import ReInitAdversary
from repro.graphs import cycle_graph, paper_figure_1a
from repro.net import ValuePayload


def rule_ii_ablation():
    g = paper_figure_1a()
    inputs = {v: 0 for v in g.nodes}
    rows = []
    for label, factory in [
        ("rules (i)-(iv) intact", algorithm1_factory(g, 1)),
        ("rule (ii) removed", ablated_algorithm1_factory(g, 1)),
    ]:
        res = run_consensus(
            g, factory, inputs, f=1, faulty=[0], adversary=ReInitAdversary(2),
        )
        rows.append(
            (label, res.agreement, res.validity, str(res.honest_outputs))
        )
    return rows


def test_abl_rule_ii(benchmark):
    rows = benchmark.pedantic(rule_ii_ablation, rounds=1, iterations=1)
    print_table(
        "Ablation: flooding rule (ii) vs the late re-initiation attack "
        "(C5, all honest inputs 0)",
        ["variant", "agreement", "validity", "outputs"],
        rows,
    )
    intact, ablated = rows
    assert intact[1] and intact[2]          # paper's rules survive
    assert not (ablated[1] and ablated[2])  # ablated variant breaks


def threshold_ablation():
    g = cycle_graph(4)
    delivered = {
        (2, 3, 0): ValuePayload(1),  # honest path carries the true value
        (2, 1, 0): ValuePayload(0),  # single faulty relay forges 0
    }
    rows = []
    for threshold, label in [(2, "f + 1 (paper)"), (1, "f (ablated)")]:
        # f + 1 disjoint paths are required, so threshold k is f = k - 1.
        value = reliable_value(g, threshold - 1, 0, delivered, 2)
        rows.append((label, threshold, str(value)))
    return rows


def test_abl_c1_threshold(benchmark):
    rows = benchmark(threshold_ablation)
    print_table(
        "Ablation: Definition C.1 threshold under a single forged path "
        "(true value 1, forged value 0)",
        ["threshold", "paths required", "reliably received"],
        rows,
    )
    paper, ablated = rows
    assert paper[2] == "None"  # conflict detected, nothing accepted
    assert ablated[2] == "0"   # the forgery wins at threshold f
