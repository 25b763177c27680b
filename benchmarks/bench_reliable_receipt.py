"""RC — the §5.3 reliable-communication tool (Definition C.1, Lemma C.2).

Regenerates: on 2f-connected graphs, (a) every honest node reliably
receives every *faulty* node's value no matter the behavior (Lemma C.2),
and (b) honest nodes are either reliably received or never falsely
pinned — fault localization stays sound across the adversary battery.
"""

from _tables import print_table
from repro.consensus import algorithm2_factory
from repro.graphs import cycle_graph, paper_figure_1a
from repro.net import (
    EventDrivenNetwork,
    FaultSpec,
    local_broadcast_model,
    standard_adversaries,
)


def run_instrumented(graph, f, faulty_node, adversary):
    fac = algorithm2_factory(graph, f)
    ch = local_broadcast_model()
    protos = {}
    for v in sorted(graph.nodes):
        if v == faulty_node:
            spec = FaultSpec(
                node=v, graph=graph, channel=ch, input_value=1,
                f=f, faulty=frozenset({v}), honest_factory=fac,
            )
            protos[v] = adversary.build(spec)
        else:
            protos[v] = fac(v, v % 2)
    net = EventDrivenNetwork(graph, protos, channel=ch)
    net.run(3 * graph.n)
    return protos


def sweep(graph, f, faulty_node):
    rows = []
    for adversary in standard_adversaries(seed=21):
        protos = run_instrumented(graph, f, faulty_node, adversary)
        honest = sorted(set(graph.nodes) - {faulty_node})
        lemma_c2 = all(
            faulty_node in protos[v].reliable_values for v in honest
        )
        sound = all(protos[v].detected <= {faulty_node} for v in honest)
        localized = sum(
            1 for v in honest if protos[v].detected == {faulty_node}
        )
        outputs = {protos[v].output() for v in honest}
        rows.append(
            (
                adversary.name,
                "yes" if lemma_c2 else "NO",
                "yes" if sound else "NO",
                f"{localized}/{len(honest)}",
                "yes" if len(outputs) == 1 else "NO",
            )
        )
    return rows


def test_rc_lemma_c2_on_c4(benchmark):
    rows = benchmark.pedantic(sweep, args=(cycle_graph(4), 1, 2),
                              rounds=1, iterations=1)
    print_table(
        "Lemma C.2 / detection soundness on C4 (f=1, fault at node 2)",
        ["adversary", "reliably received", "detection sound",
         "nodes that localized", "agreement"],
        rows,
    )
    for row in rows:
        assert row[1] == "yes"  # Lemma C.2 holds under every behavior
        assert row[2] == "yes"  # no honest node ever framed
        assert row[4] == "yes"


def test_rc_on_c5(benchmark):
    rows = benchmark.pedantic(sweep, args=(paper_figure_1a(), 1, 0),
                              rounds=1, iterations=1)
    print_table(
        "Lemma C.2 / detection soundness on C5 (f=1, fault at node 0)",
        ["adversary", "reliably received", "detection sound",
         "nodes that localized", "agreement"],
        rows,
    )
    for row in rows:
        assert row[1] == "yes"
        assert row[2] == "yes"
        assert row[4] == "yes"
