#!/usr/bin/env python3
"""The necessity proofs, executed: watch consensus break on a bad graph.

Lemma A.2's state-machine argument, live.  We take a graph whose
connectivity is exactly one short of the ⌊3f/2⌋ + 1 bound (two cliques
joined through a ⌊3f/2⌋-cut), build the covering network 𝒢 of Figure 3,
run our own Algorithm 1 on 𝒢, and project three executions onto the
real graph in which the faulty nodes replay copy transcripts:

* E1 (faults C²∪C³, all inputs 0)  → validity forces output 0;
* E3 (faults C¹∪C², all inputs 1)  → validity forces output 1;
* E2 (faults C¹∪C³, A holds 0, B holds 1) → sides A and B are each
  indistinguishable from E1/E3 respectively and *disagree*.

Run:  python examples/impossibility_demo.py
"""

from repro.consensus import algorithm1_factory, check_local_broadcast
from repro.graphs import low_connectivity_graph, vertex_connectivity
from repro.lowerbounds import connectivity_scenario, run_scenario


def main() -> None:
    f = 2
    graph = low_connectivity_graph(f)
    print(f"=== Deficient graph: n={graph.n}, kappa={vertex_connectivity(graph)}, "
          f"min degree {graph.min_in_degree()} ===")
    report = check_local_broadcast(graph, f)
    print(report)
    assert not report.feasible

    print("\n=== Building Figure 3's covering network ===")
    scenario = connectivity_scenario(graph, f)
    for key in ("A", "B", "C1", "C2", "C3"):
        print(f"  {key}: {sorted(scenario.notes[key])}")
    doubled = [u for u, copies in scenario.network.copies.items()
               if len(copies) == 2]
    print(f"  doubled nodes: {sorted(doubled)}")

    print("\n=== Running E on the covering network, then E1, E2, E3 ===")
    outcome = run_scenario(scenario, algorithm1_factory(graph, f))
    print(outcome.summary())

    e1, e2, e3 = outcome.executions
    print(f"\nE1 honest outputs: {e1.result.honest_outputs}")
    print(f"E3 honest outputs: {e3.result.honest_outputs}")
    print(f"E2 honest outputs: {e2.result.honest_outputs}")
    print(f"\nIndistinguishability verified: {outcome.fully_indistinguishable}")
    print("(every honest node in every execution produced the same output")
    print(" as the covering-network copy that models it)")

    assert outcome.violation_demonstrated
    assert e2.violated
    print("\nAgreement broke in E2, exactly as Lemma A.2 predicts: the")
    print("A-side cannot tell E2 from E1 and the B-side cannot tell it")
    print("from E3 — so no algorithm can work on this graph.")


if __name__ == "__main__":
    main()
