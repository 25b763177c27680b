#!/usr/bin/env python3
"""Wireless-inspired scenario: the efficient algorithm on a radio mesh.

The local broadcast model is motivated by radio networks (Koo PODC'04,
Bhandari-Vaidya PODC'05): every transmission is overheard by all radio
neighbors, so a Byzantine station cannot whisper different bits to
different neighbors.  This example builds a mesh of stations (a
circulant "ring of radios" — each station hears its 2 nearest neighbors
per side), checks 2f-connectivity, and runs Algorithm 2 (Appendix C):

* one station is Byzantine and tampers relayed values;
* honest stations localize the faulty station from overheard reports
  (becoming "type A") and agree within the 3n-round budget.

Radio links are not always reciprocal: transmit power and terrain can
make station u audible to station v but not vice versa.  The second
half of the example re-runs the same scenario on a *true digraph* — the
mesh's symmetric lift, which must agree with the undirected emulation
outcome-for-outcome — and then on a genuinely one-way relay ring, where
feasibility itself moves: the directed max f is strictly below the
symmetric closure's.

Run:  python examples/radio_network.py
"""

from repro.consensus import (
    algorithm2_factory,
    check_local_broadcast,
    max_f_local_broadcast,
)
from repro.consensus.runner import run_consensus
from repro.graphs import (
    circulant_graph,
    is_k_connected,
    vertex_connectivity,
    oneway_ring,
)
from repro.net import EventDrivenNetwork, FaultSpec, TamperForwardAdversary
from repro.net.channels import local_broadcast_model


def main() -> None:
    f = 1
    n = 6
    mesh = circulant_graph(n, [1, 2])  # each radio hears 4 neighbors
    print(f"=== Radio mesh: {n} stations, degree {mesh.min_in_degree()} ===")
    print(f"2f-connected (f={f}): {is_k_connected(mesh, 2 * f)}")
    print(check_local_broadcast(mesh, f))

    inputs = {v: (0 if v < 3 else 1) for v in mesh.nodes}
    byzantine = 2
    print(f"\ninputs: {inputs}; Byzantine station: {byzantine} (tampers relays)")

    # Run with direct access to protocol state so we can show the fault
    # localization (type A/B machinery) the paper describes in Appendix C.
    channel = local_broadcast_model()
    factory = algorithm2_factory(mesh, f)
    adversary = TamperForwardAdversary()
    protocols = {}
    for v in sorted(mesh.nodes):
        if v == byzantine:
            spec = FaultSpec(
                node=v, graph=mesh, channel=channel, input_value=inputs[v],
                f=f, faulty=frozenset({byzantine}), honest_factory=factory,
            )
            protocols[v] = adversary.build(spec)
        else:
            protocols[v] = factory(v, inputs[v])
    net = EventDrivenNetwork(mesh, protocols, channel=channel)
    net.run(3 * n)

    print(f"\n=== After {net.round_no} rounds (= 3n) ===")
    header = f"{'station':>8} {'type':>5} {'localized faults':>17} {'output':>7}"
    print(header)
    print("-" * len(header))
    for v in sorted(mesh.nodes):
        if v == byzantine:
            print(f"{v:>8} {'BYZ':>5} {'-':>17} {'-':>7}")
            continue
        proto = protocols[v]
        print(
            f"{v:>8} {proto.node_type:>5} "
            f"{str(sorted(proto.detected)):>17} {proto.output():>7}"
        )

    outputs = {protocols[v].output() for v in mesh.nodes if v != byzantine}
    assert len(outputs) == 1, "agreement violated?!"
    print(f"\nAll honest stations agree on {outputs.pop()}.")
    print(f"Total transmissions: {net.trace.transmission_count}")

    # Contrast: the same consensus via Algorithm 1 costs exponentially
    # many phases; Algorithm 2 used 3n rounds.
    result = run_consensus(
        mesh, factory, inputs, f=f, faulty=[byzantine], adversary=adversary
    )
    print(f"Efficient algorithm rounds: {result.rounds} (bound 3n = {3 * n})")

    # ------------------------------------------------------------------
    # The same mesh as a true digraph.  ``to_digraph()`` lifts every
    # radio link into two one-way arcs; the protocol stack reads
    # directions natively (out-arcs = who hears me, in-arcs = whom I
    # hear), so the old undirected emulation and the native digraph run
    # must land on identical outcomes.
    digraph = mesh.to_digraph()
    print(f"\n=== Native digraph: {digraph.n} stations, "
          f"{digraph.arc_count} one-way links ===")
    print(f"strong connectivity: {vertex_connectivity(digraph)}")
    directed_result = run_consensus(
        digraph, algorithm2_factory(digraph, f), inputs,
        f=f, faulty=[byzantine], adversary=TamperForwardAdversary(),
    )
    assert directed_result.consensus == result.consensus
    assert directed_result.decision == result.decision
    assert directed_result.rounds == result.rounds
    print("emulation vs native digraph: outcomes agree "
          f"(decision={directed_result.decision}, "
          f"rounds={directed_result.rounds})")

    # A genuinely one-way relay ring: every station forwards to the next
    # two stations clockwise but hears only counter-clockwise.  The
    # symmetric closure looks comfortably feasible (max f = 2); the real
    # directed topology supports only f = 1.
    relay = oneway_ring(9, 2)
    print(f"\n=== One-way relay ring: {relay.n} stations, "
          f"{relay.arc_count} one-way links ===")
    print(check_local_broadcast(relay, 1))
    directed_max = max_f_local_broadcast(relay)
    closure_max = max_f_local_broadcast(relay.to_undirected())
    print(f"max f directed: {directed_max}; "
          f"symmetric closure pretends: {closure_max}")
    assert directed_max < closure_max
    ring_result = run_consensus(
        relay, algorithm2_factory(relay, 1),
        {v: v % 2 for v in relay.nodes},
        f=1, faulty=[0], adversary=TamperForwardAdversary(),
    )
    assert ring_result.consensus
    print(f"one-way ring decides {ring_result.decision} "
          f"in {ring_result.rounds} rounds despite station 0 tampering")


if __name__ == "__main__":
    main()
