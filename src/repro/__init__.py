"""repro — Exact Byzantine Consensus under the Local Broadcast Model.

A from-scratch reproduction of Khan, Naqvi & Vaidya (PODC 2019,
arXiv:1903.11677): tight conditions, all three algorithms, the
impossibility constructions, the classical point-to-point baseline, and
the synchronous-network substrate they run on.

Quickstart::

    from repro import graphs, consensus
    from repro.net import TamperForwardAdversary

    g = graphs.paper_figure_1a()                # the 5-cycle, f = 1
    report = consensus.check_local_broadcast(g, f=1)
    assert report.feasible

    factory = consensus.algorithm1_factory(g, f=1)
    result = consensus.run_consensus(
        g, factory, inputs={v: v % 2 for v in g.nodes},
        f=1, faulty=[3], adversary=TamperForwardAdversary(),
    )
    assert result.consensus

Subpackages: :mod:`repro.graphs` (graph substrate), :mod:`repro.net`
(synchronous simulator, channel models, adversaries),
:mod:`repro.consensus` (algorithms + conditions + baselines),
:mod:`repro.lowerbounds` (impossibility constructions),
:mod:`repro.analysis` (requirement curves, cost models, sweeps),
:mod:`repro.obs` (metrics registry, span tracer, causal flight
recorder, quarantined wall timings).
"""

from . import analysis, consensus, graphs, lowerbounds, net, obs

__version__ = "1.0.0"

__all__ = [
    "analysis", "consensus", "graphs", "lowerbounds", "net", "obs",
    "__version__",
]
