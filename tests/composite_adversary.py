"""Per-node adversary dispatch for tests that mix behaviors in one run.

``tests/consensus`` and ``tests/test_integration.py`` import it (the
``tests`` directory is on ``sys.path``).  It is not a library behavior:
no flight records it replayably, and no sweep runs it.
"""

from typing import Dict, Hashable, Optional

from repro.net import Adversary, FaultSpec, Protocol


class CompositeAdversary(Adversary):
    """Different faulty nodes get different behaviors, e.g. one silent
    and one tampering node in the same run."""

    name = "composite"

    def __init__(self, assignments: Dict[Hashable, Adversary],
                 default: Optional[Adversary] = None):
        self.assignments = dict(assignments)
        self.default = default

    def build(self, spec: FaultSpec) -> Protocol:
        chosen = self.assignments.get(spec.node, self.default)
        if chosen is None:
            raise ValueError(f"no behavior assigned for faulty node {spec.node!r}")
        return chosen.build(spec)
