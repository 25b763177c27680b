"""Message types exchanged by the protocols.

All messages are small frozen dataclasses: hashable and comparable (the
phase-2 claim index interns reported transcripts by them), and safe to
share between nodes (no aliasing bugs — a Byzantine node cannot mutate a
message after sending it).  Rule (ii) of the flooding procedure does not
hash messages: it keys on ``(sender, Π)`` packed into one integer slot.

The wire format of the paper's flooding step is ``(b, Π)`` — a value plus
the path it has traversed so far, *excluding* the current transmitter
(Section 5.1).  :class:`FloodMessage` generalizes ``b`` to any hashable
payload because Algorithm 2 floods reports and decisions through the same
rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Tuple

Payload = Hashable


@dataclass(frozen=True, slots=True)
class FloodMessage:
    """The paper's ``(b, Π)`` flood message.

    ``phase`` tags which flooding instance the message belongs to (Algorithm
    1 runs one flood per candidate fault set; Algorithm 2 runs three).
    ``path`` is the path traversed *before* the current transmitter — the
    receiver appends the sender itself per the ``Π - u`` rule.
    """

    phase: Hashable
    payload: Payload
    path: Tuple[Hashable, ...]

    def extended_by(self, sender: Hashable) -> Tuple[Hashable, ...]:
        """The path ``Π - u``: this message's path plus its transmitter."""
        return self.path + (sender,)


@dataclass(frozen=True, slots=True)
class ValuePayload:
    """Payload for phase (a) of Algorithms 1/3 and phase 1 of Algorithm 2:
    a node's binary state/input being flooded."""

    value: int

    def __post_init__(self) -> None:
        if self.value not in (0, 1):
            raise ValueError(f"binary value expected, got {self.value!r}")


@dataclass(frozen=True, slots=True)
class ReportPayload:
    """Phase 2 of Algorithm 2: node ``reporter`` attests that its neighbor
    ``subject`` transmitted flood message ``(payload, path)`` in phase 1.

    The report itself is then flooded (with its own path annotation), so
    the full on-wire shape is ``FloodMessage(phase=2,
    payload=ReportPayload(...), path=Π)``.
    """

    reporter: Hashable
    subject: Hashable
    payload: Payload
    path: Tuple[Hashable, ...]


@dataclass(frozen=True, slots=True)
class DecisionPayload:
    """Phase 3 of Algorithm 2: a type-B node floods its decision.

    The asynchronous algorithm (:mod:`repro.consensus.async_alg`) floods
    the same payload under its own phase tag when a node commits."""

    value: int


@dataclass(frozen=True, slots=True)
class VotePayload:
    """One vote of the asynchronous algorithm's quorum stage.

    ``round_no`` is a *vote* round — a message-driven counter, not a
    synchronous communication round: a node casts vote ``r + 1`` only
    after collecting a quorum of round-``r`` votes, however long their
    floods take.  Tagging the round into the payload (and into the flood
    phase) keeps each round's votes in their own equivocation-free slot
    space."""

    round_no: int
    value: int

    def __post_init__(self) -> None:
        if self.round_no < 1:
            raise ValueError(f"vote rounds start at 1, got {self.round_no!r}")
        if self.value not in (0, 1):
            raise ValueError(f"binary vote expected, got {self.value!r}")


@dataclass(frozen=True, slots=True)
class DirectMessage:
    """A non-flooded protocol message (used by the point-to-point baseline:
    EIG relay messages carry a label identifying their EIG-tree position)."""

    tag: Hashable
    payload: Payload = field(default=None)
