"""Message types exchanged by the protocols.

The flooding hot path's records — :class:`FloodMessage` and
:class:`ValuePayload` — are ``NamedTuple`` records: built, hashed and
compared in C, with the ``repr`` of the frozen dataclasses they replaced
(flights encode messages by ``repr``).  A record equals a bare tuple of
its fields, so the flooding rules gate on ``isinstance``;
:class:`ValuePayload` alone compares type-exactly, so it never equals
another 1-field payload such as ``DecisionPayload(1)``.
The rarer messages are frozen dataclasses.  All are immutable, pickle to
their own type, and are hashable (the phase-2 claim index interns
reported transcripts by them).  Rule (ii) of the flooding procedure does
not hash messages: it keys on ``(sender, Π)`` packed into one integer.

The wire format of the paper's flooding step is ``(b, Π)`` — a value plus
the path it has traversed so far, *excluding* the current transmitter
(Section 5.1).  :class:`FloodMessage` generalizes ``b`` to any hashable
payload because Algorithm 2 floods reports and decisions through the same
rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, NamedTuple, Tuple

Payload = Hashable


class FloodMessage(NamedTuple):
    """The paper's ``(b, Π)`` flood message.

    ``phase`` tags which flooding instance the message belongs to (Algorithm
    1 runs one flood per candidate fault set; Algorithm 2 runs three).
    ``path`` is the path traversed *before* the current transmitter — the
    receiver appends the sender itself per the ``Π - u`` rule.
    """

    phase: Hashable
    payload: Payload
    path: Tuple[Hashable, ...]


class _ValueFields(NamedTuple):
    value: int


class ValuePayload(_ValueFields):
    """Payload for phase (a) of Algorithms 1/3 and phase 1 of Algorithm 2:
    a node's binary state/input being flooded."""

    __slots__ = ()

    def __new__(cls, value: int) -> "ValuePayload":
        if value not in (0, 1):
            raise ValueError(f"binary value expected, got {value!r}")
        return tuple.__new__(cls, (value,))

    # Type-exact: a bare ``(v,)`` or another 1-field record is not equal.
    def __eq__(self, other: object) -> bool:
        return type(other) is ValuePayload and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    __hash__ = tuple.__hash__


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
