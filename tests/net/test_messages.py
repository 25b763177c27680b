"""Message types: shapes, hashing, validation."""

import pickle

import pytest

from repro.net import (
    DecisionPayload,
    DirectMessage,
    FloodMessage,
    ValuePayload,
)
from repro.consensus.reliable import ReportBundle
from repro.net.messages import VotePayload

# A phase-2 flood message of Algorithm 2: a report bundle relayed once.
REPORT = FloodMessage(
    ("efficient", 2),
    ReportBundle.build(
        "a", {"b": [(1, FloodMessage(("efficient", 1), ValuePayload(1), ()))]}
    ),
    ("a",),
)


class TestFloodMessage:
    def test_hashable_and_equal(self):
        a = FloodMessage(1, ValuePayload(0), (1,))
        b = FloodMessage(1, ValuePayload(0), (1,))
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_phase_distinguishes(self):
        a = FloodMessage(("x", 1), ValuePayload(0), ())
        b = FloodMessage(("x", 2), ValuePayload(0), ())
        assert a != b

    def test_frozen(self):
        m = FloodMessage(1, ValuePayload(0), ())
        with pytest.raises(AttributeError):
            m.payload = ValuePayload(1)


class TestPayloads:
    def test_value_payload_validates(self):
        assert ValuePayload(0).value == 0
        assert ValuePayload(1).value == 1
        with pytest.raises(ValueError, match="binary value expected, got 2"):
            ValuePayload(2)

    def test_decision_payload(self):
        assert DecisionPayload(1).value == 1

    def test_direct_message_default_payload(self):
        d = DirectMessage(tag="ping")
        assert d.payload is None


class TestRecordSemantics:
    """The tuple-backed records keep the frozen-dataclass contract: the
    same ``repr`` (flight files encode messages by it), immutability,
    pickling to their own type, and equality that tells types apart."""

    RECORDS = [
        FloodMessage(1, ValuePayload(0), (1, 2)),
        ValuePayload(1),
        REPORT,
    ]

    # The rarer messages are frozen dataclasses, not tuple records.
    DATACLASS_RECORDS = [
        DecisionPayload(1),
        VotePayload(2, 0),
        DirectMessage(("eig", (1, 2)), ValuePayload(0)),
    ]

    @pytest.mark.parametrize("record,text", [
        (ValuePayload(0), "ValuePayload(value=0)"),
        (
            FloodMessage(1, ValuePayload(0), (1, 2)),
            "FloodMessage(phase=1, payload=ValuePayload(value=0), path=(1, 2))",
        ),
        (
            FloodMessage("p", ValuePayload(1), ()),
            "FloodMessage(phase='p', payload=ValuePayload(value=1), path=())",
        ),
        (
            FloodMessage(3, DecisionPayload(1), ()),
            "FloodMessage(phase=3, payload=DecisionPayload(value=1), path=())",
        ),
        (
            FloodMessage(("async", "vote", 2), VotePayload(2, 0), (5,)),
            "FloodMessage(phase=('async', 'vote', 2), "
            "payload=VotePayload(round_no=2, value=0), path=(5,))",
        ),
        (
            REPORT,
            "FloodMessage(phase=('efficient', 2), payload=ReportBundle("
            "reporter='a', entries=(('b', ((1, FloodMessage(phase=("
            "'efficient', 1), payload=ValuePayload(value=1), path=())),)),)"
            "), path=('a',))",
        ),
    ])
    def test_repr_is_pinned(self, record, text):
        assert repr(record) == text

    @pytest.mark.parametrize("record", RECORDS)
    @pytest.mark.parametrize("protocol", [0, pickle.HIGHEST_PROTOCOL])
    def test_pickle_round_trip_keeps_type(self, record, protocol):
        back = pickle.loads(pickle.dumps(record, protocol))
        assert back == record and type(back) is type(record)
        assert repr(back) == repr(record)

    @pytest.mark.parametrize("record", DATACLASS_RECORDS)
    @pytest.mark.parametrize("protocol", [0, pickle.HIGHEST_PROTOCOL])
    def test_dataclass_record_pickles_and_is_frozen(self, record, protocol):
        back = pickle.loads(pickle.dumps(record, protocol))
        assert back == record and type(back) is type(record)
        assert hash(back) == hash(record)
        name = next(iter(record.__dataclass_fields__))
        with pytest.raises(AttributeError):
            setattr(record, name, 0)

    def test_value_payload_is_not_another_one_field_payload(self):
        assert ValuePayload(1) != DecisionPayload(1)
        assert DecisionPayload(1) != ValuePayload(1)
        assert not ValuePayload(1) == DecisionPayload(1)
        assert len({ValuePayload(1), DecisionPayload(1)}) == 2
        assert DecisionPayload(1) not in {ValuePayload(1)}

    def test_value_payload_is_not_a_bare_tuple(self):
        assert ValuePayload(1) != (1,) and (1,) != ValuePayload(1)
        assert len({ValuePayload(1), (1,)}) == 2
        assert ValuePayload(1) == ValuePayload(1)
        assert hash(ValuePayload(1)) == hash(ValuePayload(1))

    @pytest.mark.parametrize("record", RECORDS)
    def test_attribute_assignment_raises(self, record):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], 0)
        with pytest.raises(AttributeError):
            record.extra = 0
