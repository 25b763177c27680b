"""Message types: shapes, hashing, validation."""

import pickle

import pytest

from repro.net import (
    DecisionPayload,
    DirectMessage,
    FloodMessage,
    ReportPayload,
    ValuePayload,
)
from repro.net.messages import VotePayload


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

    def test_report_payload_fields(self):
        r = ReportPayload(reporter=1, subject=2, payload=ValuePayload(0), path=())
        assert r.reporter == 1 and r.subject == 2

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
        ReportPayload(3, 4, ValuePayload(0), (4,)),
        FloodMessage(
            ("alg2", 2), ReportPayload("a", "b", ValuePayload(1), ()), ("a",)
        ),
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
            ReportPayload(3, 4, ValuePayload(0), (4,)),
            "ReportPayload(reporter=3, subject=4, "
            "payload=ValuePayload(value=0), path=(4,))",
        ),
        (
            FloodMessage(
                ("alg2", 2),
                ReportPayload("a", "b", ValuePayload(1), ()),
                ("a",),
            ),
            "FloodMessage(phase=('alg2', 2), payload=ReportPayload("
            "reporter='a', subject='b', payload=ValuePayload(value=1), "
            "path=()), path=('a',))",
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
    ])
    def test_repr_is_pinned(self, record, text):
        assert repr(record) == text

    @pytest.mark.parametrize("record", RECORDS)
    @pytest.mark.parametrize("protocol", [0, pickle.HIGHEST_PROTOCOL])
    def test_pickle_round_trip_keeps_type(self, record, protocol):
        back = pickle.loads(pickle.dumps(record, protocol))
        assert back == record and type(back) is type(record)
        assert repr(back) == repr(record)

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
