"""Sequences: numbering, dedup, ordering, and the wire header."""

from repro.pipeline.filters import InboundRequestLog
from repro.reliable import (
    InboundDeduper,
    InboundSequence,
    OutboundSequence,
    read_sequence_header,
    sequence_header,
)
from repro.reliable.sequence import next_sequence_id
from repro.sim import Network
from repro.soap.envelope import build_envelope
from repro.xmllib import element


def _stamped(identifier: str, number: int):
    return build_envelope(
        [sequence_header(identifier, number)], [element("{urn:t}Payload", str(number))]
    )


class TestOutbound:
    def test_numbers_are_sequential_from_one(self):
        seq = OutboundSequence("soap://x/svc", "urn:repro:seq-00000001")
        assert [seq.next_number() for _ in range(3)] == [1, 2, 3]
        assert seq.assigned == 3

    def test_identifiers_are_unique_and_fixed_width(self):
        network = Network()
        a, b = next_sequence_id(network), next_sequence_id(network)
        assert a != b
        assert len(a) == len(b)
        assert next_sequence_id(Network()) == a

    def test_outstanding_tracks_unsettled_numbers(self):
        seq = OutboundSequence("d", "urn:repro:seq-00000001")
        for _ in range(3):
            seq.next_number()
        seq.ack(1)
        seq.mark_dead(3)
        assert seq.outstanding == {2}
        seq.ack(2)
        assert seq.outstanding == set()


class TestInboundSequence:
    def test_suppresses_duplicates(self):
        seq = InboundSequence("urn:s")
        assert seq.receive(1, "a") == ["a"]
        assert seq.receive(1, "a") == []
        assert seq.duplicates == 1

    def test_unordered_mode_passes_gaps_through(self):
        seq = InboundSequence("urn:s")
        assert seq.receive(3, "c") == ["c"]
        assert seq.receive(1, "a") == ["a"]

    def test_ordered_mode_buffers_until_gap_fills(self):
        seq = InboundSequence("urn:s", ordered=True)
        assert seq.receive(2, "b") == []
        assert seq.buffered == 1
        assert seq.receive(3, "c") == []
        assert seq.receive(1, "a") == ["a", "b", "c"]
        assert seq.buffered == 0


class TestWireHeader:
    def test_roundtrip_composite_header(self):
        envelope = _stamped("urn:repro:seq-00000001", 7)
        assert read_sequence_header(envelope) == ("urn:repro:seq-00000001", 7)

    def test_unstamped_envelope_reads_none(self):
        envelope = build_envelope([], [element("{urn:t}Payload")])
        assert read_sequence_header(envelope) is None


class TestInboundDeduper:
    def test_stamped_traffic_deduplicates_per_sequence(self):
        deduper = InboundDeduper()
        first = _stamped("urn:a", 1)
        assert deduper.admit(first) == [first]
        assert deduper.admit(_stamped("urn:a", 1)) == []
        # Same number on a different sequence is a different message.
        other = _stamped("urn:b", 1)
        assert deduper.admit(other) == [other]
        assert deduper.duplicates == 1

    def test_unstamped_traffic_passes_through(self):
        deduper = InboundDeduper()
        envelope = build_envelope([], [element("{urn:t}Payload")])
        assert deduper.admit(envelope) == [envelope]
        assert deduper.admit(envelope) == [envelope]
        assert deduper.duplicates == 0

    def test_ordered_deduper_releases_in_order(self):
        deduper = InboundDeduper(ordered=True)
        assert deduper.admit(_stamped("urn:a", 2)) == []
        released = deduper.admit(_stamped("urn:a", 1))
        numbers = [env.body_child().text() for env in released]
        assert numbers == ["1", "2"]


class TestInboundRequestLog:
    def test_first_sight_misses_then_replays(self):
        log = InboundRequestLog()
        key = ("urn:a", 1)
        assert log.replay(key) is None
        log.store(key, "reply-bytes")
        assert log.replay(key) == "reply-bytes"
        assert log.replay(key) == "reply-bytes"
        assert log.duplicates == 2
        assert len(log) == 1
