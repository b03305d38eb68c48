"""The decode-and-classify read path: damage tolerance and memo caches.

The read-path overhaul (buffered MRT reader, attribute-bytes memo,
NLRI/address interning) must be a pure optimization: identical decoded
values, identical classification, damage handled exactly as before —
plus the new guarantees pinned here: tolerant-mode drops are counted
and surfaced, the BGP4MP_ET empty-body case is damage (not a decode
attempt), and every cache is bounded.
"""

import dataclasses
import io
import json
import os
import pickle
import random
import struct

import pytest

from repro.analysis.classify import UpdateClassifier
from repro.bgp import wire
from repro.bgp.aspath import ASPath, PathSegment, SegmentType
from repro.bgp.community import Community, CommunitySet
from repro.bgp.constants import MARKER
from repro.bgp.errors import MessageError, WireFormatError
from repro.bgp.attributes import PathAttributes
from repro.bgp.message import UpdateMessage
from repro.mrt import records as mrt_records
from repro.mrt.reader import MRTReader
from repro.mrt.records import Bgp4mpMessage, MRTError
from repro.mrt.writer import dump_records
from repro.netbase import prefix as prefix_module
from repro.netbase.asn import ASN
from repro.netbase.prefix import Prefix
from repro.pipeline import replay_mrt
from repro.scenarios import (
    get_scenario,
    result_from_json,
    result_to_json,
    run_scenario,
)


def update(path="20205 3356 174 12654", prefix="84.205.64.0/24",
           communities="3356:300"):
    return UpdateMessage.announce(
        Prefix(prefix),
        PathAttributes(
            as_path=ASPath.from_string(path),
            next_hop="10.0.0.1",
            communities=CommunitySet.parse(communities),
        ),
    )


def record(timestamp=1584230400.25, message=None, peer_asn=20205):
    return Bgp4mpMessage(
        timestamp=timestamp,
        peer_asn=peer_asn,
        local_asn=12456,
        peer_address="192.0.2.2",
        local_address="192.0.2.1",
        message=message or update(),
    )


@pytest.fixture
def all_memos_on():
    """Reset every decode memo before and after (tests mutate them)."""
    wire.set_decode_memo(True)
    prefix_module.set_nlri_memo(True)
    yield
    wire.set_decode_memo(True)
    prefix_module.set_nlri_memo(True)


def et_record_bytes(length: int, subtype: int = 4) -> bytes:
    """A raw BGP4MP_ET record with the given body *length* claim."""
    body = struct.pack("!I", 123456) + b"\x00" * (length - 4)
    return struct.pack("!IHHI", 1584230400, 17, subtype, length) + body


# ----------------------------------------------------------------------
# BGP4MP_ET empty-body guard
# ----------------------------------------------------------------------
class TestEtEmptyBodyGuard:
    def test_strict_mode_raises(self):
        with pytest.raises(MRTError, match="BGP4MP_ET record too short"):
            list(MRTReader(io.BytesIO(et_record_bytes(4))))

    def test_tolerant_mode_counts_one_error(self):
        reader = MRTReader(io.BytesIO(et_record_bytes(4)), tolerant=True)
        assert list(reader) == []
        assert reader.error_records == 1
        assert reader.skipped_records == 0

    def test_non_message_subtype_is_damage_not_skip(self):
        # length == 4 leaves no body at all, so even a STATE_CHANGE
        # subtype cannot be interpreted; it is damage, not a skip.
        reader = MRTReader(
            io.BytesIO(et_record_bytes(4, subtype=0)), tolerant=True
        )
        assert list(reader) == []
        assert reader.error_records == 1

    def test_damage_is_recoverable_midstream(self):
        # The length framing is intact, so the record after the
        # degenerate one must still decode.
        data = et_record_bytes(4) + dump_records([record()])
        reader = MRTReader(io.BytesIO(data), tolerant=True)
        assert len(list(reader)) == 1
        assert reader.error_records == 1


# ----------------------------------------------------------------------
# tolerant-mode mid-stream damage
# ----------------------------------------------------------------------
class TestTolerantMidStream:
    def test_truncated_header_after_good_record(self):
        good = dump_records([record()])
        data = good + good[:7]  # 7 bytes of a second header
        reader = MRTReader(io.BytesIO(data), tolerant=True)
        assert len(list(reader)) == 1
        assert reader.error_records == 1

    def test_truncated_body_after_good_record(self):
        good = dump_records([record()])
        second = dump_records([record(timestamp=1584230401.5)])
        data = good + second[: len(second) - 9]
        reader = MRTReader(io.BytesIO(data), tolerant=True)
        assert len(list(reader)) == 1
        assert reader.error_records == 1

    def test_damaged_record_between_two_good_ones(self):
        first = dump_records([record(timestamp=1584230400.0)])
        middle = bytearray(dump_records([record(timestamp=1584230401.0)]))
        # Corrupt the BGP marker inside the middle record's message:
        # 16-byte ET header + 20-byte IPv4 AS4 envelope = offset 36.
        middle[36] = 0x00
        last = dump_records([record(timestamp=1584230402.0)])
        reader = MRTReader(
            io.BytesIO(first + bytes(middle) + last), tolerant=True
        )
        yielded = list(reader)
        assert [r.timestamp for r in yielded] == [
            1584230400.0, 1584230402.0,
        ]
        assert reader.error_records == 1
        assert reader.skipped_records == 0

    def test_strict_mode_still_raises_between_good_ones(self):
        first = dump_records([record(timestamp=1584230400.0)])
        middle = bytearray(dump_records([record(timestamp=1584230401.0)]))
        middle[36] = 0x00
        with pytest.raises(MRTError):
            list(MRTReader(io.BytesIO(first + bytes(middle))))

    def test_large_archive_spans_read_chunks(self):
        # > 64 KiB so the buffered reader refills and compacts; every
        # record must survive the chunk boundaries byte-exactly.
        originals = [
            record(timestamp=1584230400.0 + i, peer_asn=20205 + (i % 7))
            for i in range(1500)
        ]
        data = dump_records(originals)
        assert len(data) > 2 * 64 * 1024
        decoded = list(MRTReader(io.BytesIO(data)))
        assert len(decoded) == 1500
        assert [r.timestamp for r in decoded] == [
            o.timestamp for o in originals
        ]
        assert all(
            d.message == o.message for d, o in zip(decoded, originals)
        )

    def make_mp_attr_record_bytes(self, mp_type: int, mp_value: bytes):
        """A raw ET record whose UPDATE carries a short MP attribute."""
        attrs = bytearray()
        attrs += bytes([0x40, 1, 1, 0])  # ORIGIN IGP
        attrs += bytes([0x40, 2, 6, 2, 1]) + struct.pack("!I", 20205)
        attrs += bytes([0x40, 3, 4, 10, 0, 0, 1])  # NEXT_HOP
        attrs += bytes([0x80, mp_type, len(mp_value)]) + mp_value
        nlri = Prefix("84.205.64.0/24").to_nlri()
        body = (
            struct.pack("!H", 0)
            + struct.pack("!H", len(attrs))
            + bytes(attrs)
            + nlri
        )
        message = MARKER + struct.pack("!HB", 19 + len(body), 2) + body
        envelope = (
            struct.pack("!IIHH", 20205, 12456, 0, 1)
            + bytes([192, 0, 2, 2])
            + bytes([192, 0, 2, 1])
        )
        return (
            struct.pack(
                "!IHHI", 1584230400, 17, 4,
                4 + len(envelope) + len(message),
            )
            + struct.pack("!I", 0)
            + envelope
            + message
        )

    @pytest.mark.parametrize(
        "mp_type,mp_value",
        [(14, b"\x00\x02"), (14, b""), (15, b"\x00")],
    )
    def test_short_mp_attribute_is_damage_not_a_crash(
        self, mp_type, mp_value
    ):
        # struct.error is not ValueError: without an explicit length
        # guard a short MP_(UN)REACH_NLRI would escape tolerant mode
        # and crash the whole replay.
        damaged = self.make_mp_attr_record_bytes(mp_type, mp_value)
        good = dump_records([record()])
        reader = MRTReader(io.BytesIO(damaged + good), tolerant=True)
        assert len(list(reader)) == 1
        assert reader.error_records == 1

    def test_skipped_types_spanning_chunks(self):
        # An unmodeled record with a body larger than the read chunk
        # is stepped over without being materialized or decoded.
        alien = struct.pack("!IHHI", 0, 13, 1, 100_000) + b"\x7f" * 100_000
        data = alien + dump_records([record()])
        reader = MRTReader(io.BytesIO(data))
        assert len(list(reader)) == 1
        assert reader.skipped_records == 1


# ----------------------------------------------------------------------
# decode memo caches
# ----------------------------------------------------------------------
class TestDecodeMemo:
    def archive(self, count=40):
        recs = []
        for index in range(count):
            recs.append(
                record(
                    timestamp=1584230400.0 + index,
                    message=update(
                        path="20205 3356 174 12654",
                        communities="3356:300 3356:2001",
                    ),
                )
            )
        return dump_records(recs)

    def test_cached_decode_is_identity_interned(self, all_memos_on):
        data = self.archive()
        decoded = list(MRTReader(io.BytesIO(data)))
        first = decoded[0].message.attributes
        for item in decoded[1:]:
            attrs = item.message.attributes
            assert attrs is first
            assert attrs.as_path is first.as_path
            assert attrs.communities is first.communities
        prefixes = {id(item.message.announced[0]) for item in decoded}
        assert len(prefixes) == 1

    def test_cached_equals_uncached(self, all_memos_on):
        data = self.archive()
        fast = list(MRTReader(io.BytesIO(data)))
        wire.set_decode_memo(False)
        prefix_module.set_nlri_memo(False)
        naive = list(MRTReader(io.BytesIO(data)))
        assert len(fast) == len(naive)
        for cached, plain in zip(fast, naive):
            assert cached.message == plain.message
            assert cached.timestamp == plain.timestamp
            assert cached.peer_address == plain.peer_address
            assert int(cached.peer_asn) == int(plain.peer_asn)
        # The naive run interned nothing.
        attrs = [item.message.attributes for item in naive]
        assert attrs[0] is not attrs[1]
        assert attrs[0] == attrs[1]

    def test_classification_identical_with_and_without_memo(
        self, all_memos_on
    ):
        recs = []
        for index in range(30):
            recs.append(
                record(
                    timestamp=1584230400.0 + index,
                    message=update(
                        communities="3356:300"
                        if index % 3
                        else "3356:300 64500:1",
                    ),
                )
            )
        data = dump_records(recs)

        def classify():
            classifier = UpdateClassifier()
            replay_mrt(io.BytesIO(data), classifier, collector="rrc00")
            return classifier.counts.counts

        fast = dict(classify())
        wire.set_decode_memo(False)
        prefix_module.set_nlri_memo(False)
        assert dict(classify()) == fast

    def test_attr_block_memo_is_bounded(self, all_memos_on, monkeypatch):
        monkeypatch.setattr(wire, "_MEMO_LIMIT", 8)
        for index in range(50):
            data = dump_records(
                [record(message=update(path=f"20205 {3000 + index}"))]
            )
            list(MRTReader(io.BytesIO(data)))
        sizes = wire.decode_memo_sizes()
        assert sizes["attr_block"] <= 8
        assert sizes["as_path"] <= 8

    def test_nlri_memo_is_bounded(self, all_memos_on, monkeypatch):
        monkeypatch.setattr(prefix_module, "_NLRI_MEMO_LIMIT", 8)
        for index in range(50):
            Prefix.from_nlri(bytes([24, 10, index, 0]), 4)
        assert prefix_module.nlri_memo_size() <= 8

    def test_nlri_memo_round_trip_identity(self, all_memos_on):
        wire_bytes = Prefix("84.205.64.0/24").to_nlri()
        first, consumed_a = Prefix.from_nlri(wire_bytes, 4)
        second, consumed_b = Prefix.from_nlri(wire_bytes, 4)
        assert first is second
        assert consumed_a == consumed_b == 4
        assert str(first) == "84.205.64.0/24"


class TestValueIntern:
    """The member memos: one Community / ASN object per wire value."""

    def decode(self, path, communities):
        data = dump_records(
            [record(message=update(path=path, communities=communities))]
        )
        (item,) = MRTReader(io.BytesIO(data))
        return item.message.attributes

    @staticmethod
    def member(collection, value):
        (found,) = [item for item in collection if item == value]
        return found

    def test_different_blocks_share_members(self, all_memos_on):
        first = self.decode("20205 3356 174", "3356:300 3356:2001")
        second = self.decode("20205 64500", "3356:300 64500:1")
        assert first is not second
        assert first.communities is not second.communities
        assert first.as_path is not second.as_path
        value = Community.parse("3356:300")
        assert self.member(first.communities.classic, value) is (
            self.member(second.communities.classic, value)
        )
        assert first.as_path.first_asn is second.as_path.first_asn

    def test_hits_and_misses_count_members(self, all_memos_on):
        before = {
            name: (stats.hits, stats.misses)
            for name, stats in (
                ("community", wire._COMMUNITY_STATS),
                ("asn", wire._ASN_STATS),
            )
        }
        self.decode("20205 3356 174 12654", "3356:300 3356:2001")
        self.decode("20205 174 64500", "3356:300 64500:1")
        delta = {
            name: (
                stats.hits - before[name][0],
                stats.misses - before[name][1],
            )
            for name, stats in (
                ("community", wire._COMMUNITY_STATS),
                ("asn", wire._ASN_STATS),
            )
        }
        assert delta == {"community": (1, 3), "asn": (2, 5)}

    @pytest.mark.parametrize("memos", [True, False])
    def test_members_are_exact_value_types(self, all_memos_on, memos):
        wire.set_decode_memo(memos)
        for _ in range(2):  # with memos on, the second one hits
            attrs = self.decode(
                "20205 3356 {64502,64503} 174", "3356:300 65535:666"
            )
            assert attrs.communities.classic
            for community in attrs.communities.classic:
                assert type(community) is Community
            kinds = []
            for segment in attrs.as_path.segments:
                kinds.append(segment.kind)
                assert type(segment.kind) is SegmentType
                for asn in segment.asns:
                    assert type(asn) is ASN
            assert kinds == [
                SegmentType.AS_SEQUENCE,
                SegmentType.AS_SET,
                SegmentType.AS_SEQUENCE,
            ]
            assert type(attrs.as_path.segments[0]) is PathSegment
            assert attrs.as_path.segments[1].is_set

    def test_member_memos_are_bounded(self, all_memos_on, monkeypatch):
        monkeypatch.setattr(wire, "_MEMO_LIMIT", 8)
        evictions = (
            wire._COMMUNITY_STATS.evictions, wire._ASN_STATS.evictions
        )
        for index in range(20):
            self.decode(
                f"{3000 + index} {4000 + index}",
                f"3356:{index} 64500:{index}",
            )
            sizes = wire.decode_memo_sizes()
            assert sizes["community"] <= 8
            assert sizes["asn"] <= 8
        assert wire._COMMUNITY_STATS.evictions > evictions[0]
        assert wire._ASN_STATS.evictions > evictions[1]

    def test_memo_off_clears_and_stops_interning(self, all_memos_on):
        self.decode("20205 3356", "3356:300")
        sizes = wire.decode_memo_sizes()
        assert sizes["community"] == 1
        assert sizes["asn"] == 2
        wire.set_decode_memo(False)
        assert set(wire.decode_memo_sizes().values()) == {0}
        first = self.decode("20205 3356", "3356:300")
        second = self.decode("20205 64500", "3356:300 64500:1")
        assert set(wire.decode_memo_sizes().values()) == {0}
        value = Community.parse("3356:300")
        shared = self.member(first.communities.classic, value)
        assert shared == self.member(second.communities.classic, value)
        assert shared is not self.member(second.communities.classic, value)
        assert first.as_path.first_asn is not second.as_path.first_asn

    def test_decoded_attributes_survive_pickle(self, all_memos_on):
        attrs = self.decode(
            "20205 3356 {64502,64503} 174", "3356:300 65535:666"
        )
        restored = pickle.loads(pickle.dumps(attrs))
        assert restored == attrs
        assert hash(restored) == hash(attrs)
        assert restored.as_path.segments == attrs.as_path.segments
        assert type(restored.as_path.segments[0]) is PathSegment
        assert restored.as_path.segments[1].is_set
        for community in restored.communities.classic:
            assert type(community) is Community


# ----------------------------------------------------------------------
# reader stats surfaced through replay and the scenario result
# ----------------------------------------------------------------------
class TestReaderStatsSurfacing:
    def damaged_archive(self, tmp_path):
        good = dump_records(
            [record(timestamp=1584230400.0 + i) for i in range(3)]
        )
        middle = bytearray(dump_records([record(timestamp=1584230410.0)]))
        middle[36] = 0x00  # corrupt the BGP marker
        alien = struct.pack("!IHHI", 0, 13, 1, 4) + b"\x00" * 4
        path = tmp_path / "damaged.mrt"
        path.write_bytes(alien + good + bytes(middle))
        return str(path)

    def test_replay_mrt_fills_stats(self, tmp_path):
        path = self.damaged_archive(tmp_path)
        classifier = UpdateClassifier()
        stats: dict = {}
        delivered = replay_mrt(
            path, classifier, collector="rrc00", stats=stats
        )
        assert delivered == 3
        assert stats == {
            "records": 3,
            "skipped_records": 1,
            "error_records": 1,
            "messages": 3,
            "observations": 3,
        }

    def test_scenario_result_carries_reader_stats(self, tmp_path):
        path = self.damaged_archive(tmp_path)
        spec = get_scenario("mrt-replay")
        spec = dataclasses.replace(
            spec, mrt=dataclasses.replace(spec.mrt, path=path)
        )
        result = run_scenario(spec)
        assert result.reader_stats["records"] == 3
        assert result.reader_stats["skipped_records"] == 1
        assert result.reader_stats["error_records"] == 1

    def test_reader_stats_round_trip_json(self, tmp_path):
        path = self.damaged_archive(tmp_path)
        spec = get_scenario("mrt-replay")
        spec = dataclasses.replace(
            spec, mrt=dataclasses.replace(spec.mrt, path=path)
        )
        result = run_scenario(spec)
        payload = json.loads(result_to_json(result))
        assert payload["reader_stats"]["error_records"] == 1
        assert payload["reader_stats"]["skipped_records"] == 1
        rebuilt = result_from_json(result_to_json(result))
        assert rebuilt.reader_stats == result.reader_stats

    def test_non_mrt_results_omit_reader_stats(self):
        result = run_scenario(get_scenario("lab-baseline"))
        assert result.reader_stats == {}
        assert "reader_stats" not in json.loads(result_to_json(result))

    def test_cli_json_includes_reader_stats(self, tmp_path, capsys):
        from repro.cli import main

        path = self.damaged_archive(tmp_path)
        code = main(
            ["scenario", "run", "mrt-replay", "--input", path, "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reader_stats"]["skipped_records"] == 1
        assert payload["reader_stats"]["error_records"] == 1

    def test_cli_table_mentions_reader_stats(self, tmp_path, capsys):
        from repro.cli import main

        path = self.damaged_archive(tmp_path)
        code = main(["scenario", "run", "mrt-replay", "--input", path])
        assert code == 0
        out = capsys.readouterr().out
        assert "mrt reader: 3 records decoded" in out
        assert "1 damaged-dropped" in out


# ----------------------------------------------------------------------
# the lean UPDATE decoder against a checked reference
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_spill(tmp_path_factory):
    """The bytes of ``internet-small-spill``'s spilled archive."""
    (spill_path,) = run_scenario(
        get_scenario("internet-small-spill")
    ).spill_paths.values()
    try:
        with open(spill_path, "rb") as handle:
            return handle.read()
    finally:
        os.unlink(spill_path)


def archive_messages(data: bytes):
    """The raw BGP message of every BGP4MP(_ET) record in *data*."""
    pos = 0
    while pos < len(data):
        _ts, mrt_type, subtype, length = mrt_records.HEADER_STRUCT.unpack_from(
            data, pos
        )
        body = data[pos + 12 : pos + 12 + length]
        pos += 12 + length
        if mrt_type == 17:
            body = body[4:]
        offset = 12 if subtype == 4 else 8
        (afi,) = struct.unpack_from("!H", body, offset - 2)
        yield body[offset + (8 if afi == 1 else 32) :]


def reference_decode(data: bytes):
    """Decode one message the checked way.

    An UPDATE body is split into lists of prefixes and the message is
    built with the checked ``UpdateMessage(...)`` constructor, as the
    decoder did before its lean path; other types go to the codec.
    """
    if len(data) < 19:
        raise WireFormatError("truncated BGP header")
    if data[:16] != MARKER:
        raise WireFormatError("bad BGP marker")
    length, kind = struct.unpack_from("!HB", data, 16)
    if kind != 2:
        return wire.decode_message(data)
    if not 19 <= length <= 4096:
        raise WireFormatError(f"bad message length: {length}")
    if len(data) < length:
        raise WireFormatError("truncated BGP message body")
    body = data[19:length]
    if len(body) < 4:
        raise WireFormatError("truncated UPDATE")
    withdrawn_end = 2 + struct.unpack_from("!H", body, 0)[0]
    if withdrawn_end + 2 > len(body):
        raise WireFormatError("truncated UPDATE withdrawn routes")
    withdrawn = nlri_list(body[2:withdrawn_end], 4)
    offset = withdrawn_end + 2
    attr_end = offset + struct.unpack_from("!H", body, withdrawn_end)[0]
    if attr_end > len(body):
        raise WireFormatError("truncated UPDATE attributes")
    fields, reach_v6, unreach_v6, mp_next_hop = wire._decode_attributes(
        body[offset:attr_end]
    )
    if mp_next_hop is not None and fields.get("next_hop") is None:
        fields["next_hop"] = mp_next_hop
    attributes = PathAttributes(**fields)
    announced = nlri_list(body[attr_end:], 4) + list(reach_v6)
    withdrawn += list(unreach_v6)
    message = UpdateMessage(
        announced=announced,
        withdrawn=withdrawn,
        attributes=attributes if announced else None,
    )
    if length != len(data):
        raise WireFormatError("trailing bytes after message")
    return message


def nlri_list(data: bytes, version: int) -> list:
    prefixes = []
    offset = 0
    while offset < len(data):
        prefix, consumed = Prefix.from_nlri(data[offset:], version)
        prefixes.append(prefix)
        offset += consumed
    return prefixes


def outcome(decode, data: bytes):
    try:
        return decode(data)
    except Exception as exc:  # the class is what is compared
        return type(exc)


def mutated(message: bytes, rng) -> bytes:
    """*message* with 1-4 body bytes replaced (the header kept)."""
    if len(message) <= 19:
        return message
    data = bytearray(message)
    for _ in range(rng.randint(1, 4)):
        data[rng.randrange(19, len(data))] = rng.randrange(256)
    return bytes(data)


class TestLeanDecoderOracle:
    def decode_both(self, messages):
        """(lean, reference) outcomes: memos on, then memos off."""
        wire.set_decode_memo(True)
        prefix_module.set_nlri_memo(True)
        lean = [outcome(wire.decode_message, data) for data in messages]
        wire.set_decode_memo(False)
        prefix_module.set_nlri_memo(False)
        reference = [outcome(reference_decode, data) for data in messages]
        return lean, reference

    def assert_agree(self, messages):
        lean, reference = self.decode_both(messages)
        for data, fast, checked in zip(messages, lean, reference):
            assert type(fast) is type(checked), data.hex()
            assert fast == checked, data.hex()
            if isinstance(fast, UpdateMessage):
                assert type(fast.announced) is tuple
                assert type(fast.withdrawn) is tuple

    def test_every_update_of_a_spilled_archive(
        self, small_spill, all_memos_on
    ):
        messages = list(archive_messages(small_spill))
        assert len(messages) > 1000
        self.assert_agree(messages)
        lean, _ = self.decode_both(messages)
        assert all(isinstance(item, UpdateMessage) for item in lean)

    @pytest.mark.parametrize("seed", range(4))
    def test_byte_mutated_updates(self, small_spill, all_memos_on, seed):
        rng = random.Random(seed)
        originals = list(archive_messages(small_spill))
        messages = [
            mutated(rng.choice(originals), rng) for _ in range(1500)
        ]
        self.assert_agree(messages)
        lean, _ = self.decode_both(messages)
        # The mutations reach both outcomes, not only one of them.
        assert any(isinstance(item, UpdateMessage) for item in lean)
        assert any(isinstance(item, type) for item in lean)

    def test_update_without_nlri_or_withdrawals(self, all_memos_on):
        body = struct.pack("!HH", 0, 0)
        data = MARKER + struct.pack("!HB", 19 + len(body), 2) + body
        lean, reference = self.decode_both([data])
        assert lean == reference == [MessageError]


# ----------------------------------------------------------------------
# whole-archive byte-mutation fuzzing through mrt-replay
# ----------------------------------------------------------------------
def damaged_archive(data: bytes, rng) -> bytes:
    """A seeded mutation of a whole archive: byte flips or a cut."""
    damaged = bytearray(data)
    if rng.random() < 0.2:
        del damaged[rng.randrange(len(damaged)) :]
    for _ in range(rng.randint(1, 8)):
        if damaged:
            damaged[rng.randrange(len(damaged))] = rng.randrange(256)
    return bytes(damaged)


class TestArchiveFuzz:
    COPIES = 24
    PREFIX_BYTES = 40_000

    def replay(self, scenario: str, path: str):
        base = get_scenario(scenario)
        return run_scenario(
            dataclasses.replace(
                base, mrt=dataclasses.replace(base.mrt, path=path)
            )
        )

    def copies(self, small_spill, tmp_path):
        rng = random.Random(2020)
        prefix = small_spill[: self.PREFIX_BYTES]
        for index in range(self.COPIES):
            path = tmp_path / f"damaged-{index}.mrt"
            path.write_bytes(damaged_archive(prefix, rng))
            yield str(path)

    def test_tolerant_replay_counts_damage_and_never_raises(
        self, small_spill, tmp_path, all_memos_on
    ):
        damaged = 0
        for path in self.copies(small_spill, tmp_path):
            result = self.replay("mrt-replay", path)
            stats = result.reader_stats
            assert set(stats) == {
                "records", "skipped_records", "error_records",
                "messages", "observations",
            }
            assert stats["messages"] == stats["records"]
            counts = result.metrics["update_counts"]
            assert counts["observations"] == stats["observations"]
            damaged += stats["error_records"] + stats["skipped_records"]
        assert damaged > 0

    def test_strict_replay_raises_only_mrt_error(
        self, small_spill, tmp_path, all_memos_on
    ):
        rejected = 0
        for path in self.copies(small_spill, tmp_path):
            try:
                self.replay("mrt-replay-strict", path)
            except MRTError:
                rejected += 1
        assert rejected > 0
