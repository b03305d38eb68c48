"""Unit tests for the MRT reader/writer."""

import io
import struct

import pytest

from repro.analysis import observations_from_mrt
from repro.bgp import (
    ASPath,
    CommunitySet,
    MessageType,
    PathAttributes,
    UpdateMessage,
)
from repro.bgp.constants import MARKER
from repro.mrt import Bgp4mpMessage, MRTError, MRTReader, MRTWriter
from repro.mrt.records import (
    MRTHeader,
    MRTType,
    decode_header,
    encode_header,
    pack_address,
    unpack_address,
)
from repro.mrt.writer import dump_records
from repro.netbase import Prefix


def sample_update():
    return UpdateMessage.announce(
        Prefix("84.205.64.0/24"),
        PathAttributes(
            as_path=ASPath.from_string("20205 3356 174 12654"),
            next_hop="10.0.0.1",
            communities=CommunitySet.parse("3356:300"),
        ),
    )


def sample_record(timestamp=1584230400.123456, message=None):
    return Bgp4mpMessage(
        timestamp=timestamp,
        peer_asn=20205,
        local_asn=12456,
        peer_address="192.0.2.2",
        local_address="192.0.2.1",
        message=message or sample_update(),
    )


class TestWriterReader:
    def test_roundtrip_single(self):
        data = dump_records([sample_record()])
        records = list(MRTReader(io.BytesIO(data)))
        assert len(records) == 1
        record = records[0]
        assert record.message == sample_update()
        assert int(record.peer_asn) == 20205
        assert record.peer_address == "192.0.2.2"
        assert abs(record.timestamp - 1584230400.123456) < 1e-5

    def test_roundtrip_many(self):
        originals = [
            sample_record(timestamp=1584230400.0 + i) for i in range(25)
        ]
        data = dump_records(originals)
        records = list(MRTReader(io.BytesIO(data)))
        assert len(records) == 25
        assert [r.timestamp for r in records] == [
            o.timestamp for o in originals
        ]

    def test_legacy_whole_second_mode(self):
        data = dump_records(
            [sample_record(timestamp=1584230400.75)],
            extended_timestamps=False,
        )
        record = next(iter(MRTReader(io.BytesIO(data))))
        assert record.timestamp == 1584230400.0

    def test_ipv6_envelope(self):
        record = Bgp4mpMessage(
            1584230400.0, 20205, 12456, "2001:db8::2", "2001:db8::1",
            sample_update(),
        )
        data = dump_records([record])
        decoded = next(iter(MRTReader(io.BytesIO(data))))
        assert decoded.peer_address == "2001:db8::2"

    def test_writer_rejects_mixed_families(self):
        record = Bgp4mpMessage(
            0.0, 1, 2, "192.0.2.1", "2001:db8::1", sample_update()
        )
        with pytest.raises(ValueError):
            dump_records([record])

    def test_writer_rejects_empty_message(self):
        record = Bgp4mpMessage(0.0, 1, 2, "192.0.2.1", "192.0.2.2", None)
        with pytest.raises(ValueError):
            dump_records([record])

    def test_writer_counts(self):
        buffer = io.BytesIO()
        writer = MRTWriter(buffer)
        writer.write_all([sample_record(), sample_record()])
        assert writer.record_count == 2

    def test_reader_yields_keepalive_as_its_type(self):
        data = dump_records([sample_record()], extended_timestamps=False)
        # The same session envelope around a header-only KEEPALIVE.
        envelope = data[12:32]
        keepalive = MARKER + struct.pack("!HB", 19, 4)
        data += (
            struct.pack("!IHHI", 1584230401, 16, 4, 20 + len(keepalive))
            + envelope
            + keepalive
        )
        records = list(MRTReader(io.BytesIO(data)))
        assert records[0].message == sample_update()
        assert records[1].message is MessageType.KEEPALIVE
        assert records[1].peer_address == "192.0.2.2"
        # The analysis counts only the UPDATE's one prefix.
        assert len(list(observations_from_mrt(records, "rrc00"))) == 1

    def test_skips_unknown_record_types(self):
        # Prepend a TABLE_DUMP_V2-typed record the reader cannot model.
        alien = struct.pack("!IHHI", 0, 13, 1, 4) + b"\x00" * 4
        data = alien + dump_records([sample_record()])
        reader = MRTReader(io.BytesIO(data))
        assert len(list(reader)) == 1
        assert reader.skipped_records == 1

    def test_strict_mode_raises_on_truncation(self):
        data = dump_records([sample_record()])
        with pytest.raises(MRTError):
            list(MRTReader(io.BytesIO(data[:-3])))

    def test_tolerant_mode_counts_errors(self):
        data = dump_records([sample_record()])
        reader = MRTReader(io.BytesIO(data[:-3]), tolerant=True)
        assert list(reader) == []
        assert reader.error_records == 1


class TestRecordHelpers:
    def test_pack_unpack_ipv4(self):
        afi, packed = pack_address("192.0.2.1")
        assert afi == 1
        assert unpack_address(afi, packed) == "192.0.2.1"

    def test_pack_unpack_ipv6(self):
        afi, packed = pack_address("2001:db8::1")
        assert afi == 2
        assert unpack_address(afi, packed) == "2001:db8::1"

    def test_unpack_rejects_bad_lengths(self):
        with pytest.raises(MRTError):
            unpack_address(1, b"\x01\x02")
        with pytest.raises(MRTError):
            unpack_address(2, b"\x01" * 4)
        with pytest.raises(MRTError):
            unpack_address(9, b"\x01" * 4)

    def test_header_roundtrip(self):
        header = MRTHeader(1584230400, MRTType.BGP4MP, 4, 64)
        decoded, size = decode_header(encode_header(header))
        assert size == 12
        assert decoded.mrt_type == MRTType.BGP4MP
        assert decoded.length == 64

    def test_header_et_microseconds(self):
        header = MRTHeader(100, MRTType.BGP4MP_ET, 4, 64, microseconds=2500)
        decoded, size = decode_header(encode_header(header))
        assert size == 16
        assert decoded.full_timestamp == pytest.approx(100.0025)

    def test_header_rejects_unknown_type(self):
        raw = struct.pack("!IHHI", 0, 99, 0, 0)
        with pytest.raises(MRTError):
            decode_header(raw)
