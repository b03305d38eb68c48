"""MRT archive reader.

Streams :class:`~repro.mrt.records.Bgp4mpMessage` objects out of a
binary archive.  Unsupported record types are skipped (real archives
interleave state changes and table dumps with updates), malformed
records raise :class:`~repro.mrt.records.MRTError` unless the reader is
constructed with ``tolerant=True`` — real collector archives do contain
occasional damage, and the paper's pipeline drops rather than crashes.

The reader is the front of the analysis hot path (a month of
RouteViews archives is hundreds of millions of records), so it reads
the stream in large chunks and unpacks each record's fields straight
from that buffer instead of issuing one ``stream.read`` per field; the
one slice it copies is the BGP message the wire codec decodes.
Records of unmodeled types are *skipped* without ever materializing
their bodies, and the per-session MRT envelope (ASNs + packed
addresses) is memoized on its raw bytes — an archive carries only a
handful of distinct sessions but repeats the envelope on every record.
Each record is built from the memoized envelope's validated values.
"""

from __future__ import annotations

import struct
from typing import BinaryIO, Iterator

from repro.bgp.errors import WireFormatError
from repro.bgp.wire import decode_message_from
from repro.mrt.records import (
    HEADER_STRUCT,
    MICROSECONDS_STRUCT,
    Bgp4mpMessage,
    Bgp4mpSubtype,
    MRTError,
    MRTType,
    unpack_address,
)
from repro.netbase.asn import ASN
from repro.netbase.memo import bounded_store, memo_counters

_HEADER_SIZE = 12
_CHUNK_SIZE = 1 << 16  # 64 KiB read granularity

_AS4_ENVELOPE = struct.Struct("!IIHH")
_AS2_ENVELOPE = struct.Struct("!HHHH")
_U16 = struct.Struct("!H")

_BGP4MP = int(MRTType.BGP4MP)
_BGP4MP_ET = int(MRTType.BGP4MP_ET)
_MESSAGE = int(Bgp4mpSubtype.MESSAGE)
_MESSAGE_AS4 = int(Bgp4mpSubtype.MESSAGE_AS4)

#: Per-reader envelope memo bound (a damaged archive could otherwise
#: grow it without limit; genuine archives have few sessions).
_ENVELOPE_MEMO_LIMIT = 4096

#: The envelope memo is per-reader, but its effectiveness counters are
#: process-wide like every other named memo's.
_ENVELOPE_STATS = memo_counters("mrt.envelope")


class MRTReader:
    """Iterate BGP4MP messages from an MRT byte stream.

    >>> for record in MRTReader(open(path, 'rb')):    # doctest: +SKIP
    ...     process(record)
    """

    def __init__(self, stream: BinaryIO, *, tolerant: bool = False):
        self._stream = stream
        self._tolerant = bool(tolerant)
        self._skipped = 0
        self._errors = 0
        self._buffer = b""
        self._pos = 0
        self._stream_eof = False
        # Raw envelope bytes -> (peer_asn, local_asn, peer_address,
        # local_address), the values every record of the session shares.
        self._envelopes: dict = {}

    @property
    def skipped_records(self) -> int:
        """Records skipped because their type is not modeled."""
        return self._skipped

    @property
    def error_records(self) -> int:
        """Records dropped due to damage (tolerant mode only)."""
        return self._errors

    def __iter__(self) -> Iterator[Bgp4mpMessage]:
        # The per-record path runs on local names: one header unpack,
        # one envelope-memo lookup, one message decode and one record
        # built from the memoized envelope.  Refills, skips and damage
        # go through the methods below.
        unpack_header = HEADER_STRUCT.unpack_from
        unpack_u16 = _U16.unpack_from
        unpack_u32 = MICROSECONDS_STRUCT.unpack_from
        envelopes = self._envelopes
        envelope_stats = _ENVELOPE_STATS
        decode = decode_message_from
        make_record = Bgp4mpMessage.from_envelope
        while True:
            buffer = self._buffer
            pos = self._pos
            if len(buffer) - pos < _HEADER_SIZE:
                if not self._fill(_HEADER_SIZE):
                    if len(self._buffer) > self._pos:
                        self._pos = len(self._buffer)
                        self._damaged(
                            "truncated MRT header at end of stream"
                        )
                    return
                buffer = self._buffer
                pos = self._pos
            timestamp, mrt_type, subtype, length = unpack_header(buffer, pos)
            start = pos + _HEADER_SIZE
            end = start + length
            self._pos = start
            if mrt_type != _BGP4MP and mrt_type != _BGP4MP_ET:
                # Fast skip: the body of an unmodeled record is never
                # read into a Python object, just stepped over.
                if self._skip(length):
                    self._skipped += 1
                else:
                    self._damaged("truncated MRT record body")
                continue
            if end > len(buffer):
                if not self._fill(length):
                    self._pos = len(self._buffer)
                    self._damaged("truncated MRT record body")
                    continue
                buffer = self._buffer
                start = self._pos
                end = start + length
            self._pos = end
            if mrt_type == _BGP4MP_ET:
                if length <= 4:
                    # length == 4 is the microseconds field alone: an
                    # empty message body is damage, not a record.
                    self._damaged("BGP4MP_ET record too short")
                    continue
                timestamp += unpack_u32(buffer, start)[0] / 1_000_000
                start += 4
            else:
                timestamp = float(timestamp)
            if subtype == _MESSAGE_AS4:
                if end - start < 12:
                    self._damaged("truncated BGP4MP_AS4 envelope")
                    continue
                afi = unpack_u16(buffer, start + 10)[0]
                offset = 12
            elif subtype == _MESSAGE:
                if end - start < 8:
                    self._damaged("truncated BGP4MP envelope")
                    continue
                afi = unpack_u16(buffer, start + 6)[0]
                offset = 8
            else:
                self._skipped += 1
                continue
            envelope_end = start + offset + (8 if afi == 1 else 32)
            envelope_key = buffer[start : min(envelope_end, end)]
            try:
                envelope = envelopes.get(envelope_key)
                if envelope is None:
                    envelope = bounded_store(
                        envelopes,
                        envelope_key,
                        self._decode_envelope(
                            envelope_key, subtype, afi, offset
                        ),
                        _ENVELOPE_MEMO_LIMIT,
                        envelope_stats,
                    )
                else:
                    envelope_stats.hits += 1
                message, _consumed = decode(buffer[envelope_end:end])
            except (MRTError, WireFormatError, ValueError) as exc:
                self._damaged(str(exc))
                continue
            yield make_record(timestamp, envelope, message)

    # ------------------------------------------------------------------
    # buffered input
    # ------------------------------------------------------------------
    def _fill(self, needed: int) -> bool:
        """Ensure *needed* bytes are buffered past the read position."""
        while len(self._buffer) - self._pos < needed:
            if self._stream_eof:
                return False
            chunk = self._stream.read(max(_CHUNK_SIZE, needed))
            if not chunk:
                self._stream_eof = True
                return False
            if self._pos:
                self._buffer = self._buffer[self._pos :] + chunk
                self._pos = 0
            else:
                self._buffer += chunk
        return True

    def _skip(self, count: int) -> bool:
        """Advance past *count* bytes without materializing them."""
        available = len(self._buffer) - self._pos
        if available >= count:
            self._pos += count
            return True
        count -= available
        self._buffer = b""
        self._pos = 0
        while count > 0:
            chunk = self._stream.read(min(count, _CHUNK_SIZE))
            if not chunk:
                self._stream_eof = True
                return False
            count -= len(chunk)
        return True

    # ------------------------------------------------------------------
    # record decode
    # ------------------------------------------------------------------
    @staticmethod
    def _decode_envelope(raw: bytes, subtype: int, afi: int, offset: int):
        if subtype == _MESSAGE_AS4:
            peer_asn, local_asn, _iface, _afi = _AS4_ENVELOPE.unpack_from(
                raw, 0
            )
        else:
            peer_asn, local_asn, _iface, _afi = _AS2_ENVELOPE.unpack_from(
                raw, 0
            )
        addr_size = 4 if afi == 1 else 16
        peer_address = unpack_address(afi, raw[offset : offset + addr_size])
        local_address = unpack_address(
            afi, raw[offset + addr_size : offset + 2 * addr_size]
        )
        # Validated once per distinct envelope: every record of the
        # session is built from these very objects.
        return ASN(peer_asn), ASN(local_asn), peer_address, local_address

    def _damaged(self, reason: str) -> None:
        """Count one damaged record, or raise in strict mode."""
        if not self._tolerant:
            raise MRTError(reason)
        self._errors += 1

