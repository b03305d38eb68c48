"""MRT archive writer.

Produces byte-exact RFC 6396 records so the synthetic collector feeds
look like real RouteViews / RIS update archives.  The writer supports
both the microsecond-resolution ``BGP4MP_ET`` records used by modern
collectors and the legacy whole-second ``BGP4MP`` records, because the
paper's cleaning step (§4) must disambiguate same-second messages from
the latter and we want that code path exercised end to end.
"""

from __future__ import annotations

import io
import struct
from typing import BinaryIO, Iterable

from repro.bgp.message import UpdateMessage
from repro.bgp.wire import encode_message
from repro.mrt.records import (
    Bgp4mpMessage,
    Bgp4mpSubtype,
    MRTType,
    pack_address,
)


class MRTWriter:
    """Stream MRT records to a binary file object.

    >>> buffer = io.BytesIO()
    >>> writer = MRTWriter(buffer)                      # doctest: +SKIP
    >>> writer.write_bgp4mp(record)                     # doctest: +SKIP
    """

    #: Encoded-message cache bound; collector feeds are duplicate-heavy
    #: (nn announcements, beacon re-announcements, post-reset table
    #: transfers), so value-identical messages recur constantly.
    _MESSAGE_CACHE_LIMIT = 8192

    def __init__(self, stream: BinaryIO, *, extended_timestamps: bool = True):
        self._stream = stream
        self._extended = bool(extended_timestamps)
        self._count = 0
        # Streaming spill writers encode one record per simulated
        # delivery, so the per-record constants are cached: the
        # session envelope (address packing is the expensive part) per
        # peer, and the BGP wire bytes per value-identical message.
        self._envelopes: dict = {}
        self._message_bytes: dict = {}

    @property
    def record_count(self) -> int:
        """Number of records written so far."""
        return self._count

    def write_bgp4mp(self, record: Bgp4mpMessage) -> None:
        """Write one BGP4MP(_ET) MESSAGE_AS4 record."""
        if record.message is None:
            raise ValueError("cannot archive a record without a message")
        self.write_message(
            record.timestamp,
            int(record.peer_asn),
            int(record.local_asn),
            record.peer_address,
            record.local_address,
            record.message,
        )

    def write_message(
        self,
        timestamp: float,
        peer_asn: int,
        local_asn: int,
        peer_address: str,
        local_address: str,
        message: UpdateMessage,
    ) -> None:
        """Record-object-free fast path for streaming spill writers.

        Byte-identical to :meth:`write_bgp4mp`; skips the
        :class:`Bgp4mpMessage` construction the per-delivery hot loop
        would otherwise pay.
        """
        envelope_key = (peer_asn, local_asn, peer_address, local_address)
        envelope = self._envelopes.get(envelope_key)
        if envelope is None:
            envelope = self._encode_envelope_fields(
                peer_asn, local_asn, peer_address, local_address
            )
            self._envelopes[envelope_key] = envelope
        wire = self._message_bytes.get(message)
        if wire is None:
            if len(self._message_bytes) >= self._MESSAGE_CACHE_LIMIT:
                self._message_bytes.clear()
            wire = encode_message(message)
            self._message_bytes[message] = wire
        body_length = len(envelope) + len(wire)
        if self._extended:
            microseconds = int(round((timestamp % 1) * 1_000_000))
            # Guard against float rounding pushing us to a full second.
            microseconds = min(microseconds, 999_999)
            self._stream.write(
                struct.pack(
                    "!IHHII",
                    int(timestamp),
                    MRTType.BGP4MP_ET,
                    Bgp4mpSubtype.MESSAGE_AS4,
                    body_length + 4,
                    microseconds,
                )
                + envelope
                + wire
            )
        else:
            self._stream.write(
                struct.pack(
                    "!IHHI",
                    int(timestamp),
                    MRTType.BGP4MP,
                    Bgp4mpSubtype.MESSAGE_AS4,
                    body_length,
                )
                + envelope
                + wire
            )
        self._count += 1

    def write_all(self, records: Iterable[Bgp4mpMessage]) -> int:
        """Write every record from an iterable; return the count."""
        written = 0
        for record in records:
            self.write_bgp4mp(record)
            written += 1
        return written

    @staticmethod
    def _encode_envelope_fields(
        peer_asn: int,
        local_asn: int,
        peer_address: str,
        local_address: str,
    ) -> bytes:
        peer_afi, peer_packed = pack_address(peer_address)
        local_afi, local_packed = pack_address(local_address)
        if peer_afi != local_afi:
            raise ValueError(
                "peer and local addresses must share an address family"
            )
        return (
            struct.pack(
                "!IIHH",
                int(peer_asn),
                int(local_asn),
                0,  # interface index: not meaningful for collectors
                peer_afi,
            )
            + peer_packed
            + local_packed
        )


def dump_records(records: Iterable[Bgp4mpMessage], **kwargs) -> bytes:
    """Serialize records to bytes in one call (convenience for tests)."""
    buffer = io.BytesIO()
    writer = MRTWriter(buffer, **kwargs)
    writer.write_all(records)
    return buffer.getvalue()
