"""MRT record structures (RFC 6396).

We implement the two record families the reproduction needs:

* ``BGP4MP`` / ``BGP4MP_ET`` with the ``MESSAGE_AS4`` and
  ``MESSAGE_AS4_ADDPATH``-free subtypes — one archived BGP message with
  peer/local ASN + address envelope and (for the ``_ET`` variant)
  microsecond timestamps.  Collector projects record update files in
  exactly this shape; some collectors only store whole seconds, which
  the paper's cleaning step must repair — our writer can emulate both.
* ``TABLE_DUMP_V2`` — only the record type code here; the
  ``PEER_INDEX_TABLE`` and RIB snapshot codec lives in
  :mod:`repro.mrt.table_dump`.
"""

from __future__ import annotations

import enum
import ipaddress
import struct
from repro.bgp.constants import MessageType
from repro.bgp.message import UpdateMessage
from repro.netbase.asn import ASN


class MRTError(ValueError):
    """An MRT record is malformed or uses an unsupported subtype."""


class MRTType(enum.IntEnum):
    """MRT record type codes (subset)."""

    TABLE_DUMP_V2 = 13
    BGP4MP = 16
    BGP4MP_ET = 17


class Bgp4mpSubtype(enum.IntEnum):
    """BGP4MP subtypes (subset)."""

    STATE_CHANGE = 0
    MESSAGE = 1
    MESSAGE_AS4 = 4
    STATE_CHANGE_AS4 = 5


_AFI_IPV4 = 1
_AFI_IPV6 = 2

_new_object = object.__new__

#: Precompiled header structs (the reader unpacks one per record).
HEADER_STRUCT = struct.Struct("!IHHI")
MICROSECONDS_STRUCT = struct.Struct("!I")

class MRTHeader:
    """The common MRT record header."""

    __slots__ = ("timestamp", "mrt_type", "subtype", "length", "microseconds")

    def __init__(
        self,
        timestamp: float,
        mrt_type: int,
        subtype: int,
        length: int,
        microseconds: int = 0,
    ):
        self.timestamp = float(timestamp)
        self.mrt_type = MRTType(mrt_type)
        self.subtype = subtype
        self.length = length
        self.microseconds = microseconds

    @property
    def full_timestamp(self) -> float:
        """Seconds including the extended-timestamp microseconds."""
        return int(self.timestamp) + self.microseconds / 1_000_000

    def __repr__(self) -> str:
        return (
            f"MRTHeader(ts={self.timestamp}, type={self.mrt_type.name},"
            f" subtype={self.subtype}, length={self.length})"
        )


class Bgp4mpMessage:
    """A decoded BGP4MP(_ET) MESSAGE(_AS4) record.

    Carries the archived BGP message (an :class:`UpdateMessage`, or the
    :class:`MessageType` of any other message type) plus the session
    envelope that the analysis pipeline keys streams on: (peer ASN, peer address) is the
    paper's notion of a *BGP session* at a collector.
    """

    __slots__ = (
        "timestamp",
        "peer_asn",
        "local_asn",
        "peer_address",
        "local_address",
        "message",
    )

    def __init__(
        self,
        timestamp: float,
        peer_asn: int,
        local_asn: int,
        peer_address: str,
        local_address: str,
        message: "UpdateMessage | MessageType | None",
    ):
        self.timestamp = float(timestamp)
        self.peer_asn = ASN(peer_asn)
        self.local_asn = ASN(local_asn)
        self.peer_address = peer_address
        self.local_address = local_address
        self.message = message

    @classmethod
    def from_envelope(
        cls,
        timestamp: float,
        envelope: "tuple[ASN, ASN, str, str]",
        message: "UpdateMessage | MessageType",
    ) -> "Bgp4mpMessage":
        """Build a record from an already validated session envelope.

        *timestamp* must be a float and *envelope* the
        ``(peer_asn, local_asn, peer_address, local_address)`` tuple
        of :class:`ASN` objects and address strings that the reader's
        envelope memo holds, so none of them is converted again.
        """
        record = _new_object(cls)
        record.timestamp = timestamp
        (
            record.peer_asn,
            record.local_asn,
            record.peer_address,
            record.local_address,
        ) = envelope
        record.message = message
        return record

    def __repr__(self) -> str:
        return (
            f"Bgp4mpMessage(ts={self.timestamp}, peer_asn={int(self.peer_asn)},"
            f" peer={self.peer_address}, message={self.message!r})"
        )


def pack_address(address: str) -> "tuple[int, bytes]":
    """Return (AFI, packed bytes) for a text IP address."""
    parsed = ipaddress.ip_address(address)
    afi = _AFI_IPV4 if parsed.version == 4 else _AFI_IPV6
    return afi, parsed.packed


def unpack_address(afi: int, data: bytes) -> str:
    """Decode a packed address for the given AFI.

    The MRT reader calls this once per distinct session envelope, not
    once per record: its envelope memo keeps the result.
    """
    packed = bytes(data)
    if afi == _AFI_IPV4:
        if len(packed) != 4:
            raise MRTError(f"bad IPv4 address length: {len(packed)}")
        return str(ipaddress.IPv4Address(packed))
    if afi == _AFI_IPV6:
        if len(packed) != 16:
            raise MRTError(f"bad IPv6 address length: {len(packed)}")
        return str(ipaddress.IPv6Address(packed))
    raise MRTError(f"unsupported AFI: {afi}")


def encode_header(header: MRTHeader) -> bytes:
    """Serialize the common header (12 or 16 bytes for _ET)."""
    base = HEADER_STRUCT.pack(
        int(header.timestamp),
        header.mrt_type,
        header.subtype,
        header.length,
    )
    if header.mrt_type == MRTType.BGP4MP_ET:
        return base + MICROSECONDS_STRUCT.pack(header.microseconds)
    return base


def decode_header(data: bytes) -> "tuple[MRTHeader, int]":
    """Parse the common header; return (header, header_size)."""
    if len(data) < 12:
        raise MRTError("truncated MRT header")
    timestamp, mrt_type, subtype, length = HEADER_STRUCT.unpack(data[:12])
    try:
        kind = MRTType(mrt_type)
    except ValueError as exc:
        raise MRTError(f"unsupported MRT type: {mrt_type}") from exc
    header = MRTHeader(timestamp, kind, subtype, length)
    size = 12
    if kind == MRTType.BGP4MP_ET:
        if len(data) < 16:
            raise MRTError("truncated BGP4MP_ET header")
        header.microseconds = MICROSECONDS_STRUCT.unpack(data[12:16])[0]
        # The microsecond field is part of the record body per RFC 6396,
        # so `length` includes it; account for that at the call site.
        size = 16
    return header, size
