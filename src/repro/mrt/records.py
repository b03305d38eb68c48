"""MRT record structures (RFC 6396).

We implement the two record families the reproduction needs:

* ``BGP4MP`` / ``BGP4MP_ET`` with the ``MESSAGE_AS4`` and
  ``MESSAGE_AS4_ADDPATH``-free subtypes — one archived BGP message with
  peer/local ASN + address envelope and (for the ``_ET`` variant)
  microsecond timestamps.  Collector projects record update files in
  exactly this shape; some collectors only store whole seconds, which
  the paper's cleaning step must repair — our writer can emulate both.
* ``TABLE_DUMP_V2`` ``PEER_INDEX_TABLE`` — enough to tag dumps with the
  collector identity.
"""

from __future__ import annotations

import enum
import ipaddress
import struct
from typing import Optional

from repro.bgp.message import BGPMessage
from repro.netbase.asn import ASN
from repro.netbase.memo import bounded_store, memo_counters


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


class TableDumpV2Subtype(enum.IntEnum):
    """TABLE_DUMP_V2 subtypes (subset)."""

    PEER_INDEX_TABLE = 1


_AFI_IPV4 = 1
_AFI_IPV6 = 2

#: Precompiled header structs (the reader unpacks one per record).
HEADER_STRUCT = struct.Struct("!IHHI")
MICROSECONDS_STRUCT = struct.Struct("!I")

#: Packed-address -> text memo.  Collector archives carry the same
#: handful of session addresses on every record; formatting them
#: through :mod:`ipaddress` once per distinct value instead of once per
#: record is a large win on the decode hot path.  Bounded: cleared
#: wholesale when full.
_ADDRESS_MEMO: dict = {}
_ADDRESS_MEMO_LIMIT = 8192
_address_memo_enabled = True
_ADDRESS_STATS = memo_counters("mrt.address")


def set_address_memo(enabled: bool) -> bool:
    """Enable/disable (and clear) the packed-address memo.

    Returns the previous setting (the read-path tests toggle this).
    """
    global _address_memo_enabled
    previous = _address_memo_enabled
    _address_memo_enabled = bool(enabled)
    _ADDRESS_MEMO.clear()
    return previous


def address_memo_size() -> int:
    """Current number of memoized addresses (for bound tests)."""
    return len(_ADDRESS_MEMO)


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

    Carries the archived BGP message plus the session envelope that the
    analysis pipeline keys streams on: (peer ASN, peer address) is the
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
        message: Optional[BGPMessage],
    ):
        self.timestamp = float(timestamp)
        self.peer_asn = ASN(peer_asn)
        self.local_asn = ASN(local_asn)
        self.peer_address = peer_address
        self.local_address = local_address
        self.message = message

    def __repr__(self) -> str:
        return (
            f"Bgp4mpMessage(ts={self.timestamp}, peer_asn={int(self.peer_asn)},"
            f" peer={self.peer_address}, message={self.message!r})"
        )


class PeerIndexTable:
    """A TABLE_DUMP_V2 PEER_INDEX_TABLE record (collector identity)."""

    __slots__ = ("collector_id", "view_name", "peers")

    def __init__(
        self,
        collector_id: str,
        view_name: str = "",
        peers: "tuple[tuple[int, str], ...]" = (),
    ):
        self.collector_id = collector_id
        self.view_name = view_name
        self.peers = tuple(peers)

    def __repr__(self) -> str:
        return (
            f"PeerIndexTable(collector='{self.collector_id}',"
            f" peers={len(self.peers)})"
        )


def pack_address(address: str) -> "tuple[int, bytes]":
    """Return (AFI, packed bytes) for a text IP address."""
    parsed = ipaddress.ip_address(address)
    afi = _AFI_IPV4 if parsed.version == 4 else _AFI_IPV6
    return afi, parsed.packed


def unpack_address(afi: int, data: bytes) -> str:
    """Decode a packed address for the given AFI."""
    packed = bytes(data)
    if _address_memo_enabled:
        cached = _ADDRESS_MEMO.get((afi, packed))
        if cached is not None:
            _ADDRESS_STATS.hits += 1
            return cached
    if afi == _AFI_IPV4:
        if len(packed) != 4:
            raise MRTError(f"bad IPv4 address length: {len(packed)}")
        text = str(ipaddress.IPv4Address(packed))
    elif afi == _AFI_IPV6:
        if len(packed) != 16:
            raise MRTError(f"bad IPv6 address length: {len(packed)}")
        text = str(ipaddress.IPv6Address(packed))
    else:
        raise MRTError(f"unsupported AFI: {afi}")
    if _address_memo_enabled:
        bounded_store(
            _ADDRESS_MEMO, (afi, packed), text, _ADDRESS_MEMO_LIMIT,
            _ADDRESS_STATS,
        )
    return text


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
