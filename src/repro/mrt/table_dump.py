"""TABLE_DUMP_V2 RIB snapshots (RFC 6396 §4.3).

Besides update archives, collectors publish periodic RIB snapshots
(``bview``/``rib`` files).  The paper works from update files, but a
complete collector substrate should produce both — and the analysis
layer uses snapshots to seed classifier state so that the first
announcement of a day compares against the RIB instead of being
"first on stream" (RouteViews users do exactly this).

Implemented subtypes:

* ``PEER_INDEX_TABLE`` (1) — collector id + peer table;
* ``RIB_IPV4_UNICAST`` (2) and ``RIB_IPV6_UNICAST`` (4) — one record
  per prefix with (peer index, originated time, attributes) entries.
"""

from __future__ import annotations

import io
import struct
from typing import BinaryIO, Dict, Iterator, List, Tuple

import ipaddress

from repro.bgp.attributes import PathAttributes
from repro.bgp.wire import (
    _decode_attributes,
    _encode_attributes,
    _encode_mp_reach,
)
from repro.mrt.records import MRTError, MRTType, pack_address, unpack_address
from repro.netbase.prefix import Prefix

PEER_INDEX_TABLE = 1
RIB_IPV4_UNICAST = 2
RIB_IPV6_UNICAST = 4


class RibEntry:
    """One (peer, attributes) entry for a prefix in a snapshot."""

    __slots__ = ("peer_index", "originated_at", "attributes")

    def __init__(
        self,
        peer_index: int,
        originated_at: float,
        attributes: PathAttributes,
    ):
        self.peer_index = int(peer_index)
        self.originated_at = float(originated_at)
        self.attributes = attributes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RibEntry):
            return NotImplemented
        return (
            self.peer_index == other.peer_index
            and int(self.originated_at) == int(other.originated_at)
            and self.attributes == other.attributes
        )

    def __repr__(self) -> str:
        return (
            f"RibEntry(peer={self.peer_index},"
            f" attrs={self.attributes!r})"
        )


class RibSnapshot:
    """A complete TABLE_DUMP_V2 snapshot in memory."""

    def __init__(
        self,
        collector_id: str,
        peers: "List[Tuple[int, str]]",
        *,
        snapshot_time: float = 0.0,
    ):
        self.collector_id = collector_id
        #: (peer ASN, peer address) in index order.
        self.peers = list(peers)
        self.snapshot_time = float(snapshot_time)
        self._tables: Dict[Prefix, List[RibEntry]] = {}

    def add_entry(
        self,
        prefix: Prefix,
        peer_index: int,
        attributes: PathAttributes,
        *,
        originated_at: float = 0.0,
    ) -> None:
        """Record one route in the snapshot."""
        if not 0 <= peer_index < len(self.peers):
            raise MRTError(f"peer index out of range: {peer_index}")
        self._tables.setdefault(prefix, []).append(
            RibEntry(peer_index, originated_at, attributes)
        )

    def entries(self, prefix: Prefix) -> "List[RibEntry]":
        """All entries for *prefix* (empty when absent)."""
        return list(self._tables.get(prefix, ()))

    def prefixes(self) -> "List[Prefix]":
        """All prefixes, sorted."""
        return sorted(self._tables)

    def route_count(self) -> int:
        """Total number of (prefix, peer) routes."""
        return sum(len(entries) for entries in self._tables.values())

    def __len__(self) -> int:
        return len(self._tables)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def write(self, stream: BinaryIO) -> int:
        """Serialize as TABLE_DUMP_V2 records; returns record count."""
        written = 0
        _write_record(
            stream,
            self.snapshot_time,
            PEER_INDEX_TABLE,
            self._encode_peer_index(),
        )
        written += 1
        sequence = 0
        for prefix in self.prefixes():
            subtype = (
                RIB_IPV4_UNICAST if prefix.version == 4 else RIB_IPV6_UNICAST
            )
            _write_record(
                stream,
                self.snapshot_time,
                subtype,
                self._encode_rib_record(sequence, prefix),
            )
            sequence += 1
            written += 1
        return written

    def to_bytes(self) -> bytes:
        """Serialize to bytes."""
        buffer = io.BytesIO()
        self.write(buffer)
        return buffer.getvalue()

    def _encode_peer_index(self) -> bytes:
        collector_bytes = self.collector_id.encode("ascii")[:4].ljust(
            4, b"\x00"
        )
        out = bytearray(collector_bytes)
        out += struct.pack("!H", 0)  # view name length
        out += struct.pack("!H", len(self.peers))
        for peer_asn, peer_address in self.peers:
            afi, packed = pack_address(peer_address)
            peer_type = 0x02 | (0x01 if afi == 2 else 0x00)
            out.append(peer_type)
            out += bytes(4)  # peer BGP id (not modeled)
            out += packed
            out += struct.pack("!I", peer_asn)
        return bytes(out)

    def _encode_rib_record(self, sequence: int, prefix: Prefix) -> bytes:
        out = bytearray(struct.pack("!I", sequence))
        out += prefix.to_nlri()
        entries = self._tables[prefix]
        out += struct.pack("!H", len(entries))
        for entry in entries:
            attributes = _encode_attributes(entry.attributes)
            next_hop = entry.attributes.next_hop
            if (
                next_hop is not None
                and ipaddress.ip_address(next_hop).version == 6
            ):
                # TABLE_DUMP_V2 convention: IPv6 next hops travel in an
                # MP_REACH_NLRI attribute with an empty NLRI field.
                attributes += _encode_mp_reach((), entry.attributes)
            out += struct.pack(
                "!HIH",
                entry.peer_index,
                int(entry.originated_at),
                len(attributes),
            )
            out += attributes
        return bytes(out)

    # ------------------------------------------------------------------
    # parsing
    # ------------------------------------------------------------------
    @classmethod
    def read(cls, stream: BinaryIO) -> "RibSnapshot":
        """Parse a snapshot from TABLE_DUMP_V2 records."""
        snapshot: "RibSnapshot | None" = None
        while True:
            header = stream.read(12)
            if not header:
                break
            if len(header) < 12:
                raise MRTError("truncated TABLE_DUMP_V2 header")
            timestamp, mrt_type, subtype, length = struct.unpack(
                "!IHHI", header
            )
            body = stream.read(length)
            if len(body) < length:
                raise MRTError("truncated TABLE_DUMP_V2 body")
            if mrt_type != MRTType.TABLE_DUMP_V2:
                continue  # interleaved foreign records are skipped
            if subtype == PEER_INDEX_TABLE:
                snapshot = cls._decode_peer_index(body)
                snapshot.snapshot_time = float(timestamp)
            elif subtype in (RIB_IPV4_UNICAST, RIB_IPV6_UNICAST):
                if snapshot is None:
                    raise MRTError("RIB record before PEER_INDEX_TABLE")
                version = 4 if subtype == RIB_IPV4_UNICAST else 6
                snapshot._decode_rib_record(body, version)
        if snapshot is None:
            raise MRTError("no PEER_INDEX_TABLE in stream")
        return snapshot

    @classmethod
    def _decode_peer_index(cls, body: bytes) -> "RibSnapshot":
        collector_id = body[:4].rstrip(b"\x00").decode("ascii")
        view_length = struct.unpack("!H", body[4:6])[0]
        offset = 6 + view_length
        peer_count = struct.unpack("!H", body[offset : offset + 2])[0]
        offset += 2
        peers: List[Tuple[int, str]] = []
        for _ in range(peer_count):
            peer_type = body[offset]
            offset += 1 + 4  # type + BGP id
            if peer_type & 0x01:
                address = unpack_address(2, body[offset : offset + 16])
                offset += 16
            else:
                address = unpack_address(1, body[offset : offset + 4])
                offset += 4
            asn = struct.unpack("!I", body[offset : offset + 4])[0]
            offset += 4
            peers.append((asn, address))
        return cls("", peers).replace_collector(collector_id)

    def replace_collector(self, collector_id: str) -> "RibSnapshot":
        """Set the collector id (builder helper)."""
        self.collector_id = collector_id
        return self

    def _decode_rib_record(self, body: bytes, version: int) -> None:
        offset = 4  # skip sequence
        prefix, consumed = Prefix.from_nlri(body[offset:], version)
        offset += consumed
        entry_count = struct.unpack("!H", body[offset : offset + 2])[0]
        offset += 2
        for _ in range(entry_count):
            peer_index, originated, attr_length = struct.unpack(
                "!HIH", body[offset : offset + 8]
            )
            offset += 8
            attr_bytes = body[offset : offset + attr_length]
            offset += attr_length
            fields, reach_v6, _unreach, mp_next_hop = _decode_attributes(
                attr_bytes
            )
            if mp_next_hop is not None and fields.get("next_hop") is None:
                fields["next_hop"] = mp_next_hop
            self.add_entry(
                prefix,
                peer_index,
                PathAttributes(**fields),
                originated_at=float(originated),
            )


def _write_record(
    stream: BinaryIO, timestamp: float, subtype: int, body: bytes
) -> None:
    stream.write(
        struct.pack(
            "!IHHI",
            int(timestamp),
            MRTType.TABLE_DUMP_V2,
            subtype,
            len(body),
        )
    )
    stream.write(body)


def snapshot_from_collector(collector, *, at: float = 0.0) -> RibSnapshot:
    """Reconstruct a RIB snapshot from a collector's update archive.

    Replays the archived messages up to time *at* (default: all) and
    keeps the latest surviving announcement per (session, prefix) —
    exactly what the collector's RIB would contain.
    """
    peers: List[Tuple[int, str]] = []
    peer_index: Dict[Tuple[int, str], int] = {}
    state: Dict[Tuple[int, Prefix], Tuple[float, PathAttributes]] = {}
    for record in collector.records:
        if at and record.timestamp > at:
            break
        key = (int(record.peer_asn), record.peer_address)
        if key not in peer_index:
            peer_index[key] = len(peers)
            peers.append(key)
        index = peer_index[key]
        for prefix in record.message.withdrawn:
            state.pop((index, prefix), None)
        if record.message.announced:
            attributes = record.message.attributes
            for prefix in record.message.announced:
                state[(index, prefix)] = (record.timestamp, attributes)
    snapshot = RibSnapshot(
        collector.name, peers, snapshot_time=at
    )
    for (index, prefix), (timestamp, attributes) in sorted(
        state.items(), key=lambda item: (item[0][1], item[0][0])
    ):
        snapshot.add_entry(
            prefix, index, attributes, originated_at=timestamp
        )
    return snapshot
