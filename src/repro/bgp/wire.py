"""Binary wire codec for BGP messages (RFC 4271 + extensions).

The codec is complete enough to round-trip every message the simulator
produces, including IPv6 routes via MP_REACH_NLRI / MP_UNREACH_NLRI
(RFC 4760), classic and large communities, and 4-byte AS paths
(RFC 6793 — we always encode 4-octet ASNs, as modern speakers do once
the capability is negotiated).

The MRT layer wraps these encodings in archive records, so a synthetic
"RouteViews dump" written by :mod:`repro.mrt` contains genuine BGP
bytes.
"""

from __future__ import annotations

import ipaddress
import struct
from typing import Iterator

from repro.bgp.aspath import ASPath, PathSegment, SegmentType
from repro.bgp.attributes import PathAttributes
from repro.bgp.community import Community, CommunitySet, LargeCommunity
from repro.bgp.constants import (
    Afi,
    AttrFlag,
    AttrType,
    BGP_VERSION,
    CANONICAL_FLAGS,
    HEADER_LENGTH,
    MARKER,
    MAX_MESSAGE_LENGTH,
    MessageType,
    OriginCode,
    Safi,
)
from repro.bgp.errors import WireFormatError
from repro.bgp.message import (
    BGPMessage,
    KeepaliveMessage,
    NotificationMessage,
    OpenMessage,
    RouteRefreshMessage,
    UpdateMessage,
)
from repro.netbase.asn import ASN
from repro.netbase.memo import bounded_store, memo_counters
from repro.netbase.prefix import Prefix

_CAP_MP = 1
_CAP_FOUR_OCTET_ASN = 65
_AS_TRANS = 23456

# Precompiled structs for the decode hot path: a month of RouteViews
# archives runs hundreds of millions of messages through these.
_LEN_TYPE = struct.Struct("!HB")
_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")
_HBB = struct.Struct("!HBB")
_AFI_SAFI = struct.Struct("!HB")

_TYPE_UPDATE = int(MessageType.UPDATE)
_TYPE_OPEN = int(MessageType.OPEN)
_TYPE_KEEPALIVE = int(MessageType.KEEPALIVE)
_TYPE_NOTIFICATION = int(MessageType.NOTIFICATION)
_TYPE_ROUTE_REFRESH = int(MessageType.ROUTE_REFRESH)

_ORIGIN_BY_CODE = {int(code): code for code in OriginCode}

# ----------------------------------------------------------------------
# decode memo caches
# ----------------------------------------------------------------------
# Real archives are massively repetitive: the same AS_PATH and
# COMMUNITIES byte strings recur across millions of records, and whole
# path-attribute blocks repeat verbatim (duplicate announcements are
# the paper's subject!).  Decoding each distinct byte string once and
# returning the *same* interned object thereafter both skips the parse
# and enables identity fast paths downstream (``a is b`` implies
# ``a == b`` for these immutable value objects).  All caches are
# bounded — cleared wholesale when full, like the MRT writer's message
# cache — and can be disabled as one unit for the benchmark's
# fast-vs-naive verification.
_MEMO_LIMIT = 16384
_ATTR_BLOCK_MEMO: dict = {}  # raw attr block -> (attrs, reach, unreach)
_AS_PATH_MEMO: dict = {}  # raw AS_PATH value -> ASPath
_COMMUNITY_SET_MEMO: dict = {}  # raw COMMUNITIES value -> CommunitySet
_LARGE_SET_MEMO: dict = {}  # raw LARGE_COMMUNITIES value -> frozenset
_ADDR4_MEMO: dict = {}  # packed IPv4 -> text (NEXT_HOP et al.)
_memo_enabled = True

_ATTR_BLOCK_STATS = memo_counters("wire.attr_block")
_AS_PATH_STATS = memo_counters("wire.as_path")
_COMMUNITY_SET_STATS = memo_counters("wire.community_set")
_LARGE_SET_STATS = memo_counters("wire.large_set")
_ADDR4_STATS = memo_counters("wire.addr4")


def set_decode_memo(enabled: bool) -> bool:
    """Enable/disable (and clear) the attribute-decode memo caches.

    Returns the previous setting.  The read-path tests decode archives
    twice — memo on and off — and assert bit-identical results,
    proving the caches are a pure optimization.
    """
    global _memo_enabled
    previous = _memo_enabled
    _memo_enabled = bool(enabled)
    for cache in (
        _ATTR_BLOCK_MEMO,
        _AS_PATH_MEMO,
        _COMMUNITY_SET_MEMO,
        _LARGE_SET_MEMO,
        _ADDR4_MEMO,
    ):
        cache.clear()
    return previous


def decode_memo_sizes() -> "dict[str, int]":
    """Entry counts of every decode memo (for bound tests)."""
    return {
        "attr_block": len(_ATTR_BLOCK_MEMO),
        "as_path": len(_AS_PATH_MEMO),
        "community_set": len(_COMMUNITY_SET_MEMO),
        "large_set": len(_LARGE_SET_MEMO),
        "addr4": len(_ADDR4_MEMO),
    }


def _ipv4_text(packed: bytes) -> str:
    cached = _ADDR4_MEMO.get(packed)
    if cached is not None:
        _ADDR4_STATS.hits += 1
        return cached
    text = str(ipaddress.IPv4Address(packed))
    if _memo_enabled:
        bounded_store(
            _ADDR4_MEMO, packed, text, _MEMO_LIMIT, _ADDR4_STATS
        )
    return text


# ----------------------------------------------------------------------
# top-level encode / decode
# ----------------------------------------------------------------------
def encode_message(message: BGPMessage) -> bytes:
    """Serialize any BGP message to its RFC 4271 wire form."""
    if isinstance(message, OpenMessage):
        body = _encode_open(message)
        kind = MessageType.OPEN
    elif isinstance(message, UpdateMessage):
        body = _encode_update(message)
        kind = MessageType.UPDATE
    elif isinstance(message, KeepaliveMessage):
        body = b""
        kind = MessageType.KEEPALIVE
    elif isinstance(message, NotificationMessage):
        body = bytes([message.code, message.subcode]) + message.data
        kind = MessageType.NOTIFICATION
    elif isinstance(message, RouteRefreshMessage):
        body = struct.pack("!HBB", message.afi, 0, message.safi)
        kind = MessageType.ROUTE_REFRESH
    else:
        raise WireFormatError(f"cannot encode {type(message).__name__}")
    total = HEADER_LENGTH + len(body)
    if total > MAX_MESSAGE_LENGTH:
        raise WireFormatError(f"message too large: {total} bytes")
    return MARKER + struct.pack("!HB", total, kind) + body


def decode_message(data: bytes) -> BGPMessage:
    """Parse one wire-format BGP message (exact-length input)."""
    message, consumed = decode_message_from(data)
    if consumed != len(data):
        raise WireFormatError(
            f"trailing bytes after message: {len(data) - consumed}"
        )
    return message


def decode_message_from(data) -> "tuple[BGPMessage, int]":
    """Parse one message from the front of *data*; return (msg, consumed).

    *data* may be any bytes-like object; the MRT reader hands in
    zero-copy :class:`memoryview` slices of its read buffer.
    """
    if len(data) < HEADER_LENGTH:
        raise WireFormatError("truncated BGP header")
    if data[:16] != MARKER:
        raise WireFormatError("bad BGP marker")
    length, kind = _LEN_TYPE.unpack_from(data, 16)
    if not HEADER_LENGTH <= length <= MAX_MESSAGE_LENGTH:
        raise WireFormatError(f"bad message length: {length}")
    if len(data) < length:
        raise WireFormatError("truncated BGP message body")
    body = data[HEADER_LENGTH:length]
    if kind == _TYPE_UPDATE:
        return _decode_update(body), length
    if kind == _TYPE_KEEPALIVE:
        if len(body):
            raise WireFormatError("KEEPALIVE with a body")
        return KeepaliveMessage(), length
    if kind == _TYPE_OPEN:
        return _decode_open(body), length
    if kind == _TYPE_ROUTE_REFRESH:
        if len(body) != 4:
            raise WireFormatError("bad ROUTE-REFRESH length")
        afi, _reserved, safi = _HBB.unpack(body)
        return RouteRefreshMessage(afi, safi), length
    if kind == _TYPE_NOTIFICATION:
        if len(body) < 2:
            raise WireFormatError("truncated NOTIFICATION")
        return NotificationMessage(body[0], body[1], bytes(body[2:])), length
    raise WireFormatError(f"unknown message type: {kind}")


def iter_messages(data: bytes) -> Iterator[BGPMessage]:
    """Yield successive messages from a concatenated byte stream."""
    offset = 0
    while offset < len(data):
        message, consumed = decode_message_from(data[offset:])
        yield message
        offset += consumed


# ----------------------------------------------------------------------
# OPEN
# ----------------------------------------------------------------------
def _encode_open(message: OpenMessage) -> bytes:
    asn16 = int(message.asn) if message.asn.is_16bit else _AS_TRANS
    router_id = int(ipaddress.IPv4Address(message.router_id))
    capabilities = bytearray()
    # Multiprotocol: IPv4 and IPv6 unicast.
    for afi in (Afi.IPV4, Afi.IPV6):
        capabilities += bytes([_CAP_MP, 4]) + struct.pack(
            "!HBB", afi, 0, Safi.UNICAST
        )
    if message.four_octet_asn:
        capabilities += bytes([_CAP_FOUR_OCTET_ASN, 4]) + struct.pack(
            "!I", int(message.asn)
        )
    optional = b""
    if capabilities:
        optional = bytes([2, len(capabilities)]) + bytes(capabilities)
    return (
        struct.pack(
            "!BHHI",
            BGP_VERSION,
            asn16,
            message.hold_time,
            router_id,
        )
        + bytes([len(optional)])
        + optional
    )


def _decode_open(body: bytes) -> OpenMessage:
    if len(body) < 10:
        raise WireFormatError("truncated OPEN")
    version, asn16, hold_time, router_id_int = struct.unpack(
        "!BHHI", body[:9]
    )
    if version != BGP_VERSION:
        raise WireFormatError(f"unsupported BGP version: {version}")
    opt_length = body[9]
    optional = body[10 : 10 + opt_length]
    if len(optional) != opt_length:
        raise WireFormatError("truncated OPEN optional parameters")
    asn = asn16
    four_octet = False
    offset = 0
    while offset + 2 <= len(optional):
        param_type, param_length = optional[offset], optional[offset + 1]
        value = optional[offset + 2 : offset + 2 + param_length]
        offset += 2 + param_length
        if param_type != 2:  # only capabilities are modeled
            continue
        cap_offset = 0
        while cap_offset + 2 <= len(value):
            cap_code, cap_length = value[cap_offset], value[cap_offset + 1]
            cap_value = value[cap_offset + 2 : cap_offset + 2 + cap_length]
            cap_offset += 2 + cap_length
            if cap_code == _CAP_FOUR_OCTET_ASN and cap_length == 4:
                asn = struct.unpack("!I", cap_value)[0]
                four_octet = True
    router_id = str(ipaddress.IPv4Address(router_id_int))
    return OpenMessage(
        asn, router_id, hold_time, four_octet_asn=four_octet
    )


# ----------------------------------------------------------------------
# UPDATE
# ----------------------------------------------------------------------
def _encode_update(message: UpdateMessage) -> bytes:
    withdrawn_v4 = [p for p in message.withdrawn if p.version == 4]
    withdrawn_v6 = [p for p in message.withdrawn if p.version == 6]
    announced_v4 = [p for p in message.announced if p.version == 4]
    announced_v6 = [p for p in message.announced if p.version == 6]

    withdrawn_bytes = b"".join(p.to_nlri() for p in withdrawn_v4)
    attrs = bytearray()
    if message.attributes is not None and (announced_v4 or announced_v6):
        attrs += _encode_attributes(message.attributes)
    if announced_v6:
        if message.attributes is None:
            raise WireFormatError("IPv6 NLRI without attributes")
        attrs += _encode_mp_reach(announced_v6, message.attributes)
    if withdrawn_v6:
        attrs += _encode_mp_unreach(withdrawn_v6)
    nlri_bytes = b"".join(p.to_nlri() for p in announced_v4)
    return (
        struct.pack("!H", len(withdrawn_bytes))
        + withdrawn_bytes
        + struct.pack("!H", len(attrs))
        + bytes(attrs)
        + nlri_bytes
    )


def _decode_update(body) -> UpdateMessage:
    if len(body) < 4:
        raise WireFormatError("truncated UPDATE")
    withdrawn_length = _U16.unpack_from(body, 0)[0]
    withdrawn_end = 2 + withdrawn_length
    if withdrawn_end + 2 > len(body):
        raise WireFormatError("truncated UPDATE withdrawn routes")
    withdrawn = list(_decode_nlri_block(body[2:withdrawn_end], 4))
    offset = withdrawn_end + 2
    attr_end = offset + _U16.unpack_from(body, withdrawn_end)[0]
    if attr_end > len(body):
        raise WireFormatError("truncated UPDATE attributes")
    attributes, reach_v6, unreach_v6 = _decode_attribute_block(
        body[offset:attr_end]
    )
    announced = list(_decode_nlri_block(body[attr_end:], 4))
    announced.extend(reach_v6)
    withdrawn.extend(unreach_v6)
    if not announced:
        attributes = None
    return UpdateMessage(
        announced=announced, withdrawn=withdrawn, attributes=attributes
    )


def _decode_nlri_block(data, version: int) -> Iterator[Prefix]:
    offset = 0
    end = len(data)
    from_nlri = Prefix.from_nlri
    while offset < end:
        prefix, consumed = from_nlri(data[offset:], version)
        yield prefix
        offset += consumed


# ----------------------------------------------------------------------
# path attributes
# ----------------------------------------------------------------------
def _encode_attribute(attr_type: AttrType, value: bytes) -> bytes:
    flags = CANONICAL_FLAGS[attr_type]
    if len(value) > 255:
        flags |= AttrFlag.EXTENDED_LENGTH
        return struct.pack("!BBH", flags, attr_type, len(value)) + value
    return struct.pack("!BBB", flags, attr_type, len(value)) + value


def _encode_attributes(attributes: PathAttributes) -> bytes:
    out = bytearray()
    out += _encode_attribute(
        AttrType.ORIGIN, bytes([attributes.origin])
    )
    out += _encode_attribute(
        AttrType.AS_PATH, _encode_as_path(attributes.as_path)
    )
    if attributes.next_hop is not None:
        next_hop = ipaddress.ip_address(attributes.next_hop)
        if next_hop.version == 4:
            out += _encode_attribute(
                AttrType.NEXT_HOP, next_hop.packed
            )
        # IPv6 next hops ride in MP_REACH_NLRI instead.
    if attributes.med is not None:
        out += _encode_attribute(
            AttrType.MULTI_EXIT_DISC, struct.pack("!I", attributes.med)
        )
    if attributes.local_pref is not None:
        out += _encode_attribute(
            AttrType.LOCAL_PREF, struct.pack("!I", attributes.local_pref)
        )
    if attributes.atomic_aggregate:
        out += _encode_attribute(AttrType.ATOMIC_AGGREGATE, b"")
    if attributes.aggregator is not None:
        asn, router_id = attributes.aggregator
        out += _encode_attribute(
            AttrType.AGGREGATOR,
            struct.pack("!I", int(asn))
            + ipaddress.IPv4Address(router_id).packed,
        )
    if attributes.communities.classic:
        payload = b"".join(
            community.to_bytes()
            for community in sorted(attributes.communities.classic)
        )
        out += _encode_attribute(AttrType.COMMUNITIES, payload)
    if attributes.communities.large:
        payload = b"".join(
            community.to_bytes()
            for community in sorted(attributes.communities.large)
        )
        out += _encode_attribute(AttrType.LARGE_COMMUNITIES, payload)
    if attributes.originator_id is not None:
        out += _encode_attribute(
            AttrType.ORIGINATOR_ID,
            ipaddress.IPv4Address(attributes.originator_id).packed,
        )
    if attributes.cluster_list:
        payload = b"".join(
            ipaddress.IPv4Address(entry).packed
            for entry in attributes.cluster_list
        )
        out += _encode_attribute(AttrType.CLUSTER_LIST, payload)
    for type_code, raw in attributes.extra:
        flags = AttrFlag.OPTIONAL | AttrFlag.TRANSITIVE | AttrFlag.PARTIAL
        if len(raw) > 255:
            flags |= AttrFlag.EXTENDED_LENGTH
            out += struct.pack("!BBH", flags, type_code, len(raw)) + raw
        else:
            out += struct.pack("!BBB", flags, type_code, len(raw)) + raw
    return bytes(out)


def _decode_attribute_block(data):
    """Decode one whole attribute block, memoized on its raw bytes.

    Returns ``(attributes, reach_v6, unreach_v6)`` where *attributes*
    is a ready :class:`PathAttributes` (MP next-hop already folded in
    when the block carried no classic NEXT_HOP).  Identical byte blocks
    return the identical interned objects, so the per-stream
    classifiers downstream resolve the common duplicate case with one
    ``is`` check.
    """
    raw = bytes(data)
    if _memo_enabled:
        cached = _ATTR_BLOCK_MEMO.get(raw)
        if cached is not None:
            _ATTR_BLOCK_STATS.hits += 1
            return cached
    fields, reach_v6, unreach_v6, mp_next_hop = _parse_attributes(raw)
    if mp_next_hop is not None and fields.get("next_hop") is None:
        fields["next_hop"] = mp_next_hop
    result = (PathAttributes(**fields), tuple(reach_v6), tuple(unreach_v6))
    if _memo_enabled:
        bounded_store(
            _ATTR_BLOCK_MEMO, raw, result, _MEMO_LIMIT, _ATTR_BLOCK_STATS
        )
    return result


def _decode_attributes(data):
    """Decode the attribute block (compatibility entry point).

    Returns ``(fields, reach_v6, unreach_v6, mp_next_hop)`` where
    *fields* are :class:`PathAttributes` constructor kwargs.  The
    UPDATE hot path uses :func:`_decode_attribute_block` instead; this
    form remains for callers that assemble attributes themselves
    (TABLE_DUMP_V2 RIB entries).
    """
    return _parse_attributes(bytes(data))


def _parse_attributes(data: bytes):
    fields: dict = {}
    extra: list = []
    reach_v6: list = []
    unreach_v6: list = []
    decoders = _ATTR_DECODERS
    offset = 0
    end = len(data)
    while offset < end:
        if offset + 3 > end:
            raise WireFormatError("truncated attribute header")
        flags = data[offset]
        type_code = data[offset + 1]
        if flags & 0x10:  # AttrFlag.EXTENDED_LENGTH
            if offset + 4 > end:
                raise WireFormatError("truncated extended attribute header")
            length = _U16.unpack_from(data, offset + 2)[0]
            value_start = offset + 4
        else:
            length = data[offset + 2]
            value_start = offset + 3
        offset = value_start + length
        if offset > end:
            raise WireFormatError("truncated attribute value")
        value = data[value_start:offset]
        decoder = decoders.get(type_code)
        if decoder is not None:
            decoder(value, fields, reach_v6, unreach_v6)
        else:
            extra.append((type_code, value))
    mp_next_hop = fields.pop("_mp_next_hop", None)
    if extra:
        fields["extra"] = tuple(extra)
    return fields, reach_v6, unreach_v6, mp_next_hop


# Per-attribute decoders, dispatched from a flat table instead of an
# if/elif chain.  Each takes (value bytes, fields, reach_v6, unreach_v6)
# and fills in the PathAttributes constructor kwargs.
def _dec_origin(value, fields, reach_v6, unreach_v6):
    if len(value) != 1:
        raise WireFormatError("bad ORIGIN length")
    try:
        fields["origin"] = _ORIGIN_BY_CODE[value[0]]
    except KeyError:
        raise WireFormatError(f"invalid ORIGIN code: {value[0]}") from None


def _dec_as_path(value, fields, reach_v6, unreach_v6):
    path = _AS_PATH_MEMO.get(value)
    if path is None:
        path = _decode_as_path(value)
        if _memo_enabled:
            bounded_store(
                _AS_PATH_MEMO, value, path, _MEMO_LIMIT, _AS_PATH_STATS
            )
    else:
        _AS_PATH_STATS.hits += 1
    fields["as_path"] = path


def _dec_next_hop(value, fields, reach_v6, unreach_v6):
    if len(value) != 4:
        raise WireFormatError("bad NEXT_HOP length")
    fields["next_hop"] = _ipv4_text(value)


def _dec_med(value, fields, reach_v6, unreach_v6):
    if len(value) != 4:
        raise WireFormatError("bad MED length")
    fields["med"] = _U32.unpack(value)[0]


def _dec_local_pref(value, fields, reach_v6, unreach_v6):
    if len(value) != 4:
        raise WireFormatError("bad LOCAL_PREF length")
    fields["local_pref"] = _U32.unpack(value)[0]


def _dec_atomic_aggregate(value, fields, reach_v6, unreach_v6):
    fields["atomic_aggregate"] = True


def _dec_aggregator(value, fields, reach_v6, unreach_v6):
    if len(value) == 8:
        asn = _U32.unpack(value[:4])[0]
        router = _ipv4_text(value[4:])
    elif len(value) == 6:
        asn = _U16.unpack(value[:2])[0]
        router = _ipv4_text(value[2:])
    else:
        raise WireFormatError("bad AGGREGATOR length")
    fields["aggregator"] = (ASN(asn), router)


def _dec_communities(value, fields, reach_v6, unreach_v6):
    community_set = _COMMUNITY_SET_MEMO.get(value)
    if community_set is None:
        if len(value) % 4:
            raise WireFormatError("bad COMMUNITIES length")
        community_set = CommunitySet(
            Community.from_bytes(value[i : i + 4])
            for i in range(0, len(value), 4)
        )
        if _memo_enabled:
            bounded_store(
                _COMMUNITY_SET_MEMO, value, community_set, _MEMO_LIMIT,
                _COMMUNITY_SET_STATS,
            )
    else:
        _COMMUNITY_SET_STATS.hits += 1
    existing = fields.get("communities")
    if existing is None or not existing.large:
        fields["communities"] = community_set
    else:
        fields["communities"] = CommunitySet(
            community_set.classic, existing.large
        )


def _dec_large_communities(value, fields, reach_v6, unreach_v6):
    large = _LARGE_SET_MEMO.get(value)
    if large is None:
        if len(value) % 12:
            raise WireFormatError("bad LARGE_COMMUNITIES length")
        large = frozenset(
            LargeCommunity.from_bytes(value[i : i + 12])
            for i in range(0, len(value), 12)
        )
        if _memo_enabled:
            bounded_store(
                _LARGE_SET_MEMO, value, large, _MEMO_LIMIT,
                _LARGE_SET_STATS,
            )
    else:
        _LARGE_SET_STATS.hits += 1
    existing = fields.get("communities")
    classic = existing.classic if existing is not None else ()
    fields["communities"] = CommunitySet(classic, large)


def _dec_originator_id(value, fields, reach_v6, unreach_v6):
    if len(value) != 4:
        raise WireFormatError("bad ORIGINATOR_ID length")
    fields["originator_id"] = _ipv4_text(value)


def _dec_cluster_list(value, fields, reach_v6, unreach_v6):
    if len(value) % 4:
        raise WireFormatError("bad CLUSTER_LIST length")
    fields["cluster_list"] = tuple(
        _ipv4_text(value[i : i + 4]) for i in range(0, len(value), 4)
    )


def _dec_mp_reach(value, fields, reach_v6, unreach_v6):
    if len(value) < 5:  # afi + safi + next-hop length + reserved octet
        raise WireFormatError("truncated MP_REACH_NLRI")
    afi, safi = _AFI_SAFI.unpack(value[:3])
    next_hop_length = value[3]
    nlri_offset = 4 + next_hop_length + 1  # +1 reserved octet
    if afi == Afi.IPV6 and safi == Safi.UNICAST:
        if next_hop_length >= 16:
            fields["_mp_next_hop"] = str(
                ipaddress.IPv6Address(value[4:20])
            )
        reach_v6.extend(_decode_nlri_block(value[nlri_offset:], 6))


def _dec_mp_unreach(value, fields, reach_v6, unreach_v6):
    if len(value) < 3:
        raise WireFormatError("truncated MP_UNREACH_NLRI")
    afi, safi = _AFI_SAFI.unpack(value[:3])
    if afi == Afi.IPV6 and safi == Safi.UNICAST:
        unreach_v6.extend(_decode_nlri_block(value[3:], 6))


_ATTR_DECODERS = {
    int(AttrType.ORIGIN): _dec_origin,
    int(AttrType.AS_PATH): _dec_as_path,
    int(AttrType.NEXT_HOP): _dec_next_hop,
    int(AttrType.MULTI_EXIT_DISC): _dec_med,
    int(AttrType.LOCAL_PREF): _dec_local_pref,
    int(AttrType.ATOMIC_AGGREGATE): _dec_atomic_aggregate,
    int(AttrType.AGGREGATOR): _dec_aggregator,
    int(AttrType.COMMUNITIES): _dec_communities,
    int(AttrType.LARGE_COMMUNITIES): _dec_large_communities,
    int(AttrType.ORIGINATOR_ID): _dec_originator_id,
    int(AttrType.CLUSTER_LIST): _dec_cluster_list,
    int(AttrType.MP_REACH_NLRI): _dec_mp_reach,
    int(AttrType.MP_UNREACH_NLRI): _dec_mp_unreach,
}


def _encode_as_path(path: ASPath) -> bytes:
    out = bytearray()
    for segment in path.segments:
        out.append(segment.kind)
        out.append(len(segment.asns))
        for asn in segment.asns:
            out += struct.pack("!I", int(asn))
    return bytes(out)


def _decode_as_path(data: bytes) -> ASPath:
    segments = []
    offset = 0
    while offset < len(data):
        if offset + 2 > len(data):
            raise WireFormatError("truncated AS_PATH segment header")
        kind, count = data[offset], data[offset + 1]
        offset += 2
        needed = count * 4
        if offset + needed > len(data):
            raise WireFormatError("truncated AS_PATH segment")
        asns = struct.unpack(f"!{count}I", data[offset : offset + needed])
        offset += needed
        try:
            segments.append(PathSegment(SegmentType(kind), asns))
        except ValueError as exc:
            raise WireFormatError(f"bad AS_PATH segment type {kind}") from exc
    return ASPath(segments)


def _encode_mp_reach(prefixes, attributes: PathAttributes) -> bytes:
    next_hop = attributes.next_hop
    if next_hop is None or ipaddress.ip_address(next_hop).version != 6:
        next_hop_bytes = bytes(16)
    else:
        next_hop_bytes = ipaddress.IPv6Address(next_hop).packed
    payload = (
        struct.pack("!HB", Afi.IPV6, Safi.UNICAST)
        + bytes([len(next_hop_bytes)])
        + next_hop_bytes
        + b"\x00"
        + b"".join(p.to_nlri() for p in prefixes)
    )
    return _encode_attribute(AttrType.MP_REACH_NLRI, payload)


def _encode_mp_unreach(prefixes) -> bytes:
    payload = struct.pack("!HB", Afi.IPV6, Safi.UNICAST) + b"".join(
        p.to_nlri() for p in prefixes
    )
    return _encode_attribute(AttrType.MP_UNREACH_NLRI, payload)
