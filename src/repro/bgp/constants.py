"""Protocol constants from RFC 4271 and the IANA BGP registries."""

from __future__ import annotations

import enum

#: Fixed BGP header: 16-byte marker + 2-byte length + 1-byte type.
HEADER_LENGTH = 19
#: All-ones marker required by RFC 4271 §4.1.
MARKER = b"\xff" * 16
#: Maximum message size permitted by RFC 4271.
MAX_MESSAGE_LENGTH = 4096
#: BGP version negotiated in OPEN.
BGP_VERSION = 4


class MessageType(enum.IntEnum):
    """BGP message type codes (RFC 4271 §4.1)."""

    OPEN = 1
    UPDATE = 2
    NOTIFICATION = 3
    KEEPALIVE = 4
    ROUTE_REFRESH = 5  # RFC 2918


class AttrType(enum.IntEnum):
    """Path attribute type codes (IANA BGP Path Attributes registry)."""

    ORIGIN = 1
    AS_PATH = 2
    NEXT_HOP = 3
    MULTI_EXIT_DISC = 4
    LOCAL_PREF = 5
    ATOMIC_AGGREGATE = 6
    AGGREGATOR = 7
    COMMUNITIES = 8
    ORIGINATOR_ID = 9
    CLUSTER_LIST = 10
    MP_REACH_NLRI = 14
    MP_UNREACH_NLRI = 15
    AS4_PATH = 17
    AS4_AGGREGATOR = 18
    LARGE_COMMUNITIES = 32


class AttrFlag(enum.IntFlag):
    """Path attribute flag bits (RFC 4271 §4.3)."""

    OPTIONAL = 0x80
    TRANSITIVE = 0x40
    PARTIAL = 0x20
    EXTENDED_LENGTH = 0x10


#: Canonical flags per attribute type for encoding.  Decoders are more
#: permissive (they only check the OPTIONAL/TRANSITIVE combination when
#: the attribute is recognized).
CANONICAL_FLAGS = {
    AttrType.ORIGIN: AttrFlag.TRANSITIVE,
    AttrType.AS_PATH: AttrFlag.TRANSITIVE,
    AttrType.NEXT_HOP: AttrFlag.TRANSITIVE,
    AttrType.MULTI_EXIT_DISC: AttrFlag.OPTIONAL,
    AttrType.LOCAL_PREF: AttrFlag.TRANSITIVE,
    AttrType.ATOMIC_AGGREGATE: AttrFlag.TRANSITIVE,
    AttrType.AGGREGATOR: AttrFlag.OPTIONAL | AttrFlag.TRANSITIVE,
    AttrType.COMMUNITIES: AttrFlag.OPTIONAL | AttrFlag.TRANSITIVE,
    AttrType.ORIGINATOR_ID: AttrFlag.OPTIONAL,
    AttrType.CLUSTER_LIST: AttrFlag.OPTIONAL,
    AttrType.MP_REACH_NLRI: AttrFlag.OPTIONAL,
    AttrType.MP_UNREACH_NLRI: AttrFlag.OPTIONAL,
    AttrType.AS4_PATH: AttrFlag.OPTIONAL | AttrFlag.TRANSITIVE,
    AttrType.AS4_AGGREGATOR: AttrFlag.OPTIONAL | AttrFlag.TRANSITIVE,
    AttrType.LARGE_COMMUNITIES: AttrFlag.OPTIONAL | AttrFlag.TRANSITIVE,
}


class OriginCode(enum.IntEnum):
    """ORIGIN attribute values (RFC 4271 §5.1.1)."""

    IGP = 0
    EGP = 1
    INCOMPLETE = 2


class Afi(enum.IntEnum):
    """Address family identifiers (subset used here)."""

    IPV4 = 1
    IPV6 = 2


class Safi(enum.IntEnum):
    """Subsequent address family identifiers (subset)."""

    UNICAST = 1
    MULTICAST = 2

