"""BGP protocol model: UPDATE messages, path attributes, communities,
wire codec.

The model follows RFC 4271 (BGP-4), RFC 1997 (communities), RFC 8092
(large communities), RFC 4760 (multiprotocol NLRI for IPv6) and
RFC 6793 (4-byte AS numbers).  :class:`UpdateMessage` is the one
message class: the simulator sends nothing else, and every UPDATE it
emits can be serialized to the real wire format and back.  The MRT
layer (:mod:`repro.mrt`) reuses this codec for archive records; the
decoder checks an archived OPEN, NOTIFICATION, KEEPALIVE or
ROUTE-REFRESH and returns its :class:`MessageType`.
"""

from repro.bgp.aspath import ASPath, PathSegment, SegmentType
from repro.bgp.attributes import PathAttributes, Origin
from repro.bgp.community import (
    Community,
    LargeCommunity,
    CommunitySet,
    WellKnownCommunity,
    NO_EXPORT,
    NO_ADVERTISE,
    NO_EXPORT_SUBCONFED,
    BLACKHOLE,
)
from repro.bgp.errors import BGPError, AttributeError_, WireFormatError
from repro.bgp.constants import MessageType
from repro.bgp.message import UpdateMessage
from repro.bgp.wire import decode_message, encode_message

__all__ = [
    "ASPath",
    "PathSegment",
    "SegmentType",
    "PathAttributes",
    "Origin",
    "Community",
    "LargeCommunity",
    "CommunitySet",
    "WellKnownCommunity",
    "NO_EXPORT",
    "NO_ADVERTISE",
    "NO_EXPORT_SUBCONFED",
    "BLACKHOLE",
    "BGPError",
    "AttributeError_",
    "WireFormatError",
    "MessageType",
    "UpdateMessage",
    "decode_message",
    "encode_message",
]
