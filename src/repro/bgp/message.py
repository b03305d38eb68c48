"""BGP message classes.

Messages are immutable value objects.  :class:`UpdateMessage` is the
star of the show: the paper's entire analysis is a taxonomy of UPDATE
messages.  A single UPDATE may carry both withdrawals and
announcements; the analysis layer splits them into per-prefix
observations.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.bgp.attributes import PathAttributes
from repro.bgp.constants import (
    BGP_VERSION,
    DEFAULT_HOLD_TIME,
    MessageType,
    NotificationCode,
)
from repro.bgp.errors import MessageError
from repro.netbase.asn import ASN
from repro.netbase.prefix import Prefix

_new_object = object.__new__


class BGPMessage:
    """Common base for the four BGP message types."""

    __slots__ = ()

    #: Subclasses set the RFC 4271 type code.
    TYPE: MessageType

    @property
    def type(self) -> MessageType:
        """The message type code."""
        return self.TYPE


class OpenMessage(BGPMessage):
    """A BGP OPEN message (RFC 4271 §4.2)."""

    TYPE = MessageType.OPEN

    __slots__ = ("_asn", "_hold_time", "_router_id", "_four_octet_asn")

    def __init__(
        self,
        asn: int,
        router_id: str,
        hold_time: int = DEFAULT_HOLD_TIME,
        *,
        four_octet_asn: bool = True,
    ):
        self._asn = ASN(asn)
        if not 0 <= hold_time <= 0xFFFF:
            raise MessageError(f"hold time out of range: {hold_time}")
        if hold_time in (1, 2):
            raise MessageError(f"hold time 1-2 forbidden by RFC 4271: {hold_time}")
        self._hold_time = hold_time
        self._router_id = router_id
        self._four_octet_asn = bool(four_octet_asn)

    @property
    def asn(self) -> ASN:
        """The speaker's AS number."""
        return self._asn

    @property
    def hold_time(self) -> int:
        """Proposed hold time in seconds."""
        return self._hold_time

    @property
    def router_id(self) -> str:
        """BGP identifier in IPv4 dotted form."""
        return self._router_id

    @property
    def four_octet_asn(self) -> bool:
        """Whether the speaker advertises RFC 6793 capability."""
        return self._four_octet_asn

    @property
    def version(self) -> int:
        """Always 4."""
        return BGP_VERSION

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OpenMessage):
            return NotImplemented
        return (
            self._asn == other._asn
            and self._hold_time == other._hold_time
            and self._router_id == other._router_id
            and self._four_octet_asn == other._four_octet_asn
        )

    def __hash__(self) -> int:
        return hash((self._asn, self._hold_time, self._router_id))

    def __repr__(self) -> str:
        return (
            f"OpenMessage(asn={int(self._asn)}, router_id='{self._router_id}',"
            f" hold_time={self._hold_time})"
        )


class UpdateMessage(BGPMessage):
    """A BGP UPDATE: withdrawals plus announcements sharing attributes."""

    TYPE = MessageType.UPDATE

    __slots__ = ("_announced", "_withdrawn", "_attributes")

    def __init__(
        self,
        *,
        announced: Sequence[Prefix] = (),
        withdrawn: Sequence[Prefix] = (),
        attributes: Optional[PathAttributes] = None,
    ):
        self._announced = tuple(announced)
        self._withdrawn = tuple(withdrawn)
        self._attributes = attributes
        if self._announced and attributes is None:
            raise MessageError("announcement without path attributes")
        if not self._announced and not self._withdrawn:
            raise MessageError("UPDATE with neither NLRI nor withdrawals")
        for prefix in self._announced + self._withdrawn:
            if not isinstance(prefix, Prefix):
                raise MessageError(f"not a Prefix: {prefix!r}")

    @classmethod
    def announce(
        cls, prefixes: "Sequence[Prefix] | Prefix", attributes: PathAttributes
    ) -> "UpdateMessage":
        """Build a pure announcement.

        One :class:`Prefix` is already valid NLRI, so it skips the
        constructor's per-prefix checks: routers announce one prefix
        per UPDATE.
        """
        if not isinstance(prefixes, Prefix):
            return cls(announced=prefixes, attributes=attributes)
        if attributes is None:
            raise MessageError("announcement without path attributes")
        message = cls.__new__(cls)
        message._announced = (prefixes,)
        message._withdrawn = ()
        message._attributes = attributes
        return message

    @classmethod
    def from_decoded(
        cls,
        announced: "tuple[Prefix, ...]",
        withdrawn: "tuple[Prefix, ...]",
        attributes: Optional[PathAttributes],
    ) -> "UpdateMessage":
        """Build from a decoder's checked parts, without re-checking.

        The wire decoder's path: both tuples hold :class:`Prefix`
        objects it built, at least one of them is non-empty, and
        *attributes* is set exactly when something is announced.
        Anything else must use the checked constructor.
        """
        message = _new_object(cls)
        message._announced = announced
        message._withdrawn = withdrawn
        message._attributes = attributes
        return message

    @classmethod
    def withdraw(cls, prefixes: "Sequence[Prefix] | Prefix") -> "UpdateMessage":
        """Build a pure withdrawal."""
        if isinstance(prefixes, Prefix):
            prefixes = (prefixes,)
        return cls(withdrawn=prefixes)

    @property
    def announced(self) -> "tuple[Prefix, ...]":
        """Prefixes announced with :attr:`attributes`."""
        return self._announced

    @property
    def withdrawn(self) -> "tuple[Prefix, ...]":
        """Prefixes withdrawn."""
        return self._withdrawn

    @property
    def attributes(self) -> Optional[PathAttributes]:
        """Shared path attributes, or None for a pure withdrawal."""
        return self._attributes

    @property
    def is_announcement(self) -> bool:
        """True when at least one prefix is announced."""
        return bool(self._announced)

    @property
    def is_withdrawal(self) -> bool:
        """True when at least one prefix is withdrawn."""
        return bool(self._withdrawn)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UpdateMessage):
            return NotImplemented
        return (
            self._announced == other._announced
            and self._withdrawn == other._withdrawn
            and self._attributes == other._attributes
        )

    def __hash__(self) -> int:
        return hash((self._announced, self._withdrawn, self._attributes))

    def __repr__(self) -> str:
        parts = []
        if self._announced:
            parts.append(f"announced={[str(p) for p in self._announced]}")
        if self._withdrawn:
            parts.append(f"withdrawn={[str(p) for p in self._withdrawn]}")
        if self._attributes is not None:
            parts.append(f"attributes={self._attributes!r}")
        return f"UpdateMessage({', '.join(parts)})"


class RouteRefreshMessage(BGPMessage):
    """A ROUTE-REFRESH request (RFC 2918).

    Asks the peer to re-advertise its Adj-RIB-Out for one address
    family.  The simulator's :meth:`Router.refresh_exports` models the
    *response* side; this message type completes the wire vocabulary
    so archives containing refresh requests parse correctly.
    """

    TYPE = MessageType.ROUTE_REFRESH

    __slots__ = ("_afi", "_safi")

    def __init__(self, afi: int = 1, safi: int = 1):
        if not 0 <= afi <= 0xFFFF:
            raise MessageError(f"AFI out of range: {afi}")
        if not 0 <= safi <= 0xFF:
            raise MessageError(f"SAFI out of range: {safi}")
        self._afi = afi
        self._safi = safi

    @property
    def afi(self) -> int:
        """Address family identifier (1 = IPv4, 2 = IPv6)."""
        return self._afi

    @property
    def safi(self) -> int:
        """Subsequent address family identifier (1 = unicast)."""
        return self._safi

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RouteRefreshMessage):
            return NotImplemented
        return self._afi == other._afi and self._safi == other._safi

    def __hash__(self) -> int:
        return hash((MessageType.ROUTE_REFRESH, self._afi, self._safi))

    def __repr__(self) -> str:
        return f"RouteRefreshMessage(afi={self._afi}, safi={self._safi})"


class KeepaliveMessage(BGPMessage):
    """A KEEPALIVE: header only, no body."""

    TYPE = MessageType.KEEPALIVE

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, KeepaliveMessage)

    def __hash__(self) -> int:
        return hash(MessageType.KEEPALIVE)

    def __repr__(self) -> str:
        return "KeepaliveMessage()"


class NotificationMessage(BGPMessage):
    """A NOTIFICATION terminating the session (RFC 4271 §4.5)."""

    TYPE = MessageType.NOTIFICATION

    __slots__ = ("_code", "_subcode", "_data")

    def __init__(self, code: int, subcode: int = 0, data: bytes = b""):
        self._code = NotificationCode(code)
        if not 0 <= subcode <= 255:
            raise MessageError(f"subcode out of range: {subcode}")
        self._subcode = subcode
        self._data = bytes(data)

    @property
    def code(self) -> NotificationCode:
        """Major error code."""
        return self._code

    @property
    def subcode(self) -> int:
        """Error subcode (code-specific)."""
        return self._subcode

    @property
    def data(self) -> bytes:
        """Diagnostic payload."""
        return self._data

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NotificationMessage):
            return NotImplemented
        return (
            self._code == other._code
            and self._subcode == other._subcode
            and self._data == other._data
        )

    def __hash__(self) -> int:
        return hash((self._code, self._subcode, self._data))

    def __repr__(self) -> str:
        return (
            f"NotificationMessage(code={self._code.name},"
            f" subcode={self._subcode})"
        )
