"""BGP community attribute values.

RFC 1997 communities are 32-bit values conventionally written
``ASN:value`` where the high 16 bits identify the AS that defined the
semantics.  RFC 8092 large communities are 96-bit ``global:data1:data2``
triples.  The paper's central observation hinges on communities being
*transitive*: unrecognized values are propagated by default, so a tag
applied deep inside one AS can trigger update messages several ASes
away.

:class:`CommunitySet` is the immutable, order-insensitive container the
rest of the system uses; equality of two sets is exactly the
"community attribute changed?" test of the announcement-type classifier
(§5 of the paper).
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator

from repro.bgp.errors import AttributeError_


class WellKnownCommunity(enum.IntEnum):
    """Well-known community values from the IANA registry."""

    GRACEFUL_SHUTDOWN = 0xFFFF0000
    ACCEPT_OWN = 0xFFFF0001
    BLACKHOLE = 0xFFFF029A  # RFC 7999: 65535:666
    NO_EXPORT = 0xFFFFFF01
    NO_ADVERTISE = 0xFFFFFF02
    NO_EXPORT_SUBCONFED = 0xFFFFFF03
    NO_PEER = 0xFFFFFF04


class Community(int):
    """A classic RFC 1997 community (32 bits, rendered ``asn:value``).

    An ``int`` subclass, so hashing, equality and ordering run in C.
    Hence ``Community(v) == v`` for a plain int *v*, though
    :class:`CommunitySet` accepts only :class:`Community` members.

    >>> Community.parse("3356:300")
    Community('3356:300')
    >>> Community(0xFFFFFF01).is_well_known
    True
    """

    __slots__ = ()

    def __new__(cls, value: int):
        if not 0 <= value <= 0xFFFFFFFF:
            raise AttributeError_(f"community out of range: {value}")
        return int.__new__(cls, value)

    @classmethod
    def parse(cls, text: str) -> "Community":
        """Parse ``asn:value`` notation."""
        high_text, sep, low_text = text.strip().partition(":")
        if not sep:
            raise AttributeError_(f"malformed community: {text!r}")
        try:
            high, low = int(high_text), int(low_text)
        except ValueError as exc:
            raise AttributeError_(f"malformed community: {text!r}") from exc
        if not (0 <= high <= 0xFFFF and 0 <= low <= 0xFFFF):
            raise AttributeError_(f"community field out of range: {text!r}")
        return cls((high << 16) | low)

    @classmethod
    def of(cls, asn: int, value: int) -> "Community":
        """Build from the two 16-bit halves."""
        if not (0 <= asn <= 0xFFFF and 0 <= value <= 0xFFFF):
            raise AttributeError_(f"community field out of range: {asn}:{value}")
        return cls((asn << 16) | value)

    @property
    def value(self) -> int:
        """The raw 32-bit value (a plain ``int``)."""
        return int(self)

    @property
    def asn(self) -> int:
        """The high 16 bits — the AS that defines the semantics."""
        return self >> 16

    @property
    def local_value(self) -> int:
        """The low 16 bits — the AS-specific value."""
        return self & 0xFFFF

    @property
    def is_well_known(self) -> bool:
        """True for values in the reserved 0xFFFF0000–0xFFFFFFFF block."""
        return self.asn == 0xFFFF

    @property
    def is_reserved_low(self) -> bool:
        """True for values in the reserved 0x00000000–0x0000FFFF block."""
        return self.asn == 0

    def to_bytes(self) -> bytes:
        """Encode as the 4-byte wire form."""
        return int.to_bytes(self, 4, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "Community":
        """Decode a 4-byte wire form."""
        if len(data) != 4:
            raise AttributeError_(f"community must be 4 bytes, got {len(data)}")
        return int.__new__(cls, int.from_bytes(data, "big"))  # always fits

    def __repr__(self) -> str:
        return f"Community('{self}')"

    def __str__(self) -> str:
        return f"{self.asn}:{self.local_value}"


NO_EXPORT = Community(WellKnownCommunity.NO_EXPORT)
NO_ADVERTISE = Community(WellKnownCommunity.NO_ADVERTISE)
NO_EXPORT_SUBCONFED = Community(WellKnownCommunity.NO_EXPORT_SUBCONFED)
BLACKHOLE = Community(WellKnownCommunity.BLACKHOLE)


class LargeCommunity:
    """An RFC 8092 large community (three 32-bit fields).

    >>> LargeCommunity.parse("64496:1:2")
    LargeCommunity('64496:1:2')
    """

    __slots__ = ("_global_admin", "_data1", "_data2")

    def __init__(self, global_admin: int, data1: int, data2: int):
        for name, field in (
            ("global", global_admin), ("data1", data1), ("data2", data2),
        ):
            if not 0 <= field <= 0xFFFFFFFF:
                raise AttributeError_(f"large community {name} out of range: {field}")
        self._global_admin = global_admin
        self._data1 = data1
        self._data2 = data2

    @classmethod
    def parse(cls, text: str) -> "LargeCommunity":
        """Parse ``global:data1:data2`` notation."""
        parts = text.strip().split(":")
        if len(parts) != 3:
            raise AttributeError_(f"malformed large community: {text!r}")
        try:
            fields = [int(part) for part in parts]
        except ValueError as exc:
            raise AttributeError_(f"malformed large community: {text!r}") from exc
        return cls(*fields)

    @property
    def global_admin(self) -> int:
        """Global administrator field (an ASN by convention)."""
        return self._global_admin

    @property
    def data1(self) -> int:
        """First local data field."""
        return self._data1

    @property
    def data2(self) -> int:
        """Second local data field."""
        return self._data2

    def to_bytes(self) -> bytes:
        """Encode as the 12-byte wire form."""
        return (
            self._global_admin.to_bytes(4, "big")
            + self._data1.to_bytes(4, "big")
            + self._data2.to_bytes(4, "big")
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "LargeCommunity":
        """Decode a 12-byte wire form."""
        if len(data) != 12:
            raise AttributeError_(
                f"large community must be 12 bytes, got {len(data)}"
            )
        return cls(
            int.from_bytes(data[0:4], "big"),
            int.from_bytes(data[4:8], "big"),
            int.from_bytes(data[8:12], "big"),
        )

    def _key(self) -> tuple:
        return (self._global_admin, self._data1, self._data2)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LargeCommunity):
            return NotImplemented
        return self._key() == other._key()

    def __lt__(self, other: "LargeCommunity") -> bool:
        if not isinstance(other, LargeCommunity):
            return NotImplemented
        return self._key() < other._key()

    def __hash__(self) -> int:
        return hash(("large", self._key()))

    def __repr__(self) -> str:
        return f"LargeCommunity('{self}')"

    def __str__(self) -> str:
        return f"{self._global_admin}:{self._data1}:{self._data2}"


class CommunitySet:
    """An immutable set of classic and large communities.

    The BGP wire format carries communities as a list, but RFC 1997
    semantics (and every implementation's RIB comparison) treat them as
    a set: order and duplication do not matter.  The classifier's
    "community changed?" predicate is therefore plain set equality.
    """

    __slots__ = ("_classic", "_large")

    def __init__(
        self,
        classic: Iterable[Community] = (),
        large: Iterable[LargeCommunity] = (),
    ):
        # Check before deduplicating: Community(v) would absorb a plain v.
        classic = tuple(classic)
        self._large = frozenset(large)
        for item in classic:
            if not isinstance(item, Community):
                raise AttributeError_(f"not a Community: {item!r}")
        for item in self._large:
            if not isinstance(item, LargeCommunity):
                raise AttributeError_(f"not a LargeCommunity: {item!r}")
        self._classic = frozenset(classic)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "CommunitySet":
        """Parse a whitespace-separated list of community strings."""
        classic, large = [], []
        for token in text.split():
            if token.count(":") == 2:
                large.append(LargeCommunity.parse(token))
            else:
                classic.append(Community.parse(token))
        return cls(classic, large)

    @classmethod
    def empty(cls) -> "CommunitySet":
        """The canonical empty set."""
        return _EMPTY

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def classic(self) -> frozenset:
        """The RFC 1997 communities."""
        return self._classic

    @property
    def large(self) -> frozenset:
        """The RFC 8092 large communities."""
        return self._large

    def is_empty(self) -> bool:
        """True when no community of either kind is present."""
        return not self._classic and not self._large

    def __len__(self) -> int:
        return len(self._classic) + len(self._large)

    def __iter__(self) -> Iterator:
        yield from sorted(self._classic)
        yield from sorted(self._large)

    def __contains__(self, item: object) -> bool:
        return item in self._classic or item in self._large

    # ------------------------------------------------------------------
    # set algebra (each returns a new CommunitySet)
    # ------------------------------------------------------------------
    @classmethod
    def _make(cls, classic: frozenset, large: frozenset) -> "CommunitySet":
        """Internal constructor for already-validated member sets.

        The set algebra below and the wire decoder, whose members are
        :class:`Community` objects it built, use it.
        """
        made = cls.__new__(cls)
        made._classic = classic
        made._large = large
        return made

    @classmethod
    def _of(cls, items: tuple) -> "CommunitySet":
        """Validated set of *items*, classic and large mixed."""
        for item in items:
            if not isinstance(item, (Community, LargeCommunity)):
                raise AttributeError_(f"not a community: {item!r}")
        return cls._make(
            frozenset(c for c in items if isinstance(c, Community)),
            frozenset(c for c in items if isinstance(c, LargeCommunity)),
        )

    def add(self, *items: "Community | LargeCommunity") -> "CommunitySet":
        """Return a new set with *items* included.

        Returns ``self`` when every item is already present — the
        common case on policy re-application, and it lets equality
        checks downstream hit the identity fast path.
        """
        return self.union(CommunitySet._of(items))

    def remove(self, *items: "Community | LargeCommunity") -> "CommunitySet":
        """Return a new set with *items* excluded (missing ones ignored).

        Returns ``self`` when nothing is present to remove.
        """
        return self.difference(CommunitySet._of(items))

    def union(self, other: "CommunitySet") -> "CommunitySet":
        """Set union (returns ``self`` when it already covers *other*)."""
        if other._classic <= self._classic and other._large <= self._large:
            return self
        return CommunitySet._make(
            self._classic | other._classic, self._large | other._large
        )

    def difference(self, other: "CommunitySet") -> "CommunitySet":
        """Set difference (returns ``self`` when nothing is removed)."""
        if self._classic.isdisjoint(other._classic) and self._large.isdisjoint(
            other._large
        ):
            return self
        return CommunitySet._make(
            self._classic - other._classic, self._large - other._large
        )

    def filter(self, predicate) -> "CommunitySet":
        """Return the subset of communities for which *predicate* is true."""
        return CommunitySet._make(
            frozenset(c for c in self._classic if predicate(c)),
            frozenset(c for c in self._large if predicate(c)),
        )

    def without_asn(self, asn: int) -> "CommunitySet":
        """Drop every community whose administrator field equals *asn*.

        Returns ``self`` when no community is administered by *asn*.
        """
        if not any(c.asn == asn for c in self._classic) and not any(
            c.global_admin == asn for c in self._large
        ):
            return self
        return CommunitySet._make(
            frozenset(c for c in self._classic if c.asn != asn),
            frozenset(c for c in self._large if c.global_admin != asn),
        )

    def only_asn(self, asn: int) -> "CommunitySet":
        """Keep only communities administered by *asn*."""
        return CommunitySet(
            (c for c in self._classic if c.asn == asn),
            (c for c in self._large if c.global_admin == asn),
        )

    def cleared(self) -> "CommunitySet":
        """Return the empty set (explicit name for policy code)."""
        return _EMPTY

    # ------------------------------------------------------------------
    # dunder protocol
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CommunitySet):
            return NotImplemented
        return self._classic == other._classic and self._large == other._large

    def __hash__(self) -> int:
        return hash((self._classic, self._large))

    def __bool__(self) -> bool:
        return not self.is_empty()

    def __repr__(self) -> str:
        return f"CommunitySet('{self}')"

    def __str__(self) -> str:
        return " ".join(str(item) for item in self)


_EMPTY = CommunitySet()
