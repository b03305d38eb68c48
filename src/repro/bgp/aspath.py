"""AS_PATH attribute model.

The announcement classifier of the paper (§5) distinguishes three
relationships between consecutive AS paths on a stream:

* changed (different AS sequence) — types ``pc`` / ``pn``;
* changed *only by prepending* (the ordered set of distinct ASes is
  equal but repetition counts differ) — types ``xc`` / ``xn``;
* identical — types ``nc`` / ``nn``.

:class:`ASPath` therefore exposes :meth:`distinct_ases`,
:meth:`without_prepending` and :meth:`is_prepend_variant_of` alongside
the usual wire encoding with AS_SEQUENCE / AS_SET segments (RFC 4271
§4.3, 4-byte ASNs per RFC 6793).

A :class:`PathSegment` is the tuple ``(kind, asns)``, and a path keeps
its segments in a tuple, so path equality and hashing run in C for
sequence segments.  Set segments are the private subclass
:class:`_SetSegment`, whose equality and hash ignore member order.
"""

from __future__ import annotations

import enum
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from repro.bgp.errors import AttributeError_
from repro.netbase.asn import ASN


class SegmentType(enum.IntEnum):
    """AS_PATH segment type codes."""

    AS_SET = 1
    AS_SEQUENCE = 2
    AS_CONFED_SEQUENCE = 3
    AS_CONFED_SET = 4


class PathSegment(tuple):
    """One AS_PATH segment: an ordered sequence or an unordered set.

    A segment is the tuple ``(kind, asns)``: a :class:`SegmentType` and
    the member ASNs in wire order.  Sequence segments use tuple's own
    ``==`` and ``hash`` (equal to ``hash((kind, asns))``), so comparing
    two paths — a tuple of segments each — runs entirely in C.
    ``PathSegment(kind, asns)`` returns the private subclass
    :class:`_SetSegment` for AS_SET and AS_CONFED_SET, whose equality
    and hash ignore member order.
    """

    __slots__ = ()

    #: True for AS_SET / AS_CONFED_SET segments.
    is_set = False

    def __new__(cls, kind: SegmentType, asns: Iterable[int]):
        kind = SegmentType(kind)
        members = tuple(map(ASN, asns))
        if not members:
            raise AttributeError_("empty AS_PATH segment")
        if len(members) > 255:
            raise AttributeError_("AS_PATH segment longer than 255 ASNs")
        if kind in _SET_KINDS:
            cls = _SetSegment
        return tuple.__new__(cls, (kind, members))

    kind = property(itemgetter(0), doc="Segment type (sequence or set).")
    asns = property(itemgetter(1), doc="The member ASNs in wire order.")

    def __getnewargs__(self):
        # Unpickle through __new__, which picks the class from the kind.
        return tuple(self)

    def path_length_contribution(self) -> int:
        """RFC 4271 §9.1.2.2: a set counts as 1 hop, a sequence as N."""
        return len(self[1])

    def __repr__(self) -> str:
        return f"PathSegment({self[0].name}, {list(map(int, self[1]))})"

    def __str__(self) -> str:
        return " ".join(str(asn) for asn in self[1])


class _SetSegment(PathSegment):
    """An AS_SET or AS_CONFED_SET segment: members compare unordered."""

    __slots__ = ()

    is_set = True

    def path_length_contribution(self) -> int:
        return 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PathSegment):
            return NotImplemented
        return self[0] == other[0] and frozenset(self[1]) == frozenset(
            other[1]
        )

    def __ne__(self, other: object) -> bool:
        # Without this, tuple's own != would compare in member order.
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __hash__(self) -> int:
        return hash((self[0], frozenset(self[1])))

    def __str__(self) -> str:
        return "{" + ",".join(str(asn) for asn in self[1]) + "}"


_SET_KINDS = frozenset((SegmentType.AS_SET, SegmentType.AS_CONFED_SET))


class ASPath:
    """A full AS_PATH: a tuple of segments.

    >>> path = ASPath.from_string("20205 3356 174 12654")
    >>> path.origin_asn
    ASN(12654)
    >>> path.prepend(ASN(20205)).is_prepend_variant_of(path)
    True
    """

    __slots__ = (
        "_segments", "_flat", "_length", "_prepends", "_hash", "_collapsed"
    )

    def __init__(self, segments: Iterable[PathSegment] = ()):
        self._segments = tuple(segments)
        for segment in self._segments:
            if not isinstance(segment, PathSegment):
                raise AttributeError_(f"not a PathSegment: {segment!r}")
        # Lazy caches: paths are immutable, and the simulator asks for
        # the same flattened view / decision length / per-ASN prepend
        # millions of times on a big run.  The hash and the
        # prepend-collapsed variant are cached too: decode interning
        # makes one ASPath object key memo dicts and feed the
        # classifier's prepend test for millions of records.
        self._flat: "tuple | None" = None
        self._length: "int | None" = None
        self._prepends: "dict | None" = None
        self._hash: "int | None" = None
        self._collapsed: "ASPath | None" = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_asns(cls, asns: Sequence[int]) -> "ASPath":
        """Build a single AS_SEQUENCE path from leftmost to origin."""
        if not asns:
            return cls()
        return cls((PathSegment(SegmentType.AS_SEQUENCE, asns),))

    @classmethod
    def from_string(cls, text: str) -> "ASPath":
        """Parse ``"64500 64501 {64502,64503}"`` notation."""
        segments = []
        pending: list = []
        for token in text.split():
            if token.startswith("{"):
                if pending:
                    segments.append(
                        PathSegment(SegmentType.AS_SEQUENCE, pending)
                    )
                    pending = []
                members = token.strip("{}").split(",")
                segments.append(PathSegment(SegmentType.AS_SET, members))
            else:
                pending.append(token)
        if pending:
            segments.append(PathSegment(SegmentType.AS_SEQUENCE, pending))
        return cls(segments)

    @classmethod
    def empty(cls) -> "ASPath":
        """The empty path, as originated by the prefix owner in iBGP."""
        return _EMPTY

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def segments(self) -> tuple:
        """The path segments, leftmost (most recent AS) first."""
        return self._segments

    def is_empty(self) -> bool:
        """True when the path contains no segments."""
        return not self._segments

    def asns(self) -> tuple:
        """All ASNs in wire order, flattened across segments."""
        if self._flat is None:
            flat: list = []
            for segment in self._segments:
                flat.extend(segment.asns)
            self._flat = tuple(flat)
        return self._flat

    @property
    def first_asn(self) -> "ASN | None":
        """The leftmost ASN — the neighbor that sent the route."""
        asns = self.asns()
        return asns[0] if asns else None

    @property
    def origin_asn(self) -> "ASN | None":
        """The rightmost ASN — the originating AS."""
        asns = self.asns()
        return asns[-1] if asns else None

    def length(self) -> int:
        """Decision-process path length (AS_SET counts as one hop)."""
        if self._length is None:
            self._length = sum(
                segment.path_length_contribution()
                for segment in self._segments
            )
        return self._length

    def hop_count(self) -> int:
        """Number of ASN entries including prepends."""
        return len(self.asns())

    def contains(self, asn: int) -> bool:
        """True when *asn* appears anywhere in the path (loop check).

        An ``int`` (an :class:`ASN` included) is looked up as it is;
        any other notation is parsed as an :class:`ASN` first.
        """
        if not isinstance(asn, int):
            asn = ASN(asn)
        return asn in self.asns()

    # ------------------------------------------------------------------
    # derived paths
    # ------------------------------------------------------------------
    def prepend(self, asn: int, count: int = 1) -> "ASPath":
        """Return a new path with *asn* prepended *count* times.

        Memoized per (asn, count): exporting one route to N peers
        prepends the same local ASN onto the same path N times.
        """
        if count < 1:
            raise AttributeError_(f"prepend count must be >= 1, got {count}")
        memo_key = (int(asn), count)
        if self._prepends is not None:
            cached = self._prepends.get(memo_key)
            if cached is not None:
                return cached
        new_asns = (ASN(asn),) * count
        if self._segments and self._segments[0].kind == SegmentType.AS_SEQUENCE:
            head = PathSegment(
                SegmentType.AS_SEQUENCE,
                new_asns + self._segments[0].asns,
            )
            derived = ASPath((head,) + self._segments[1:])
        else:
            head = PathSegment(SegmentType.AS_SEQUENCE, new_asns)
            derived = ASPath((head,) + self._segments)
        if self._prepends is None:
            self._prepends = {}
        self._prepends[memo_key] = derived
        return derived

    def distinct_ases(self) -> tuple:
        """Ordered tuple of distinct ASNs (prepends collapsed).

        This is the key used by the classifier to detect the
        prepend-only change types ``xc``/``xn``: two paths whose
        ``distinct_ases()`` are equal but whose raw ASN tuples differ
        changed only by prepending.
        """
        seen: list = []
        previous = None
        for asn in self.asns():
            if asn != previous:
                seen.append(asn)
            previous = asn
        return tuple(seen)

    def without_prepending(self) -> "ASPath":
        """Return the path with consecutive duplicate ASNs collapsed."""
        if self._collapsed is not None:
            return self._collapsed
        collapsed = self.distinct_ases()
        if not collapsed:
            self._collapsed = _EMPTY
            return _EMPTY
        # Preserve set segments; only sequences can legitimately prepend.
        segments = []
        for segment in self._segments:
            if segment.is_set:
                segments.append(segment)
            else:
                deduped: list = []
                previous = None
                for asn in segment.asns:
                    if asn != previous:
                        deduped.append(asn)
                    previous = asn
                segments.append(PathSegment(segment.kind, deduped))
        derived = ASPath(segments)
        self._collapsed = derived
        return derived

    def is_prepend_variant_of(self, other: "ASPath") -> bool:
        """True when the two paths differ only in prepending."""
        if self is other or self == other:
            return False
        return self.without_prepending() == other.without_prepending()

    def has_prepending(self) -> bool:
        """True when any AS appears consecutively more than once."""
        asns = self.asns()
        return any(a == b for a, b in zip(asns, asns[1:]))

    # ------------------------------------------------------------------
    # dunder protocol
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ASPath):
            return NotImplemented
        return self._segments == other._segments

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._segments)
        return self._hash

    def __iter__(self) -> Iterator[PathSegment]:
        return iter(self._segments)

    def __len__(self) -> int:
        return self.hop_count()

    def __repr__(self) -> str:
        return f"ASPath('{self}')"

    def __str__(self) -> str:
        return " ".join(str(segment) for segment in self._segments)


_EMPTY = ASPath()
