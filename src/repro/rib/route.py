"""The route object stored in RIBs.

A :class:`Route` binds a prefix to a set of path attributes plus the
*local* metadata the decision process needs but the wire never carries:
which peer the route came from, whether the session was eBGP or iBGP,
the IGP cost to the next hop, and when it was learned.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.bgp.attributes import PathAttributes
from repro.netbase.asn import ASN
from repro.netbase.prefix import Prefix

#: LOCAL_PREF assumed when the attribute is absent (RFC 4271 default
#: behavior is implementation-defined; 100 is the universal default).
DEFAULT_LOCAL_PREF = 100


class RouteSource(enum.Enum):
    """How a route entered the RIB."""

    EBGP = "ebgp"
    IBGP = "ibgp"
    LOCAL = "local"  # originated by this router (static/network statement)


class Route:
    """One candidate path for one prefix.

    Routes are immutable: a changed route is a new instance.

    ``rank`` holds decision steps 1-3 as one key, lower is better:
    ``(-LOCAL_PREF, AS-path length, ORIGIN)``.  The decision process
    and the router's incremental reconsideration both order routes by
    it, so it is filled once at construction and read as a plain slot.
    """

    __slots__ = (
        "_prefix",
        "_attributes",
        "_source",
        "_peer_id",
        "_peer_asn",
        "_peer_address",
        "_igp_cost",
        "_learned_at",
        "_neighbor",
        "rank",
    )

    def __init__(
        self,
        prefix: Prefix,
        attributes: PathAttributes,
        *,
        source: RouteSource = RouteSource.LOCAL,
        peer_id: Optional[str] = None,
        peer_asn: Optional[int] = None,
        peer_address: Optional[str] = None,
        igp_cost: int = 0,
        learned_at: float = 0.0,
    ):
        self._prefix = prefix
        self._attributes = attributes
        self._source = source
        self._peer_id = peer_id
        self._peer_asn = ASN(peer_asn) if peer_asn is not None else None
        self._peer_address = peer_address
        self._igp_cost = int(igp_cost)
        self._learned_at = float(learned_at)
        self.rank = _rank(attributes)

    @classmethod
    def learned(
        cls,
        prefix: Prefix,
        attributes: PathAttributes,
        source: RouteSource,
        peer_id: str,
        peer_asn: ASN,
        peer_address: str,
        igp_cost: int,
        learned_at: float,
    ) -> "Route":
        """A route learned on a session, from already-normal metadata.

        Equal to ``Route(...)`` with the same values, without the
        constructor's coercions: *peer_asn* is an :class:`ASN`,
        *igp_cost* an ``int`` and *learned_at* a ``float``.  Every
        received UPDATE builds one.
        """
        route = cls.__new__(cls)
        route._prefix = prefix
        route._attributes = attributes
        route._source = source
        route._peer_id = peer_id
        route._peer_asn = peer_asn
        route._peer_address = peer_address
        route._igp_cost = igp_cost
        route._learned_at = learned_at
        route.rank = _rank(attributes)
        return route

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def prefix(self) -> Prefix:
        """The destination prefix."""
        return self._prefix

    @property
    def attributes(self) -> PathAttributes:
        """The path attributes."""
        return self._attributes

    @property
    def source(self) -> RouteSource:
        """eBGP, iBGP or locally originated."""
        return self._source

    @property
    def peer_id(self) -> Optional[str]:
        """Router ID of the advertising peer (None for local routes)."""
        return self._peer_id

    @property
    def peer_asn(self) -> "ASN | None":
        """ASN of the advertising peer."""
        return self._peer_asn

    @property
    def peer_address(self) -> Optional[str]:
        """Session address of the advertising peer."""
        return self._peer_address

    @property
    def igp_cost(self) -> int:
        """IGP distance to the BGP next hop (hot-potato input)."""
        return self._igp_cost

    @property
    def learned_at(self) -> float:
        """Timestamp when the route was (last) installed."""
        return self._learned_at

    @property
    def effective_local_pref(self) -> int:
        """LOCAL_PREF, defaulting when the attribute is absent."""
        local_pref = self._attributes.local_pref
        return DEFAULT_LOCAL_PREF if local_pref is None else local_pref

    @property
    def effective_med(self) -> int:
        """MED, treating absence as 0 (the common vendor default)."""
        med = self._attributes.med
        return 0 if med is None else med

    @property
    def neighbor_asn(self) -> "ASN | None":
        """First ASN in the AS path (for MED comparability).

        Cached lazily (the slot stays unset until first access): the
        MED tie-breaker reads this repeatedly for every candidate.
        """
        try:
            return self._neighbor
        except AttributeError:
            self._neighbor = self._attributes.as_path.first_asn
            return self._neighbor

    # ------------------------------------------------------------------
    # comparison
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Route):
            return NotImplemented
        return (
            self._prefix == other._prefix
            and self._attributes == other._attributes
            and self._source == other._source
            and self._peer_id == other._peer_id
            and self._igp_cost == other._igp_cost
        )

    def __hash__(self) -> int:
        return hash(
            (self._prefix, self._attributes, self._source, self._peer_id)
        )

    def __repr__(self) -> str:
        return (
            f"Route({self._prefix}, path='{self._attributes.as_path}',"
            f" source={self._source.value}, peer={self._peer_id})"
        )


def _rank(attributes: PathAttributes) -> "tuple[int, int, int]":
    """The :attr:`Route.rank` key of a route carrying *attributes*."""
    local_pref = attributes.local_pref
    return (
        -(DEFAULT_LOCAL_PREF if local_pref is None else local_pref),
        attributes.as_path.length(),
        int(attributes.origin),
    )
