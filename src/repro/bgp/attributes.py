"""The path-attribute set carried by a BGP UPDATE.

:class:`PathAttributes` is an immutable value object.  Routers in the
simulator derive new attribute sets through the ``with_*`` methods while
policies use :meth:`replace`.  Immutability is essential: Adj-RIB-In,
Loc-RIB and Adj-RIB-Out may all reference the same object, and the
duplicate-detection logic (the crux of the paper) relies on value
equality between the attribute set previously advertised to a peer and
the one about to be advertised.

Equality semantics deserve a note: :meth:`PathAttributes.__eq__`
compares every field *including* next-hop and MED.  The classifier in
:mod:`repro.analysis.classify` deliberately compares only AS path and
communities, because route collectors see the next-hop of their
immediate peer which rarely changes; the paper's `nn` category is
defined on (path, communities) and then manually checked against MED
(§5).  We expose :meth:`same_path_and_communities` for that purpose.
"""

from __future__ import annotations

from typing import Optional

from repro.bgp.aspath import ASPath
from repro.bgp.community import CommunitySet
from repro.bgp.constants import OriginCode
from repro.bgp.errors import AttributeError_
from repro.netbase.asn import ASN

#: Re-export under the name used by most call sites.
Origin = OriginCode


#: Default of every :meth:`PathAttributes.replace` parameter: keep the
#: field as it is (``None`` is a real value there: it clears a field).
_KEEP = object()

_new_object = object.__new__
_EMPTY_PATH = ASPath.empty()
_NO_COMMUNITIES = CommunitySet.empty()


def _check_metric_range(value: "Optional[int]", label: str) -> None:
    """Shared MED/LOCAL_PREF range check (used by __init__ and replace)."""
    if value is not None and not 0 <= value <= 0xFFFFFFFF:
        raise AttributeError_(f"{label} out of range: {value}")


class PathAttributes:
    """Immutable set of BGP path attributes for one route.

    Only the attributes relevant to the reproduction are modeled as
    first-class fields; anything else would be dead weight.  The wire
    codec still round-trips unknown transitive attributes through
    ``extra`` so archives survive untouched.
    """

    __slots__ = (
        "_origin",
        "_as_path",
        "_next_hop",
        "_med",
        "_local_pref",
        "_communities",
        "_atomic_aggregate",
        "_aggregator",
        "_originator_id",
        "_cluster_list",
        "_extra",
        "_key_cache",
    )

    def __init__(
        self,
        *,
        origin: OriginCode = OriginCode.IGP,
        as_path: Optional[ASPath] = None,
        next_hop: Optional[str] = None,
        med: Optional[int] = None,
        local_pref: Optional[int] = None,
        communities: Optional[CommunitySet] = None,
        atomic_aggregate: bool = False,
        aggregator: "tuple[ASN, str] | None" = None,
        originator_id: Optional[str] = None,
        cluster_list: "tuple[str, ...]" = (),
        extra: "tuple[tuple[int, bytes], ...]" = (),
    ):
        self._origin = OriginCode(origin)
        self._as_path = as_path if as_path is not None else ASPath.empty()
        self._next_hop = next_hop
        self._med = med
        self._local_pref = local_pref
        self._communities = (
            communities if communities is not None else CommunitySet.empty()
        )
        self._atomic_aggregate = bool(atomic_aggregate)
        self._aggregator = aggregator
        self._originator_id = originator_id
        self._cluster_list = tuple(cluster_list)
        self._extra = tuple(sorted(extra))
        _check_metric_range(med, "MED")
        _check_metric_range(local_pref, "LOCAL_PREF")

    @classmethod
    def from_decoded(
        cls,
        *,
        origin: OriginCode = OriginCode.IGP,
        as_path: ASPath = _EMPTY_PATH,
        next_hop: Optional[str] = None,
        med: Optional[int] = None,
        local_pref: Optional[int] = None,
        communities: CommunitySet = _NO_COMMUNITIES,
        atomic_aggregate: bool = False,
        aggregator: "tuple[ASN, str] | None" = None,
        originator_id: Optional[str] = None,
        cluster_list: "tuple[str, ...]" = (),
        extra: "tuple[tuple[int, bytes], ...]" = (),
    ) -> "PathAttributes":
        """Build from a decoder's checked fields, without re-checking.

        The wire decoder's path: *origin* is an :class:`OriginCode`,
        MED and LOCAL_PREF came from four octets, *atomic_aggregate* is
        a bool, *cluster_list* a tuple and *extra* is already sorted.
        Anything else must use the checked constructor.
        """
        made = _new_object(cls)
        made._origin = origin
        made._as_path = as_path
        made._next_hop = next_hop
        made._med = med
        made._local_pref = local_pref
        made._communities = communities
        made._atomic_aggregate = atomic_aggregate
        made._aggregator = aggregator
        made._originator_id = originator_id
        made._cluster_list = cluster_list
        made._extra = extra
        return made

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def origin(self) -> OriginCode:
        """ORIGIN attribute."""
        return self._origin

    @property
    def as_path(self) -> ASPath:
        """AS_PATH attribute."""
        return self._as_path

    @property
    def next_hop(self) -> Optional[str]:
        """NEXT_HOP attribute as a text address (None before egress)."""
        return self._next_hop

    @property
    def med(self) -> Optional[int]:
        """MULTI_EXIT_DISC attribute, or None when absent."""
        return self._med

    @property
    def local_pref(self) -> Optional[int]:
        """LOCAL_PREF attribute (iBGP only), or None when absent."""
        return self._local_pref

    @property
    def communities(self) -> CommunitySet:
        """The community attribute (classic + large)."""
        return self._communities

    @property
    def atomic_aggregate(self) -> bool:
        """ATOMIC_AGGREGATE presence flag."""
        return self._atomic_aggregate

    @property
    def aggregator(self) -> "tuple[ASN, str] | None":
        """AGGREGATOR attribute as (ASN, router-id), or None."""
        return self._aggregator

    @property
    def originator_id(self) -> Optional[str]:
        """ORIGINATOR_ID (route reflection), or None."""
        return self._originator_id

    @property
    def cluster_list(self) -> "tuple[str, ...]":
        """CLUSTER_LIST (route reflection), possibly empty."""
        return self._cluster_list

    @property
    def extra(self) -> "tuple[tuple[int, bytes], ...]":
        """Unknown transitive attributes carried opaquely."""
        return self._extra

    # ------------------------------------------------------------------
    # derivation
    # ------------------------------------------------------------------
    def replace(
        self,
        *,
        origin=_KEEP,
        as_path=_KEEP,
        next_hop=_KEEP,
        med=_KEEP,
        local_pref=_KEEP,
        communities=_KEEP,
        atomic_aggregate=_KEEP,
        aggregator=_KEEP,
        originator_id=_KEEP,
        cluster_list=_KEEP,
        extra=_KEEP,
        **unknown,
    ) -> "PathAttributes":
        """Return a copy with the named fields replaced.

        Accepts the constructor keyword names.  ``None`` is a valid new
        value for optional fields (it clears them).

        This is the simulator's hottest allocation site and the one way
        to derive an attribute set, so the clone copies slots directly
        and normalizes/validates only the fields that are passed —
        unchanged fields are already normal.
        """
        if unknown:
            raise AttributeError_(
                f"unknown attribute fields: {sorted(unknown)}"
            )
        clone = PathAttributes.__new__(PathAttributes)
        clone._origin = (
            self._origin if origin is _KEEP else OriginCode(origin)
        )
        if as_path is _KEEP:
            clone._as_path = self._as_path
        elif as_path is None:
            clone._as_path = ASPath.empty()
        else:
            clone._as_path = as_path
        clone._next_hop = self._next_hop if next_hop is _KEEP else next_hop
        if med is _KEEP:
            med = self._med
        elif med is not None:
            _check_metric_range(med, "MED")
        clone._med = med
        if local_pref is _KEEP:
            local_pref = self._local_pref
        elif local_pref is not None:
            _check_metric_range(local_pref, "LOCAL_PREF")
        clone._local_pref = local_pref
        if communities is _KEEP:
            clone._communities = self._communities
        elif communities is None:
            clone._communities = CommunitySet.empty()
        else:
            clone._communities = communities
        clone._atomic_aggregate = (
            self._atomic_aggregate
            if atomic_aggregate is _KEEP
            else bool(atomic_aggregate)
        )
        clone._aggregator = (
            self._aggregator if aggregator is _KEEP else aggregator
        )
        clone._originator_id = (
            self._originator_id if originator_id is _KEEP else originator_id
        )
        clone._cluster_list = (
            self._cluster_list
            if cluster_list is _KEEP
            else tuple(cluster_list)
        )
        clone._extra = self._extra if extra is _KEEP else tuple(sorted(extra))
        return clone

    def with_communities(self, communities: CommunitySet) -> "PathAttributes":
        """Replace the community attribute."""
        return self.replace(communities=communities)

    def with_prepend(self, asn: int, count: int = 1) -> "PathAttributes":
        """Prepend *asn* to the AS path *count* times."""
        return self.replace(as_path=self._as_path.prepend(asn, count))

    def with_next_hop(self, next_hop: str) -> "PathAttributes":
        """Rewrite NEXT_HOP (e.g. next-hop-self on an eBGP egress)."""
        return self.replace(next_hop=next_hop)

    # ------------------------------------------------------------------
    # comparison helpers used by the analysis layer
    # ------------------------------------------------------------------
    def same_path_and_communities(self, other: "PathAttributes") -> bool:
        """True when AS path and community attribute are both equal.

        This is the measurement-level equality of the paper's `nn`
        announcement type: the collector cannot see intra-AS causes, so
        two consecutive announcements with equal path and communities
        count as "no change" regardless of next-hop/MED.
        """
        return (
            self._as_path == other._as_path
            and self._communities == other._communities
        )

    def _key(self) -> tuple:
        # The hash key; cached (the slot stays unset until first use).
        try:
            return self._key_cache
        except AttributeError:
            self._key_cache = (
                self._origin,
                self._as_path,
                self._next_hop,
                self._med,
                self._local_pref,
                self._communities,
                self._atomic_aggregate,
                self._aggregator,
                self._originator_id,
                self._cluster_list,
                self._extra,
            )
            return self._key_cache

    def __eq__(self, other: object) -> bool:
        # Slot by slot, no key tuples: duplicate detection compares
        # attribute sets on every advertisement.  AS path and
        # communities are usually shared objects, so identity decides
        # them before their own (deeper) comparisons run.
        if self is other:
            return True
        if not isinstance(other, PathAttributes):
            return NotImplemented
        return (
            self._next_hop == other._next_hop
            and self._med == other._med
            and self._local_pref == other._local_pref
            and (
                self._as_path is other._as_path
                or self._as_path == other._as_path
            )
            and (
                self._communities is other._communities
                or self._communities == other._communities
            )
            and self._origin is other._origin
            and self._atomic_aggregate is other._atomic_aggregate
            and self._aggregator == other._aggregator
            and self._originator_id == other._originator_id
            and self._cluster_list == other._cluster_list
            and self._extra == other._extra
        )

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        parts = [f"as_path='{self._as_path}'"]
        if self._next_hop is not None:
            parts.append(f"next_hop='{self._next_hop}'")
        if self._med is not None:
            parts.append(f"med={self._med}")
        if self._local_pref is not None:
            parts.append(f"local_pref={self._local_pref}")
        if not self._communities.is_empty():
            parts.append(f"communities='{self._communities}'")
        return f"PathAttributes({', '.join(parts)})"
