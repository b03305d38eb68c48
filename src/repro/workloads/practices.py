"""Per-AS community practices and Gao-Rexford policy steps.

The paper's measurement hinges on how heterogeneously real ASes handle
communities.  We model four practices:

* ``tagger`` — adds geo communities at every tagged ingress (the
  AS3356 role in Figure 4);
* ``cleaner_egress`` — strips all communities when exporting (the
  AS20811 role in Figure 5: duplicates leak, information does not);
* ``cleaner_ingress`` — strips at import (the hygienic Exp4 behavior);
* ``ignorer`` — neither adds nor removes (the AS20205 role: blind
  propagation, the paper's majority case).

Gao-Rexford routing policy is implemented the way real networks do it:
an import step tags routes with an *internal* relationship community
and sets LOCAL_PREF; an export step filters on that tag (customer
routes go everywhere, peer/provider routes go only to customers).
Whether the internal tag is scrubbed at egress is itself part of the
AS's cleanliness — sloppy ASes leak relationship tags, which real
route collectors observe constantly.
"""

from __future__ import annotations

import enum
from repro.bgp.community import Community, CommunitySet
from repro.policy.engine import PolicyContext, PolicyStep
from repro.workloads.topology_gen import Relationship

#: Internal relationship-tag local values (band 9000+ to stay clear of
#: the geo bands at 50-400).
REL_CUSTOMER = 9001
REL_PEER = 9002
REL_PROVIDER = 9003

_REL_VALUE = {
    Relationship.CUSTOMER: REL_CUSTOMER,
    Relationship.PEER: REL_PEER,
    Relationship.PROVIDER: REL_PROVIDER,
}

#: LOCAL_PREF by relationship: prefer customer > peer > provider.
_REL_LOCAL_PREF = {
    Relationship.CUSTOMER: 200,
    Relationship.PEER: 150,
    Relationship.PROVIDER: 80,
}


class CommunityPractice(enum.Enum):
    """How an AS handles foreign communities."""

    TAGGER = "tagger"
    CLEANER_EGRESS = "cleaner_egress"
    CLEANER_INGRESS = "cleaner_ingress"
    IGNORER = "ignorer"


class RelationshipImportPolicy(PolicyStep):
    """Import side of Gao-Rexford: LOCAL_PREF + internal tag.

    *relationship* is the local AS's view of the neighbor the route
    comes from (a route from my CUSTOMER gets the customer tag).
    """

    def __init__(self, local_asn: int, relationship: Relationship):
        self._local_asn = int(local_asn) & 0xFFFF
        self._relationship = relationship
        own = _REL_VALUE[relationship]
        self._tag = CommunitySet((Community.of(self._local_asn, own),))
        self._local_pref = _REL_LOCAL_PREF[relationship]
        self._stale_tags = CommunitySet(
            Community.of(self._local_asn, value)
            for value in (REL_CUSTOMER, REL_PEER, REL_PROVIDER)
            if value != own
        )

    @property
    def relationship(self) -> Relationship:
        """The neighbor relationship this step encodes."""
        return self._relationship

    def apply(self, attributes, context: PolicyContext):
        # Replace any stale own relationship tag (route moved between
        # ingress sessions of different relationships).
        communities = attributes.communities.difference(self._stale_tags)
        return attributes.replace(
            local_pref=self._local_pref,
            communities=communities.union(self._tag),
        )

    def describe(self) -> str:
        return f"gao-rexford-import({self._relationship.value})"


class GaoRexfordExportFilter(PolicyStep):
    """Export side: valley-free filtering on the internal tag.

    Toward customers everything is exported.  Toward peers and
    providers, only routes tagged as customer-learned (or originated
    locally, i.e. carrying no relationship tag of ours) may pass.
    """

    def __init__(self, local_asn: int, session_relationship: Relationship):
        self._local_asn = int(local_asn) & 0xFFFF
        #: Relationship of the *session* this filter exports over,
        #: from the local AS's point of view.
        self._session_relationship = session_relationship
        self._peer_tag = Community.of(self._local_asn, REL_PEER)
        self._provider_tag = Community.of(self._local_asn, REL_PROVIDER)

    def apply(self, attributes, context: PolicyContext):
        if self._session_relationship == Relationship.CUSTOMER:
            return attributes
        communities = attributes.communities
        if (
            self._peer_tag in communities
            or self._provider_tag in communities
        ):
            return None
        return attributes

    def describe(self) -> str:
        return f"gao-rexford-export(to-{self._session_relationship.value})"


class ScrubInternalTags(PolicyStep):
    """Remove the local AS's relationship tags on export (hygiene)."""

    def __init__(self, local_asn: int):
        self._local_asn = int(local_asn) & 0xFFFF
        self._tags = CommunitySet(
            Community.of(self._local_asn, value)
            for value in (REL_CUSTOMER, REL_PEER, REL_PROVIDER)
        )

    def apply(self, attributes, context: PolicyContext):
        cleaned = attributes.communities.difference(self._tags)
        if cleaned is attributes.communities:
            return attributes
        return attributes.with_communities(cleaned)

    def describe(self) -> str:
        return "scrub-internal-tags"
