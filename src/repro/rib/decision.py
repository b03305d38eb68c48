"""The BGP decision process (RFC 4271 §9.1.2.2 + universal tie breakers).

Step order, matching what Cisco IOS, Junos and BIRD all implement in
practice:

1.  Highest LOCAL_PREF (default 100 when absent).
2.  Shortest AS path (AS_SET counts as one hop).
3.  Lowest ORIGIN (IGP < EGP < INCOMPLETE).
4.  Lowest MED, compared only between routes from the same neighbor AS
    (``always_compare_med`` widens this to all routes, as the Cisco
    knob of the same name does).
5.  Prefer locally originated over eBGP-learned over iBGP-learned.
6.  Lowest IGP cost to the BGP next hop (hot-potato routing — this is
    the step that flips Y1's choice from Y2 to Y3 in the paper's Exp1
    when the Y1–Y2 link dies).
7.  Lowest BGP router ID of the advertising router (with
    ``prefer_oldest``, the oldest route first, then the router ID).
8.  Lowest peer address.

Steps 1-3 are one lexicographic key, :attr:`Route.rank`.  Steps 5-8 are
another: one ``min`` over ``(source order, IGP cost, [age,] router-id
key, peer-address key)``, whose first-of-equal pick is the route the
four elimination rounds would keep.  Step 4 alone stays an elimination
round between the two, because MED is not a total order: a route falls
only to a rival from the same neighbor AS, so "beats" is not
transitive across neighbors and no per-route key can express it.

The process is deterministic: given the same candidate set it always
returns the same winner, which the property-based tests exploit.
"""

from __future__ import annotations

import ipaddress
import zlib
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro.rib.route import Route, RouteSource

#: Step 5: locally originated before eBGP-learned before iBGP-learned.
#: Local routes only meet learned ones at the originating router,
#: where real tables let them win on weight.
_SOURCE_ORDER = {
    RouteSource.LOCAL: 0,
    RouteSource.EBGP: 1,
    RouteSource.IBGP: 2,
}


@dataclass(frozen=True)
class DecisionConfig:
    """Knobs altering the decision process."""

    #: Compare MED across neighbor ASes (Cisco ``always-compare-med``).
    always_compare_med: bool = False
    #: Ignore the router-id step and prefer the oldest route instead
    #: (Cisco's default eBGP behavior; disabled here by default to keep
    #: runs deterministic under replay).
    prefer_oldest: bool = False


class DecisionProcess:
    """Select the best route among candidates for one prefix."""

    def __init__(self, config: "DecisionConfig | None" = None):
        self._config = config or DecisionConfig()
        self._tail_key: "Callable[[Route], tuple]" = (
            _oldest_tail_key if self._config.prefer_oldest else _tail_key
        )

    @property
    def config(self) -> DecisionConfig:
        """The active configuration."""
        return self._config

    def select(self, candidates: Iterable[Route]) -> Optional[Route]:
        """Return the best route, or None when no candidate exists.

        Candidates must all be for the same prefix; this is asserted
        because mixing prefixes is always a caller bug.
        """
        pool = [route for route in candidates if route is not None]
        if not pool:
            return None
        if len(pool) == 1:
            # The overwhelmingly common case on real topologies: one
            # candidate needs no elimination rounds (and cannot mix
            # prefixes).
            return pool[0]
        prefixes = {route.prefix for route in pool}
        if len(prefixes) > 1:
            raise ValueError(
                f"decision over mixed prefixes: {sorted(map(str, prefixes))}"
            )
        # Steps 1-3 are one lexicographic minimum over Route.rank:
        # highest LOCAL_PREF, then shortest path, then lowest origin.
        best_rank = min([route.rank for route in pool])
        pool = [route for route in pool if route.rank == best_rank]
        if len(pool) == 1:
            return pool[0]
        pool = self._filter_med(pool)
        if len(pool) == 1:
            return pool[0]
        # Steps 5-8: min keeps the first of equal keys.
        return min(pool, key=self._tail_key)

    # ------------------------------------------------------------------
    # step 4 — keeps only the surviving candidates
    # ------------------------------------------------------------------
    def _filter_med(self, pool: "list[Route]") -> "list[Route]":
        meds = [route.effective_med for route in pool]
        lowest = min(meds)
        if lowest == max(meds):
            # Equal MEDs eliminate nobody, whichever routes compare.
            return pool
        if self._config.always_compare_med:
            return [r for r, med in zip(pool, meds) if med == lowest]
        # Standard semantics: eliminate a route only when a same-
        # neighbor-AS rival has strictly lower MED.  One pass computes
        # the lowest MED per neighbor AS; a route is beaten exactly
        # when its neighbor's minimum is strictly below its own MED.
        neighbors = [route.neighbor_asn for route in pool]
        lowest_med: dict = {}
        for neighbor, med in zip(neighbors, meds):
            if neighbor is not None:
                known = lowest_med.get(neighbor)
                if known is None or med < known:
                    lowest_med[neighbor] = med
        return [
            route
            for route, neighbor, med in zip(pool, neighbors, meds)
            if neighbor is None or lowest_med[neighbor] >= med
        ]


def _tail_key(route: Route) -> tuple:
    """Steps 5-8 as one key, lower is better."""
    return (
        _SOURCE_ORDER[route.source],
        route.igp_cost,
        _router_id_key(route.peer_id),
        _peer_address_key(route.peer_address),
    )


def _oldest_tail_key(route: Route) -> tuple:
    """Steps 5-8 with ``prefer_oldest``: the oldest route before the
    router ID."""
    return (
        _SOURCE_ORDER[route.source],
        route.igp_cost,
        route.learned_at,
        _router_id_key(route.peer_id),
        _peer_address_key(route.peer_address),
    )


# ----------------------------------------------------------------------
# memoized tie-breaker keys: the same few router ids and session
# addresses are parsed millions of times on a big run, so the parsed
# keys are cached process-wide (both caches are pure string -> tuple).
# ----------------------------------------------------------------------
_ROUTER_ID_KEYS: "dict[Optional[str], tuple]" = {None: (0, 0)}
_PEER_ADDRESS_KEYS: "dict[Optional[str], tuple]" = {None: (0, 0)}


def _router_id_key(peer_id: "Optional[str]") -> tuple:
    try:
        return _ROUTER_ID_KEYS[peer_id]
    except KeyError:
        pass
    try:
        key = (1, int(ipaddress.IPv4Address(peer_id)))
    except ipaddress.AddressValueError:
        # crc32, not hash(): a salted hash would make this tie breaker
        # — and thus route selection — vary between interpreter runs.
        key = (2, zlib.crc32(str(peer_id).encode("utf-8")))
    _ROUTER_ID_KEYS[peer_id] = key
    return key


def _peer_address_key(peer_address: "Optional[str]") -> tuple:
    try:
        return _PEER_ADDRESS_KEYS[peer_address]
    except KeyError:
        pass
    parsed = ipaddress.ip_address(peer_address)
    key = (parsed.version, int(parsed))
    _PEER_ADDRESS_KEYS[peer_address] = key
    return key
