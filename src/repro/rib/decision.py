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

The process is deterministic: given the same candidate set it always
returns the same winner, which the property-based tests exploit.
"""

from __future__ import annotations

import ipaddress
import zlib
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.rib.route import Route, RouteSource


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
        for step in (
            self._filter_med,
            self._filter_ebgp,
            self._filter_igp_cost,
        ):
            pool = step(pool)
            if len(pool) == 1:
                return pool[0]
        if self._config.prefer_oldest:
            oldest = min(route.learned_at for route in pool)
            pool = [r for r in pool if r.learned_at == oldest]
            if len(pool) == 1:
                return pool[0]
        pool = self._filter_router_id(pool)
        if len(pool) == 1:
            return pool[0]
        pool = self._filter_peer_address(pool)
        return pool[0]

    # ------------------------------------------------------------------
    # individual steps — each keeps only the surviving candidates
    # (steps 1-3 are fused into one lexicographic pass in select())
    # ------------------------------------------------------------------
    def _filter_med(self, pool: Sequence[Route]) -> "list[Route]":
        meds = [route.effective_med for route in pool]
        lowest = min(meds)
        if lowest == max(meds):
            # Equal MEDs eliminate nobody, whichever routes compare.
            return list(pool)
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

    @staticmethod
    def _filter_ebgp(pool: Sequence[Route]) -> "list[Route]":
        if any(route.source == RouteSource.EBGP for route in pool):
            kept = [r for r in pool if r.source == RouteSource.EBGP]
            # LOCAL routes rank above eBGP in real tables, but local
            # routes only meet learned routes at the originating router
            # where they always win on weight; model that here.
            local = [r for r in pool if r.source == RouteSource.LOCAL]
            return local or kept
        local = [r for r in pool if r.source == RouteSource.LOCAL]
        return local or list(pool)

    @staticmethod
    def _filter_igp_cost(pool: Sequence[Route]) -> "list[Route]":
        best = min(route.igp_cost for route in pool)
        return [r for r in pool if r.igp_cost == best]

    @staticmethod
    def _filter_router_id(pool: Sequence[Route]) -> "list[Route]":
        keys = [_router_id_key(route.peer_id) for route in pool]
        best = min(keys)
        return [r for r, k in zip(pool, keys) if k == best]

    @staticmethod
    def _filter_peer_address(pool: Sequence[Route]) -> "list[Route]":
        return [
            min(
                pool,
                key=lambda route: _peer_address_key(route.peer_address),
            )
        ]


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
