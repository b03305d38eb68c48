"""The Loc-RIB: the router's selected best route per prefix."""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from repro.netbase.prefix import Prefix
from repro.rib.route import Route


class LocRIB:
    """Best routes selected by the decision process, keyed by prefix."""

    __slots__ = ("_best",)

    def __init__(self):
        self._best: Dict[Prefix, Route] = {}

    def update(self, route: Route) -> "tuple[bool, Route | None]":
        """Install *route* unless an equal entry is already best.

        Returns ``(changed, previous)`` with a single table lookup —
        the hot path the router's reconsideration takes for every
        decision.  When the stored entry equals *route* the table keeps
        the existing instance (its ``learned_at`` is the original one).
        """
        previous = self._best.get(route.prefix)
        if previous is not None and previous == route:
            return False, previous
        self._best[route.prefix] = route
        return True, previous

    def remove(self, prefix: Prefix) -> "Route | None":
        """Remove the best route for *prefix*, returning it."""
        return self._best.pop(prefix, None)

    def get(self, prefix: Prefix) -> Optional[Route]:
        """The current best route, or None when unreachable."""
        return self._best.get(prefix)

    def prefixes(self) -> "list[Prefix]":
        """All reachable prefixes (snapshot list)."""
        return list(self._best)

    def __len__(self) -> int:
        return len(self._best)

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix in self._best

    def __iter__(self) -> Iterator[Route]:
        return iter(self._best.values())
