"""Shared bounded-memo primitive for the decode hot path.

Every read-path cache — attribute blocks, AS paths, community sets,
large-community sets, single community and ASN values, packed IPv4
and IPv6 addresses, NLRI encodings, MRT envelopes, cleaning-pipeline
scans — uses one eviction policy: when the memo reaches its bound it
is cleared wholesale and refills from the live working set.  Real
archives have small working sets, so a full clear costs one cold
decode per distinct value and keeps the policy O(1) with no
bookkeeping on the hit path (an LRU would charge every hit).  Keeping
the policy here, in one place, means a future change (say, to a real
LRU) cannot silently diverge between caches.

Every bounded store also carries a *named* :class:`MemoStats` record
(hits / misses / evictions), so cache effectiveness is a measured
number instead of something inferred from throughput deltas.
Counting is a single integer increment per event — the hit path pays
one ``stats.hits += 1`` next to the dict lookup it already does — and
the counters never influence decoded output, so the fast-vs-naive
determinism verifies are unaffected.  :func:`memo_stats` snapshots
every store; :func:`reset_memo_stats` zeroes them (determinism
harnesses and per-run metric reports both want a clean slate).
"""

from __future__ import annotations

from typing import Dict


class MemoStats:
    """Hit/miss/eviction counters for one named bounded memo."""

    __slots__ = ("name", "hits", "misses", "evictions")

    def __init__(self, name: str):
        self.name = name
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def as_dict(self) -> "Dict[str, float]":
        """JSON-friendly snapshot, with the derived hit rate."""
        lookups = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hits / lookups if lookups else 0.0,
        }

    def __repr__(self) -> str:
        return (
            f"MemoStats({self.name!r}, hits={self.hits},"
            f" misses={self.misses}, evictions={self.evictions})"
        )


#: Every named memo's stats, in registration order.
_STATS_REGISTRY: "Dict[str, MemoStats]" = {}


def memo_counters(name: str) -> MemoStats:
    """The (registered) stats record for the memo called *name*.

    Idempotent: modules create their record at import time with
    ``_STATS = memo_counters("wire.attr_block")`` and the same object
    is returned on any later call, so reporting code can look memos up
    by name without holding module references.
    """
    stats = _STATS_REGISTRY.get(name)
    if stats is None:
        stats = MemoStats(name)
        _STATS_REGISTRY[name] = stats
    return stats


def memo_stats() -> "Dict[str, Dict[str, float]]":
    """Snapshot of every registered memo: name -> counters dict."""
    return {
        name: stats.as_dict()
        for name, stats in sorted(_STATS_REGISTRY.items())
    }


def reset_memo_stats() -> None:
    """Zero every registered memo's counters (not the caches)."""
    for stats in _STATS_REGISTRY.values():
        stats.reset()


def bounded_store(
    cache: dict, key, value, limit: int, stats: "MemoStats | None" = None
):
    """Store ``key -> value``, clearing the whole memo at *limit*.

    Returns *value* so call sites can store-and-use in one expression.
    When *stats* is given, the store counts as one miss (a store only
    happens after a failed lookup) and a wholesale clear as one
    eviction — both on the cold path, where a counter increment is
    noise next to the decode the miss just paid for.
    """
    if len(cache) >= limit:
        cache.clear()
        if stats is not None:
            stats.evictions += 1
    if stats is not None:
        stats.misses += 1
    cache[key] = value
    return value
