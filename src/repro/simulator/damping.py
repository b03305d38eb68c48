"""Route-flap damping (RFC 2439).

The paper (§2) notes that "mechanisms such as route dampening and MRAI
timers have been explored, but may offer suboptimal performance in
reacting to routing events. Thus, these mechanisms are selectively
deployed."  This module implements the RFC 2439 penalty model so that
the A5 ablation (the ``damping`` collector) can quantify exactly that
trade-off on the synthetic internet: damping absorbs
community-exploration bursts, but at the cost of delayed reachability
after genuine changes.

Model (per (peer, prefix)):

* every flap (withdrawal, or re-announcement with changed attributes)
  adds a penalty;
* the penalty decays exponentially with a configured half-life;
* when the penalty exceeds the *suppress* threshold the route is
  damped: announcements are withheld;
* when decay brings it below the *reuse* threshold the route is
  released again;
* the penalty is capped so that a route is never suppressed longer
  than ``max_suppress_time``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Tuple

from repro.netbase.prefix import Prefix

#: Default parameters follow the common vendor defaults (Cisco):
#: penalties are in abstract units, times in seconds.
WITHDRAWAL_PENALTY = 1000.0
ATTRIBUTE_CHANGE_PENALTY = 500.0
DEFAULT_SUPPRESS_THRESHOLD = 2000.0
DEFAULT_REUSE_THRESHOLD = 750.0
DEFAULT_HALF_LIFE = 15 * 60.0
DEFAULT_MAX_SUPPRESS = 60 * 60.0


@dataclass
class DampingConfig:
    """RFC 2439 parameter set."""

    suppress_threshold: float = DEFAULT_SUPPRESS_THRESHOLD
    reuse_threshold: float = DEFAULT_REUSE_THRESHOLD
    half_life: float = DEFAULT_HALF_LIFE
    max_suppress_time: float = DEFAULT_MAX_SUPPRESS
    withdrawal_penalty: float = WITHDRAWAL_PENALTY
    attribute_change_penalty: float = ATTRIBUTE_CHANGE_PENALTY

    def __post_init__(self):
        if self.reuse_threshold >= self.suppress_threshold:
            raise ValueError(
                "reuse threshold must be below suppress threshold"
            )
        if self.half_life <= 0:
            raise ValueError("half-life must be positive")

    @property
    def max_penalty(self) -> float:
        """Penalty ceiling implied by the maximum suppression time.

        RFC 2439: the ceiling guarantees a route decays from the cap to
        the reuse threshold within ``max_suppress_time``.
        """
        return self.reuse_threshold * math.pow(
            2.0, self.max_suppress_time / self.half_life
        )


@dataclass
class _DampingEntry:
    penalty: float
    updated_at: float
    suppressed: bool


class RouteDamper:
    """Per-(peer, prefix) flap damping state.

    The damper is passive: callers report flaps via :meth:`penalize`
    and ask :meth:`is_suppressed` before propagating announcements.
    """

    def __init__(self, config: "DampingConfig | None" = None):
        self.config = config or DampingConfig()
        self._entries: Dict[Tuple[Hashable, Prefix], _DampingEntry] = {}
        #: Counters for the ablation reports.
        self.suppressions = 0
        self.releases = 0

    # ------------------------------------------------------------------
    # state evolution
    # ------------------------------------------------------------------
    def _decayed_penalty(
        self, entry: _DampingEntry, now: float
    ) -> float:
        elapsed = max(0.0, now - entry.updated_at)
        return entry.penalty * math.pow(
            0.5, elapsed / self.config.half_life
        )

    def penalize(
        self,
        peer: Hashable,
        prefix: Prefix,
        now: float,
        *,
        is_withdrawal: bool,
    ) -> bool:
        """Record one flap; returns True when the route is suppressed."""
        key = (peer, prefix)
        entry = self._entries.get(key)
        increment = (
            self.config.withdrawal_penalty
            if is_withdrawal
            else self.config.attribute_change_penalty
        )
        if entry is None:
            entry = _DampingEntry(
                penalty=increment, updated_at=now, suppressed=False
            )
            self._entries[key] = entry
        else:
            penalty = self._decayed_penalty(entry, now) + increment
            entry.penalty = min(penalty, self.config.max_penalty)
            entry.updated_at = now
        if (
            not entry.suppressed
            and entry.penalty >= self.config.suppress_threshold
        ):
            entry.suppressed = True
            self.suppressions += 1
        return entry.suppressed

    def is_suppressed(
        self, peer: Hashable, prefix: Prefix, now: float
    ) -> bool:
        """Check (and lazily update) the suppression state."""
        key = (peer, prefix)
        entry = self._entries.get(key)
        if entry is None:
            return False
        penalty = self._decayed_penalty(entry, now)
        entry.penalty = penalty
        entry.updated_at = now
        # RFC 2439 §4.4.4: a route is reused once its penalty reaches
        # the reuse threshold — decaying to *exactly* the threshold
        # releases it (<=, not <; a strict compare would hold the route
        # one extra decay interval, and would break the max-suppress
        # guarantee, which lands exactly on the threshold at the cap).
        if entry.suppressed and penalty <= self.config.reuse_threshold:
            entry.suppressed = False
            self.releases += 1
        if not entry.suppressed and penalty < 1.0:
            # Fully decayed: forget the entry to bound memory.
            del self._entries[key]
            return False
        return entry.suppressed

    def penalty_of(
        self, peer: Hashable, prefix: Prefix, now: float
    ) -> float:
        """Current decayed penalty (0 when unknown)."""
        entry = self._entries.get((peer, prefix))
        if entry is None:
            return 0.0
        return self._decayed_penalty(entry, now)

    def reuse_eta(
        self, peer: Hashable, prefix: Prefix, now: float
    ) -> Optional[float]:
        """Seconds until a suppressed route becomes reusable."""
        entry = self._entries.get((peer, prefix))
        if entry is None or not entry.suppressed:
            return None
        penalty = self._decayed_penalty(entry, now)
        if penalty <= self.config.reuse_threshold:
            return 0.0
        return self.config.half_life * math.log2(
            penalty / self.config.reuse_threshold
        )

    def tracked_routes(self) -> int:
        """Number of (peer, prefix) pairs currently carrying penalty."""
        return len(self._entries)
