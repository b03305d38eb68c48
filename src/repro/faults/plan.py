"""The declarative fault plan: seeded, named-site fault injection.

A :class:`FaultPlan` is a JSON document::

    {
      "seed": 7,
      "rules": [
        {"site": "sweep.cell", "match": "lab-junos@seed2",
         "action": "kill", "count": 1},
        {"site": "durable.write", "match": "*.v3.json",
         "action": "torn", "keep": 0.5, "probability": 0.25},
        {"site": "queue.claim", "action": "stall", "seconds": 2.0}
      ]
    }

Each rule names an injection *site* (an fnmatch pattern over the
``faultpoint("...")`` names threaded through the codebase) and an
optional ``match`` pattern over the point's dynamic name (a cell
name, a file path, a digest).  When both match, the rule *fires*
subject to:

* ``count`` — total fires allowed across every process sharing the
  plan's ``state_dir`` (claimed by ``O_CREAT|O_EXCL`` markers, the
  same primitive the queue backend's exactly-once rests on).  Omitted
  means unlimited — a deterministic crasher.
* ``probability`` — a deterministic draw hashed from ``(plan seed,
  rule index, site, name)``; the same plan over the same sweep makes
  the same decisions in every run and every process, which is what
  makes chaos runs reproducible.

Actions:

``kill``
    ``os._exit(exit_code)`` — no Python teardown; to a lane's parent or a
    peer invocation it is indistinguishable from a segfault/OOM kill.
``stall``
    ``time.sleep(seconds)`` — a hung worker / NFS stall.
``error``
    raise :class:`InjectedFault` — an ordinary exception the retry
    machinery should absorb.
``torn``
    handled by :func:`FaultPlan.mangle`: truncate the bytes of a
    durable write to a ``keep`` fraction — a writer that died
    mid-``write(2)``.  (``faultpoint`` sites ignore torn rules; only
    byte-producing sites consult ``mangle``.)
"""

from __future__ import annotations

import json
import os
import time
import zlib
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Dict, Optional, Tuple

from repro.obs import metrics as obs_metrics

#: Environment variable naming the JSON plan file to arm.
PLAN_ENV = "REPRO_FAULT_PLAN"

#: The actions a rule may request.
ACTIONS = ("kill", "stall", "error", "torn")

#: Exit status of a ``kill`` fault (mirrors the old env hook).
DEFAULT_EXIT_CODE = 86

#: Default stall duration, seconds.
DEFAULT_STALL_SECONDS = 30.0

#: Default fraction of bytes a torn write keeps.
DEFAULT_TORN_KEEP = 0.5


class FaultPlanError(ValueError):
    """A fault plan file/document failed validation."""


class InjectedFault(RuntimeError):
    """The exception an ``error`` fault raises at its faultpoint."""


@dataclass(frozen=True)
class FaultRule:
    """One declarative fault: where, when, what."""

    site: str
    action: str
    match: str = "*"
    count: "Optional[int]" = None
    probability: float = 1.0
    seconds: float = DEFAULT_STALL_SECONDS
    keep: float = DEFAULT_TORN_KEEP
    exit_code: int = DEFAULT_EXIT_CODE

    def validate(self) -> None:
        if not self.site:
            raise FaultPlanError("fault rule needs a non-empty 'site'")
        if self.action not in ACTIONS:
            raise FaultPlanError(
                f"unknown fault action {self.action!r}; choose from:"
                f" {', '.join(ACTIONS)}"
            )
        if self.count is not None and self.count < 1:
            raise FaultPlanError(
                f"fault count must be >= 1, got {self.count!r}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise FaultPlanError(
                f"fault probability must be in [0, 1],"
                f" got {self.probability!r}"
            )
        if self.seconds < 0:
            raise FaultPlanError(
                f"stall seconds must be >= 0, got {self.seconds!r}"
            )
        if not 0.0 <= self.keep < 1.0:
            raise FaultPlanError(
                f"torn keep fraction must be in [0, 1),"
                f" got {self.keep!r}"
            )

    def matches(self, site: str, name: str) -> bool:
        return fnmatchcase(site, self.site) and fnmatchcase(
            name, self.match
        )


@dataclass
class FaultPlan:
    """A seeded set of rules plus the shared fire-count state."""

    rules: "Tuple[FaultRule, ...]" = ()
    seed: int = 0
    #: Directory of ``O_CREAT|O_EXCL`` fire markers shared by every
    #: process under the plan; ``None`` falls back to per-process
    #: in-memory counts (fine for single-process tests).
    state_dir: "Optional[str]" = None
    _memory_counts: "Dict[int, int]" = field(
        default_factory=dict, repr=False, compare=False
    )

    def validate(self) -> None:
        for rule in self.rules:
            rule.validate()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        if not isinstance(data, dict):
            raise FaultPlanError(
                f"fault plan must be a JSON object, got {type(data).__name__}"
            )
        raw_rules = data.get("rules", [])
        if not isinstance(raw_rules, list):
            raise FaultPlanError("fault plan 'rules' must be a list")
        known = {
            "site", "action", "match", "count", "probability",
            "seconds", "keep", "exit_code",
        }
        rules = []
        for index, raw in enumerate(raw_rules):
            if not isinstance(raw, dict):
                raise FaultPlanError(
                    f"fault rule #{index} must be an object"
                )
            unknown = sorted(set(raw) - known)
            if unknown:
                raise FaultPlanError(
                    f"fault rule #{index} has unknown keys:"
                    f" {', '.join(unknown)}"
                )
            try:
                rules.append(FaultRule(**raw))
            except TypeError as exc:
                raise FaultPlanError(
                    f"fault rule #{index}: {exc}"
                ) from None
        plan = cls(
            rules=tuple(rules),
            seed=int(data.get("seed", 0)),
            state_dir=data.get("state_dir"),
        )
        plan.validate()
        return plan

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        """Parse a plan file; defaults ``state_dir`` next to it."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise FaultPlanError(
                f"cannot read fault plan {path!r}: {exc}"
            ) from None
        except ValueError as exc:
            raise FaultPlanError(
                f"fault plan {path!r} is not valid JSON: {exc}"
            ) from None
        plan = cls.from_dict(data)
        if plan.state_dir is None:
            plan.state_dir = f"{path}.state"
        return plan

    # ------------------------------------------------------------------
    # firing machinery
    # ------------------------------------------------------------------
    def _draw(self, index: int, rule: FaultRule, name: str) -> bool:
        """Deterministic probability draw — stable across processes."""
        if rule.probability >= 1.0:
            return True
        if rule.probability <= 0.0:
            return False
        key = f"{self.seed}|{index}|{rule.site}|{name}".encode("utf-8")
        draw = (zlib.crc32(key) & 0xFFFFFFFF) / 2.0**32
        return draw < rule.probability

    def _claim_fire(self, index: int, rule: FaultRule) -> bool:
        """Spend one of the rule's allowed fires, exactly-once."""
        if rule.count is None:
            return True
        if self.state_dir:
            os.makedirs(self.state_dir, exist_ok=True)
            for slot in range(rule.count):
                marker = os.path.join(
                    self.state_dir, f"fire.{index}.{slot}"
                )
                try:
                    handle = os.open(
                        marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY
                    )
                except FileExistsError:
                    continue
                os.close(handle)
                return True
            return False
        fired = self._memory_counts.get(index, 0)
        if fired >= rule.count:
            return False
        self._memory_counts[index] = fired + 1
        return True

    def on_point(self, site: str, name: str) -> None:
        """Execute whatever rules fire at this faultpoint."""
        for index, rule in enumerate(self.rules):
            if rule.action == "torn":
                continue  # torn is a byte transform; see mangle()
            if not rule.matches(site, name):
                continue
            if not self._draw(index, rule, name):
                continue
            if not self._claim_fire(index, rule):
                continue
            obs_metrics.count(f"fault.fired.{rule.action}")
            if rule.action == "kill":
                os._exit(rule.exit_code)
            elif rule.action == "stall":
                time.sleep(rule.seconds)
            elif rule.action == "error":
                raise InjectedFault(
                    f"injected fault at {site!r}"
                    + (f" ({name})" if name else "")
                )

    def mangle(self, site: str, name: str, data: bytes) -> bytes:
        """Apply any matching ``torn`` rule to a durable payload."""
        for index, rule in enumerate(self.rules):
            if rule.action != "torn":
                continue
            if not rule.matches(site, name):
                continue
            if not self._draw(index, rule, name):
                continue
            if not self._claim_fire(index, rule):
                continue
            obs_metrics.count("fault.fired.torn")
            return data[: int(len(data) * rule.keep)]
        return data
