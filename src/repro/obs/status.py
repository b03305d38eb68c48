"""Live sweep status, reconstructed from the manifest and journals.

``repro scenario sweep --status`` points this module at a sweep cache
dir.  Nothing here talks to the running sweep: the manifest
(``sweep.json``) and the per-cell JSONL journals *are* the interface,
so status works identically for an in-flight sweep on this machine, a
sweep run by cooperating invocations, or a post-mortem on a dead one.

Derived cell states:

* ``done`` / ``failed`` — straight from the manifest.
* ``running`` — manifest still says ``pending`` but the cell's journal
  has a ``start`` without a matching ``finish``.  Heartbeats supply
  progress (observations, rate, peak RSS).
* ``lost`` — looked ``running``, but the journal has gone quiet: the
  last event is older than the staleness threshold (2x the cell's own
  observed heartbeat interval, or ``lost_after`` when given).  A
  worker that was OOM-killed or segfaulted mid-cell leaves exactly
  this trail — a ``start`` with no ``finish`` and no fresh heartbeats
  — and used to show as ``running`` forever.
* ``pending`` — no evidence of work yet.

A *straggler* is a running cell whose elapsed time exceeds twice the
median wall time of the cells that already finished — the first place
to look when a sweep stalls.  Straggler math needs at least
:data:`MIN_STRAGGLER_SAMPLES` finished cells (a single fast cell as
the "median" used to flag every normal cell) and never counts
``lost`` cells, which are not slow — they are gone.

Journals are read through a bounded tail
(:data:`JOURNAL_TAIL_BYTES`): heartbeats append unboundedly and the
status poller only needs the recent events.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.journal import cell_journal_path, read_journal
from repro.reports.render import render_table

#: Elapsed-over-median factor past which a running cell is a straggler.
STRAGGLER_FACTOR = 2.0

#: Finished cells required before the straggler median is trusted.
MIN_STRAGGLER_SAMPLES = 3

#: A running cell is ``lost`` when its journal has been silent for
#: this factor times its own observed heartbeat interval.
LOST_FACTOR = 2.0

#: Floor under the derived staleness threshold — sub-second heartbeat
#: intervals must not flag a cell between two status polls.
MIN_LOST_SECONDS = 10.0

#: Fallback staleness threshold when a cell's journal shows no usable
#: heartbeat interval (e.g. only a ``start`` so far).
DEFAULT_LOST_AFTER = 300.0

#: How much of each cell journal the status poller reads.
JOURNAL_TAIL_BYTES = 64 * 1024


@dataclass
class CellStatus:
    """Everything we can say about one sweep cell from disk."""

    digest: str
    name: str
    state: str  # done | failed | running | lost | pending
    attempts: int = 0
    started_at: "Optional[float]" = None
    finished_at: "Optional[float]" = None
    wall_seconds: "Optional[float]" = None
    #: Running cells: seconds since the last recorded start.
    elapsed_seconds: "Optional[float]" = None
    #: Latest heartbeat progress, if any.
    observations: "Optional[int]" = None
    rate_per_second: "Optional[float]" = None
    peak_rss_kb: "Optional[int]" = None
    straggler: bool = False

    @property
    def retried(self) -> bool:
        return self.attempts > 1

    def as_dict(self) -> dict:
        payload = {
            "digest": self.digest,
            "name": self.name,
            "state": self.state,
            "attempts": self.attempts,
            "straggler": self.straggler,
        }
        for key in (
            "started_at",
            "finished_at",
            "wall_seconds",
            "elapsed_seconds",
            "observations",
            "rate_per_second",
            "peak_rss_kb",
        ):
            value = getattr(self, key)
            if value is not None:
                payload[key] = value
        return payload


@dataclass
class SweepStatus:
    """The whole sweep's state at one instant."""

    cache_dir: str
    cells: "List[CellStatus]" = field(default_factory=list)

    def counts(self) -> "Dict[str, int]":
        tally = {
            "done": 0, "failed": 0, "running": 0, "lost": 0,
            "pending": 0,
        }
        for cell in self.cells:
            tally[cell.state] = tally.get(cell.state, 0) + 1
        tally["retried"] = sum(1 for cell in self.cells if cell.retried)
        tally["total"] = len(self.cells)
        return tally

    def stragglers(self) -> "List[CellStatus]":
        return [cell for cell in self.cells if cell.straggler]

    def as_dict(self) -> dict:
        return {
            "cache_dir": self.cache_dir,
            "counts": self.counts(),
            "cells": [cell.as_dict() for cell in self.cells],
        }


def _median(values: "List[float]") -> "Optional[float]":
    if not values:
        return None
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def _journal_view(events: "List[dict]") -> dict:
    """Condense a cell journal to the fields status cares about."""
    view: dict = {
        "starts": 0,
        "finished": False,
        "last_start_ts": None,
        "heartbeat": None,
        #: Timestamps of the last two events of any kind — the gap is
        #: the cell's own observed event cadence, which calibrates the
        #: ``lost`` staleness threshold.
        "last_ts": None,
        "prev_ts": None,
    }
    for event in events:
        kind = event.get("event")
        ts = event.get("ts")
        if isinstance(ts, (int, float)):
            view["prev_ts"] = view["last_ts"]
            view["last_ts"] = ts
        if kind == "start":
            view["starts"] += 1
            view["last_start_ts"] = event.get("ts")
            view["finished"] = False
        elif kind in ("finish", "fail"):
            view["finished"] = True
        elif kind == "heartbeat":
            view["heartbeat"] = event
    return view


def _lost_threshold(
    journal: dict, lost_after: "Optional[float]"
) -> float:
    """Seconds of journal silence after which a cell counts as lost."""
    if lost_after is not None:
        return lost_after
    last_ts, prev_ts = journal["last_ts"], journal["prev_ts"]
    if (
        last_ts is not None
        and prev_ts is not None
        and last_ts > prev_ts
    ):
        return max(LOST_FACTOR * (last_ts - prev_ts), MIN_LOST_SECONDS)
    return DEFAULT_LOST_AFTER


def collect_sweep_status(
    cache_dir: str,
    *,
    now: "Optional[float]" = None,
    lost_after: "Optional[float]" = None,
) -> SweepStatus:
    """Build a :class:`SweepStatus` snapshot from *cache_dir*.

    *now* pins the clock for elapsed-time math (tests); defaults to
    wall time.  *lost_after* overrides the derived journal-staleness
    threshold (seconds) past which a running cell is declared
    ``lost``; the default calibrates per cell from its own heartbeat
    cadence (see :func:`_lost_threshold`).
    """
    # Imported here, not at module top: runner imports the journal
    # helpers from this package, and obs must stay importable without
    # the scenarios layer.
    from repro.scenarios.runner import SweepManifest

    if lost_after is not None and not (
        math.isfinite(lost_after) and lost_after > 0
    ):
        raise ValueError(
            f"lost_after must be finite and > 0, got {lost_after!r}"
        )
    if now is None:
        now = time.time()
    manifest = SweepManifest.load(cache_dir)
    status = SweepStatus(cache_dir=cache_dir)
    for digest, cell in sorted(
        manifest.cells.items(),
        key=lambda item: (item[1].get("name", ""), item[0]),
    ):
        state = cell.get("state", "pending")
        entry = CellStatus(
            digest=digest,
            name=cell.get("name", ""),
            state=state,
            attempts=int(cell.get("attempts", 0) or 0),
            started_at=cell.get("started_at"),
            finished_at=cell.get("finished_at"),
        )
        if (
            entry.started_at is not None
            and entry.finished_at is not None
        ):
            entry.wall_seconds = entry.finished_at - entry.started_at
        journal = _journal_view(
            read_journal(
                cell_journal_path(cache_dir, digest),
                tail_bytes=JOURNAL_TAIL_BYTES,
            )
        )
        if journal["starts"] > entry.attempts:
            entry.attempts = journal["starts"]
        heartbeat = journal["heartbeat"]
        if heartbeat is not None:
            entry.observations = heartbeat.get("observations")
            entry.rate_per_second = heartbeat.get("rate_per_second")
            entry.peak_rss_kb = heartbeat.get("peak_rss_kb")
        if (
            state == "pending"
            and journal["last_start_ts"] is not None
            and not journal["finished"]
        ):
            entry.state = "running"
            entry.elapsed_seconds = max(
                0.0, now - journal["last_start_ts"]
            )
            silence = (
                now - journal["last_ts"]
                if journal["last_ts"] is not None
                else None
            )
            if (
                silence is not None
                and silence > _lost_threshold(journal, lost_after)
            ):
                # A start with no finish *and* a silent journal is a
                # dead worker's trail, not a running cell.
                entry.state = "lost"
        status.cells.append(entry)

    finished_walls = [
        cell.wall_seconds
        for cell in status.cells
        if cell.state == "done" and cell.wall_seconds is not None
    ]
    median_wall = (
        _median(finished_walls)
        if len(finished_walls) >= MIN_STRAGGLER_SAMPLES
        else None
    )
    if median_wall is not None and median_wall > 0:
        for cell in status.cells:
            # Lost cells are excluded: they are not slow, they are
            # gone, and they already stand out in the table.
            if (
                cell.state == "running"
                and cell.elapsed_seconds is not None
                and cell.elapsed_seconds > STRAGGLER_FACTOR * median_wall
            ):
                cell.straggler = True
    return status


def _format_seconds(value: "Optional[float]") -> str:
    if value is None:
        return "-"
    return f"{value:.1f}s"


def render_sweep_status(status: SweepStatus) -> str:
    """The human table ``--status`` prints (to stderr)."""
    counts = status.counts()
    summary = (
        f"sweep @ {status.cache_dir}: "
        f"{counts['done']}/{counts['total']} done, "
        f"{counts['running']} running, {counts['failed']} failed, "
        f"{counts['lost']} lost, "
        f"{counts['pending']} pending, {counts['retried']} retried"
    )
    rows = []
    for cell in status.cells:
        progress = "-"
        if cell.observations is not None:
            rate = (
                f" @ {cell.rate_per_second:.0f}/s"
                if cell.rate_per_second
                else ""
            )
            progress = f"{cell.observations} obs{rate}"
        state = cell.state
        if cell.straggler:
            state += " (straggler)"
        rows.append(
            (
                cell.name,
                state,
                cell.attempts or "-",
                _format_seconds(
                    cell.wall_seconds
                    if cell.wall_seconds is not None
                    else cell.elapsed_seconds
                ),
                progress,
                cell.digest[:10],
            )
        )
    table = render_table(
        ("cell", "state", "attempts", "wall", "progress", "digest"),
        rows,
        title=summary,
    )
    return table
