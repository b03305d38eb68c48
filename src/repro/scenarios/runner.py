"""Fault-tolerant, resumable sweep runner over pluggable backends.

A sweep is just a list of specs — typically one scenario expanded over
N seeds (:func:`expand_seeds`) or several registry entries.  The
runner keys a JSON result cache on the stable spec hash, farms the
misses out to an :class:`~repro.scenarios.backends.ExecutionBackend`
(serial / processes / queue — see :mod:`repro.scenarios.backends`),
and reports what happened in a :class:`SweepReport`.

Three properties make large campaigns survivable:

* **Fault tolerance** — a crashing cell no longer kills the sweep.
  Each spec is retried up to ``max_retries`` times; a cell that keeps
  failing lands in :attr:`SweepReport.failures` with its spec name,
  hash and full traceback while every other cell completes.
* **Resumability** — with a ``cache_dir``, the runner checkpoints a
  ``sweep.json`` manifest recording every cell's spec, hash and
  completion state, updated as each outcome arrives.  A killed sweep
  (Ctrl-C, OOM, a dead machine) resumes with
  :func:`resume_sweep`/``repro scenario sweep --resume`` and
  recomputes only the missing or failed cells.
* **Cooperation** — a :class:`~repro.scenarios.backends.QueueBackend`
  makes N independent invocations over a shared work dir and
  ``cache_dir`` converge to the same results as one serial run:
  each cell is claimed exactly once, and completed cells meet in the
  cache.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence

from repro import durable
from repro.obs.journal import cell_journal_path, journal_dir
from repro.scenarios.backends import (
    ExecutionBackend,
    JobFailure,
    JobOutcome,
    OutcomeHook,
    SweepJob,
    make_backend,
)
from repro.scenarios.engine import ScenarioResult
from repro.scenarios.serialize import (
    failure_from_dict,
    failure_to_dict,
    result_from_json,
    spec_from_dict,
    spec_hash,
    spec_to_dict,
    spec_to_json,
)
from repro.scenarios.spec import ScenarioSpec


#: Cache-entry format/behavior version.  Bump whenever simulation or
#: collector output changes for an unchanged spec, so persistent
#: ``--cache-dir`` trees from older toolkit versions are recomputed
#: instead of silently served as current numbers.
#: v2: mrt-replay results gained ``reader_stats``; a v1 entry would
#: replay byte-different from a fresh computation.
#: v3: results gained per-shard decode stats and ``MrtSpec`` a decode
#: worker count; entries written by a v2 toolkit would replay
#: byte-different for sharded runs.
#: Kept at v3 when the sharded decode and both fields went: no
#: reachable entry carried either, so none replays different bytes.
#: Kept at v3 when the early-stop and snapshot result fields went:
#: sweep cells never set them, so no cached entry carried either key.
CACHE_VERSION = "v3"

#: Fingerprint of the serialized result schema — the payload keys of
#: ``result_to_dict``/``failure_to_dict`` plus the
#: ``ScenarioResult``/``SweepReport`` field sets — recorded here so
#: ``tests/test_scenarios_serialize.py::TestCacheSchema`` fails
#: whenever the schema moves without anyone looking at these two
#: constants together.  When that test fails: decide whether replayed
#: bytes change, bump :data:`CACHE_VERSION` if they do, and paste the
#: computed value from its assertion message here.
CACHE_SCHEMA_FINGERPRINT = "96530b908db7"

#: Manifest filename inside the cache dir, and its schema version.
#: Note: per-cell ``attempts``/``started_at``/``finished_at`` keys were
#: added without a version bump — they are purely additive, readers
#: ``.get`` them, and old manifests must keep resuming as-is.
MANIFEST_NAME = "sweep.json"
MANIFEST_VERSION = "v1"

#: Additive per-cell bookkeeping keys carried by the manifest.
_TIMING_KEYS = ("attempts", "started_at", "finished_at")

#: Default base of the deterministic exponential backoff between
#: retries of a failing cell (seconds); doubles per attempt, see
#: :func:`repro.scenarios.backends.backoff_delay`.
DEFAULT_RETRY_BACKOFF = 0.1


def expand_seeds(
    spec: ScenarioSpec, seeds: "Iterable[int]"
) -> "List[ScenarioSpec]":
    """One spec variant per seed, named ``<name>@seed<seed>``."""
    return [
        replace(spec, name=f"{spec.name}@seed{seed}", seed=seed)
        for seed in seeds
    ]


class SweepFailureError(RuntimeError):
    """Raised by :meth:`SweepReport.raise_failures`; lists every cell."""

    def __init__(self, failures: "Sequence[JobFailure]"):
        self.failures = list(failures)
        details = "\n".join(
            f"  - {failure.describe()}" for failure in self.failures
        )
        super().__init__(
            f"{len(self.failures)} sweep cell(s) failed:\n{details}"
        )


@dataclass
class SweepReport:
    """Results plus bookkeeping for one sweep invocation."""

    results: "List[ScenarioResult]"
    workers: int
    cache_hits: int = 0
    cache_misses: int = 0
    elapsed_seconds: float = 0.0
    cache_dir: "Optional[str]" = None
    #: Name of the execution backend that ran the misses.
    backend: str = "processes"
    #: Cells that kept failing after every retry (the sweep still
    #: completed every other cell).
    failures: "List[JobFailure]" = field(default_factory=list)
    #: Cells claimed by a live ``queue`` peer — not computed here,
    #: expected to arrive in the shared cache from that invocation.
    skipped: int = 0
    #: digest -> worker-measured wall seconds, for cells computed this
    #: invocation (cache hits cost no wall time and are absent).
    cell_wall_seconds: "Dict[str, float]" = field(default_factory=dict)
    #: digest -> attempts the worker made (retried cells show > 1).
    cell_attempts: "Dict[str, int]" = field(default_factory=dict)

    def by_name(self) -> "Dict[str, ScenarioResult]":
        """Results keyed by scenario name."""
        return {result.name: result for result in self.results}

    def total_cell_seconds(self) -> float:
        """Summed worker wall time across computed cells.

        Compare against :attr:`elapsed_seconds` to see parallel
        speedup: with N busy workers the ratio approaches N.
        """
        return sum(self.cell_wall_seconds.values())

    def cell_seconds_percentile(self, fraction: float) -> "Optional[float]":
        """Nearest-rank percentile of per-cell wall times.

        ``fraction`` is in [0, 1]; e.g. ``0.5`` for the median cell,
        ``1.0`` for the slowest.  ``None`` when nothing was computed.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(
                f"fraction must be in [0, 1], got {fraction!r}"
            )
        values = sorted(self.cell_wall_seconds.values())
        if not values:
            return None
        return values[max(0, math.ceil(fraction * len(values)) - 1)]

    def retried_cells(self) -> int:
        """How many computed cells needed more than one attempt."""
        return sum(
            1 for attempts in self.cell_attempts.values() if attempts > 1
        )

    def raise_failures(self) -> None:
        """Raise :class:`SweepFailureError` if any cell failed.

        Fault tolerance is the default — callers that need the old
        all-or-nothing behavior opt back in with one call.
        """
        if self.failures:
            raise SweepFailureError(self.failures)


class SweepManifest:
    """The on-disk record that makes sweeps resumable.

    One JSON file (``sweep.json``) per cache dir, mapping each cell's
    spec hash to its spec payload and completion state (``pending`` /
    ``done`` / ``failed`` + error context).  The runner checkpoints it
    as every outcome arrives, so after a kill the manifest plus the
    per-cell cache files are enough to reconstruct and finish the
    sweep — :func:`resume_sweep` re-derives the spec list from the
    manifest alone, no CLI arguments to repeat.

    Cells accumulate across invocations sharing the cache dir (that is
    what lets queue invocations cooperate); states only ever move
    forward (``pending`` -> ``failed`` -> ``done``), never back — including
    across *concurrent* invocations: :meth:`save` re-reads the on-disk
    manifest and merges before replacing it, so two invocations
    checkpointing into the same file cannot erase each other's
    progress.

    Manifest state is a convenience layer over the per-cell cache
    files, not the source of truth: a cell whose state was lost to a
    kill but whose cache file survived is simply served as a hit on
    resume.  That is what makes throttled checkpointing
    (:meth:`maybe_save`) safe.
    """

    #: Ordered worst-to-best; merges keep the further-along state.
    _STATE_RANK = {"pending": 0, "failed": 1, "done": 2}

    def __init__(self, cache_dir: str):
        self.cache_dir = cache_dir
        self.path = os.path.join(cache_dir, MANIFEST_NAME)
        #: digest -> {"name", "spec", "state", ["failure"]}
        self.cells: "Dict[str, dict]" = {}
        self._last_save = 0.0

    @classmethod
    def load(cls, cache_dir: str) -> "SweepManifest":
        """Read the manifest; a missing/corrupt file is an empty one."""
        manifest = cls(cache_dir)
        try:
            data = json.loads(durable.read_durable(manifest.path))
        except (OSError, ValueError):
            # Missing, torn (TornWriteError is a ValueError) or
            # unparseable: the per-cell cache files are the source of
            # truth, so an empty manifest just means resume re-derives
            # state from them instead of the convenience layer.
            return manifest
        if (
            not isinstance(data, dict)
            or data.get("version") != MANIFEST_VERSION
            or not isinstance(data.get("cells"), dict)
        ):
            return manifest
        for digest, cell in data["cells"].items():
            if isinstance(cell, dict) and isinstance(cell.get("spec"), dict):
                manifest.cells[str(digest)] = cell
        return manifest

    def _merge_disk_state(self) -> None:
        """Fold a concurrent invocation's progress into our cells.

        Another invocation may have checkpointed since we loaded;
        whoever writes last must not demote the other's
        ``done``/``failed`` marks back to what we saw at load time.
        """
        on_disk = SweepManifest.load(self.cache_dir)
        rank = self._STATE_RANK
        for digest, cell in on_disk.cells.items():
            ours = self.cells.get(digest)
            if ours is None:
                self.cells[digest] = cell
                continue
            theirs_rank = rank.get(cell.get("state", "pending"), 0)
            if theirs_rank > rank.get(ours.get("state", "pending"), 0):
                ours["state"] = cell["state"]
                if "failure" in cell:
                    ours["failure"] = cell["failure"]
                elif cell["state"] == "done":
                    ours.pop("failure", None)
                for key in _TIMING_KEYS:
                    if key in cell:
                        if key == "attempts" and key in ours:
                            # Attempts accumulate per invocation;
                            # merging takes the larger running total
                            # rather than double-adding.
                            ours[key] = max(ours[key], cell[key])
                        else:
                            ours[key] = cell[key]
            else:
                # Equal or behind on state: still adopt timing we lack
                # (another invocation computed the cell; we only cached it).
                for key in _TIMING_KEYS:
                    if key in cell and key not in ours:
                        ours[key] = cell[key]

    def save(self) -> None:
        """Atomically checkpoint the manifest to disk (merge-safe)."""
        os.makedirs(self.cache_dir, exist_ok=True)
        self._merge_disk_state()
        payload = json.dumps(
            {"version": MANIFEST_VERSION, "cells": self.cells},
            indent=2,
            sort_keys=True,
        )
        durable.atomic_write(self.path, payload)
        self._last_save = time.monotonic()

    def maybe_save(self, min_interval: float = 0.5) -> None:
        """Checkpoint, but at most every *min_interval* seconds.

        Large sweeps would otherwise rewrite the whole manifest once
        per cell (O(cells^2) total work).  Skipping a checkpoint risks
        nothing: completed cells live in their own cache files, so a
        kill inside the interval costs a stale manifest *state*, never
        a recomputation — resume serves those cells as cache hits.
        """
        if time.monotonic() - self._last_save >= min_interval:
            self.save()

    def record(
        self, specs: "Sequence[ScenarioSpec]", digests: "Sequence[str]"
    ) -> None:
        """Merge this invocation's cells in, without demoting states."""
        for spec, digest in zip(specs, digests):
            if digest not in self.cells:
                self.cells[digest] = {
                    "name": spec.name,
                    "spec": spec_to_dict(spec),
                    "state": "pending",
                }

    def mark(
        self,
        digest: str,
        state: str,
        failure: "Optional[JobFailure]" = None,
        *,
        attempts: "Optional[int]" = None,
        started_at: "Optional[float]" = None,
        finished_at: "Optional[float]" = None,
    ) -> None:
        """Advance a cell's state, optionally recording execution
        bookkeeping (attempt count and worker-measured wall-clock
        bounds).  Old manifests without these keys load fine — they
        are additive and every reader uses ``.get``."""
        cell = self.cells.get(digest)
        if cell is None:
            return
        cell["state"] = state
        if failure is not None:
            cell["failure"] = failure_to_dict(failure)
        else:
            cell.pop("failure", None)
        if attempts is not None:
            # Accumulate, don't overwrite: a resumed cell's new
            # attempts add to what earlier invocations already burned,
            # so retry accounting across --resume stays truthful (the
            # old behavior reset a thrice-failed cell to attempts=1
            # when the resume finally succeeded).
            cell["attempts"] = (
                int(cell.get("attempts", 0) or 0) + attempts
            )
        if started_at is not None:
            cell["started_at"] = started_at
        if finished_at is not None:
            cell["finished_at"] = finished_at

    def specs(self) -> "List[ScenarioSpec]":
        """Every recorded cell's spec, in stable (name, hash) order."""
        ordered = sorted(
            self.cells.items(),
            key=lambda item: (item[1].get("name", ""), item[0]),
        )
        return [spec_from_dict(cell["spec"]) for _, cell in ordered]

    def states(self) -> "Dict[str, str]":
        """digest -> state, for tests and status displays."""
        return {
            digest: cell.get("state", "pending")
            for digest, cell in self.cells.items()
        }

    def failures(self) -> "List[JobFailure]":
        """The recorded failures, name-ordered."""
        return [
            failure_from_dict(cell["failure"])
            for _, cell in sorted(self.cells.items())
            if cell.get("state") == "failed" and "failure" in cell
        ]


class SweepRunner:
    """Runs spec batches through the cache and a pluggable backend."""

    def __init__(
        self,
        *,
        workers: "Optional[int]" = None,
        cache_dir: "Optional[str]" = None,
        backend: "ExecutionBackend | str | None" = None,
        max_retries: int = 0,
        on_outcome: "Optional[OutcomeHook]" = None,
        cell_timeout: "Optional[float]" = None,
        retry_backoff: "Optional[float]" = None,
    ):
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers!r}")
        if max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {max_retries!r}"
            )
        if cell_timeout is not None and not (
            math.isfinite(cell_timeout) and cell_timeout > 0
        ):
            raise ValueError(
                f"cell_timeout must be finite and > 0, got {cell_timeout!r}"
            )
        if retry_backoff is None:
            retry_backoff = DEFAULT_RETRY_BACKOFF
        if not (math.isfinite(retry_backoff) and retry_backoff >= 0):
            raise ValueError(
                f"retry_backoff must be finite and >= 0,"
                f" got {retry_backoff!r}"
            )
        self.workers = workers or (os.cpu_count() or 1)
        self.cache_dir = cache_dir
        self.backend = make_backend(backend)
        self.max_retries = max_retries
        #: Wall seconds a ``processes`` lane may spend on one cell
        #: before it is killed and the cell charged an attempt.
        self.cell_timeout = cell_timeout
        self.retry_backoff = retry_backoff
        #: Observer fired per computed cell, after the cache/manifest
        #: checkpoint — the CLI's ``--progress`` stream hangs off it.
        self.on_outcome = on_outcome

    # ------------------------------------------------------------------
    # cache
    # ------------------------------------------------------------------
    def _cache_path(self, digest: str) -> "Optional[str]":
        if self.cache_dir is None:
            return None
        return os.path.join(
            self.cache_dir, f"{digest}.{CACHE_VERSION}.json"
        )

    def _cache_load(self, digest: str) -> "Optional[ScenarioResult]":
        path = self._cache_path(digest)
        if path is None or not os.path.exists(path):
            return None
        try:
            return result_from_json(durable.read_durable(path))
        except (OSError, ValueError, KeyError, TypeError):
            # Corrupt/truncated/wrong-schema entry (torn frames raise
            # TornWriteError, a ValueError): treat as a miss —
            # recompute and overwrite, never serve it stale.
            return None

    def _cache_store(self, digest: str, payload: str) -> None:
        path = self._cache_path(digest)
        if path is None:
            return
        os.makedirs(self.cache_dir, exist_ok=True)
        durable.atomic_write(path, payload)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, specs: "Sequence[ScenarioSpec]") -> SweepReport:
        """Run every spec; cached cells are served without simulating."""
        started = time.perf_counter()
        for spec in specs:
            spec.validate()
        digests = [spec_hash(spec) for spec in specs]
        slots: "List[Optional[ScenarioResult]]" = [None] * len(specs)
        report = SweepReport(
            results=[],
            workers=self.workers,
            cache_dir=self.cache_dir,
            backend=self.backend.name,
        )

        manifest: "Optional[SweepManifest]" = None
        if self.cache_dir is not None:
            # Writers killed mid-atomic-write leave .tmp.<pid> files;
            # sweep the dead ones so the cache dir cannot silt up.
            durable.sweep_orphan_tmps(self.cache_dir)
            manifest = SweepManifest.load(self.cache_dir)
            manifest.record(specs, digests)

        pending: "List[int]" = []
        for index, digest in enumerate(digests):
            cached = self._cache_load(digest)
            if cached is not None:
                slots[index] = cached
                report.cache_hits += 1
                if manifest is not None:
                    manifest.mark(digest, "done")
            else:
                pending.append(index)
        if manifest is not None:
            manifest.save()

        unique_pending: "Dict[str, int]" = {}
        for index in pending:
            unique_pending.setdefault(digests[index], index)
        journals = self.cache_dir is not None
        if journals and unique_pending:
            os.makedirs(journal_dir(self.cache_dir), exist_ok=True)
        jobs = [
            SweepJob(
                digest=digest,
                name=specs[index].name,
                spec_json=spec_to_json(specs[index], indent=None),
                journal_path=(
                    cell_journal_path(self.cache_dir, digest)
                    if journals
                    else None
                ),
            )
            for digest, index in unique_pending.items()
        ]

        computed: "Dict[str, ScenarioResult]" = {}

        def checkpoint(outcome: JobOutcome) -> None:
            # Runs on the coordinating thread as each cell finishes,
            # so a killed sweep keeps everything that completed (the
            # cache file per cell is the durable record; the manifest
            # checkpoint is throttled on top of it).
            digest = outcome.job.digest
            report.cell_attempts[digest] = outcome.attempts
            if outcome.wall_seconds is not None:
                report.cell_wall_seconds[digest] = outcome.wall_seconds
            timing = dict(
                attempts=outcome.attempts,
                started_at=outcome.started_at,
                finished_at=outcome.finished_at,
            )
            if outcome.ok:
                self._cache_store(digest, outcome.result_json)
                computed[digest] = result_from_json(outcome.result_json)
                if manifest is not None:
                    manifest.mark(digest, "done", **timing)
            else:
                report.failures.append(outcome.failure)
                if manifest is not None:
                    manifest.mark(digest, "failed", outcome.failure, **timing)
            if manifest is not None:
                manifest.maybe_save()
            if self.on_outcome is not None:
                self.on_outcome(outcome)

        outcomes = self.backend.run_jobs(
            jobs,
            workers=self.workers,
            max_retries=self.max_retries,
            on_outcome=checkpoint,
            retry_backoff=self.retry_backoff,
            cell_timeout=self.cell_timeout,
        )
        if manifest is not None:
            manifest.save()
        report.cache_misses = len(outcomes)
        report.skipped = len(jobs) - len(outcomes)
        for index in pending:
            slots[index] = computed.get(digests[index])
        report.results = [slot for slot in slots if slot is not None]
        report.elapsed_seconds = time.perf_counter() - started
        return report


def run_sweep(
    specs: "Sequence[ScenarioSpec]", **options
) -> SweepReport:
    """One-shot convenience wrapper: ``SweepRunner(**options).run``.

    *options* are :class:`SweepRunner`'s keyword arguments, which
    declare every sweep knob once.
    """
    return SweepRunner(**options).run(specs)


def resume_sweep(cache_dir: str, **options) -> SweepReport:
    """Finish a sweep recorded in *cache_dir*'s manifest.

    Re-derives the full spec list from ``sweep.json`` — no need to
    repeat the original scenario name or seeds — and runs it with
    :class:`SweepRunner`'s keyword *options*: ``done`` cells are cache
    hits, ``pending``/``failed`` cells (and cells whose cache file was
    lost mid-write) are the only ones recomputed.  The returned report
    therefore converges to what one uninterrupted run would have
    produced.
    """
    manifest = SweepManifest.load(cache_dir)
    if not manifest.cells:
        raise ValueError(
            f"no resumable sweep: {os.path.join(cache_dir, MANIFEST_NAME)}"
            " is missing or empty"
        )
    return SweepRunner(cache_dir=cache_dir, **options).run(manifest.specs())
