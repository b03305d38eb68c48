"""Pluggable sweep execution backends.

This module turns "how do the cells of a sweep actually execute" into
a small strategy interface, :class:`ExecutionBackend`, with three
implementations:

``serial``
    One cell at a time, in this process.  Zero moving parts: plain
    stack traces, ``pdb`` works, profilers see everything.  The
    reference implementation the determinism suite measures the other
    backends against.

``processes``
    N long-lived forked **lanes**, each a child process behind one
    duplex pipe.  The parent always knows which cell each lane holds,
    so a lane that dies (segfault, OOM kill, ``os._exit``) or runs
    past ``cell_timeout`` is charged to exactly that cell: the lane is
    reaped and respawned, the cell retried while ``max_retries``
    allows, and no sibling is touched.  The right default for
    CPU-bound sweeps.

``queue``
    A shared work directory: every invocation enqueues the sweep's
    cells as job files, then claims them one at a time by atomic
    rename.  N invocations pointed at the same directory — separate
    shells, machines over NFS — drain the matrix dynamically, each
    cell computed exactly once, with no coordinator process.  The
    first rung of the remote backend.

Every backend speaks the same job protocol: a :class:`SweepJob` is
``(digest, name, spec JSON)``, an outcome is either a result JSON
payload or a :class:`JobFailure` carrying the spec's name, hash and
full traceback.  Workers never raise into the coordinator — a
crashing cell becomes data, not a dead sweep — and every error is
wrapped with enough context to know *which* spec failed.

Backends must invoke the optional ``on_outcome`` callback from the
coordinating thread (the one that called :meth:`run_jobs`), so the
runner can checkpoint caches and manifests without locking.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import time
import traceback as traceback_module
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as wait_for_lanes
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import durable, faults
from repro.obs import metrics as obs_metrics
from repro.scenarios.engine import run_scenario_json

#: Names accepted by :func:`make_backend` (``queue`` needs a
#: ``queue_dir``).
BACKEND_NAMES = ("serial", "processes", "queue")

#: Ceiling on any single retry-backoff sleep, seconds.
BACKOFF_CAP = 30.0

#: Default claim-staleness threshold, seconds.  Armed by default: the
#: mtime lease (:class:`repro.durable.ClaimLease`) renews a live
#: claimant's claim every ``stale/8`` seconds and staleness is judged
#: against the *filesystem's* clock (:func:`repro.durable.fs_now`),
#: so neither a long cell nor host clock skew can make a live claim
#: look stale — only an actually-dead claimant can.
DEFAULT_STALE_CLAIM_SECONDS = 300.0


def backoff_delay(
    attempt: int, base: float, cap: float = BACKOFF_CAP
) -> float:
    """Deterministic exponential backoff: ``base * 2**(attempt-1)``.

    ``attempt`` counts the failures so far (1 after the first), so the
    schedule for ``base=0.1`` is 0.1s, 0.2s, 0.4s, ... capped at
    *cap*.  Pure — no jitter — because two runs of the same sweep must
    make the same scheduling decisions; the sleeps only pace retries,
    they never reach a result payload.
    """
    if base <= 0 or attempt < 1:
        return 0.0
    return min(cap, base * (2.0 ** (attempt - 1)))


@dataclass(frozen=True)
class SweepJob:
    """One sweep cell as the backends see it: pure strings.

    Backends exchange nothing but JSON text with their workers, which
    keeps the multiprocessing surface tiny and doubles as the
    cross-process determinism contract — identical specs must produce
    byte-identical payloads no matter which backend or worker ran
    them.
    """

    digest: str
    name: str
    spec_json: str
    #: Where the worker should append its JSONL run journal (start,
    #: heartbeat, finish/fail lines) — ``None`` disables journaling.
    #: The path is part of the job, not the payload: journals are
    #: out-of-band observability and never touch the result JSON.
    journal_path: "Optional[str]" = None

    def attempt_args(self, max_retries: int, retry_backoff: float):
        """The :func:`attempt_job` argument tuple for this cell."""
        return (
            self.name, self.digest, self.spec_json, max_retries,
            self.journal_path, retry_backoff,
        )


@dataclass(frozen=True)
class JobFailure:
    """A sweep cell that kept failing after every allowed retry."""

    name: str
    spec_hash: str
    #: One-line ``ExceptionType: message`` summary.
    error: str
    #: The full traceback text of the final attempt.
    traceback: str
    #: Total attempts made (1 + retries).
    attempts: int

    def describe(self) -> str:
        """Human-oriented one-liner with the spec context attached."""
        return (
            f"scenario {self.name!r} [spec {self.spec_hash}] failed"
            f" after {self.attempts} attempt(s): {self.error}"
        )


@dataclass(frozen=True)
class JobOutcome:
    """What became of one executed job: a payload or a failure."""

    job: SweepJob
    result_json: "Optional[str]" = None
    failure: "Optional[JobFailure]" = None
    #: Total attempts the worker made for this cell (1 + retries).
    attempts: int = 1
    #: Wall-clock bounds of the cell's execution, measured *in the
    #: worker* — so wall time excludes the wait for a free lane.
    #: ``None`` when the worker died before reporting.
    started_at: "Optional[float]" = None
    finished_at: "Optional[float]" = None

    @property
    def ok(self) -> bool:
        return self.result_json is not None

    @property
    def wall_seconds(self) -> "Optional[float]":
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at


#: Signature of the per-outcome checkpoint hook.
OutcomeHook = Callable[[JobOutcome], None]


def attempt_job(
    args: "Tuple[str, str, str, int, Optional[str], float]",
) -> "Tuple[str, Optional[str], Optional[str], Optional[str], int, float, float]":
    """Worker entry point shared by every backend.

    Takes ``(name, digest, spec_json, max_retries, journal_path,
    retry_backoff)`` and returns ``(digest, result_json, error,
    traceback, attempts, started_at, finished_at)`` — plain picklable
    tuples in both directions so the same function runs inline or in
    a lane process.  Exceptions never propagate: they are retried up
    to ``max_retries`` times — sleeping :func:`backoff_delay` between
    attempts instead of hammering a transient resource failure in a
    tight loop — and then reported as data, so one broken cell cannot
    take down a sweep.

    The wall-clock bounds are measured here in the worker, so the
    manifest's per-cell wall time covers actual execution (including
    retries and backoff sleeps) and never the time the job waited for
    a free lane.
    """
    name, digest, spec_json, max_retries, journal_path, retry_backoff = args
    # repro: allow(DET002) wall-clock stamps feed the manifest/status view only; result payloads never carry them (the determinism harness pins this)
    started_at = time.time()
    attempts = 0
    while True:
        attempts += 1
        try:
            # The chaos harness's main worker-side injection point:
            # kill here looks like a segfault/OOM to the lane's parent, stall
            # like a hung worker, error like a flaky cell the retry
            # budget should absorb.
            faults.faultpoint("sweep.cell", name=name)
            if journal_path is None:
                payload = run_scenario_json(spec_json)
            else:
                payload = run_scenario_json(spec_json, journal_path)
            return (
                digest, payload, None, None, attempts,
                # repro: allow(DET002) finish stamp for the manifest/status view; not part of the result payload
                started_at, time.time(),
            )
        except Exception as exc:  # noqa: BLE001 — reported, not hidden
            if attempts > max_retries:
                summary = f"{type(exc).__name__}: {exc}"
                return (
                    digest,
                    None,
                    summary,
                    traceback_module.format_exc(),
                    attempts,
                    started_at,
                    # repro: allow(DET002) failure finish stamp for the manifest/status view; not part of any result payload
                    time.time(),
                )
            delay = backoff_delay(attempts, retry_backoff)
            if delay > 0:
                time.sleep(delay)


def _outcome(job: SweepJob, reply) -> JobOutcome:
    """Fold a worker reply tuple back into a :class:`JobOutcome`."""
    (
        _, result_json, error, traceback_text, attempts,
        started_at, finished_at,
    ) = reply
    if result_json is not None:
        return JobOutcome(
            job=job,
            result_json=result_json,
            attempts=attempts,
            started_at=started_at,
            finished_at=finished_at,
        )
    return JobOutcome(
        job=job,
        failure=JobFailure(
            name=job.name,
            spec_hash=job.digest,
            error=error or "unknown error",
            traceback=traceback_text or "",
            attempts=attempts,
        ),
        attempts=attempts,
        started_at=started_at,
        finished_at=finished_at,
    )


def _in_job_order(
    outcomes: "List[JobOutcome]", jobs: "Sequence[SweepJob]"
) -> "List[JobOutcome]":
    order = {job.digest: index for index, job in enumerate(jobs)}
    return sorted(outcomes, key=lambda outcome: order[outcome.job.digest])


class ExecutionBackend(ABC):
    """Strategy interface: how a batch of sweep jobs executes."""

    #: Registry/CLI name; subclasses must set it.
    name: str = ""

    @abstractmethod
    def run_jobs(
        self,
        jobs: "Sequence[SweepJob]",
        *,
        workers: int = 1,
        max_retries: int = 0,
        on_outcome: "Optional[OutcomeHook]" = None,
        retry_backoff: float = 0.0,
        cell_timeout: "Optional[float]" = None,
    ) -> "List[JobOutcome]":
        """Execute *jobs* and return one outcome per executed job.

        ``queue`` may return fewer: cells a live peer claimed have no
        outcome here.  ``on_outcome`` fires once per outcome, from the
        coordinating thread, as soon as it is known, so the runner can
        checkpoint the cache and manifest.  ``cell_timeout`` (wall
        seconds) is enforced by ``processes`` only.
        """


class SerialBackend(ExecutionBackend):
    """In-process, one cell at a time — the debugging backend."""

    name = "serial"

    def run_jobs(
        self, jobs, *, workers=1, max_retries=0, on_outcome=None,
        retry_backoff=0.0, cell_timeout=None,
    ):
        outcomes: "List[JobOutcome]" = []
        for job in jobs:
            reply = attempt_job(job.attempt_args(max_retries, retry_backoff))
            outcome = _outcome(job, reply)
            outcomes.append(outcome)
            if on_outcome is not None:
                on_outcome(outcome)
        return outcomes


def _lane_main(conn, inherited) -> None:
    """Child side of a lane: run jobs from *conn* until told to stop.

    *inherited* holds the parent's ends of the lane pipes, which a
    forked child has copies of; closing them lets a lane read EOF as
    soon as its parent is gone.
    """
    for end in inherited:
        end.close()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        delay, args = message
        # A crash or timeout retry's backoff sleeps here, in the lane,
        # so the parent keeps feeding the other lanes.
        time.sleep(delay)
        # repro: allow(DET002) wall stamp for a contained death's manifest entry; never in a payload
        started_at = time.time()
        try:
            # Late-bound module global, so a test's monkeypatch made
            # before the fork reaches every lane.
            reply = attempt_job(args)
        except Exception as exc:  # noqa: BLE001 — reported, not hidden
            # attempt_job never raises in production; if it does, the
            # cell fails alone, as a contained death.
            reply = (
                args[1], None, f"worker died: {type(exc).__name__}: {exc}",
                traceback_module.format_exc(), 1, started_at,
                # repro: allow(DET002) failure finish stamp for the manifest/status view; never in a payload
                time.time(),
            )
        try:
            conn.send(reply)
        except OSError:
            return  # the parent is gone


@dataclass(eq=False)
class _Lane:
    """The parent's view of one lane: its process and current cell."""

    process: object
    conn: object
    #: The cell in flight (None while idle), the ``time.monotonic``
    #: past which it is killed, and the wall stamp of its dispatch.
    job: "Optional[SweepJob]" = None
    deadline: "Optional[float]" = None
    started_at: "Optional[float]" = None


class _LaneExecutor:
    """Runs one batch of jobs on up to ``workers`` forked lanes."""

    def __init__(
        self, workers, max_retries, on_outcome, retry_backoff,
        cell_timeout,
    ):
        self.workers = workers
        self.max_retries = max_retries
        self.on_outcome = on_outcome
        self.retry_backoff = retry_backoff
        self.cell_timeout = cell_timeout
        #: (job, backoff delay) waiting for a free lane.
        self.pending: "deque[Tuple[SweepJob, float]]" = deque()
        #: digest -> attempts charged here (deaths and timeouts); the
        #: attempts a lane reports add on top.
        self.charged: "Dict[str, int]" = {}
        #: parent pipe end -> its lane.
        self.lanes: "Dict[object, _Lane]" = {}
        self.outcomes: "List[JobOutcome]" = []

    def run(self, jobs: "Sequence[SweepJob]") -> "List[JobOutcome]":
        self.pending.extend((job, 0.0) for job in jobs)
        stopped = False
        try:
            while True:
                for lane in self.lanes.values():
                    if lane.job is None and self.pending:
                        self._dispatch(lane)
                while self.pending and len(self.lanes) < self.workers:
                    self._dispatch(self._spawn())
                busy = [
                    lane for lane in self.lanes.values()
                    if lane.job is not None
                ]
                if not busy:
                    break
                timeout = None
                if self.cell_timeout is not None:
                    nearest = min(lane.deadline for lane in busy)
                    timeout = max(0.0, nearest - time.monotonic())
                for conn in wait_for_lanes(
                    [lane.conn for lane in busy], timeout
                ):
                    self._receive(self.lanes[conn])
                if self.cell_timeout is not None:
                    now = time.monotonic()
                    for lane in busy:
                        if lane.job is not None and lane.deadline <= now:
                            self._time_out(lane)
            for lane in self.lanes.values():
                try:
                    lane.conn.send(None)
                except OSError:
                    pass  # already gone
            stopped = True
        finally:
            # Close every pipe before joining any lane, so no join
            # waits on a lane whose pipe is still open.  After an
            # exception (from on_outcome, or a KeyboardInterrupt) the
            # lanes are killed first, so none is left an orphan.
            for lane in self.lanes.values():
                if not stopped:
                    lane.process.kill()
                lane.conn.close()
            for lane in self.lanes.values():
                lane.process.join()
            self.lanes.clear()
        return _in_job_order(self.outcomes, jobs)

    def _spawn(self) -> _Lane:
        context = multiprocessing.get_context()
        parent_end, child_end = context.Pipe()
        process = context.Process(
            target=_lane_main, args=(child_end, [*self.lanes, parent_end])
        )
        process.start()
        child_end.close()
        lane = self.lanes[parent_end] = _Lane(process, parent_end)
        return lane

    def _dispatch(self, lane: _Lane) -> None:
        job, delay = self.pending.popleft()
        # Coordinator-side injection: a kill here takes down the whole
        # invocation with the cell still undispatched.
        faults.faultpoint("sched.submit", name=job.name)
        remaining_retries = max(
            0, self.max_retries - self.charged.get(job.digest, 0)
        )
        lane.job = job
        # repro: allow(DET002) dispatch stamp for a death's manifest entry; never in a payload
        lane.started_at = time.time()
        if self.cell_timeout is not None:
            lane.deadline = time.monotonic() + delay + self.cell_timeout
        try:
            args = job.attempt_args(remaining_retries, self.retry_backoff)
            lane.conn.send((delay, args))
        except OSError:
            pass  # the lane died while idle; its EOF charges this cell

    def _retire(self, lane: _Lane) -> SweepJob:
        """Forget a dead or killed lane; returns the cell it held."""
        del self.lanes[lane.conn]
        lane.conn.close()
        lane.process.join()
        job, lane.job = lane.job, None
        return job

    def _receive(self, lane: _Lane) -> None:
        try:
            reply = lane.conn.recv()
        except (EOFError, OSError):
            # The lane died mid-cell: that cell, and no other, is
            # charged an attempt.
            self._charge(
                self._retire(lane),
                lane.started_at,
                "worker died: the worker process exited abruptly"
                " (segfault, OOM kill or os._exit) on every allowed"
                " attempt",
            )
            return
        job, lane.job = lane.job, None
        # A kill here dies with the reply computed but not yet folded
        # into the cache/manifest — resume must recompute the cell.
        faults.faultpoint("sched.reply", name=job.name)
        charged = self.charged.get(job.digest, 0)
        if charged:
            reply = list(reply)
            reply[4] = int(reply[4]) + charged
        self._emit(_outcome(job, reply))

    def _time_out(self, lane: _Lane) -> None:
        faults.faultpoint("sched.reap")
        obs_metrics.count("sweep.cell_timeouts")
        lane.process.kill()
        self._charge(
            self._retire(lane),
            lane.started_at,
            f"timeout: cell exceeded --cell-timeout"
            f" ({self.cell_timeout:g}s wall) on every allowed attempt",
        )

    def _charge(
        self, job: SweepJob, started_at: "Optional[float]", error: str
    ) -> None:
        """Charge *job* one attempt; requeue it, or emit *error*."""
        attempts = self.charged[job.digest] = (
            self.charged.get(job.digest, 0) + 1
        )
        if attempts <= self.max_retries:
            delay = backoff_delay(attempts, self.retry_backoff)
            self.pending.appendleft((job, delay))
            return
        self._emit(_outcome(job, (
            job.digest, None, error, "", attempts, started_at,
            # repro: allow(DET002) failure finish stamp for the manifest/status view; never in a payload
            time.time(),
        )))

    def _emit(self, outcome: JobOutcome) -> None:
        self.outcomes.append(outcome)
        if self.on_outcome is not None:
            self.on_outcome(outcome)


class ProcessBackend(ExecutionBackend):
    """N forked lanes — the CPU-bound default (see the module doc).

    A dead lane (EOF on its pipe) or a cell past ``cell_timeout`` (its
    lane is killed) costs exactly that cell one attempt.  Outcomes
    come back in original job order.
    """

    name = "processes"

    def run_jobs(
        self, jobs, *, workers=1, max_retries=0, on_outcome=None,
        retry_backoff=0.0, cell_timeout=None,
    ):
        if not jobs:
            return []
        if (workers == 1 or len(jobs) == 1) and cell_timeout is None:
            # One lane with no timeout to enforce is just the serial
            # loop; skip the fork entirely.  The determinism suite
            # pins that this shortcut changes no payload byte.
            return SerialBackend().run_jobs(
                jobs, max_retries=max_retries, on_outcome=on_outcome,
                retry_backoff=retry_backoff,
            )
        return _LaneExecutor(
            min(max(1, workers), len(jobs)), max_retries, on_outcome,
            retry_backoff, cell_timeout,
        ).run(jobs)


class QueueBackend(ExecutionBackend):
    """A shared work directory as the job queue — the remote rung.

    Layout under ``work_dir``::

        todo/<digest>.json     enqueued cell, waiting for a claimant
        claimed/<digest>.json  renamed out of todo/ by its executor
        done/<digest>.json     the executor's reply record
        seen/<digest>.<gen>    exclusive-creation enqueue markers

    Exactly-once execution rests on two filesystem primitives that
    are atomic on POSIX (and over NFS):

    * **Claiming is ``os.rename``** — of two invocations racing for
      ``todo/x.json``, exactly one rename succeeds; the loser gets
      ``FileNotFoundError`` and moves on.
    * **Enqueueing is ``O_CREAT | O_EXCL``** on a generation-numbered
      ``seen/`` marker — of two invocations discovering the same cell
      (or re-enqueueing the same failed attempt), exactly one creates
      the marker and writes the todo file, so a cell claimed and
      executed in the gap cannot be re-queued by a slow peer.

    A cell another invocation already finished is *adopted*: its
    ``done/`` record is folded into this invocation's outcomes (and
    thereby the shared cache/manifest) without recomputation.  Cells
    still claimed by a live peer are left to it — this invocation
    simply reports them as skipped; the peers converge through the
    shared cache.

    Stale-claim requeue ships **armed** (``stale_claim_seconds``
    defaults to :data:`DEFAULT_STALE_CLAIM_SECONDS`; pass ``None`` to
    disable): while a cell executes, a :class:`repro.durable.
    ClaimLease` heartbeat renews the claim file's mtime, and staleness
    is judged against the shared filesystem's own clock
    (:func:`repro.durable.fs_now`), never this host's wall time — so
    multi-host clock skew cannot requeue a live claim, and a
    hard-killed claimant's cell is recovered automatically instead of
    stranding until manual intervention.

    Cells execute inline (``attempt_job`` in this process), so
    per-invocation parallelism comes from running N invocations, not
    from ``workers``.
    """

    name = "queue"

    _KINDS = ("todo", "claimed", "done", "seen")

    def __init__(
        self,
        work_dir: str,
        *,
        stale_claim_seconds: "Optional[float]" = DEFAULT_STALE_CLAIM_SECONDS,
    ):
        if not work_dir:
            raise ValueError("queue backend needs a work_dir")
        if stale_claim_seconds is not None and not (
            math.isfinite(stale_claim_seconds) and stale_claim_seconds > 0
        ):
            raise ValueError(
                f"stale_claim_seconds must be finite and > 0,"
                f" got {stale_claim_seconds!r}"
            )
        self.work_dir = str(work_dir)
        self.stale_claim_seconds = stale_claim_seconds

    # -- paths ---------------------------------------------------------
    def _dir(self, kind: str) -> str:
        return os.path.join(self.work_dir, kind)

    def _path(self, kind: str, digest: str) -> str:
        return os.path.join(self._dir(kind), f"{digest}.json")

    def _ensure_dirs(self) -> None:
        for kind in self._KINDS:
            directory = self._dir(kind)
            os.makedirs(directory, exist_ok=True)
            # Writers killed mid-atomic-write leave .tmp.<pid> files
            # behind; sweep the dead ones so they cannot accumulate.
            durable.sweep_orphan_tmps(directory)

    # -- done records --------------------------------------------------
    def _read_done(self, digest: str) -> "Optional[dict]":
        try:
            record = json.loads(
                durable.read_durable(self._path("done", digest))
            )
        except (OSError, ValueError):
            # Missing is normal; torn/corrupt reads as absent here and
            # is surfaced (and quarantined) by `repro doctor`.
            return None
        return record if isinstance(record, dict) else None

    def _write_done(
        self, digest: str, generation: int, reply
    ) -> None:
        record = {
            "digest": digest,
            "generation": generation,
            "result_json": reply[1],
            "error": reply[2],
            "traceback": reply[3],
            "attempts": reply[4],
            "started_at": reply[5],
            "finished_at": reply[6],
        }
        faults.faultpoint("queue.done", name=digest)
        durable.atomic_write(
            self._path("done", digest), json.dumps(record, sort_keys=True)
        )

    @staticmethod
    def _done_ok(record: dict) -> bool:
        return record.get("result_json") is not None

    # -- enqueue / claim -----------------------------------------------
    def _enqueue(self, job: SweepJob) -> None:
        digest = job.digest
        done_record = self._read_done(digest)
        if done_record is not None and self._done_ok(done_record):
            return  # success on disk: adopted later, never recomputed
        generation = (
            int(done_record.get("generation", 0)) + 1
            if done_record is not None
            else 0
        )
        marker = os.path.join(
            self._dir("seen"), f"{digest}.{generation}"
        )
        try:
            handle = os.open(
                marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY
            )
        except FileExistsError:
            # A peer (or an earlier run) already enqueued this
            # generation; whatever happened to it since — claimed,
            # executing, done — re-queueing would double-compute.
            return
        os.close(handle)
        payload = {
            "digest": digest,
            "name": job.name,
            "spec_json": job.spec_json,
            "journal_path": job.journal_path,
            "generation": generation,
        }
        # The marker→todo gap: a kill here leaves a dangling seen
        # marker with no todo file — the crash window doctor's
        # dangling-seen repair exists for.
        faults.faultpoint("queue.enqueue.todo", name=digest)
        durable.atomic_write(
            self._path("todo", digest),
            json.dumps(payload, sort_keys=True),
        )

    def _claim(self, digest: str) -> "Optional[int]":
        """Try to claim a todo cell; returns its generation or None."""
        todo, claimed = (
            self._path("todo", digest), self._path("claimed", digest)
        )
        try:
            os.rename(todo, claimed)
        except OSError:
            return None  # a peer won the rename (or it was never there)
        # The rename preserved the todo record's mtime — which may be
        # arbitrarily old (queued backlog, a previous requeue).  The
        # lease age must start at *claim* time, or a peer's stale
        # sweep would requeue this live claim before the heartbeat's
        # first renewal and double-compute the cell.
        try:
            os.utime(claimed, None)
        except OSError:
            pass
        # A kill here is the zombie-claim scenario: the cell sits in
        # claimed/ with a dead owner until the lease judges it stale.
        faults.faultpoint("queue.claim", name=digest)
        try:
            payload = json.loads(durable.read_durable(claimed))
            generation = int(payload.get("generation", 0))
        except (OSError, ValueError):
            generation = 0
        return generation

    def _unclaim(self, digest: str) -> None:
        try:
            os.remove(self._path("claimed", digest))
        except OSError:
            pass

    def _todo_digests(self) -> "List[str]":
        try:
            entries = os.listdir(self._dir("todo"))
        except OSError:
            return []
        return sorted(
            entry[: -len(".json")]
            for entry in entries
            if entry.endswith(".json") and ".tmp." not in entry
        )

    def _requeue_stale(self, digests: "Sequence[str]") -> bool:
        """Rename stale claims back into todo/; True if any moved."""
        if self.stale_claim_seconds is None:
            return False
        requeued = False
        # Staleness is judged by the *filesystem's* clock so peers on
        # hosts with skewed wall clocks agree on which claims died.
        now = durable.fs_now(self._dir("claimed"))
        for digest in digests:
            claimed = self._path("claimed", digest)
            try:
                age = now - os.stat(claimed).st_mtime
            except OSError:
                continue
            if age <= self.stale_claim_seconds:
                continue
            try:
                os.rename(claimed, self._path("todo", digest))
            except OSError:
                continue  # the claimant finished (or a peer requeued)
            requeued = True
            obs_metrics.count("queue.requeued_stale")
        return requeued

    def _adopt(self, job: SweepJob) -> "Optional[JobOutcome]":
        """Fold a peer-computed done record into an outcome, if any."""
        digest = job.digest
        if os.path.exists(self._path("todo", digest)) or os.path.exists(
            self._path("claimed", digest)
        ):
            return None  # still in flight somewhere
        record = self._read_done(digest)
        if record is None:
            return None
        if record.get("result_json") is None and not record.get("error"):
            return None
        reply = (
            digest,
            record.get("result_json"),
            record.get("error"),
            record.get("traceback"),
            int(record.get("attempts", 1) or 1),
            record.get("started_at"),
            record.get("finished_at"),
        )
        return _outcome(job, reply)

    # -- execution -----------------------------------------------------
    def run_jobs(
        self, jobs, *, workers=1, max_retries=0, on_outcome=None,
        retry_backoff=0.0, cell_timeout=None,
    ):
        if not jobs:
            return []
        self._ensure_dirs()
        jobs_by_digest = {job.digest: job for job in jobs}
        for job in jobs:
            self._enqueue(job)
        outcomes: "List[JobOutcome]" = []
        resolved: "set[str]" = set()

        def emit(outcome: JobOutcome) -> None:
            resolved.add(outcome.job.digest)
            outcomes.append(outcome)
            if on_outcome is not None:
                on_outcome(outcome)

        while True:
            progressed = False
            for digest in self._todo_digests():
                if digest in resolved or digest not in jobs_by_digest:
                    continue  # a peer's cell, or already settled here
                generation = self._claim(digest)
                if generation is None:
                    continue  # a peer won the claim race
                job = jobs_by_digest[digest]
                lease = (
                    durable.ClaimLease(
                        self._path("claimed", digest),
                        interval=max(
                            0.5, self.stale_claim_seconds / 8.0
                        ),
                    )
                    if self.stale_claim_seconds is not None
                    else None
                )
                try:
                    reply = attempt_job(
                        job.attempt_args(max_retries, retry_backoff)
                    )
                finally:
                    if lease is not None:
                        lease.stop()
                self._write_done(digest, generation, reply)
                self._unclaim(digest)
                emit(_outcome(job, reply))
                progressed = True
            unresolved = [
                digest for digest in jobs_by_digest
                if digest not in resolved
            ]
            if not unresolved:
                break
            for digest in unresolved:
                adopted = self._adopt(jobs_by_digest[digest])
                if adopted is not None:
                    obs_metrics.count("queue.adopted")
                    emit(adopted)
                    progressed = True
            if progressed or self._requeue_stale(unresolved):
                continue
            # Everything left is claimed by a live peer: leave it to
            # them — the shared cache/manifest is where the
            # invocations converge.
            break
        return _in_job_order(outcomes, jobs)


_FACTORIES: "Dict[str, Callable[[], ExecutionBackend]]" = {
    "serial": SerialBackend,
    "processes": ProcessBackend,
}


def make_backend(
    backend: "ExecutionBackend | str | None" = None,
    *,
    queue_dir: "Optional[str]" = None,
    stale_claim_seconds: "Optional[float]" = DEFAULT_STALE_CLAIM_SECONDS,
) -> ExecutionBackend:
    """Resolve a backend name or instance.

    ``None`` means the default (``processes``).  ``queue`` needs
    *queue_dir*, the shared work directory the cooperating invocations
    drain; ``stale_claim_seconds`` tunes its requeue threshold
    (``None`` disables requeue).
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    if backend is None:
        return ProcessBackend()
    if backend == "queue":
        if queue_dir is None:
            raise ValueError(
                "backend 'queue' needs queue_dir, the shared work"
                " directory (CLI: --queue-dir, or --cache-dir to"
                " default it to <cache-dir>/queue)"
            )
        return QueueBackend(
            queue_dir, stale_claim_seconds=stale_claim_seconds
        )
    try:
        return _FACTORIES[backend]()
    except KeyError:
        raise ValueError(
            f"unknown execution backend {backend!r}; choose from:"
            f" {', '.join(BACKEND_NAMES)}"
        ) from None
