"""Sweep scheduling: crash containment, timeouts, backoff, queue.

The ``processes`` backend runs cells on forked lanes and always knows
which cell each lane holds.  These tests pin what that buys: one
abruptly-dead lane (``os._exit``, as a segfault or OOM kill looks to
its parent) costs exactly its own cell one attempt, a timeout kills
exactly the stuck cell's lane, siblings run exactly once, retries back
off deterministically, and no lane outlives ``run_jobs`` — plus the
``queue`` backend's exactly-once claims.

Fault injection is plan-driven: a JSON :class:`repro.faults.FaultPlan`
armed through ``REPRO_FAULT_PLAN`` so the faults reach real forked
lanes, exactly as ``scripts/ci.sh`` arms them.
"""

import json
import multiprocessing
import threading
import time
from collections import Counter

import pytest

from repro import faults
from repro.scenarios import backends as backends_module
from repro.scenarios import (
    ProcessBackend,
    QueueBackend,
    SweepJob,
    SweepRunner,
    backoff_delay,
    expand_seeds,
    get_scenario,
    resume_sweep,
    run_sweep,
    spec_hash,
    spec_to_json,
)
from repro.scenarios.runner import SweepManifest

#: The cheapest registry scenario (~ms per cell) — crash/timeout
#: mechanics dominate the wall time, not the simulations.
CHEAP = "lab-junos"


def cheap_specs(seeds):
    return expand_seeds(get_scenario(CHEAP), seeds)


@pytest.fixture(autouse=True)
def _fresh_fault_state():
    """Env-probed fault state must not leak between tests."""
    faults.reset_fault_plan()
    yield
    faults.reset_fault_plan()


def arm_plan(monkeypatch, tmp_path, rules, *, seed=0):
    """Write a fault plan file and arm it via ``REPRO_FAULT_PLAN``.

    The env route (not ``set_fault_plan``) is deliberate: forked lanes
    inherit the environment, so the plan reaches them exactly
    as it does under ``scripts/ci.sh`` — and the plan-file-adjacent
    ``state_dir`` gives count-limited rules exactly-once semantics
    *across* those processes.
    """
    path = tmp_path / "fault-plan.json"
    path.write_text(json.dumps({"seed": seed, "rules": rules}))
    monkeypatch.setenv(faults.PLAN_ENV, str(path))
    faults.reset_fault_plan()
    return str(path)


def disarm_plan(monkeypatch):
    monkeypatch.delenv(faults.PLAN_ENV, raising=False)
    faults.reset_fault_plan()


class TestBackoffDelay:
    def test_schedule_doubles_from_base(self):
        assert [backoff_delay(n, 0.1) for n in (1, 2, 3, 4)] == [
            pytest.approx(0.1),
            pytest.approx(0.2),
            pytest.approx(0.4),
            pytest.approx(0.8),
        ]

    def test_deterministic(self):
        assert backoff_delay(3, 0.25) == backoff_delay(3, 0.25)

    def test_capped(self):
        assert backoff_delay(30, 0.1) == 30.0
        assert backoff_delay(5, 2.0, cap=3.0) == 3.0

    def test_disabled_for_zero_base_or_bad_attempt(self):
        assert backoff_delay(3, 0.0) == 0.0
        assert backoff_delay(0, 1.0) == 0.0


class TestAttemptJobBackoff:
    def test_sleeps_follow_the_schedule(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)

        def always_raises(spec_json, journal_path=None):
            raise RuntimeError("flaky")

        monkeypatch.setattr(
            backends_module, "run_scenario_json", always_raises
        )
        reply = backends_module.attempt_job(
            ("cell", "d1", "{}", 3, None, 0.1)
        )
        assert reply[1] is None
        assert reply[4] == 4  # 1 + 3 retries
        assert sleeps == [
            pytest.approx(0.1),
            pytest.approx(0.2),
            pytest.approx(0.4),
        ]

    def test_no_sleep_with_zero_backoff(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)

        def always_raises(spec_json, journal_path=None):
            raise RuntimeError("flaky")

        monkeypatch.setattr(
            backends_module, "run_scenario_json", always_raises
        )
        backends_module.attempt_job(("cell", "d1", "{}", 2, None, 0.0))
        assert sleeps == []


class TestSchedulerConfig:
    """The sweep's scheduling knobs, validated by ``SweepRunner``."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(cell_timeout=0.0),
            dict(cell_timeout=-1.0),
            # inf overflowed inside the lane wait; NaN read every
            # deadline as due, so the lane loop busy-polled forever.
            dict(cell_timeout=float("inf")),
            dict(cell_timeout=float("nan")),
            dict(retry_backoff=-0.1),
            # Either made every retry sleep the full backoff cap.
            dict(retry_backoff=float("inf")),
            dict(retry_backoff=float("nan")),
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            SweepRunner(**kwargs)

    def test_defaults_validate(self):
        runner = SweepRunner()
        assert runner.cell_timeout is None
        assert runner.retry_backoff == 0.1


class TestDeadWorkerCascade:
    """One dead lane must not fail its siblings."""

    def test_transient_kill_survived_by_a_retry(
        self, monkeypatch, tmp_path
    ):
        # The lane picking up seed2 os._exits once; the death costs
        # seed2 one attempt, its retry on a fresh lane succeeds, and
        # the sweep completes with zero failures.
        arm_plan(
            monkeypatch,
            tmp_path,
            [
                {
                    "site": "sweep.cell",
                    "match": f"{CHEAP}@seed2",
                    "action": "kill",
                    "count": 1,
                }
            ],
        )
        specs = cheap_specs((1, 2, 3))
        report = run_sweep(
            specs,
            workers=2,
            backend="processes",
            cache_dir=str(tmp_path / "cache"),
            max_retries=1,
            retry_backoff=0.01,
        )
        assert report.failures == []
        assert len(report.results) == 3
        assert report.cell_attempts[spec_hash(specs[1])] == 2

    def test_deterministic_crasher_fails_alone(
        self, monkeypatch, tmp_path
    ):
        # No count: the cell kills its lane on *every* attempt.  The
        # parent charges exactly that cell, which fails while both
        # siblings complete.
        specs = cheap_specs((1, 2, 3))
        arm_plan(
            monkeypatch,
            tmp_path,
            [
                {
                    "site": "sweep.cell",
                    "match": f"{CHEAP}@seed2",
                    "action": "kill",
                }
            ],
        )
        cache = str(tmp_path / "cache")
        report = run_sweep(
            specs, workers=2, backend="processes", cache_dir=cache
        )
        assert [failure.name for failure in report.failures] == [
            f"{CHEAP}@seed2"
        ]
        assert "worker died" in report.failures[0].error
        assert sorted(result.name for result in report.results) == [
            f"{CHEAP}@seed1",
            f"{CHEAP}@seed3",
        ]
        states = SweepManifest.load(cache).states()
        by_name = {
            spec.name: states[spec_hash(spec)] for spec in specs
        }
        assert by_name == {
            f"{CHEAP}@seed1": "done",
            f"{CHEAP}@seed2": "failed",
            f"{CHEAP}@seed3": "done",
        }

    def test_killed_cell_recovers_on_resume(self, monkeypatch, tmp_path):
        # After the crasher is fixed (fault unset), --resume recomputes
        # only the failed cell and its attempts keep accumulating.
        specs = cheap_specs((1, 2))
        cache = str(tmp_path / "cache")
        arm_plan(
            monkeypatch,
            tmp_path,
            [
                {
                    "site": "sweep.cell",
                    "match": f"{CHEAP}@seed1",
                    "action": "kill",
                }
            ],
        )
        first = run_sweep(
            specs, workers=2, backend="processes", cache_dir=cache
        )
        assert len(first.failures) == 1
        disarm_plan(monkeypatch)
        second = resume_sweep(cache, workers=2, backend="processes")
        assert second.failures == []
        assert len(second.results) == 2
        assert second.cache_hits == 1  # the innocent sibling
        digest = spec_hash(specs[0])
        attempts = SweepManifest.load(cache).cells[digest]["attempts"]
        # The crash run reports its 1 charged attempt; the clean
        # resume adds its 1.  Attempts accumulate across --resume
        # instead of resetting to 1 on success.
        assert attempts == 2


class TestCellTimeout:
    def test_stuck_cell_reaped_and_reported(self, monkeypatch, tmp_path):
        # seed2's lane stalls 60s; with a 1s budget it is killed and
        # seed2 lands as a `timeout:` failure while the siblings
        # finish.
        arm_plan(
            monkeypatch,
            tmp_path,
            [
                {
                    "site": "sweep.cell",
                    "match": f"{CHEAP}@seed2",
                    "action": "stall",
                    "seconds": 60.0,
                }
            ],
        )
        started = time.monotonic()
        report = run_sweep(
            cheap_specs((1, 2, 3)),
            workers=2,
            backend="processes",
            cache_dir=str(tmp_path / "cache"),
            cell_timeout=1.0,
        )
        elapsed = time.monotonic() - started
        assert [failure.name for failure in report.failures] == [
            f"{CHEAP}@seed2"
        ]
        assert report.failures[0].error.startswith("timeout:")
        assert len(report.results) == 2
        # The reap actually freed us from the 60s stall.
        assert elapsed < 30.0

    def test_transient_stall_retries_within_budget(
        self, monkeypatch, tmp_path
    ):
        # The stall fires once; with one retry the cell completes on
        # its second attempt, and the charged (timed-out) first
        # attempt shows up in the attempt count.
        arm_plan(
            monkeypatch,
            tmp_path,
            [
                {
                    "site": "sweep.cell",
                    "match": f"{CHEAP}@seed2",
                    "action": "stall",
                    "seconds": 60.0,
                    "count": 1,
                }
            ],
        )
        specs = cheap_specs((1, 2, 3))
        report = run_sweep(
            specs,
            workers=2,
            backend="processes",
            cache_dir=str(tmp_path / "cache"),
            cell_timeout=1.0,
            max_retries=1,
            retry_backoff=0.01,
        )
        assert report.failures == []
        assert len(report.results) == 3
        assert report.cell_attempts[spec_hash(specs[1])] == 2


#: Where counting_attempt_job appends one digest per execution; set by
#: the ``executions`` fixture before any lane forks.
EXECUTIONS_LOG = None

REAL_ATTEMPT_JOB = backends_module.attempt_job


def counting_attempt_job(args):
    """Log the cell's digest, then run the real entry point.

    It runs in forked lanes, so it counts into a file the parent can
    read rather than an in-memory list, and it is module-level (like
    ``dying_worker`` in ``test_scenarios_backends``) so the lanes
    reach it by name through the patched module.
    """
    with open(EXECUTIONS_LOG, "a", encoding="utf-8") as log:
        log.write(args[1] + "\n")
    return REAL_ATTEMPT_JOB(args)


@pytest.fixture
def executions(monkeypatch, tmp_path):
    """Count executions per digest across every lane process."""
    log = tmp_path / "executions.log"
    log.write_text("")
    monkeypatch.setitem(globals(), "EXECUTIONS_LOG", str(log))
    monkeypatch.setattr(
        backends_module, "attempt_job", counting_attempt_job
    )
    return lambda: Counter(log.read_text().split())


def raising_for_seed2(args):
    """An entry point that raises (never returns) for seed2 only."""
    if args[0] == f"{CHEAP}@seed2":
        raise RuntimeError("boom")
    return REAL_ATTEMPT_JOB(args)


def cheap_jobs(seeds):
    return [
        SweepJob(
            digest=spec_hash(spec),
            name=spec.name,
            spec_json=spec_to_json(spec, indent=None),
        )
        for spec in cheap_specs(seeds)
    ]


def stall_rule(seed, seconds):
    return {
        "site": "sweep.cell",
        "match": f"{CHEAP}@seed{seed}",
        "action": "stall",
        "seconds": seconds,
    }


class TestExactAttribution:
    """A death or a timeout is charged to exactly one cell."""

    def test_timeout_spares_the_cell_in_flight_beside_it(
        self, monkeypatch, tmp_path, executions
    ):
        # seed1 and seed2 start together; seed1 finishes at ~0.8s and
        # its lane takes seed3, which is mid-run when seed2's 1s
        # deadline passes.  Only seed2's lane is killed: seed3 runs
        # exactly once instead of being recomputed.
        arm_plan(
            monkeypatch,
            tmp_path,
            [stall_rule(2, 60.0), stall_rule(1, 0.8), stall_rule(3, 0.8)],
        )
        specs = cheap_specs((1, 2, 3))
        report = run_sweep(
            specs, workers=2, backend="processes", cell_timeout=1.0
        )
        assert [failure.name for failure in report.failures] == [
            f"{CHEAP}@seed2"
        ]
        assert report.failures[0].error.startswith("timeout:")
        assert executions() == {spec_hash(spec): 1 for spec in specs}
        assert report.cell_attempts[spec_hash(specs[2])] == 1

    def test_crasher_is_charged_every_attempt_and_siblings_run_once(
        self, monkeypatch, tmp_path, executions
    ):
        arm_plan(
            monkeypatch,
            tmp_path,
            [
                {
                    "site": "sweep.cell",
                    "match": f"{CHEAP}@seed2",
                    "action": "kill",
                }
            ],
        )
        specs = cheap_specs((1, 2, 3))
        report = run_sweep(
            specs,
            workers=2,
            backend="processes",
            max_retries=1,
            retry_backoff=0.01,
        )
        (failure,) = report.failures
        assert failure.name == f"{CHEAP}@seed2"
        assert "worker died" in failure.error
        assert failure.attempts == 2
        assert report.cell_attempts[spec_hash(specs[1])] == 2
        assert executions() == {
            spec_hash(specs[0]): 1,
            spec_hash(specs[1]): 2,
            spec_hash(specs[2]): 1,
        }


    def test_raising_entry_point_is_a_contained_death(
        self, monkeypatch
    ):
        # attempt_job never raises in production; if it somehow does
        # (a broken monkeypatch, an import error in a lane), the cell
        # fails alone and its lane keeps serving the siblings.
        monkeypatch.setattr(
            backends_module, "attempt_job", raising_for_seed2
        )
        outcomes = ProcessBackend().run_jobs(
            cheap_jobs((1, 2, 3)), workers=2
        )
        assert [outcome.job.name for outcome in outcomes] == [
            f"{CHEAP}@seed{seed}" for seed in (1, 2, 3)
        ]
        assert outcomes[1].failure.error.startswith(
            "worker died: RuntimeError: boom"
        )
        assert "RuntimeError: boom" in outcomes[1].failure.traceback
        assert outcomes[0].ok and outcomes[2].ok


class TestNoOrphanLanes:
    """No lane outlives run_jobs, however it ends."""

    def test_after_a_normal_run(self):
        outcomes = ProcessBackend().run_jobs(
            cheap_jobs((1, 2, 3)), workers=2
        )
        assert all(outcome.ok for outcome in outcomes)
        assert multiprocessing.active_children() == []

    def test_after_a_timeout(self, monkeypatch, tmp_path):
        arm_plan(monkeypatch, tmp_path, [stall_rule(2, 60.0)])
        outcomes = ProcessBackend().run_jobs(
            cheap_jobs((1, 2, 3)), workers=2, cell_timeout=1.0
        )
        assert [outcome.ok for outcome in outcomes] == [True, False, True]
        assert multiprocessing.active_children() == []

    def test_after_an_outcome_hook_raises(self):
        def hook(outcome):
            raise RuntimeError("checkpoint failed")

        with pytest.raises(RuntimeError, match="checkpoint failed"):
            ProcessBackend().run_jobs(
                cheap_jobs((1, 2, 3)), workers=2, on_outcome=hook
            )
        assert multiprocessing.active_children() == []


class QueueHarness:
    """Shared helpers for the queue-backend tests."""

    @staticmethod
    def counting_attempt_job(monkeypatch):
        """Patch attempt_job to count executions per digest."""
        real = backends_module.attempt_job
        lock = threading.Lock()
        executed = []

        def counting(args):
            with lock:
                executed.append(args[1])
            return real(args)

        monkeypatch.setattr(backends_module, "attempt_job", counting)
        return executed


class TestQueueBackend(QueueHarness):
    def test_single_invocation_drains_the_matrix(
        self, monkeypatch, tmp_path
    ):
        executed = self.counting_attempt_job(monkeypatch)
        specs = cheap_specs((1, 2, 3))
        cache = str(tmp_path / "cache")
        report = run_sweep(
            specs,
            backend=QueueBackend(str(tmp_path / "queue")),
            cache_dir=cache,
        )
        assert report.failures == []
        assert len(report.results) == 3
        assert sorted(executed) == sorted(
            spec_hash(spec) for spec in specs
        )
        # A rerun over the same cache computes nothing.
        executed.clear()
        again = run_sweep(
            specs,
            backend=QueueBackend(str(tmp_path / "queue")),
            cache_dir=cache,
        )
        assert again.cache_hits == 3
        assert executed == []

    def test_two_concurrent_invocations_compute_each_cell_once(
        self, monkeypatch, tmp_path
    ):
        # The acceptance scenario: two invocations pointed at one work
        # dir drain the matrix cooperatively.  Exactly-once is
        # asserted on actual executions — adopted outcomes also flow
        # through reports, which is the point of adoption.
        executed = self.counting_attempt_job(monkeypatch)
        specs = cheap_specs((1, 2, 3, 4))
        work_dir = str(tmp_path / "queue")
        cache = str(tmp_path / "cache")
        reports = [None, None]

        def invoke(slot):
            reports[slot] = run_sweep(
                specs,
                backend=QueueBackend(work_dir),
                cache_dir=cache,
            )

        threads = [
            threading.Thread(target=invoke, args=(slot,))
            for slot in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(report is not None for report in reports)
        assert all(report.failures == [] for report in reports)
        # Every cell executed exactly once across both invocations.
        assert sorted(executed) == sorted(
            spec_hash(spec) for spec in specs
        )
        # And the shared cache converged: a follow-up run is all hits.
        executed.clear()
        converged = run_sweep(
            specs, backend="serial", cache_dir=cache
        )
        assert converged.cache_hits == 4
        assert executed == []

    def test_failed_cell_requeues_on_resume(
        self, monkeypatch, tmp_path
    ):
        # A failure's done record is generation-stamped; a later
        # invocation may enqueue generation+1 and retry it, while the
        # succeeded cells stay adopted, never recomputed.
        specs = cheap_specs((1, 2))
        target = f"{CHEAP}@seed1"
        work_dir = str(tmp_path / "queue")
        cache = str(tmp_path / "cache")
        real = backends_module.attempt_job

        def failing(args):
            name, digest = args[0], args[1]
            if name == target:
                return (
                    digest, None, "RuntimeError: injected", "tb",
                    1, 1.0, 2.0,
                )
            return real(args)

        monkeypatch.setattr(backends_module, "attempt_job", failing)
        first = run_sweep(
            specs, backend=QueueBackend(work_dir), cache_dir=cache
        )
        assert [failure.name for failure in first.failures] == [target]
        monkeypatch.setattr(backends_module, "attempt_job", real)
        second = resume_sweep(
            cache, backend=QueueBackend(work_dir)
        )
        assert second.failures == []
        assert len(second.results) == 2
        assert second.cache_hits == 1  # seed2 was cached, not re-run
        attempts = SweepManifest.load(cache).cells[
            spec_hash(specs[0])
        ]["attempts"]
        assert attempts == 2  # failed attempt + clean resume attempt

    def test_stale_claim_is_requeued(self, monkeypatch, tmp_path):
        # A claimant machine died mid-cell: its claim file sits there
        # untouched.  With stale-claim requeue armed (the default), a
        # later invocation renames it back into todo/ and computes it;
        # only an explicit ``stale_claim_seconds=None`` leaves the
        # zombie claim to its dead owner.
        import os

        executed = self.counting_attempt_job(monkeypatch)
        spec = cheap_specs((1,))[0]
        digest = spec_hash(spec)
        work_dir = str(tmp_path / "queue")
        dead_peer = QueueBackend(work_dir)
        job = SweepJob(
            digest=digest,
            name=spec.name,
            spec_json='{"name": "x"}',
        )
        dead_peer._ensure_dirs()
        dead_peer._enqueue(job)
        assert dead_peer._claim(digest) == 0
        claimed_path = dead_peer._path("claimed", digest)
        old = os.stat(claimed_path).st_mtime - 3600
        os.utime(claimed_path, (old, old))

        # Requeue disabled: the claim is respected — the cell is left
        # to its (dead) claimant and reported as skipped.
        cautious = QueueBackend(work_dir, stale_claim_seconds=None)
        report = run_sweep(
            [spec],
            backend=cautious,
            cache_dir=str(tmp_path / "cache_a"),
        )
        assert report.results == [] and report.failures == []
        assert report.skipped == 1
        assert executed == []

        # The default backend requeues the hour-old claim (3600s >
        # the armed DEFAULT_STALE_CLAIM_SECONDS) and computes it here.
        recovering = QueueBackend(work_dir)
        report = run_sweep(
            [spec],
            backend=recovering,
            cache_dir=str(tmp_path / "cache_b"),
        )
        assert report.failures == []
        assert len(report.results) == 1
        assert executed == [digest]

    def test_claim_starts_the_lease_clock_fresh(self, tmp_path):
        # os.rename preserves mtime, so a claimed file would otherwise
        # inherit its todo record's age — and a cell that sat queued
        # (or was requeued) past the stale threshold would look like a
        # zombie the instant it was claimed, letting a peer requeue
        # and double-compute it before the first heartbeat.
        import os

        from repro import durable

        spec = cheap_specs((1,))[0]
        digest = spec_hash(spec)
        backend = QueueBackend(str(tmp_path / "queue"))
        job = SweepJob(
            digest=digest, name=spec.name, spec_json='{"name": "x"}'
        )
        backend._ensure_dirs()
        backend._enqueue(job)
        todo_path = backend._path("todo", digest)
        old = os.stat(todo_path).st_mtime - 3600
        os.utime(todo_path, (old, old))  # an hour of queued backlog
        assert backend._claim(digest) == 0
        claimed_path = backend._path("claimed", digest)
        age = durable.fs_now(backend._dir("claimed")) - os.stat(
            claimed_path
        ).st_mtime
        assert age < 10  # lease age starts at claim, not enqueue
        # A peer's stale sweep therefore leaves the live claim alone.
        peer = QueueBackend(str(tmp_path / "queue"))
        assert peer._requeue_stale([digest]) is False
        assert os.path.exists(claimed_path)
        assert not os.path.exists(todo_path)

    def test_live_claim_lease_defeats_staleness(self, tmp_path):
        # The lease heartbeat renews the claim mtime while the cell
        # runs, so even an absurdly tight staleness threshold cannot
        # requeue a *live* claimant's cell mid-execution.
        import os

        from repro import durable

        backend = QueueBackend(work_dir=str(tmp_path / "queue"))
        backend._ensure_dirs()
        claimed = backend._path("claimed", "d1")
        with open(claimed, "w", encoding="utf-8") as handle:
            handle.write("{}")
        old = os.stat(claimed).st_mtime - 50
        os.utime(claimed, (old, old))
        with durable.ClaimLease(claimed, interval=0.05):
            time.sleep(0.3)
        age = durable.fs_now(backend._dir("claimed")) - os.stat(
            claimed
        ).st_mtime
        assert age < 10  # renewed from 50s old to fresh

    def test_requires_work_dir(self):
        with pytest.raises(ValueError, match="work_dir"):
            QueueBackend("")

    # NaN made ``age <= nan`` false for every claim, so live claims
    # were requeued under their running owners.
    @pytest.mark.parametrize(
        "seconds", [0.0, -1.0, float("inf"), float("nan")]
    )
    def test_rejects_bad_stale_claim(self, seconds):
        with pytest.raises(ValueError, match="stale_claim_seconds"):
            QueueBackend("/tmp/q", stale_claim_seconds=seconds)

    def test_default_is_armed(self):
        assert (
            QueueBackend("/tmp/q").stale_claim_seconds
            == backends_module.DEFAULT_STALE_CLAIM_SECONDS
        )
