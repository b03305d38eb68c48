"""``repro doctor``: every corruption class detected and repaired.

Each test grows *real* state (a sweep into a cache dir, a queue
backend's work dir), breaks it the way a crash would, and checks the
doctor names the damage — then that ``--repair`` leaves a tree the
next sweep resumes cleanly from.  The fixtures deliberately reuse the
production writers rather than hand-rolled files: the doctor's value
is that it understands what the *real* pipeline leaves behind.
"""

import json
import os
import subprocess
import sys

import pytest

from repro import durable
from repro.faults import doctor
from repro.scenarios import (
    QueueBackend,
    expand_seeds,
    get_scenario,
    run_sweep,
    spec_hash,
)
from repro.scenarios.backends import SweepJob

CHEAP = "lab-junos"


def _queue(tmp_path):
    """A queue backend with dirs ready and one enqueueable job."""
    backend = QueueBackend(str(tmp_path), stale_claim_seconds=None)
    backend._ensure_dirs()
    spec = expand_seeds(get_scenario(CHEAP), (1,))[0]
    job = SweepJob(
        digest=spec_hash(spec), name=spec.name, spec_json="{}"
    )
    return backend, job


def _sweep(cache_dir, seeds=(1, 2)):
    specs = expand_seeds(get_scenario(CHEAP), seeds)
    return specs, run_sweep(
        specs, backend="serial", cache_dir=str(cache_dir)
    )


def _truncate(path, keep=0.5):
    data = open(path, "rb").read()
    with open(path, "wb") as handle:
        handle.write(data[: int(len(data) * keep)])


class TestCleanTree:
    def test_fresh_sweep_tree_is_clean(self, tmp_path):
        _sweep(tmp_path / "cache")
        report = doctor.run_doctor(str(tmp_path))
        assert report.clean
        assert report.to_dict()["findings"] == []

    def test_missing_root_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            doctor.run_doctor(str(tmp_path / "absent"))

    @pytest.mark.parametrize("field", ["grace_seconds", "lease_seconds"])
    def test_nonpositive_thresholds_rejected(self, tmp_path, field):
        with pytest.raises(ValueError):
            doctor.run_doctor(str(tmp_path), **{field: 0})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["grace_seconds", "lease_seconds"])
    def test_non_finite_thresholds_rejected(self, tmp_path, field, value):
        # A NaN lease fails every age comparison, so --repair would
        # requeue live claims.
        with pytest.raises(ValueError, match="must be finite"):
            doctor.run_doctor(str(tmp_path), **{field: value})


class TestOrphanTmp:
    def test_detected_and_removed(self, tmp_path):
        orphan = tmp_path / "cell.json.tmp.999999.0"
        orphan.write_text("partial write")
        report = doctor.run_doctor(str(tmp_path))
        assert [f.kind for f in report.findings] == ["orphan-tmp"]
        assert orphan.exists()  # scan is read-only
        repaired = doctor.run_doctor(str(tmp_path), repair=True)
        assert repaired.findings[0].repaired
        assert not orphan.exists()
        assert doctor.run_doctor(str(tmp_path)).clean

    def test_live_recent_tmp_is_not_a_finding(self, tmp_path):
        mine = tmp_path / f"cell.json.tmp.{os.getpid()}.0"
        mine.write_text("in flight")
        assert doctor.run_doctor(str(tmp_path)).clean
        assert mine.exists()

    def test_swept_inside_queue_kind_dirs(self, tmp_path):
        _queue(tmp_path)  # creates todo/claimed/done/seen
        orphan = tmp_path / "todo" / "x.json.tmp.999999.0"
        orphan.write_text("partial")
        report = doctor.run_doctor(str(tmp_path), repair=True)
        assert [f.kind for f in report.findings] == ["orphan-tmp"]
        assert not orphan.exists()


class TestCorruptCacheEntry:
    def test_quarantined_and_recomputed(self, tmp_path):
        cache = tmp_path / "cache"
        specs, _ = _sweep(cache)
        digest = spec_hash(specs[0])
        entry = cache / f"{digest}.v3.json"
        _truncate(entry)
        report = doctor.run_doctor(str(tmp_path), repair=True)
        kinds = [f.kind for f in report.findings]
        assert kinds == ["corrupt-cache-entry"]
        assert not entry.exists()
        quarantined = os.listdir(tmp_path / "quarantine")
        assert quarantined == [entry.name]
        assert doctor.run_doctor(str(tmp_path)).clean
        # The next sweep recomputes only the quarantined cell.
        _, report2 = _sweep(cache)
        assert report2.cache_hits == 1
        assert report2.cache_misses == 1
        assert report2.failures == []

    def test_quarantine_never_clobbers(self, tmp_path):
        cache = tmp_path / "cache"
        for _ in range(2):
            specs, _ = _sweep(cache)
            _truncate(cache / f"{spec_hash(specs[0])}.v3.json")
            doctor.run_doctor(str(tmp_path), repair=True)
        names = sorted(os.listdir(tmp_path / "quarantine"))
        assert len(names) == 2 and names[1] == f"{names[0]}.1"


class TestCorruptManifest:
    def test_truncated_manifest_is_rebuilt(self, tmp_path):
        cache = tmp_path / "cache"
        specs, _ = _sweep(cache)
        manifest = cache / "sweep.json"
        _truncate(manifest)
        report = doctor.run_doctor(str(tmp_path), repair=True)
        assert [f.kind for f in report.findings] == ["corrupt-manifest"]
        assert report.findings[0].repaired
        # Rebuilt from the intact cache entries: every cell present
        # and done.
        rebuilt = json.loads(durable.read_durable(str(manifest)))
        digests = {spec_hash(spec) for spec in specs}
        assert set(rebuilt["cells"]) == digests
        assert all(
            cell["state"] == "done"
            for cell in rebuilt["cells"].values()
        )
        # And a resumed sweep serves every cell as a hit.
        _, report2 = _sweep(cache)
        assert report2.cache_hits == 2
        assert report2.cache_misses == 0

    def test_garbage_manifest_schema_is_a_finding(self, tmp_path):
        cache = tmp_path / "cache"
        _sweep(cache)
        # Valid frame, valid JSON, wrong shape — still corrupt.
        durable.atomic_write(
            str(cache / "sweep.json"), json.dumps(["not", "a", "dict"])
        )
        report = doctor.run_doctor(str(tmp_path))
        assert [f.kind for f in report.findings] == ["corrupt-manifest"]

    def test_rebuild_skips_cells_whose_entry_also_died(self, tmp_path):
        cache = tmp_path / "cache"
        specs, _ = _sweep(cache)
        lost = spec_hash(specs[0])
        _truncate(cache / f"{lost}.v3.json")
        _truncate(cache / "sweep.json")
        doctor.run_doctor(str(tmp_path), repair=True)
        rebuilt = json.loads(
            durable.read_durable(str(cache / "sweep.json"))
        )
        assert set(rebuilt["cells"]) == {spec_hash(specs[1])}


class TestQueueRepairs:
    def _work_dir_with_claim(self, tmp_path, *, age=3600.0):
        backend, job = _queue(tmp_path)
        backend._enqueue(job)
        assert backend._claim(job.digest) is not None
        path = tmp_path / "claimed" / f"{job.digest}.json"
        old = os.stat(path).st_mtime - age
        os.utime(path, (old, old))
        return backend, job.digest, path

    def test_zombie_claim_is_requeued(self, tmp_path):
        backend, digest, path = self._work_dir_with_claim(tmp_path)
        report = doctor.run_doctor(str(tmp_path), repair=True)
        assert [f.kind for f in report.findings] == ["zombie-claim"]
        assert not path.exists()
        assert (tmp_path / "todo" / f"{digest}.json").exists()
        # The requeued record is claimable again.
        assert backend._claim(digest) is not None

    def test_fresh_claim_is_left_alone(self, tmp_path):
        _, _, path = self._work_dir_with_claim(tmp_path, age=1.0)
        assert doctor.run_doctor(str(tmp_path)).clean
        assert path.exists()

    def test_zombie_claim_with_todo_twin_is_dropped(self, tmp_path):
        _, digest, path = self._work_dir_with_claim(tmp_path)
        twin = tmp_path / "todo" / f"{digest}.json"
        twin.write_text(path.read_text())
        report = doctor.run_doctor(str(tmp_path), repair=True)
        assert [f.kind for f in report.findings] == ["zombie-claim"]
        assert not path.exists() and twin.exists()

    def test_corrupt_todo_record_requeues_via_seen_drop(self, tmp_path):
        backend, job = _queue(tmp_path)
        backend._enqueue(job)
        todo = tmp_path / "todo" / f"{job.digest}.json"
        _truncate(todo)
        report = doctor.run_doctor(str(tmp_path), repair=True)
        assert [f.kind for f in report.findings] == ["corrupt-todo"]
        assert not todo.exists()
        assert not any(
            name.startswith(job.digest)
            for name in os.listdir(tmp_path / "seen")
        )
        # With the markers dropped a peer's enqueue goes through again.
        backend._enqueue(job)
        assert todo.exists()

    def test_corrupt_done_record_is_quarantined(self, tmp_path):
        backend, job = _queue(tmp_path)
        backend._write_done(
            job.digest,
            0,
            (job.digest, '{"ok": true}', None, None, 1, None, None),
        )
        done = tmp_path / "done" / f"{job.digest}.json"
        _truncate(done)
        report = doctor.run_doctor(str(tmp_path), repair=True)
        assert [f.kind for f in report.findings] == ["corrupt-done"]
        assert not done.exists()
        assert doctor.run_doctor(str(tmp_path)).clean

    def test_dangling_seen_marker_is_removed(self, tmp_path):
        _queue(tmp_path)
        # A marker whose enqueue died before the todo write landed.
        marker = tmp_path / "seen" / ("f" * 8 + ".0")
        marker.write_text("")
        report = doctor.run_doctor(str(tmp_path), repair=True)
        assert [f.kind for f in report.findings] == ["dangling-seen"]
        assert not marker.exists()

    def test_seen_marker_with_done_record_is_kept(self, tmp_path):
        backend, job = _queue(tmp_path)
        backend._enqueue(job)
        generation = backend._claim(job.digest)
        backend._unclaim(job.digest)
        backend._write_done(
            job.digest,
            generation,
            (job.digest, '{"ok": true}', None, None, 1, None, None),
        )
        assert doctor.run_doctor(str(tmp_path)).clean


class TestDoctorCli:
    def _run(self, *argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", "doctor", *argv],
            capture_output=True,
            text=True,
            env=env,
        )

    def test_clean_tree_exits_zero(self, tmp_path):
        _sweep(tmp_path / "cache")
        proc = self._run(str(tmp_path))
        assert proc.returncode == 0, proc.stderr

    def test_findings_exit_one_and_repair_exits_zero(self, tmp_path):
        cache = tmp_path / "cache"
        specs, _ = _sweep(cache)
        _truncate(cache / f"{spec_hash(specs[0])}.v3.json")
        assert self._run(str(tmp_path)).returncode == 1
        proc = self._run(str(tmp_path), "--repair")
        assert proc.returncode == 0, proc.stderr
        assert self._run(str(tmp_path)).returncode == 0

    def test_json_output_shape(self, tmp_path):
        (tmp_path / "cell.json.tmp.999999.0").write_text("x")
        proc = self._run(str(tmp_path), "--json")
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["clean"] is False
        assert payload["findings"][0]["kind"] == "orphan-tmp"
        assert payload["findings"][0]["repaired"] is False

    @pytest.mark.parametrize(
        "flags",
        [
            ["--lease", "nan"],
            ["--grace", "nan"],
            ["--lease", "inf"],
            ["--lease", "nan", "--grace", "nan"],
        ],
    )
    def test_non_finite_thresholds_exit_two(self, tmp_path, flags):
        proc = self._run(str(tmp_path), "--repair", *flags)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.strip().splitlines()) == 1
        assert "must be finite" in proc.stderr

    def test_missing_directory_exits_two(self, tmp_path):
        proc = self._run(str(tmp_path / "absent"))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "doctor" in proc.stderr
