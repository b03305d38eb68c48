"""Execution backends: selection, fault tolerance, resume."""

import json
import os

import pytest

from repro.scenarios import (
    BACKEND_NAMES,
    InternetSpec,
    MrtSpec,
    ScenarioSpec,
    SerialBackend,
    SweepFailureError,
    SweepManifest,
    SweepRunner,
    expand_seeds,
    make_backend,
    register,
    resume_sweep,
    run_sweep,
    get_scenario,
    spec_hash,
    unregister,
)

TINY = InternetSpec(
    tier1_count=2,
    transit_count=3,
    stub_count=5,
    beacon_count=1,
    link_flaps=2,
    prefix_flaps=1,
    med_churn_events=1,
    community_churn_events=2,
    prepend_change_events=1,
    collector_session_resets=1,
)


def tiny_spec(seed: int = 5) -> ScenarioSpec:
    return ScenarioSpec(
        name="backend-tiny",
        kind="internet",
        seed=seed,
        internet=TINY,
        collectors=("update_counts", "duplicates"),
    )


def failing_spec(name: str = "doomed") -> ScenarioSpec:
    """A spec that validates but fails at run time (missing archive)."""
    return ScenarioSpec(
        name=name,
        kind="mrt",
        mrt=MrtSpec(path="/nonexistent/backend-test.mrt"),
        collectors=("update_counts",),
    )


def dying_worker(args):
    raise RuntimeError("worker killed mid-cell")


class TestMakeBackend:
    def test_names_resolve(self):
        assert make_backend("serial").name == "serial"
        assert make_backend("processes").name == "processes"
        assert make_backend(None).name == "processes"

    def test_instance_passthrough(self):
        backend = SerialBackend()
        assert make_backend(backend) is backend

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            make_backend("carrier-pigeon")

    def test_all_names_are_constructible(self, tmp_path):
        for name in BACKEND_NAMES:
            queue_dir = str(tmp_path / "queue") if name == "queue" else None
            backend = make_backend(name, queue_dir=queue_dir)
            assert backend.name == name

    def test_queue_name_needs_work_dir(self):
        with pytest.raises(ValueError, match="queue"):
            make_backend("queue")


class TestFaultTolerance:
    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_failing_cell_does_not_abort_the_sweep(self, backend):
        specs = [tiny_spec(1), failing_spec(), tiny_spec(2)]
        report = run_sweep(specs, workers=2, backend=backend)
        assert [result.name for result in report.results] == [
            "backend-tiny",
            "backend-tiny",
        ]
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.name == "doomed"
        assert failure.spec_hash == spec_hash(failing_spec())
        assert "cannot open mrt archive" in failure.traceback
        assert failure.attempts == 1

    def test_failure_context_names_the_spec(self):
        # Regression: worker exceptions used to surface as a bare pool
        # traceback with no hint of which spec died.  Now the failure
        # carries the spec's name and hash everywhere it is shown.
        report = run_sweep([failing_spec()], workers=1, backend="serial")
        failure = report.failures[0]
        described = failure.describe()
        assert "'doomed'" in described
        assert spec_hash(failing_spec()) in described
        with pytest.raises(SweepFailureError) as info:
            report.raise_failures()
        assert "'doomed'" in str(info.value)
        assert spec_hash(failing_spec()) in str(info.value)

    def test_registry_injected_failing_scenario(self):
        register("backend-test-doomed", lambda: failing_spec("doomed-reg"))
        try:
            specs = [get_scenario("backend-test-doomed"), tiny_spec(1)]
            report = run_sweep(specs, workers=2, backend="processes")
        finally:
            unregister("backend-test-doomed")
        assert len(report.results) == 1
        assert report.failures[0].name == "doomed-reg"

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_max_retries_counts_attempts(self, backend):
        report = run_sweep(
            [failing_spec()], workers=1, backend=backend, max_retries=2
        )
        assert report.failures[0].attempts == 3

    def test_retry_recovers_from_transient_failure(self, monkeypatch):
        import repro.scenarios.backends as backends_module

        real = backends_module.run_scenario_json
        calls = {"n": 0}

        def flaky(spec_json):
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("transient worker wobble")
            return real(spec_json)

        monkeypatch.setattr(
            backends_module, "run_scenario_json", flaky
        )
        report = run_sweep(
            [tiny_spec(1)], workers=1, backend="serial", max_retries=1
        )
        assert calls["n"] == 2
        assert not report.failures
        assert len(report.results) == 1

    def test_dead_worker_becomes_a_failure_not_an_abort(
        self, monkeypatch
    ):
        # attempt_job never raises in production; if it does, the
        # lane reports a contained death for that cell alone.  The
        # lanes fork after the patch, so every lane runs the
        # module-level dying_worker.
        import repro.scenarios.backends as backends_module

        monkeypatch.setattr(
            backends_module, "attempt_job", dying_worker
        )
        specs = expand_seeds(tiny_spec(), (1, 2))
        report = run_sweep(specs, workers=2, backend="processes")
        assert len(report.failures) == 2
        for failure in report.failures:
            assert "worker died" in failure.error
            assert "worker killed mid-cell" in failure.error

    def test_negative_max_retries_rejected(self):
        with pytest.raises(ValueError, match="max_retries"):
            SweepRunner(max_retries=-1)

    def test_failed_cells_are_not_cached(self, tmp_path):
        cache = str(tmp_path / "cache")
        first = run_sweep(
            [failing_spec()], workers=1, backend="serial", cache_dir=cache
        )
        assert first.cache_misses == 1
        digest = spec_hash(failing_spec())
        from repro.scenarios.runner import CACHE_VERSION

        assert not os.path.exists(
            os.path.join(cache, f"{digest}.{CACHE_VERSION}.json")
        )
        again = run_sweep(
            [failing_spec()], workers=1, backend="serial", cache_dir=cache
        )
        assert again.cache_hits == 0
        assert again.cache_misses == 1


class TestManifestAndResume:
    def test_manifest_records_every_cell_as_done(self, tmp_path):
        cache = str(tmp_path / "cache")
        specs = expand_seeds(tiny_spec(), (1, 2))
        run_sweep(specs, workers=1, backend="serial", cache_dir=cache)
        manifest = SweepManifest.load(cache)
        assert set(manifest.states().values()) == {"done"}
        assert sorted(spec.name for spec in manifest.specs()) == [
            "backend-tiny@seed1",
            "backend-tiny@seed2",
        ]

    def test_manifest_records_failures_with_context(self, tmp_path):
        cache = str(tmp_path / "cache")
        run_sweep(
            [failing_spec()], workers=1, backend="serial", cache_dir=cache
        )
        manifest = SweepManifest.load(cache)
        digest = spec_hash(failing_spec())
        assert manifest.states()[digest] == "failed"
        failures = manifest.failures()
        assert failures[0].name == "doomed"
        assert "cannot open mrt archive" in failures[0].traceback

    def test_resume_recomputes_only_missing_cells(self, tmp_path):
        cache = str(tmp_path / "cache")
        specs = expand_seeds(tiny_spec(), (1, 2, 3))
        first = run_sweep(specs, workers=1, backend="serial", cache_dir=cache)
        # Simulate a cell lost to a mid-write kill: its cache file is
        # gone but the manifest still knows the sweep's shape.
        from repro.scenarios.runner import CACHE_VERSION

        lost = os.path.join(
            cache, f"{spec_hash(specs[1])}.{CACHE_VERSION}.json"
        )
        os.remove(lost)
        resumed = resume_sweep(cache, workers=1, backend="serial")
        assert resumed.cache_hits == 2
        assert resumed.cache_misses == 1
        assert resumed.by_name().keys() == first.by_name().keys()
        for name, result in first.by_name().items():
            assert resumed.by_name()[name].metrics == result.metrics

    def test_resume_retries_failed_cells(self, tmp_path, monkeypatch):
        import repro.scenarios.backends as backends_module

        cache = str(tmp_path / "cache")
        real = backends_module.run_scenario_json

        def always_fail(spec_json):
            raise OSError("worker lost")

        monkeypatch.setattr(
            backends_module, "run_scenario_json", always_fail
        )
        broken = run_sweep(
            [tiny_spec(1)], workers=1, backend="serial", cache_dir=cache
        )
        assert len(broken.failures) == 1
        monkeypatch.setattr(backends_module, "run_scenario_json", real)
        resumed = resume_sweep(cache, workers=1, backend="serial")
        assert not resumed.failures
        assert len(resumed.results) == 1
        assert SweepManifest.load(cache).states() == {
            spec_hash(tiny_spec(1)): "done"
        }

    def test_concurrent_saves_merge_instead_of_clobbering(
        self, tmp_path
    ):
        # Two invocations hold independent in-memory manifests
        # loaded before either wrote; whoever saves last must keep the
        # other's progress (states only move forward).
        cache = str(tmp_path / "cache")
        specs = expand_seeds(tiny_spec(), (1, 2))
        digests = [spec_hash(spec) for spec in specs]
        first = SweepManifest.load(cache)
        first.record(specs, digests)
        second = SweepManifest.load(cache)
        second.record(specs, digests)
        first.mark(digests[0], "done")
        first.save()
        second.mark(digests[1], "done")
        second.save()  # last writer — must not demote the first's cell
        merged = SweepManifest.load(cache)
        assert merged.states() == {
            digests[0]: "done",
            digests[1]: "done",
        }

    def test_maybe_save_throttles_but_save_is_unconditional(
        self, tmp_path
    ):
        cache = str(tmp_path / "cache")
        spec = tiny_spec()
        manifest = SweepManifest.load(cache)
        manifest.record([spec], [spec_hash(spec)])
        manifest.save()
        manifest.mark(spec_hash(spec), "done")
        manifest.maybe_save()  # inside the interval: skipped
        assert SweepManifest.load(cache).states() == {
            spec_hash(spec): "pending"
        }
        manifest.save()
        assert SweepManifest.load(cache).states() == {
            spec_hash(spec): "done"
        }

    def test_resume_without_manifest_fails_cleanly(self, tmp_path):
        with pytest.raises(ValueError, match="no resumable sweep"):
            resume_sweep(str(tmp_path))

    def test_corrupt_manifest_treated_as_empty(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / "sweep.json").write_text("{broken", encoding="utf-8")
        assert SweepManifest.load(str(cache)).cells == {}

    def test_manifest_is_valid_checkpointed_json(self, tmp_path):
        cache = str(tmp_path / "cache")
        run_sweep(
            [tiny_spec(1)], workers=1, backend="serial", cache_dir=cache
        )
        from repro import durable

        payload = json.loads(
            durable.read_durable(os.path.join(cache, "sweep.json"))
        )
        assert payload["version"] == "v1"
        (cell,) = payload["cells"].values()
        assert cell["state"] == "done"
        assert cell["spec"]["name"] == "backend-tiny"
