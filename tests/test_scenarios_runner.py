"""Parallel sweep runner: determinism, caching, seed expansion."""

import json
import os

import pytest

from repro import durable
from repro.scenarios import (
    InternetSpec,
    LabSpec,
    ScenarioSpec,
    SweepReport,
    SweepRunner,
    expand_seeds,
    run_sweep,
    spec_hash,
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
        name="runner-tiny",
        kind="internet",
        seed=seed,
        internet=TINY,
        collectors=("update_counts", "duplicates"),
    )


class TestExpandSeeds:
    def test_names_and_seeds(self):
        specs = expand_seeds(tiny_spec(), (3, 9))
        assert [spec.name for spec in specs] == [
            "runner-tiny@seed3",
            "runner-tiny@seed9",
        ]
        assert [spec.seed for spec in specs] == [3, 9]

    def test_variants_hash_differently(self):
        specs = expand_seeds(tiny_spec(), (1, 2))
        assert spec_hash(specs[0]) != spec_hash(specs[1])


class TestDeterminism:
    def test_same_seed_identical_results_across_worker_counts(self):
        specs = expand_seeds(tiny_spec(), (1, 2))
        sequential = run_sweep(specs, workers=1)
        parallel = run_sweep(specs, workers=2)
        assert len(sequential.results) == len(parallel.results) == 2
        for left, right in zip(sequential.results, parallel.results):
            assert left.spec_hash == right.spec_hash
            assert left.metrics == right.metrics

    def test_lab_sweep_parallel_determinism(self):
        spec = ScenarioSpec(
            name="runner-lab",
            kind="lab",
            lab=LabSpec(experiments=("exp2",), vendors=("cisco", "junos")),
            collectors=("lab_matrix",),
        )
        specs = expand_seeds(spec, (1, 2, 3))
        sequential = run_sweep(specs, workers=1)
        parallel = run_sweep(specs, workers=3)
        for left, right in zip(sequential.results, parallel.results):
            assert left.metrics == right.metrics


class TestCache:
    def test_second_run_served_from_cache(self, tmp_path):
        cache = str(tmp_path / "cache")
        specs = expand_seeds(tiny_spec(), (1, 2))
        cold = run_sweep(specs, workers=1, cache_dir=cache)
        assert cold.cache_misses == 2
        assert cold.cache_hits == 0
        warm = run_sweep(specs, workers=1, cache_dir=cache)
        assert warm.cache_misses == 0
        assert warm.cache_hits == 2
        for left, right in zip(cold.results, warm.results):
            assert left.metrics == right.metrics

    def test_cache_files_keyed_on_spec_hash_and_version(self, tmp_path):
        from repro.scenarios.runner import CACHE_VERSION

        cache = str(tmp_path / "cache")
        spec = tiny_spec()
        run_sweep([spec], workers=1, cache_dir=cache)
        assert os.path.exists(
            os.path.join(
                cache, f"{spec_hash(spec)}.{CACHE_VERSION}.json"
            )
        )

    def test_stale_cache_version_not_served(self, tmp_path):
        cache = str(tmp_path / "cache")
        spec = tiny_spec()
        run_sweep([spec], workers=1, cache_dir=cache)
        # Entries from an older toolkit version must be recomputed.
        for entry in os.listdir(cache):
            os.rename(
                os.path.join(cache, entry),
                os.path.join(
                    cache, entry.replace(".v", ".v0-ancient-")
                ),
            )
        again = run_sweep([spec], workers=1, cache_dir=cache)
        assert again.cache_misses == 1
        assert again.cache_hits == 0

    def test_corrupt_cache_entry_recomputed(self, tmp_path):
        from repro.scenarios.runner import CACHE_VERSION

        cache = str(tmp_path / "cache")
        spec = tiny_spec()
        first = run_sweep([spec], workers=1, cache_dir=cache)
        path = os.path.join(
            cache, f"{spec_hash(spec)}.{CACHE_VERSION}.json"
        )
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        again = run_sweep([spec], workers=1, cache_dir=cache)
        assert again.cache_misses == 1
        assert again.results[0].metrics == first.results[0].metrics
        # Overwritten with a valid (checksum-framed) entry.
        json.loads(durable.read_durable(path))

    def test_duplicate_specs_simulated_once(self, tmp_path):
        cache = str(tmp_path / "cache")
        spec = tiny_spec()
        report = run_sweep([spec, spec], workers=1, cache_dir=cache)
        assert len(report.results) == 2
        assert report.cache_misses == 1
        assert report.results[0].metrics == report.results[1].metrics


class TestCacheRobustness:
    """Damaged cache entries are misses — never crashes, never stale."""

    def _entry_path(self, cache: str, spec: ScenarioSpec) -> str:
        from repro.scenarios.runner import CACHE_VERSION

        return os.path.join(
            cache, f"{spec_hash(spec)}.{CACHE_VERSION}.json"
        )

    def _assert_recomputed(self, cache: str, spec, reference) -> None:
        report = run_sweep([spec], workers=1, cache_dir=cache)
        assert report.cache_hits == 0
        assert report.cache_misses == 1
        assert report.results[0].metrics == reference.metrics
        # The damaged entry was overwritten with a valid one.
        from repro.scenarios import result_from_json

        healed = result_from_json(
            durable.read_durable(self._entry_path(cache, spec))
        )
        assert healed.metrics == reference.metrics

    @pytest.fixture()
    def warm_cache(self, tmp_path):
        cache = str(tmp_path / "cache")
        spec = tiny_spec()
        reference = run_sweep([spec], workers=1, cache_dir=cache).results[0]
        return cache, spec, reference

    def test_truncated_entry_recomputed(self, warm_cache):
        cache, spec, reference = warm_cache
        path = self._entry_path(cache, spec)
        with open(path, encoding="utf-8") as handle:
            payload = handle.read()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(payload[: len(payload) // 2])
        self._assert_recomputed(cache, spec, reference)

    def test_empty_entry_recomputed(self, warm_cache):
        cache, spec, reference = warm_cache
        open(self._entry_path(cache, spec), "w").close()
        self._assert_recomputed(cache, spec, reference)

    def test_wrong_schema_entry_recomputed(self, warm_cache):
        # Valid JSON, but not a result payload (missing spec/metrics).
        cache, spec, reference = warm_cache
        with open(
            self._entry_path(cache, spec), "w", encoding="utf-8"
        ) as handle:
            json.dump({"unexpected": True}, handle)
        self._assert_recomputed(cache, spec, reference)

    def test_non_object_entry_recomputed(self, warm_cache):
        # A JSON array used to raise TypeError straight through the
        # cache probe; now it is just another miss.
        cache, spec, reference = warm_cache
        with open(
            self._entry_path(cache, spec), "w", encoding="utf-8"
        ) as handle:
            json.dump([1, 2, 3], handle)
        self._assert_recomputed(cache, spec, reference)

    def test_wrong_cache_version_entry_not_served(self, warm_cache):
        # An entry written under another CACHE_VERSION must be
        # invisible: recomputed as a miss, not served as current.
        cache, spec, reference = warm_cache
        from repro.scenarios.runner import CACHE_VERSION

        current = self._entry_path(cache, spec)
        stale = current.replace(
            f".{CACHE_VERSION}.json", ".v0-ancient.json"
        )
        os.rename(current, stale)
        payload = json.loads(durable.read_durable(stale))
        payload["metrics"] = {"update_counts": {"poisoned": True}}
        with open(stale, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        report = run_sweep([spec], workers=1, cache_dir=cache)
        assert report.cache_misses == 1
        assert report.results[0].metrics == reference.metrics
        assert "poisoned" not in json.dumps(report.results[0].metrics)


class TestRunnerArguments:
    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            SweepRunner(workers=0)

    def test_invalid_spec_rejected_before_any_run(self, tmp_path):
        bad = ScenarioSpec(
            name="bad", kind="internet", collectors=("bogus",)
        )
        from repro.scenarios import ScenarioValidationError

        with pytest.raises(ScenarioValidationError):
            run_sweep([bad], workers=1, cache_dir=str(tmp_path))
        assert not os.listdir(str(tmp_path))


def report_with_walls(walls) -> SweepReport:
    return SweepReport(
        results=[],
        workers=1,
        cell_wall_seconds={f"d{i}": wall for i, wall in enumerate(walls)},
    )


class TestCellSecondsPercentile:
    """Nearest rank: the smallest value with at least p of all at or
    below it, i.e. ``values[ceil(p * n) - 1]``."""

    @pytest.mark.parametrize(
        "walls, fraction, expected",
        [
            ([1.0, 2.0], 0.0, 1.0),
            ([1.0, 2.0], 0.5, 1.0),
            ([1.0, 2.0], 0.75, 2.0),
            ([1.0, 2.0], 1.0, 2.0),
            ([3.0, 1.0, 2.0], 0.0, 1.0),
            ([3.0, 1.0, 2.0], 0.5, 2.0),
            ([3.0, 1.0, 2.0], 0.75, 3.0),
            ([3.0, 1.0, 2.0], 1.0, 3.0),
            ([float(n) for n in range(1, 25)], 0.5, 12.0),
            ([float(n) for n in range(1, 25)], 0.75, 18.0),
            ([float(n) for n in range(1, 25)], 1.0, 24.0),
            ([7.0], 0.0, 7.0),
            ([7.0], 0.5, 7.0),
            ([7.0], 1.0, 7.0),
        ],
    )
    def test_nearest_rank(self, walls, fraction, expected):
        report = report_with_walls(walls)
        assert report.cell_seconds_percentile(fraction) == expected

    def test_nothing_computed_is_none(self):
        assert report_with_walls([]).cell_seconds_percentile(0.5) is None

    @pytest.mark.parametrize("fraction", [-0.1, 1.5])
    def test_fraction_out_of_range_rejected(self, fraction):
        with pytest.raises(ValueError, match="fraction"):
            report_with_walls([1.0]).cell_seconds_percentile(fraction)
