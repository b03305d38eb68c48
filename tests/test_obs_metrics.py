"""Metrics registry: counters, gauges, timers, and the enable gate."""

import json

import pytest

from repro.netbase.memo import (
    bounded_store,
    memo_counters,
    memo_stats,
    reset_memo_stats,
)
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import MetricsRegistry, TimerStats


@pytest.fixture(autouse=True)
def clean_registry():
    obs_metrics.set_metrics_enabled(False)
    obs_metrics.reset_metrics()
    yield
    obs_metrics.set_metrics_enabled(False)
    obs_metrics.reset_metrics()


class TestRegistry:
    def test_counters_accumulate(self):
        registry = MetricsRegistry()
        registry.count("events")
        registry.count("events", 4)
        assert registry.counter_value("events") == 5
        assert registry.counter_value("never-written") == 0

    def test_gauges_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("depth", 3.0)
        registry.gauge("depth", 7.0)
        assert registry.gauge_value("depth") == 7.0

    def test_timer_aggregates_and_histogram(self):
        registry = MetricsRegistry()
        registry.record_timing("step", 0.0005)  # < 1 ms -> bucket 0
        registry.record_timing("step", 0.003)  # ~3 ms -> bucket 2
        report = registry.report()["timers"]["step"]
        assert report["count"] == 2
        assert report["min_seconds"] == pytest.approx(0.0005)
        assert report["max_seconds"] == pytest.approx(0.003)
        assert report["total_seconds"] == pytest.approx(0.0035)
        histogram = report["histogram_ms_pow2"]
        assert histogram[0] == 1
        assert sum(histogram) == 2

    def test_time_context_manager_records(self):
        registry = MetricsRegistry()
        with registry.time("span"):
            pass
        assert registry.timer_seconds("span") > 0

    def test_phase_seconds_strips_prefix(self):
        registry = MetricsRegistry()
        registry.record_timing("phase.build", 1.5)
        registry.record_timing("other", 9.0)
        assert registry.phase_seconds() == {"build": 1.5}

    def test_report_is_json_serializable_and_sorted(self):
        registry = MetricsRegistry()
        registry.count("b")
        registry.count("a")
        registry.gauge("g", 1.0)
        registry.record_timing("t", 0.01)
        report = registry.report()
        assert list(report["counters"]) == ["a", "b"]
        json.dumps(report)  # must not raise

    def test_reset_clears_everything(self):
        registry = MetricsRegistry()
        registry.count("x")
        registry.gauge("y", 1.0)
        registry.record_timing("z", 0.1)
        assert not registry.is_empty()
        registry.reset()
        assert registry.is_empty()
        assert registry.report() == {
            "counters": {},
            "gauges": {},
            "timers": {},
        }


class TestEnableGate:
    def test_disabled_by_default(self):
        assert obs_metrics.metrics_enabled() is False

    def test_disabled_helpers_record_nothing(self):
        obs_metrics.count("x")
        obs_metrics.gauge("y", 1.0)
        obs_metrics.record_timing("z", 0.5)
        with obs_metrics.phase("p"):
            pass
        assert obs_metrics.registry().is_empty()

    def test_disabled_phase_is_the_shared_noop(self):
        # Near-zero disabled cost: no allocation per phase() call.
        assert obs_metrics.phase("a") is obs_metrics.phase("b")

    def test_enabled_helpers_record(self):
        obs_metrics.set_metrics_enabled(True)
        obs_metrics.count("x", 2)
        with obs_metrics.phase("p"):
            pass
        registry = obs_metrics.registry()
        assert registry.counter_value("x") == 2
        assert registry.timer_seconds("phase.p") > 0

    def test_set_enabled_returns_previous(self):
        assert obs_metrics.set_metrics_enabled(True) is False
        assert obs_metrics.set_metrics_enabled(False) is True

    def test_enabled_scope_restores(self):
        with obs_metrics.enabled_scope():
            assert obs_metrics.metrics_enabled() is True
        assert obs_metrics.metrics_enabled() is False

    def test_timed_decorator(self):
        @obs_metrics.timed("wrapped")
        def work():
            return 42

        assert work() == 42
        assert obs_metrics.registry().is_empty()
        obs_metrics.set_metrics_enabled(True)
        assert work() == 42
        assert obs_metrics.registry().timer_seconds("phase.wrapped") > 0


class TestMemoStats:
    def test_counters_register_idempotently(self):
        first = memo_counters("test.idempotent")
        second = memo_counters("test.idempotent")
        assert first is second

    def test_bounded_store_counts_misses_hits_and_evictions(self):
        stats = memo_counters("test.bounded")
        stats.reset()
        cache = {}
        for key in range(3):
            bounded_store(cache, key, key, 4, stats)
        assert stats.misses == 3
        assert stats.evictions == 0
        # Simulate the call-site hit path.
        if cache.get(1) is not None:
            stats.hits += 1
        assert stats.hits == 1
        # Fill past the bound: wholesale clear counts one eviction.
        bounded_store(cache, 3, 3, 4, stats)
        bounded_store(cache, 4, 4, 4, stats)
        assert stats.evictions == 1
        assert len(cache) == 1

    def test_bounded_store_without_stats_still_works(self):
        cache = {}
        assert bounded_store(cache, "k", "v", 8) == "v"
        assert cache == {"k": "v"}

    def test_memo_stats_snapshot_and_reset(self):
        stats = memo_counters("test.snapshot")
        stats.reset()
        stats.hits += 3
        stats.misses += 1
        snapshot = memo_stats()
        entry = snapshot["test.snapshot"]
        assert entry["hits"] == 3
        assert entry["misses"] == 1
        assert entry["hit_rate"] == pytest.approx(0.75)
        reset_memo_stats()
        assert memo_stats()["test.snapshot"]["hits"] == 0

    def test_every_hot_cache_is_named(self):
        # Importing the hot-path modules registers their counters; the
        # instrumentation surface must cover all eleven bounded stores.
        import repro.analysis.cleaning  # noqa: F401
        import repro.bgp.wire  # noqa: F401
        import repro.mrt.reader  # noqa: F401
        import repro.mrt.records  # noqa: F401
        import repro.netbase.prefix  # noqa: F401

        names = set(memo_stats())
        assert {
            "wire.attr_block",
            "wire.as_path",
            "wire.community_set",
            "wire.large_set",
            "wire.community",
            "wire.asn",
            "wire.addr",
            "prefix.nlri",
            "mrt.envelope",
            "cleaning.path_info",
            "cleaning.peer_info",
        } <= names
