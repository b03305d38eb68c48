"""The streaming observation pipeline: sinks, sources, equivalence.

The refactor's contract is strict: streaming must be a pure
re-plumbing.  Batch analysis of a finished archive, live-sink
analysis during the run, and replay of a spilled MRT archive must all
produce identical metrics, and the ``mrt-spill`` archive policy must
bound memory without changing anything the analysis layer sees.
"""

import json

import pytest

from repro.analysis.cleaning import CleaningPipeline, CleaningReport
from repro.analysis.classify import UpdateClassifier
from repro.analysis.observations import (
    StreamGrouper,
    group_into_streams,
    observations_from_collector,
)
from repro.pipeline import (
    ListArchive,
    MrtSpillArchive,
    SequenceView,
    make_archive,
    parse_archive_policy,
)
from repro.pipeline.sinks import SinkBase
from repro.scenarios import get_scenario, make_collectors, run_scenario
from repro.scenarios.collectors import ScenarioContext
from repro.scenarios.engine import internet_config_from_spec
from repro.simulator.session import BGPSession
from repro.workloads import InternetModel


class _ListSink(SinkBase):
    """A sink that appends every pushed item to *items*."""

    def __init__(self, items):
        self.items = items

    def push(self, item):
        self.items.append(item)


# ----------------------------------------------------------------------
# plumbing units
# ----------------------------------------------------------------------
class TestParseArchivePolicy:
    def test_full(self):
        assert parse_archive_policy("full") == "full"

    def test_mrt_spill(self):
        assert parse_archive_policy("mrt-spill") == "mrt-spill"

    def test_case_and_whitespace(self):
        # The spec is hashed with the raw string: a second spelling of
        # one policy would give one run a second cache key.
        for spelling in ("FULL", " Full ", "MRT-SPILL"):
            with pytest.raises(ValueError, match="unknown archive_policy"):
                parse_archive_policy(spelling)

    @pytest.mark.parametrize(
        "bad",
        [
            "", "ringo", "ring:", "ring:0", "ring:-3", "ring:x", "ring:16",
            None,
        ],
    )
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_archive_policy(bad)


class TestSequenceView:
    def test_no_copy_semantics(self):
        backing = [1, 2, 3]
        view = SequenceView(backing)
        backing.append(4)
        assert list(view) == [1, 2, 3, 4]
        assert view[-1] == 4
        assert len(view) == 4

    def test_slicing_returns_list(self):
        view = SequenceView([1, 2, 3, 4])
        assert view[1:3] == [2, 3]

    def test_equality_with_lists(self):
        assert SequenceView([1, 2]) == [1, 2]
        assert SequenceView([1, 2]) != [2, 1]


class TestArchives:
    def test_list_archive_keeps_everything(self):
        archive = ListArchive()
        for item in range(5):
            archive.push(item)
        assert list(archive.retained) == list(range(5))
        assert archive.total_archived == 5

    def test_make_archive_dispatch(self):
        assert isinstance(make_archive("full"), ListArchive)
        spill = make_archive("mrt-spill")
        assert isinstance(spill, MrtSpillArchive)
        spill.unlink()


# ----------------------------------------------------------------------
# incremental grouper / cleaner equivalence
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny_day():
    """One simulated topology-tiny day (full archives)."""
    config = internet_config_from_spec(get_scenario("topology-tiny"))
    BGPSession._counter = 0
    return InternetModel(config).run()


@pytest.fixture(scope="module")
def tiny_observations(tiny_day):
    observations = []
    for collector in tiny_day.collectors():
        observations.extend(observations_from_collector(collector))
    observations.sort(key=lambda obs: obs.timestamp)
    return observations


class TestStreamGrouper:
    def test_matches_batch_grouping(self, tiny_observations):
        grouper = StreamGrouper()
        for observation in tiny_observations:
            grouper.push(observation)
        assert grouper.streams == group_into_streams(tiny_observations)
        assert grouper.observations == len(tiny_observations)

    def test_push_returns_stream_key(self, tiny_observations):
        grouper = StreamGrouper()
        first = tiny_observations[0]
        key = grouper.push(first)
        assert key == first.stream_key()
        assert grouper.stream(key) == [first]


class TestCleaningStreaming:
    def test_stream_matches_run_bit_identically(self, tiny_observations):
        pipeline = CleaningPipeline()
        batch, batch_report = pipeline.run(tiny_observations)
        report = CleaningReport()
        streamed = list(pipeline.stream(tiny_observations, report))
        assert streamed == batch
        assert report == batch_report

    def test_sink_form_matches_run(self, tiny_observations):
        pipeline = CleaningPipeline(max_prefix_length_v4=24)
        batch, batch_report = pipeline.run(tiny_observations)
        out = []
        sink = pipeline.sink(_ListSink(out))
        for observation in tiny_observations:
            sink.push(observation)
        assert out == batch
        assert sink.report == batch_report

    def test_whole_second_disambiguation_streams(self, tiny_observations):
        # Truncate to whole seconds to force the §4 disambiguation.
        truncated = [
            obs.shifted(float(int(obs.timestamp)))
            for obs in tiny_observations
        ]
        pipeline = CleaningPipeline()
        batch, batch_report = pipeline.run(truncated)
        streamed = list(pipeline.stream(truncated))
        assert streamed == batch
        assert batch_report.disambiguated_timestamps > 0


class TestClassifierSinkProtocol:
    def test_push_is_observe(self, tiny_observations):
        via_observe = UpdateClassifier()
        via_push = UpdateClassifier()
        for observation in tiny_observations:
            via_observe.observe(observation)
            via_push.push(observation)
        assert via_push.counts.counts == via_observe.counts.counts
        via_push.close()  # no-op, must exist


# ----------------------------------------------------------------------
# collector as a pipeline source
# ----------------------------------------------------------------------
class TestCollectorSinks:
    def test_live_sink_sees_archive_order(self):
        config = internet_config_from_spec(get_scenario("topology-tiny"))
        BGPSession._counter = 0
        model = InternetModel(config)
        live = []
        model.attach_collector_sink(_ListSink(live))
        day = model.run()
        archived = []
        for collector in day.collectors():
            archived.extend(collector.records)
        # Same multiset and same per-collector order; the live feed
        # interleaves collectors by simulation time.
        assert len(live) == len(archived)
        for name in config.collector_names:
            live_records = [r for r in live if r.collector == name]
            assert live_records == [
                r for r in archived if r.collector == name
            ]

    def test_attach_after_build_is_rejected(self):
        config = internet_config_from_spec(get_scenario("topology-tiny"))
        model = InternetModel(config)
        model.build()
        with pytest.raises(RuntimeError):
            model.attach_collector_sink(_ListSink([]))

    def test_deterministic_local_address_outside_router_id_range(self):
        config = internet_config_from_spec(get_scenario("topology-tiny"))
        day = InternetModel(config).run()
        for collector in day.collectors():
            last_octet = int(collector.local_address.rsplit(".", 1)[1])
            assert 201 <= last_octet <= 254
            router_octet = int(collector.router_id.rsplit(".", 1)[1])
            assert 1 <= router_octet <= 200
            assert collector.local_address != collector.router_id
        # Deterministic across instantiations.
        names = {c.name: c.local_address for c in day.collectors()}
        day2 = InternetModel(config).run()
        assert names == {c.name: c.local_address for c in day2.collectors()}

    def test_records_view_is_copy_free(self, tiny_day):
        collector = tiny_day.collectors()[0]
        view = collector.records
        assert isinstance(view, SequenceView)
        assert view[-1] is collector.records[-1]
        assert isinstance(collector.sessions, SequenceView)


# ----------------------------------------------------------------------
# engine equivalence: batch vs live sinks
# ----------------------------------------------------------------------
def _batch_metrics(spec):
    """The pre-refactor engine path: run, then iterate archives."""
    proxy = make_collectors(spec.collectors)
    config = internet_config_from_spec(spec)
    day = InternetModel(config).run()
    observations = []
    for collector in day.collectors():
        observations.extend(observations_from_collector(collector))
    observations.sort(key=lambda obs: obs.timestamp)
    proxy.start(
        ScenarioContext(spec, beacon_prefixes=set(day.beacon_prefixes))
    )
    for observation in observations:
        proxy.observe(observation)
    return proxy.finish()


class TestLiveStreamingEquivalence:
    @pytest.mark.parametrize(
        "name", ["topology-tiny", "damping-replay"]
    )
    def test_live_metrics_match_batch(self, name):
        spec = get_scenario(name)
        if name == "damping-replay":
            # Shrink to test size; the equivalence claim is the point.
            import dataclasses

            spec = dataclasses.replace(
                spec,
                internet=dataclasses.replace(
                    spec.internet,
                    tier1_count=2,
                    transit_count=3,
                    stub_count=6,
                ),
            )
        BGPSession._counter = 0
        live = run_scenario(spec).metrics
        BGPSession._counter = 0
        batch = _batch_metrics(spec)
        assert json.dumps(live, sort_keys=True) == json.dumps(
            batch, sort_keys=True
        )

    def test_bounded_policies_do_not_change_metrics(self):
        import dataclasses
        import os

        base = get_scenario("topology-tiny")
        results = {}
        for policy in ("full", "mrt-spill"):
            spec = dataclasses.replace(
                base,
                internet=dataclasses.replace(
                    base.internet, archive_policy=policy
                ),
            )
            BGPSession._counter = 0
            result = run_scenario(spec)
            results[policy] = result.metrics
            assert bool(result.spill_paths) == (policy == "mrt-spill")
            for path in result.spill_paths.values():
                os.unlink(path)
        assert results["full"] == results["mrt-spill"]


class TestEngineHooks:
    def test_spill_run_surfaces_flushed_archives(self):
        import os

        from repro.mrt.reader import MRTReader

        BGPSession._counter = 0
        result = run_scenario(get_scenario("internet-small-spill"))
        assert set(result.spill_paths) == {"rrc00"}
        path = result.spill_paths["rrc00"]
        try:
            # The engine closed the collector, so every archived
            # message — buffered tail included — must be on disk:
            # replaying the file must reproduce the live metrics
            # exactly (a truncated tail would change the counts).
            with open(path, "rb") as handle:
                assert list(MRTReader(handle))
            import dataclasses

            replay_spec = get_scenario("mrt-replay")
            replay_spec = dataclasses.replace(
                replay_spec,
                mrt=dataclasses.replace(
                    replay_spec.mrt, path=path, collector="rrc00"
                ),
            )
            replay = run_scenario(replay_spec)
            assert (
                replay.metrics["update_counts"]
                == result.metrics["update_counts"]
            )
        finally:
            os.unlink(path)


# ----------------------------------------------------------------------
# spec plumbing for the new knobs
# ----------------------------------------------------------------------
class TestSpecKnobs:
    def test_archive_policy_validation(self):
        import dataclasses

        from repro.scenarios import ScenarioValidationError
        from repro.scenarios.spec import InternetSpec, ScenarioSpec

        spec = ScenarioSpec(name="x", kind="internet")
        # Another spelling of a valid policy would hash to a second
        # spec_hash for the same run, so it is rejected too.
        for policy in ("ring:0", "ring:16", "FULL", " Full "):
            bad = dataclasses.replace(
                spec, internet=InternetSpec(archive_policy=policy)
            )
            with pytest.raises(ScenarioValidationError) as err:
                bad.validate()
            assert "archive_policy" in str(err.value)
        for policy in ("full", "mrt-spill"):
            good = dataclasses.replace(
                spec, internet=InternetSpec(archive_policy=policy)
            )
            good.validate()

    def test_collector_names_threads_through(self):
        import dataclasses

        base = get_scenario("topology-tiny")
        spec = dataclasses.replace(
            base,
            internet=dataclasses.replace(
                base.internet, collector_names=("solo",)
            ),
        )
        config = internet_config_from_spec(spec)
        assert config.collector_names == ("solo",)

    def test_archive_policy_threads_through(self):
        import dataclasses

        base = get_scenario("topology-tiny")
        spec = dataclasses.replace(
            base,
            internet=dataclasses.replace(
                base.internet, archive_policy="mrt-spill"
            ),
        )
        config = internet_config_from_spec(spec)
        assert config.archive_policy == "mrt-spill"

    def test_unset_knobs_do_not_leak_into_the_canonical_form(self):
        # A spec that does not use a knob must hash identically no
        # matter how many optional fields the section type grows:
        # sweep-cache keys survive spec-type evolution.
        from repro.scenarios import spec_to_dict

        data = spec_to_dict(get_scenario("topology-tiny"))
        assert "mrt" not in data
        assert "archive_policy" not in data["internet"]
        assert "collector_names" not in data["internet"]
        assert all(
            value is not None for value in data["internet"].values()
        )
        spill = spec_to_dict(get_scenario("internet-small-spill"))
        assert spill["internet"]["archive_policy"] == "mrt-spill"
        assert "mrt" in spec_to_dict(get_scenario("mrt-replay"))

    def test_spec_json_round_trip_with_new_fields(self):
        import dataclasses

        from repro.scenarios import spec_from_json, spec_hash, spec_to_json

        base = get_scenario("internet-small-spill")
        text = spec_to_json(base)
        rebuilt = spec_from_json(text)
        assert rebuilt == base
        assert spec_hash(rebuilt) == spec_hash(base)
        mrt = get_scenario("mrt-replay")
        mrt = dataclasses.replace(
            mrt, mrt=dataclasses.replace(mrt.mrt, path="/tmp/x.mrt")
        )
        assert spec_from_json(spec_to_json(mrt)) == mrt
