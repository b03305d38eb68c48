"""MRT round-trip equivalence: live stream vs re-read archive.

A live run's observation stream and the stream re-read from its
``dump_mrt`` bytes must classify identically — for extended
(microsecond) timestamps the streams are bit-identical; for
whole-second legacy archives the timestamps coarsen but the per-stream
event order (and therefore every classification result) survives.
The spilled archive of an ``mrt-spill`` collector is pinned
byte-for-byte against the ``full`` policy's export, and the
``mrt-replay`` scenario family is proven metric-identical to the live
run it replays.
"""

import dataclasses
import hashlib
import io
import json
import os

import pytest

from repro.analysis import observations_from_mrt
from repro.analysis.classify import classify_observations
from repro.analysis.observations import observations_from_collector
from repro.mrt.reader import MRTReader
from repro.scenarios import get_scenario, run_scenario
from repro.scenarios.engine import internet_config_from_spec
from repro.workloads import InternetModel


def _collector_output_hash(dump: bytes) -> str:
    return hashlib.sha256(dump).hexdigest()[:16]


@pytest.fixture(scope="module")
def solo_day():
    """A single-collector tiny day (one archive file, full policy)."""
    base = get_scenario("topology-tiny")
    spec = dataclasses.replace(
        base,
        internet=dataclasses.replace(
            base.internet, collector_names=("rrc00",)
        ),
    )
    config = internet_config_from_spec(spec)
    return spec, InternetModel(config).run()


class TestRoundTripClassification:
    def test_extended_timestamps_round_trip_bit_identically(self, solo_day):
        _, day = solo_day
        collector = day.collector("rrc00")
        live = list(observations_from_collector(collector))
        dump = collector.dump_mrt(extended_timestamps=True)
        replayed = list(
            observations_from_mrt(
                MRTReader(io.BytesIO(dump)), collector.name
            )
        )
        assert len(replayed) == len(live)
        for mine, theirs in zip(live, replayed):
            assert mine.session == theirs.session
            assert mine.prefix == theirs.prefix
            assert mine.kind == theirs.kind
            assert mine.as_path == theirs.as_path
            assert mine.communities == theirs.communities
            assert mine.med == theirs.med
            # Microsecond resolution: equal to within MRT precision.
            assert abs(mine.timestamp - theirs.timestamp) < 1e-5
        assert (
            classify_observations(replayed).counts
            == classify_observations(live).counts
        )

    def test_whole_second_timestamps_classify_identically(self, solo_day):
        _, day = solo_day
        collector = day.collector("rrc00")
        live = list(observations_from_collector(collector))
        dump = collector.dump_mrt(extended_timestamps=False)
        replayed = list(
            observations_from_mrt(
                MRTReader(io.BytesIO(dump)), collector.name
            )
        )
        assert len(replayed) == len(live)
        for mine, theirs in zip(live, replayed):
            assert theirs.timestamp == float(int(mine.timestamp))
            assert mine.stream_key() == theirs.stream_key()
        assert (
            classify_observations(replayed).counts
            == classify_observations(live).counts
        )

    def test_dump_hash_is_reproducible(self, solo_day):
        spec, day = solo_day
        collector = day.collector("rrc00")
        first = _collector_output_hash(collector.dump_mrt())
        # A fresh, identically-seeded simulation pins the same bytes.
        again = InternetModel(internet_config_from_spec(spec)).run()
        assert (
            _collector_output_hash(again.collector("rrc00").dump_mrt())
            == first
        )


class TestSpillRoundTrip:
    def test_spill_bytes_equal_full_policy_dump(self, solo_day):
        spec, day = solo_day
        full_dump = day.collector("rrc00").dump_mrt()
        spill_spec = dataclasses.replace(
            spec,
            internet=dataclasses.replace(
                spec.internet, archive_policy="mrt-spill"
            ),
        )
        config = internet_config_from_spec(spill_spec)
        spill_day = InternetModel(config).run()
        collector = spill_day.collector("rrc00")
        assert len(collector.records) == 0
        assert collector.message_count() > 0
        collector.close()
        try:
            with open(collector.spill_path, "rb") as handle:
                spilled = handle.read()
            assert _collector_output_hash(
                spilled
            ) == _collector_output_hash(full_dump)
            assert spilled == full_dump
            # dump_mrt under spill re-reads the file and round-trips.
            assert collector.dump_mrt() == full_dump
        finally:
            os.unlink(collector.spill_path)

    def test_back_to_back_spill_runs_write_identical_archives(self):
        # Every network numbers its sessions from 1, and the default
        # session addresses derive from those numbers.  So a second
        # run in one process (a sweep lane's next cell) spills exactly
        # the bytes of the first.
        base = get_scenario("topology-tiny")
        spec = dataclasses.replace(
            base,
            internet=dataclasses.replace(
                base.internet, archive_policy="mrt-spill"
            ),
        )
        archives = []
        for _ in range(2):
            spill_paths = run_scenario(spec).spill_paths
            try:
                archive = {}
                for name, path in spill_paths.items():
                    with open(path, "rb") as handle:
                        archive[name] = handle.read()
            finally:
                for path in spill_paths.values():
                    os.unlink(path)
            archives.append(archive)
        assert set(archives[0]) == {"rrc00", "route-views2"}
        assert all(archives[0].values())
        assert archives[0] == archives[1]

    def test_mrt_replay_scenario_matches_live_run(self, solo_day, tmp_path):
        spec, day = solo_day
        collector = day.collector("rrc00")
        archive = tmp_path / "day.mrt"
        archive.write_bytes(collector.dump_mrt())
        live = run_scenario(spec)
        replay_spec = get_scenario("mrt-replay")
        replay_spec = dataclasses.replace(
            replay_spec,
            mrt=dataclasses.replace(
                replay_spec.mrt, path=str(archive), collector="rrc00"
            ),
        )
        replay = run_scenario(replay_spec)
        for key in (
            "update_counts",
            "duplicates",
            "community_prevalence",
            "table1",
        ):
            assert json.dumps(
                live.metrics[key], sort_keys=True
            ) == json.dumps(replay.metrics[key], sort_keys=True)
        # Beacons are a live-run concept; the full-feed type shares
        # still must agree exactly.
        assert (
            live.metrics["table2"]["full_shares"]
            == replay.metrics["table2"]["full_shares"]
        )

    def test_mrt_replay_strict_rejects_damage(self, solo_day, tmp_path):
        from repro.mrt.records import MRTError

        _, day = solo_day
        dump = day.collector("rrc00").dump_mrt()
        archive = tmp_path / "damaged.mrt"
        archive.write_bytes(dump[: len(dump) - 7])
        strict = get_scenario("mrt-replay-strict")
        strict = dataclasses.replace(
            strict, mrt=dataclasses.replace(strict.mrt, path=str(archive))
        )
        with pytest.raises(MRTError):
            run_scenario(strict)
        tolerant = get_scenario("mrt-replay")
        tolerant = dataclasses.replace(
            tolerant,
            mrt=dataclasses.replace(tolerant.mrt, path=str(archive)),
        )
        result = run_scenario(tolerant)
        assert result.metrics["update_counts"]["observations"] > 0


class TestMrtScenarioErrors:
    def test_missing_path_is_a_validation_error(self):
        from repro.scenarios import ScenarioValidationError

        with pytest.raises(ScenarioValidationError) as err:
            run_scenario(get_scenario("mrt-replay"))
        assert "mrt.path" in str(err.value)

    def test_unreadable_path_is_a_validation_error(self):
        from repro.scenarios import ScenarioValidationError

        spec = get_scenario("mrt-replay")
        spec = dataclasses.replace(
            spec,
            mrt=dataclasses.replace(spec.mrt, path="/nonexistent/x.mrt"),
        )
        with pytest.raises(ScenarioValidationError) as err:
            run_scenario(spec)
        assert "cannot open" in str(err.value)


class TestCliMrtReplay:
    def test_scenario_run_with_input(self, solo_day, tmp_path, capsys):
        from repro.cli import main

        _, day = solo_day
        archive = tmp_path / "cli.mrt"
        archive.write_bytes(day.collector("rrc00").dump_mrt())
        assert (
            main(
                [
                    "scenario",
                    "run",
                    "mrt-replay",
                    "--input",
                    str(archive),
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["mrt"]["path"] == str(archive)
        assert payload["metrics"]["update_counts"]["observations"] > 0

    def test_input_rejected_for_non_mrt_scenarios(self, capsys):
        from repro.cli import main

        assert (
            main(
                ["scenario", "run", "topology-tiny", "--input", "x.mrt"]
            )
            == 2
        )
        assert "--input" in capsys.readouterr().err

    def test_list_filters_mrt_kind(self, capsys):
        from repro.cli import main

        assert main(["scenario", "list", "--kind", "mrt"]) == 0
        out = capsys.readouterr().out
        assert "mrt-replay" in out
        assert "topology-tiny" not in out
