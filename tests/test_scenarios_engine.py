"""Engine: spec -> result, and equivalence with the legacy drivers."""

import pytest

from repro.analysis import build_table2, observations_from_collector
from repro.analysis.classify import TYPE_ORDER
from repro.scenarios import (
    InternetSpec,
    LabSpec,
    ScenarioSpec,
    ScenarioValidationError,
    get_scenario,
    internet_config_from_spec,
    make_collectors,
    run_scenario,
)
from repro.vendors import CISCO_IOS, JUNOS
from repro.workloads import InternetConfig, InternetModel

TINY = InternetSpec(
    tier1_count=2,
    transit_count=3,
    stub_count=6,
    beacon_count=1,
    link_flaps=2,
    prefix_flaps=2,
    med_churn_events=2,
    community_churn_events=3,
    prepend_change_events=1,
    collector_session_resets=1,
)


def tiny_spec(**overrides) -> ScenarioSpec:
    payload = {
        "name": "engine-tiny",
        "kind": "internet",
        "seed": 11,
        "internet": TINY,
        "collectors": ("update_counts", "table2"),
    }
    payload.update(overrides)
    return ScenarioSpec(**payload)


class TestLabEquivalence:
    def test_matrix_matches_direct_experiment_runs(self):
        from repro.simulator import run_experiment

        spec = ScenarioSpec(
            name="lab-slice",
            kind="lab",
            lab=LabSpec(
                experiments=("exp1", "exp3"), vendors=("cisco", "junos")
            ),
            collectors=("lab_matrix",),
        )
        result = run_scenario(spec)
        expected = [
            list(run_experiment(experiment, vendor).summary_row())
            for experiment in ("exp1", "exp3")
            for vendor in (CISCO_IOS, JUNOS)
        ]
        assert result.metrics["lab_matrix"]["rows"] == expected

    def test_exp3_duplicate_only_on_non_junos(self):
        result = run_scenario(
            ScenarioSpec(
                name="lab-exp3",
                kind="lab",
                lab=LabSpec(
                    experiments=("exp3",), vendors=("cisco", "junos")
                ),
                collectors=("lab_matrix",),
            )
        )
        cells = {
            cell["vendor"]: cell
            for cell in result.metrics["lab_matrix"]["cells"]
        }
        assert cells[CISCO_IOS.name]["collector_saw_duplicate"]
        assert not cells[JUNOS.name]["update_reached_collector"]


class TestInternetEquivalence:
    def test_engine_matches_direct_model_run(self):
        spec = tiny_spec()
        result = run_scenario(spec)

        day = InternetModel(internet_config_from_spec(spec)).run()
        observations = []
        for collector in day.collectors():
            observations.extend(observations_from_collector(collector))
        observations.sort(key=lambda obs: obs.timestamp)
        table2 = build_table2(observations, set(day.beacon_prefixes))

        engine_shares = result.metrics["table2"]["full_shares"]
        direct_shares = {
            kind.value: table2.full.share(kind) for kind in TYPE_ORDER
        }
        assert engine_shares == direct_shares
        # The beacon column is counted online, so the beacon set must
        # be known before the first beacon announcement arrives.
        assert day.beacon_prefixes
        assert result.metrics["table2"]["beacon_shares"] == {
            kind.value: table2.beacon.share(kind) for kind in TYPE_ORDER
        }
        assert table2.beacon.classified_total > 0
        assert result.metrics["update_counts"]["observations"] == len(
            observations
        )

    def test_identical_specs_identical_results(self):
        first = run_scenario(tiny_spec())
        second = run_scenario(tiny_spec())
        assert first.metrics == second.metrics
        assert first.spec_hash == second.spec_hash

    def test_delivery_batching_leaves_metrics_unchanged(self):
        # Per-session delays are drawn from a continuous range, so no
        # two receivers share a fire time and coalescing same-time
        # deliveries cannot reorder anything a collector sees: every
        # collector archive is byte-identical to the one-event-per-
        # message reference.
        config = internet_config_from_spec(get_scenario("topology-tiny"))
        archives, events = {}, {}
        for batching in (True, False):
            model = InternetModel(config)
            model.network.batch_delivery = batching
            day = model.run()
            archives[batching] = {
                collector.name: collector.dump_mrt()
                for collector in day.collectors()
            }
            events[batching] = model.network.queue.processed
        # Batching coalesced something, so both paths really ran.
        assert events[True] < events[False]
        assert all(archives[True].values())
        assert archives[True] == archives[False]

    def test_seed_changes_the_day(self):
        baseline = run_scenario(tiny_spec())
        reseeded = run_scenario(tiny_spec(seed=12))
        assert baseline.metrics != reseeded.metrics


class TestConfigMapping:
    def test_small_base_matches_seed_configuration(self):
        spec = get_scenario("internet-small")
        config = internet_config_from_spec(spec)
        reference = InternetConfig.small()
        assert config.seed == reference.seed == 7
        assert config.topology.seed == reference.topology.seed
        assert config.beacon_count == reference.beacon_count
        assert config.vendor_mix == reference.vendor_mix

    def test_mar20_base_pins_topology_seed(self):
        config = internet_config_from_spec(get_scenario("internet-mar20"))
        reference = InternetConfig.mar20()
        assert config.seed == reference.seed
        assert config.topology.seed == reference.topology.seed

    def test_overrides_apply_and_mix_normalizes(self):
        spec = tiny_spec(
            internet=InternetSpec(
                stub_count=5,
                vendor_mix=(("junos", 3.0), ("bird", 1.0)),
                mrai=5.0,
            ),
            duration=3600.0,
        )
        config = internet_config_from_spec(spec)
        assert config.topology.stub_count == 5
        assert config.mrai == 5.0
        assert config.day_seconds == 3600.0
        assert config.seed == 11
        mix = dict(
            (profile.name, weight) for profile, weight in config.vendor_mix
        )
        assert mix[JUNOS.name] == pytest.approx(0.75)
        assert sum(mix.values()) == pytest.approx(1.0)

    def test_seed_sweep_keeps_topology_fixed(self):
        base = internet_config_from_spec(tiny_spec(seed=1))
        other = internet_config_from_spec(tiny_spec(seed=2))
        assert base.topology.seed == other.topology.seed
        assert base.seed != other.seed


class TestEngineValidation:
    def test_invalid_spec_never_simulates(self):
        with pytest.raises(ScenarioValidationError):
            run_scenario(tiny_spec(collectors=("bogus",)))

    def test_unknown_collector_at_proxy_level(self):
        with pytest.raises(KeyError, match="unknown collector"):
            make_collectors(("bogus",))


class TestShortDuration:
    def test_duration_shortens_the_day(self):
        # A 2-hour window drops most beacon cycles and squeezes the
        # background schedule, so the feed must shrink decisively.
        full = run_scenario(tiny_spec())
        short = run_scenario(tiny_spec(duration=7200.0))
        assert (
            short.metrics["update_counts"]["observations"]
            < full.metrics["update_counts"]["observations"]
        )
