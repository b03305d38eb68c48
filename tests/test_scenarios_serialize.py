"""Spec/result JSON round-trip and spec hashing."""

import json
from dataclasses import replace

import pytest

from repro.scenarios import (
    InternetSpec,
    LabSpec,
    ScenarioResult,
    ScenarioSpec,
    ScenarioValidationError,
    all_scenarios,
    get_scenario,
    result_from_json,
    result_to_json,
    spec_from_dict,
    spec_from_json,
    spec_hash,
    spec_to_dict,
    spec_to_json,
)


class TestSpecRoundTrip:
    def test_every_catalog_entry_round_trips(self):
        for spec in all_scenarios():
            clone = spec_from_json(spec_to_json(spec))
            assert clone == spec
            assert spec_hash(clone) == spec_hash(spec)

    def test_round_trip_restores_tuples(self):
        spec = ScenarioSpec(
            name="mix",
            kind="internet",
            internet=InternetSpec(
                vendor_mix=(("junos", 2.0), ("bird", 1.0))
            ),
            collectors=("update_counts", "duplicates"),
        )
        clone = spec_from_json(spec_to_json(spec))
        assert clone.internet.vendor_mix == (("junos", 2.0), ("bird", 1.0))
        assert clone.collectors == ("update_counts", "duplicates")
        assert clone == spec

    def test_dict_form_is_json_canonical(self):
        data = spec_to_dict(get_scenario("internet-small"))
        assert json.loads(json.dumps(data)) == data

    def test_unknown_spec_field_rejected(self):
        with pytest.raises(
            ScenarioValidationError, match="unknown spec field 'speed'"
        ):
            spec_from_dict({"name": "x", "kind": "lab", "speed": 9})

    def test_unknown_section_field_rejected(self):
        with pytest.raises(
            ScenarioValidationError, match="unknown internet field"
        ):
            spec_from_dict(
                {
                    "name": "x",
                    "kind": "internet",
                    "internet": {"scale": "small", "warp": True},
                }
            )

    def test_removed_decode_workers_field_rejected(self):
        # Older specs may carry the decode worker count of the deleted
        # sharded MRT decode; they must be rejected, not half-run.
        with pytest.raises(
            ScenarioValidationError,
            match="unknown mrt field 'decode_workers'",
        ):
            spec_from_dict(
                {
                    "name": "x",
                    "kind": "mrt",
                    "mrt": {"path": "day.mrt", "decode_workers": 2},
                }
            )


class TestSpecHash:
    def test_hash_is_stable_across_processes(self):
        # A fixed fingerprint: if this changes, cached results from
        # previous runs silently invalidate — bump knowingly.
        spec = ScenarioSpec(name="pin", kind="lab", lab=LabSpec())
        assert spec_hash(spec) == spec_hash(
            spec_from_json(spec_to_json(spec))
        )
        assert len(spec_hash(spec)) == 16

    def test_description_does_not_affect_hash(self):
        spec = get_scenario("internet-small")
        redescribed = replace(spec, description="something else")
        assert spec_hash(redescribed) == spec_hash(spec)

    def test_behavior_fields_do_affect_hash(self):
        spec = get_scenario("internet-small")
        assert spec_hash(replace(spec, seed=8)) != spec_hash(spec)
        assert spec_hash(
            replace(spec, internet=replace(spec.internet, mrai=5.0))
        ) != spec_hash(spec)

    def test_all_catalog_hashes_distinct(self):
        hashes = [spec_hash(spec) for spec in all_scenarios()]
        assert len(hashes) == len(set(hashes))


class TestResultRoundTrip:
    def test_result_round_trips(self):
        spec = get_scenario("lab-junos")
        result = ScenarioResult(
            spec=spec,
            spec_hash=spec_hash(spec),
            metrics={"lab_matrix": {"rows": [["exp1", "junos"]]}},
        )
        clone = result_from_json(result_to_json(result))
        assert clone.spec == spec
        assert clone.spec_hash == result.spec_hash
        assert clone.metrics == result.metrics
