"""Spec/result JSON round-trip, spec hashing and the cache schema."""

import hashlib
import json
import typing
from dataclasses import fields, replace

import pytest

from repro.scenarios import (
    InternetSpec,
    JobFailure,
    LabSpec,
    ScenarioResult,
    ScenarioSpec,
    ScenarioValidationError,
    SweepReport,
    all_scenarios,
    get_scenario,
    result_from_json,
    result_to_json,
    run_scenario,
    spec_from_dict,
    spec_from_json,
    spec_hash,
    spec_to_dict,
    spec_to_json,
)
from repro.scenarios.runner import CACHE_SCHEMA_FINGERPRINT, CACHE_VERSION
from repro.scenarios.serialize import (
    failure_to_dict,
    result_from_dict,
    result_to_dict,
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
        # Older specs may carry a knob that has since been deleted: the
        # decode worker count of the sharded MRT decode, or the
        # delivery-batching switch.  They must be rejected, not
        # half-run.
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
        with pytest.raises(
            ScenarioValidationError,
            match="unknown internet field 'delivery_batching'",
        ):
            spec_from_dict(
                {
                    "name": "x",
                    "kind": "internet",
                    "internet": {"delivery_batching": False},
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


# ----------------------------------------------------------------------
# the cache schema: CACHE_SCHEMA_FINGERPRINT vs the running serializer
# ----------------------------------------------------------------------
def _sample(annotation, name):
    """A non-empty value of *annotation*, for the field called *name*."""
    if annotation is ScenarioSpec:
        return get_scenario("lab-junos")
    if annotation is str:
        return f"{name}-sample"
    if annotation is int:
        return 7
    if annotation is float:
        return 0.5
    if annotation is dict:
        return {name: 1}
    if typing.get_origin(annotation) is dict:
        key_type, value_type = typing.get_args(annotation)
        return {
            _sample(key_type, name): _sample(value_type, name)
        }
    raise AssertionError(
        f"no sample value for field {name!r} of type {annotation!r};"
        " teach _sample the type"
    )


def _populated(cls):
    """An instance of the dataclass *cls* with every field non-empty."""
    hints = typing.get_type_hints(cls)
    return cls(
        **{item.name: _sample(hints[item.name], item.name)
           for item in fields(cls)}
    )


def _schema_fingerprint(result, failure):
    """Digest of the payload keys and the result/report field names.

    Tagged by origin so a key moving between the payload and a
    dataclass still changes the digest.
    """
    tagged = [f"result_to_dict:{key}" for key in result_to_dict(result)]
    tagged += [
        f"failure_to_dict:{key}" for key in failure_to_dict(failure)
    ]
    tagged += [f"ScenarioResult:{item.name}"
               for item in fields(ScenarioResult)]
    tagged += [f"SweepReport:{item.name}" for item in fields(SweepReport)]
    canonical = "\n".join(sorted(tagged)).encode("utf-8")
    return hashlib.sha256(canonical).hexdigest()[:12]


class TestCacheSchema:
    """Cache entries outlive the code that wrote them.

    When mrt-replay results gained ``reader_stats`` without a
    ``CACHE_VERSION`` move, v1 entries replayed byte-different from
    fresh runs.  Growing the serialized schema must therefore force an
    edit next to ``CACHE_VERSION`` in ``scenarios/runner.py``.
    """

    def test_recorded_fingerprint_matches_running_schema(self):
        computed = _schema_fingerprint(
            _populated(ScenarioResult), _populated(JobFailure)
        )
        assert computed == CACHE_SCHEMA_FINGERPRINT, (
            f"the serialized result schema changed (computed {computed},"
            f" recorded {CACHE_SCHEMA_FINGERPRINT}); bump CACHE_VERSION"
            f" (now {CACHE_VERSION}) if replayed bytes change, then set"
            f" CACHE_SCHEMA_FINGERPRINT = \"{computed}\""
        )

    def test_populated_result_round_trips(self):
        result = _populated(ScenarioResult)
        assert result_from_dict(result_to_dict(result)) == result
        assert result_from_json(result_to_json(result)) == result

    @pytest.mark.parametrize("name", ["topology-tiny", "lab-baseline"])
    def test_real_payload_keys_are_in_the_fingerprinted_set(self, name):
        real = run_scenario(get_scenario(name))
        populated = _populated(ScenarioResult)
        assert set(result_to_dict(real)) <= set(result_to_dict(populated))
