"""Spec validation: broken scenarios must fail upfront, loudly."""

import pytest

from repro.scenarios import (
    InternetSpec,
    LabSpec,
    ScenarioSpec,
    ScenarioValidationError,
)


def lab_spec(**overrides) -> ScenarioSpec:
    payload = {
        "name": "test-lab",
        "kind": "lab",
        "lab": LabSpec(),
        "collectors": ("lab_matrix",),
    }
    payload.update(overrides)
    return ScenarioSpec(**payload)


def internet_spec(**overrides) -> ScenarioSpec:
    payload = {
        "name": "test-internet",
        "kind": "internet",
        "internet": InternetSpec(),
        "collectors": ("update_counts",),
    }
    payload.update(overrides)
    return ScenarioSpec(**payload)


class TestHeaderValidation:
    def test_valid_specs_pass(self):
        assert lab_spec().validate() is not None
        assert internet_spec().validate() is not None

    def test_empty_name_rejected(self):
        with pytest.raises(ScenarioValidationError, match="name"):
            lab_spec(name="").validate()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ScenarioValidationError, match="kind"):
            ScenarioSpec(name="x", kind="quantum").validate()

    def test_negative_duration_rejected(self):
        with pytest.raises(
            ScenarioValidationError, match="duration must be positive"
        ):
            internet_spec(duration=-3600.0).validate()

    def test_zero_duration_rejected(self):
        with pytest.raises(ScenarioValidationError, match="duration"):
            internet_spec(duration=0.0).validate()

    def test_positive_duration_accepted(self):
        internet_spec(duration=3600.0).validate()

    def test_non_integer_seed_rejected(self):
        with pytest.raises(ScenarioValidationError, match="seed"):
            lab_spec(seed="lucky").validate()


class TestCollectorValidation:
    def test_unknown_collector_rejected(self):
        with pytest.raises(
            ScenarioValidationError, match="unknown collector 'volume'"
        ):
            lab_spec(collectors=("volume",)).validate()

    def test_error_lists_known_collectors(self):
        with pytest.raises(ScenarioValidationError, match="table1"):
            lab_spec(collectors=("nope",)).validate()

    def test_empty_collectors_rejected(self):
        with pytest.raises(
            ScenarioValidationError, match="at least one collector"
        ):
            lab_spec(collectors=()).validate()

    def test_duplicate_collector_rejected(self):
        with pytest.raises(ScenarioValidationError, match="duplicate"):
            lab_spec(collectors=("lab_matrix", "lab_matrix")).validate()


class TestLabValidation:
    def test_unknown_vendor_rejected(self):
        with pytest.raises(
            ScenarioValidationError, match="unknown vendor 'nokia'"
        ):
            lab_spec(lab=LabSpec(vendors=("nokia",))).validate()

    def test_vendor_aliases_accepted(self):
        lab_spec(
            lab=LabSpec(vendors=("junos", "cisco", "bird2"))
        ).validate()

    def test_unknown_experiment_rejected(self):
        with pytest.raises(
            ScenarioValidationError, match="unknown lab experiment"
        ):
            lab_spec(lab=LabSpec(experiments=("exp9",))).validate()

    def test_negative_mrai_rejected(self):
        with pytest.raises(ScenarioValidationError, match="mrai"):
            lab_spec(lab=LabSpec(mrai=-1.0)).validate()

    def test_internet_section_on_lab_rejected(self):
        with pytest.raises(
            ScenarioValidationError, match="must not carry an internet"
        ):
            lab_spec(internet=InternetSpec()).validate()


class TestInternetValidation:
    def test_unknown_scale_rejected(self):
        with pytest.raises(ScenarioValidationError, match="scale"):
            internet_spec(
                internet=InternetSpec(scale="planetary")
            ).validate()

    def test_unknown_vendor_in_mix_rejected(self):
        with pytest.raises(
            ScenarioValidationError, match="unknown vendor 'quagga'"
        ):
            internet_spec(
                internet=InternetSpec(vendor_mix=(("quagga", 1.0),))
            ).validate()

    def test_nonpositive_mix_weight_rejected(self):
        with pytest.raises(ScenarioValidationError, match="weight"):
            internet_spec(
                internet=InternetSpec(vendor_mix=(("junos", 0.0),))
            ).validate()

    def test_fraction_out_of_range_rejected(self):
        with pytest.raises(
            ScenarioValidationError, match="tagger_fraction"
        ):
            internet_spec(
                internet=InternetSpec(tagger_fraction=1.5)
            ).validate()

    def test_practice_fractions_must_sum_below_one(self):
        with pytest.raises(ScenarioValidationError, match="sum"):
            internet_spec(
                internet=InternetSpec(
                    tagger_fraction=0.8,
                    cleaner_egress_fraction=0.2,
                    cleaner_ingress_fraction=0.2,
                )
            ).validate()

    def test_negative_event_count_rejected(self):
        with pytest.raises(ScenarioValidationError, match="link_flaps"):
            internet_spec(
                internet=InternetSpec(link_flaps=-1)
            ).validate()

    def test_zero_topology_count_rejected(self):
        with pytest.raises(ScenarioValidationError, match="stub_count"):
            internet_spec(
                internet=InternetSpec(stub_count=0)
            ).validate()

    def test_lab_section_on_internet_rejected(self):
        with pytest.raises(
            ScenarioValidationError, match="must not carry a lab"
        ):
            internet_spec(lab=LabSpec()).validate()


class TestErrorAggregation:
    def test_all_problems_reported_at_once(self):
        spec = ScenarioSpec(
            name="",
            kind="lab",
            duration=-1.0,
            collectors=("bogus",),
            lab=LabSpec(vendors=("nokia",), experiments=("exp9",)),
        )
        with pytest.raises(ScenarioValidationError) as excinfo:
            spec.validate()
        assert len(excinfo.value.errors) >= 5
        message = str(excinfo.value)
        for fragment in ("name", "duration", "bogus", "nokia", "exp9"):
            assert fragment in message
