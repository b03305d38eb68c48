"""Seeded property-based round-trip tests for :class:`ScenarioSpec`.

A tiny stdlib-``random`` fuzzer (no third-party property-testing
dependency) generates randomized *valid* specs across all three kinds
and every optional knob, then asserts the serialization invariants
the sweep machinery stands on:

* ``spec_from_json(spec_to_json(s)) == s`` — lossless round trip;
* ``spec_hash`` is invariant under JSON key reordering — the cache
  key depends on what a spec says, never on how its dict happens to
  be ordered;
* ``spec_hash`` survives the round trip — a spec rebuilt from disk
  lands in the same cache cell as the original.

Every test is seeded and parametrized over master seeds, so a failure
reproduces exactly.
"""

import json
import random
import string

import pytest

from repro.scenarios import (
    InternetSpec,
    LabSpec,
    MrtSpec,
    ScenarioSpec,
    known_collector_names,
    spec_from_dict,
    spec_from_json,
    spec_hash,
    spec_to_dict,
    spec_to_json,
)
from repro.scenarios.spec import INTERNET_SCALES, LAB_EXPERIMENTS

VENDORS = ("cisco", "ios-xr", "junos", "bird", "bird2")

MASTER_SEEDS = tuple(range(8))
SPECS_PER_SEED = 25


def _name(rng: random.Random) -> str:
    return "fuzz-" + "".join(
        rng.choice(string.ascii_lowercase + string.digits)
        for _ in range(rng.randint(1, 12))
    )


def _subset(rng: random.Random, items, minimum=1):
    count = rng.randint(minimum, len(items))
    return tuple(rng.sample(list(items), count))


def _maybe(rng: random.Random, builder, probability=0.5):
    return builder() if rng.random() < probability else None


def _lab_section(rng: random.Random) -> LabSpec:
    return LabSpec(
        experiments=_subset(rng, LAB_EXPERIMENTS),
        vendors=_subset(rng, VENDORS),
        mrai=rng.choice((0.0, 5.0, rng.uniform(0.0, 120.0))),
    )


def _internet_section(rng: random.Random) -> InternetSpec:
    # The three practice fractions are validated as a *sum* against
    # the base scale's defaults, so set them jointly: three shares of
    # a total that never exceeds 1.
    total = rng.uniform(0.0, 1.0)
    cut_a, cut_b = sorted((rng.random(), rng.random()))
    practice = (
        total * cut_a,
        total * (cut_b - cut_a),
        total * (1.0 - cut_b),
    )
    return InternetSpec(
        scale=rng.choice(INTERNET_SCALES),
        topology_seed=_maybe(rng, lambda: rng.randrange(2**31)),
        tier1_count=_maybe(rng, lambda: rng.randint(1, 5)),
        transit_count=_maybe(rng, lambda: rng.randint(1, 10)),
        stub_count=_maybe(rng, lambda: rng.randint(1, 40)),
        vendor_mix=_maybe(
            rng,
            lambda: tuple(
                (vendor, rng.uniform(0.05, 3.0))
                for vendor in _subset(rng, VENDORS)
            ),
        ),
        tagger_fraction=practice[0],
        cleaner_egress_fraction=practice[1],
        cleaner_ingress_fraction=practice[2],
        scrub_internal_fraction=_maybe(rng, rng.random),
        collector_peer_fraction=_maybe(rng, rng.random),
        collector_peer_clean_fraction=_maybe(rng, rng.random),
        include_route_server=_maybe(rng, lambda: rng.random() < 0.5),
        include_bogons=_maybe(rng, lambda: rng.random() < 0.5),
        beacon_count=_maybe(rng, lambda: rng.randint(0, 8)),
        link_flaps=_maybe(rng, lambda: rng.randint(0, 10)),
        prefix_flaps=_maybe(rng, lambda: rng.randint(0, 10)),
        med_churn_events=_maybe(rng, lambda: rng.randint(0, 10)),
        community_churn_events=_maybe(rng, lambda: rng.randint(0, 10)),
        prepend_change_events=_maybe(rng, lambda: rng.randint(0, 10)),
        collector_session_resets=_maybe(rng, lambda: rng.randint(0, 5)),
        mrai=_maybe(rng, lambda: rng.uniform(0.0, 60.0)),
        archive_policy=_maybe(
            rng,
            lambda: rng.choice(("full", "mrt-spill")),
        ),
        collector_names=_maybe(
            rng,
            lambda: tuple(
                f"rrc{rng.randrange(100):02d}"
                for _ in range(rng.randint(1, 3))
            ),
        ),
    )


def _mrt_section(rng: random.Random) -> MrtSpec:
    return MrtSpec(
        path=_maybe(rng, lambda: f"/data/{_name(rng)}.mrt"),
        collector=rng.choice(("mrt", "rrc00", "route-views2")),
        tolerant=rng.random() < 0.5,
    )


def random_spec(rng: random.Random) -> ScenarioSpec:
    """One randomized spec that must pass ``validate()``."""
    kind = rng.choice(("lab", "internet", "mrt"))
    sections = {
        "lab": _maybe(rng, lambda: _lab_section(rng), 0.8)
        if kind == "lab"
        else None,
        "internet": _maybe(rng, lambda: _internet_section(rng), 0.8)
        if kind == "internet"
        else None,
        "mrt": _maybe(rng, lambda: _mrt_section(rng), 0.8)
        if kind == "mrt"
        else None,
    }
    return ScenarioSpec(
        name=_name(rng),
        kind=kind,
        description=_maybe(rng, lambda: _name(rng), 0.5) or "",
        seed=rng.randrange(-(2**31), 2**31),
        duration=_maybe(rng, lambda: rng.uniform(1e-3, 86400.0)),
        collectors=_subset(rng, sorted(known_collector_names())),
        lab=sections["lab"],
        internet=sections["internet"],
        mrt=sections["mrt"],
    )


def _shuffle_keys(value, rng: random.Random):
    """Recursively rebuild dicts in a random insertion order."""
    if isinstance(value, dict):
        items = list(value.items())
        rng.shuffle(items)
        return {key: _shuffle_keys(item, rng) for key, item in items}
    if isinstance(value, list):
        return [_shuffle_keys(item, rng) for item in value]
    return value


@pytest.mark.parametrize("master_seed", MASTER_SEEDS)
def test_random_specs_are_valid(master_seed):
    rng = random.Random(master_seed)
    for _ in range(SPECS_PER_SEED):
        random_spec(rng).validate()


@pytest.mark.parametrize("master_seed", MASTER_SEEDS)
def test_json_round_trip_is_lossless(master_seed):
    rng = random.Random(master_seed)
    for _ in range(SPECS_PER_SEED):
        spec = random_spec(rng)
        rebuilt = spec_from_json(spec_to_json(spec))
        assert rebuilt == spec
        assert spec_hash(rebuilt) == spec_hash(spec)


@pytest.mark.parametrize("master_seed", MASTER_SEEDS)
def test_spec_hash_stable_under_key_reordering(master_seed):
    rng = random.Random(master_seed)
    for _ in range(SPECS_PER_SEED):
        spec = random_spec(rng)
        reference = spec_hash(spec)
        for _ in range(3):
            shuffled = _shuffle_keys(spec_to_dict(spec), rng)
            # Through the dict form and through unsorted JSON text:
            # the cache key must not care how the payload was ordered.
            assert spec_hash(spec_from_dict(shuffled)) == reference
            text = json.dumps(shuffled, sort_keys=False)
            assert spec_hash(spec_from_json(text)) == reference


@pytest.mark.parametrize("master_seed", MASTER_SEEDS)
def test_description_never_affects_the_hash(master_seed):
    rng = random.Random(master_seed)
    for _ in range(SPECS_PER_SEED):
        spec = random_spec(rng)
        from dataclasses import replace

        relabeled = replace(spec, description=_name(rng))
        assert spec_hash(relabeled) == spec_hash(spec)
