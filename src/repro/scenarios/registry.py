"""Named-scenario registry.

Scenarios register by decorating a zero-argument factory with
:func:`scenario`; the factory returns a validated
:class:`ScenarioSpec`.  Factories (not spec instances) are stored so a
lookup always hands out a fresh, immutable spec and import order never
matters.

The built-in catalog covers the paper's matrix — the §3 lab
experiments and the *d_mar20*-style measurement day — plus the
what-ifs the ROADMAP asks for: mixed-vendor internets, community
scrubbing sweeps, beacon-density sweeps and a topology-scale ladder.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List

from repro.scenarios.spec import (
    InternetSpec,
    LabSpec,
    MrtSpec,
    ScenarioSpec,
)

_FACTORIES: "Dict[str, Callable[[], ScenarioSpec]]" = {}

#: Collector stack for internet scenarios (the paper's result set).
INTERNET_COLLECTORS = (
    "update_counts",
    "community_prevalence",
    "duplicates",
    "table1",
    "table2",
)


#: Collector stack of the ``paper`` scenario: every single-day artifact.
PAPER_COLLECTORS = (
    "update_counts",
    "table1",
    "table2",
    "damping",
    "beacon_sessions",
    "beacon_phases",
    "revealed",
    "tomography",
)


class UnknownScenarioError(KeyError):
    """Raised when looking up a name nobody registered."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(
            f"unknown scenario {name!r}; run 'repro scenario list' or use"
            f" one of: {', '.join(scenario_names())}"
        )


def scenario(
    factory: "Callable[[], ScenarioSpec]",
) -> "Callable[[], ScenarioSpec]":
    """Register a scenario factory under the name of the spec it builds."""
    spec = factory()
    if spec.name in _FACTORIES:
        raise ValueError(f"duplicate scenario name: {spec.name!r}")
    spec.validate()
    _FACTORIES[spec.name] = factory
    return factory


def register(name: str, factory: "Callable[[], ScenarioSpec]") -> None:
    """Imperative registration (for tests and ad-hoc catalogs)."""
    if name in _FACTORIES:
        raise ValueError(f"duplicate scenario name: {name!r}")
    _FACTORIES[name] = factory


def unregister(name: str) -> None:
    """Remove a registration (test cleanup)."""
    _FACTORIES.pop(name, None)


def get_scenario(name: str) -> ScenarioSpec:
    """A fresh validated spec for *name*."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise UnknownScenarioError(name) from None
    return factory().validate()


def scenario_names() -> "List[str]":
    """All registered names, sorted."""
    return sorted(_FACTORIES)


def all_scenarios() -> "List[ScenarioSpec]":
    """Fresh specs for the whole catalog, name-ordered."""
    return [get_scenario(name) for name in scenario_names()]


# ----------------------------------------------------------------------
# built-in catalog: the paper's matrix
# ----------------------------------------------------------------------
@scenario
def lab_baseline() -> ScenarioSpec:
    return ScenarioSpec(
        name="lab-baseline",
        kind="lab",
        description=(
            "§3 behavior matrix: Exp1-Exp4 across all five tested"
            " router implementations"
        ),
        lab=LabSpec(),
        collectors=("lab_matrix",),
    )


@scenario
def lab_junos() -> ScenarioSpec:
    return ScenarioSpec(
        name="lab-junos",
        kind="lab",
        description=(
            "§3 matrix restricted to Junos, the only implementation"
            " that deduplicates against Adj-RIB-Out"
        ),
        lab=LabSpec(vendors=("junos",)),
        collectors=("lab_matrix",),
    )


@scenario
def lab_mrai_paced() -> ScenarioSpec:
    return ScenarioSpec(
        name="lab-mrai-paced",
        kind="lab",
        description=(
            "what-if: the lab matrix with a 30s MRAI on every session"
            " (the paper runs unpaced)"
        ),
        lab=LabSpec(mrai=30.0),
        collectors=("lab_matrix",),
    )


@scenario
def internet_small() -> ScenarioSpec:
    return ScenarioSpec(
        name="internet-small",
        kind="internet",
        description=(
            "test-sized synthetic internet day (tens of ASes);"
            " reproduces the seed Table 1/2 numbers"
        ),
        seed=7,
        internet=InternetSpec(scale="small"),
        collectors=INTERNET_COLLECTORS,
    )


@scenario
def internet_mar20() -> ScenarioSpec:
    return ScenarioSpec(
        name="internet-mar20",
        kind="internet",
        description=(
            "the calibrated d_mar20-like measurement day (medium"
            " scale, slow: minutes)"
        ),
        seed=424242,
        internet=InternetSpec(scale="mar20", topology_seed=20200315),
        collectors=INTERNET_COLLECTORS,
    )


@scenario
def paper() -> ScenarioSpec:
    return replace(
        internet_mar20(),
        name="paper",
        description=(
            "internet-mar20 with every single-day paper artifact:"
            " Tables 1-2, Figs 3-5, Fig 6's day, A4 and A5 (slow)"
        ),
        collectors=PAPER_COLLECTORS,
    )


# ----------------------------------------------------------------------
# what-ifs: vendor mixes
# ----------------------------------------------------------------------
@scenario
def internet_all_cisco() -> ScenarioSpec:
    return ScenarioSpec(
        name="internet-all-cisco",
        kind="internet",
        description=(
            "what-if: every router runs a non-deduplicating stack"
            " (upper bound on nn duplicates)"
        ),
        seed=7,
        internet=InternetSpec(vendor_mix=(("cisco", 1.0),)),
        collectors=INTERNET_COLLECTORS,
    )


@scenario
def internet_all_junos() -> ScenarioSpec:
    return ScenarioSpec(
        name="internet-all-junos",
        kind="internet",
        description=(
            "what-if: an all-Junos internet (fleet-wide duplicate"
            " suppression, lower bound on nn)"
        ),
        seed=7,
        internet=InternetSpec(vendor_mix=(("junos", 1.0),)),
        collectors=INTERNET_COLLECTORS,
    )


@scenario
def internet_vendor_even() -> ScenarioSpec:
    return ScenarioSpec(
        name="internet-vendor-even",
        kind="internet",
        description=(
            "what-if: all five implementations deployed in equal"
            " shares"
        ),
        seed=7,
        internet=InternetSpec(
            vendor_mix=(
                ("cisco", 1.0),
                ("ios-xr", 1.0),
                ("junos", 1.0),
                ("bird", 1.0),
                ("bird2", 1.0),
            )
        ),
        collectors=INTERNET_COLLECTORS,
    )


# ----------------------------------------------------------------------
# what-ifs: community hygiene sweeps
# ----------------------------------------------------------------------
@scenario
def scrub_none() -> ScenarioSpec:
    return ScenarioSpec(
        name="scrub-none",
        kind="internet",
        description=(
            "scrubbing sweep, low end: nobody scrubs internal tags,"
            " nobody cleans at ingress/egress"
        ),
        seed=7,
        internet=InternetSpec(
            scrub_internal_fraction=0.0,
            cleaner_egress_fraction=0.0,
            cleaner_ingress_fraction=0.0,
            tagger_fraction=0.9,
        ),
        collectors=INTERNET_COLLECTORS,
    )


@scenario
def scrub_heavy() -> ScenarioSpec:
    return ScenarioSpec(
        name="scrub-heavy",
        kind="internet",
        description=(
            "scrubbing sweep, high end: universal internal-tag"
            " scrubbing and widespread egress cleaning (nn factory)"
        ),
        seed=7,
        internet=InternetSpec(
            scrub_internal_fraction=1.0,
            cleaner_egress_fraction=0.45,
            cleaner_ingress_fraction=0.05,
            tagger_fraction=0.5,
        ),
        collectors=INTERNET_COLLECTORS,
    )


@scenario
def ingress_cleaning_internet() -> ScenarioSpec:
    return ScenarioSpec(
        name="ingress-cleaning-internet",
        kind="internet",
        description=(
            "the paper's recommendation at scale: cleaners filter on"
            " ingress instead of egress"
        ),
        seed=7,
        internet=InternetSpec(
            tagger_fraction=0.80,
            cleaner_egress_fraction=0.0,
            cleaner_ingress_fraction=0.18,
        ),
        collectors=INTERNET_COLLECTORS,
    )


# ----------------------------------------------------------------------
# what-ifs: beacon density and damping
# ----------------------------------------------------------------------
@scenario
def beacons_dense() -> ScenarioSpec:
    return ScenarioSpec(
        name="beacons-dense",
        kind="internet",
        description=(
            "beacon-density sweep: triple the beacon prefixes on the"
            " small internet"
        ),
        seed=7,
        internet=InternetSpec(beacon_count=6),
        collectors=INTERNET_COLLECTORS,
    )


@scenario
def damping_replay() -> ScenarioSpec:
    return ScenarioSpec(
        name="damping-replay",
        kind="internet",
        description=(
            "what-if: RFC 2439 route-flap damping replayed over the"
            " collector feed (the A5 ablation as a scenario)"
        ),
        seed=7,
        internet=InternetSpec(),
        collectors=("update_counts", "duplicates", "damping"),
    )


# ----------------------------------------------------------------------
# mrt-replay: on-disk archives through the live analysis path
# ----------------------------------------------------------------------
@scenario
def mrt_replay() -> ScenarioSpec:
    return ScenarioSpec(
        name="mrt-replay",
        kind="mrt",
        description=(
            "replay an MRT update archive (real RouteViews/RIS data or"
            " a simulator-spilled file) through the observation +"
            " classification pipeline; needs --input FILE"
        ),
        mrt=MrtSpec(),
        collectors=INTERNET_COLLECTORS,
    )


@scenario
def mrt_replay_strict() -> ScenarioSpec:
    return ScenarioSpec(
        name="mrt-replay-strict",
        kind="mrt",
        description=(
            "mrt-replay that fails on damaged records instead of"
            " dropping them (integrity checking for simulator-spilled"
            " archives); needs --input FILE"
        ),
        mrt=MrtSpec(tolerant=False),
        collectors=INTERNET_COLLECTORS,
    )


@scenario
def internet_small_spill() -> ScenarioSpec:
    return ScenarioSpec(
        name="internet-small-spill",
        kind="internet",
        description=(
            "the small internet day with a single collector spilling"
            " its archive to disk (bounded memory; pairs with"
            " mrt-replay for the round-trip check)"
        ),
        seed=7,
        internet=InternetSpec(
            scale="small",
            archive_policy="mrt-spill",
            collector_names=("rrc00",),
        ),
        collectors=INTERNET_COLLECTORS,
    )


# ----------------------------------------------------------------------
# topology-scale ladder
# ----------------------------------------------------------------------
@scenario
def topology_tiny() -> ScenarioSpec:
    return ScenarioSpec(
        name="topology-tiny",
        kind="internet",
        description="scale ladder rung 1: a handful of ASes (CI smoke)",
        seed=7,
        internet=InternetSpec(
            tier1_count=2,
            transit_count=3,
            stub_count=6,
            beacon_count=1,
            link_flaps=3,
            prefix_flaps=2,
            med_churn_events=3,
            community_churn_events=4,
            prepend_change_events=1,
            collector_session_resets=2,
        ),
        collectors=INTERNET_COLLECTORS,
    )


@scenario
def topology_medium() -> ScenarioSpec:
    return ScenarioSpec(
        name="topology-medium",
        kind="internet",
        description="scale ladder rung 2: ~40 ASes",
        seed=7,
        internet=InternetSpec(
            tier1_count=3, transit_count=8, stub_count=30
        ),
        collectors=INTERNET_COLLECTORS,
    )


@scenario
def topology_large() -> ScenarioSpec:
    return ScenarioSpec(
        name="topology-large",
        kind="internet",
        description="scale ladder rung 3: ~120 ASes (slow)",
        seed=7,
        internet=InternetSpec(
            tier1_count=4, transit_count=18, stub_count=100
        ),
        collectors=INTERNET_COLLECTORS,
    )
