"""The declarative scenario contract.

A :class:`ScenarioSpec` is the single self-contained description of one
experiment run: what to simulate (the §3 lab matrix or a synthetic
internet day), with which knobs (vendor mix, community practices,
damping/MRAI, topology scale, event schedule), which metrics to collect
and under which seed.  The spec is plain data — stdlib dataclasses
only, no third-party dependencies — so it can be hashed, serialized and
shipped to worker processes verbatim.

Validation is strict and happens *before* any network is built:
:meth:`ScenarioSpec.validate` walks every field, accumulates every
problem it finds and raises one :class:`ScenarioValidationError` whose
message lists them all, so a broken spec fails fast with actionable
errors instead of exploding mid-simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

#: The §3 lab experiments a lab scenario may select from.
LAB_EXPERIMENTS = ("exp1", "exp2", "exp3", "exp4")

#: Base configurations an internet scenario builds on.
INTERNET_SCALES = ("small", "mar20")

VALID_KINDS = ("lab", "internet", "mrt")


def _is_number(value) -> bool:
    """True for real int/float values (bool is not a number here)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class ScenarioValidationError(ValueError):
    """A spec failed validation; ``errors`` lists every problem."""

    def __init__(self, name: str, errors: "List[str]"):
        self.scenario_name = name
        self.errors = list(errors)
        details = "\n".join(f"  - {error}" for error in self.errors)
        super().__init__(
            f"invalid scenario {name!r} ({len(self.errors)} problem"
            f"{'s' if len(self.errors) != 1 else ''}):\n{details}"
        )


@dataclass(frozen=True)
class LabSpec:
    """Knobs for a §3 lab-matrix scenario (Figure 1 topology)."""

    #: Which experiments to run (subset of :data:`LAB_EXPERIMENTS`).
    experiments: "Tuple[str, ...]" = LAB_EXPERIMENTS
    #: Vendor profile names or aliases (see :mod:`repro.vendors`).
    vendors: "Tuple[str, ...]" = (
        "cisco",
        "ios-xr",
        "junos",
        "bird",
        "bird2",
    )
    #: Per-session MRAI seconds (0 disables pacing, as in the paper).
    mrai: float = 0.0


@dataclass(frozen=True)
class InternetSpec:
    """Knobs for a synthetic-internet measurement-day scenario.

    Every ``Optional`` field defaults to ``None``, meaning "keep the
    value of the base :attr:`scale` configuration"; only explicit
    overrides are recorded, which keeps spec hashes stable across
    unrelated default changes.
    """

    #: Base configuration: "small" (test-sized) or "mar20" (calibrated).
    scale: str = "small"
    #: Topology generator seed; ``None`` follows the scenario seed...
    #: except for the named base scales, which pin their own topology
    #: seed so the paper numbers stay reproducible.
    topology_seed: "Optional[int]" = None
    tier1_count: "Optional[int]" = None
    transit_count: "Optional[int]" = None
    stub_count: "Optional[int]" = None
    #: ``((vendor alias, weight), ...)``; weights need not sum to 1.
    vendor_mix: "Optional[Tuple[Tuple[str, float], ...]]" = None
    tagger_fraction: "Optional[float]" = None
    cleaner_egress_fraction: "Optional[float]" = None
    cleaner_ingress_fraction: "Optional[float]" = None
    scrub_internal_fraction: "Optional[float]" = None
    collector_peer_fraction: "Optional[float]" = None
    collector_peer_clean_fraction: "Optional[float]" = None
    include_route_server: "Optional[bool]" = None
    include_bogons: "Optional[bool]" = None
    beacon_count: "Optional[int]" = None
    link_flaps: "Optional[int]" = None
    prefix_flaps: "Optional[int]" = None
    med_churn_events: "Optional[int]" = None
    community_churn_events: "Optional[int]" = None
    prepend_change_events: "Optional[int]" = None
    collector_session_resets: "Optional[int]" = None
    mrai: "Optional[float]" = None
    #: Collector archive policy: exactly ``full`` or ``mrt-spill``
    #: (``None`` keeps the simulator default: ``full``).  With live
    #: metric sinks the analysis never touches the archive, so spill
    #: bounds collector memory without changing any metric.
    archive_policy: "Optional[str]" = None
    #: Collector names to instantiate (``None`` keeps the base
    #: scale's default pair).  A single-name tuple gives one archive
    #: file, which is what the mrt-replay round trip wants.
    collector_names: "Optional[Tuple[str, ...]]" = None


@dataclass(frozen=True)
class MrtSpec:
    """Knobs for an mrt-replay scenario: an on-disk archive — real
    RouteViews/RIS data or a file the simulator itself spilled —
    pushed through the identical observation/classification path a
    live run uses."""

    #: Archive path.  ``None`` at registration time; must be provided
    #: (e.g. via ``repro scenario run mrt-replay --input FILE``)
    #: before the scenario can run.
    path: "Optional[str]" = None
    #: Collector label stamped onto every observation's session key.
    collector: str = "mrt"
    #: Drop damaged records instead of raising (real archives contain
    #: occasional damage; the paper's pipeline drops rather than
    #: crashes).
    tolerant: bool = True


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully-described, reproducible experiment."""

    name: str
    kind: str  # "lab" | "internet" | "mrt"
    description: str = ""
    #: Master RNG seed; identical specs are bit-reproducible.
    seed: int = 0
    #: Simulated duration in seconds (internet scenarios; ``None`` runs
    #: the full measurement day).
    duration: "Optional[float]" = None
    #: Metric collectors to attach (names from
    #: :mod:`repro.scenarios.collectors`).
    collectors: "Tuple[str, ...]" = ("update_counts",)
    lab: "Optional[LabSpec]" = None
    internet: "Optional[InternetSpec]" = None
    mrt: "Optional[MrtSpec]" = None

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> "ScenarioSpec":
        """Check every field; raise :class:`ScenarioValidationError`
        listing *all* problems, or return self when clean."""
        errors: List[str] = []
        self._check_header(errors)
        self._check_collectors(errors)
        if self.kind == "lab":
            for label in ("internet", "mrt"):
                if getattr(self, label) is not None:
                    errors.append(
                        f"lab scenario must not carry an {label} section"
                    )
            self._check_lab(self.lab if self.lab else LabSpec(), errors)
        elif self.kind == "internet":
            for label in ("lab", "mrt"):
                if getattr(self, label) is not None:
                    errors.append(
                        f"internet scenario must not carry a {label} section"
                    )
            self._check_internet(
                self.internet if self.internet else InternetSpec(), errors
            )
        elif self.kind == "mrt":
            for label in ("lab", "internet"):
                if getattr(self, label) is not None:
                    errors.append(
                        f"mrt scenario must not carry a {label} section"
                    )
            self._check_mrt(self.mrt if self.mrt else MrtSpec(), errors)
        if errors:
            raise ScenarioValidationError(self.name or "<unnamed>", errors)
        return self

    def _check_header(self, errors: "List[str]") -> None:
        if not self.name or not str(self.name).strip():
            errors.append("name must be a non-empty string")
        if self.kind not in VALID_KINDS:
            errors.append(
                f"kind must be one of {VALID_KINDS}, got {self.kind!r}"
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            errors.append(f"seed must be an integer, got {self.seed!r}")
        if self.duration is not None and (
            not _is_number(self.duration) or self.duration <= 0
        ):
            errors.append(
                f"duration must be positive (seconds), got {self.duration!r}"
            )

    def _check_collectors(self, errors: "List[str]") -> None:
        from repro.scenarios.collectors import known_collector_names

        known = known_collector_names()
        if not self.collectors:
            errors.append("at least one collector is required")
        seen = set()
        for name in self.collectors:
            if name in seen:
                errors.append(f"duplicate collector: {name!r}")
            seen.add(name)
            if name not in known:
                errors.append(
                    f"unknown collector {name!r}; known collectors:"
                    f" {', '.join(sorted(known))}"
                )

    def _check_lab(self, lab: LabSpec, errors: "List[str]") -> None:
        if not lab.experiments:
            errors.append("lab.experiments must not be empty")
        for experiment in lab.experiments:
            if experiment not in LAB_EXPERIMENTS:
                errors.append(
                    f"unknown lab experiment {experiment!r}; choose from"
                    f" {LAB_EXPERIMENTS}"
                )
        if not lab.vendors:
            errors.append("lab.vendors must not be empty")
        for vendor in lab.vendors:
            _check_vendor_name(vendor, "lab.vendors", errors)
        if not _is_number(lab.mrai) or lab.mrai < 0:
            errors.append(f"lab.mrai must be >= 0, got {lab.mrai!r}")

    def _check_internet(
        self, internet: InternetSpec, errors: "List[str]"
    ) -> None:
        if internet.scale not in INTERNET_SCALES:
            errors.append(
                f"internet.scale must be one of {INTERNET_SCALES},"
                f" got {internet.scale!r}"
            )
        for label in ("tier1_count", "transit_count", "stub_count"):
            value = getattr(internet, label)
            if value is not None and (not _is_number(value) or value < 1):
                errors.append(f"internet.{label} must be >= 1, got {value!r}")
        fraction_fields = (
            "tagger_fraction",
            "cleaner_egress_fraction",
            "cleaner_ingress_fraction",
            "scrub_internal_fraction",
            "collector_peer_fraction",
            "collector_peer_clean_fraction",
        )
        fractions_ok = True
        for label in fraction_fields:
            value = getattr(internet, label)
            if value is not None and (
                not _is_number(value) or not 0.0 <= value <= 1.0
            ):
                errors.append(
                    f"internet.{label} must be within [0, 1], got {value!r}"
                )
                fractions_ok = False
        if fractions_ok and internet.scale in INTERNET_SCALES:
            # Check the practice split as it will actually materialize:
            # overrides merged onto the base scale's defaults, so a
            # partial override cannot silently push the sum past 1.
            effective_sum = sum(
                self._effective_fraction(internet, label)
                for label in (
                    "tagger_fraction",
                    "cleaner_egress_fraction",
                    "cleaner_ingress_fraction",
                )
            )
            if effective_sum > 1.0 + 1e-9:
                errors.append(
                    "internet practice fractions (tagger + cleaner_egress"
                    " + cleaner_ingress, with base-scale defaults for"
                    f" unset fields) must sum to <= 1, got"
                    f" {effective_sum:.3f}"
                )
        count_fields = (
            "beacon_count",
            "link_flaps",
            "prefix_flaps",
            "med_churn_events",
            "community_churn_events",
            "prepend_change_events",
            "collector_session_resets",
        )
        for label in count_fields:
            value = getattr(internet, label)
            if value is not None and (not _is_number(value) or value < 0):
                errors.append(f"internet.{label} must be >= 0, got {value!r}")
        if internet.mrai is not None and (
            not _is_number(internet.mrai) or internet.mrai < 0
        ):
            errors.append(
                f"internet.mrai must be >= 0, got {internet.mrai!r}"
            )
        if internet.archive_policy is not None:
            from repro.pipeline.sinks import parse_archive_policy

            try:
                parse_archive_policy(internet.archive_policy)
            except ValueError as exc:
                errors.append(f"internet.archive_policy: {exc}")
        if internet.collector_names is not None:
            if not internet.collector_names:
                errors.append("internet.collector_names must not be empty")
            for name in internet.collector_names:
                if not isinstance(name, str) or not name.strip():
                    errors.append(
                        f"internet.collector_names entries must be"
                        f" non-empty strings, got {name!r}"
                    )
        if internet.vendor_mix is not None:
            if not internet.vendor_mix:
                errors.append("internet.vendor_mix must not be empty")
            for entry in internet.vendor_mix:
                try:
                    vendor, weight = entry
                except (TypeError, ValueError):
                    errors.append(
                        f"internet.vendor_mix entries must be"
                        f" (vendor, weight) pairs, got {entry!r}"
                    )
                    continue
                _check_vendor_name(vendor, "internet.vendor_mix", errors)
                if not _is_number(weight) or weight <= 0:
                    errors.append(
                        f"internet.vendor_mix weight for {vendor!r} must be"
                        f" > 0, got {weight!r}"
                    )


    def _check_mrt(self, mrt: "MrtSpec", errors: "List[str]") -> None:
        if mrt.path is not None and (
            not isinstance(mrt.path, str) or not mrt.path.strip()
        ):
            errors.append(
                f"mrt.path must be a non-empty string or None,"
                f" got {mrt.path!r}"
            )
        if not isinstance(mrt.collector, str) or not mrt.collector.strip():
            errors.append(
                f"mrt.collector must be a non-empty string,"
                f" got {mrt.collector!r}"
            )
        if not isinstance(mrt.tolerant, bool):
            errors.append(
                f"mrt.tolerant must be a boolean, got {mrt.tolerant!r}"
            )

    @staticmethod
    def _effective_fraction(internet: InternetSpec, label: str) -> float:
        """The fraction as the engine will materialize it: the spec
        override when set, else the base scale's default."""
        value = getattr(internet, label)
        if value is not None:
            return value
        from repro.workloads.internet import InternetConfig

        if internet.scale == "small":
            base = InternetConfig.small()
        else:
            base = InternetConfig.mar20()
        return getattr(base, label)


def _check_vendor_name(vendor: str, where: str, errors: "List[str]") -> None:
    from repro.vendors.profiles import profile_by_name

    if not isinstance(vendor, str):
        errors.append(
            f"vendor names in {where} must be strings, got {vendor!r}"
        )
        return
    try:
        profile_by_name(vendor)
    except KeyError:
        errors.append(
            f"unknown vendor {vendor!r} in {where}; use a profile name"
            " or alias such as cisco, ios-xr, junos, bird, bird2"
        )
