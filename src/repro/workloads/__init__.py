"""Synthetic workloads standing in for the paper's measurement data.

The paper analyzes RouteViews / RIPE RIS archives; offline we cannot
download them, so this package builds an internet-like topology,
assigns each AS realistic community practices (geo-tagging transits,
egress cleaners, blind propagators), drives it with a day of beacon
cycles and background routing events, and archives the collector feeds
— producing update streams with the same *mechanics* the paper
measures.  See DESIGN.md §2 for the substitution argument.
"""

from repro.workloads.registry import AllocationRegistry, AllocationRecord
from repro.workloads.topology_gen import (
    ASRole,
    ASSpec,
    AdjacencySpec,
    Relationship,
    TopologySpec,
    generate_topology,
    TopologyParams,
)
from repro.workloads.practices import (
    CommunityPractice,
    RelationshipImportPolicy,
    GaoRexfordExportFilter,
    ScrubInternalTags,
    REL_CUSTOMER,
    REL_PEER,
    REL_PROVIDER,
)
from repro.workloads.internet import (
    InternetModel,
    InternetConfig,
    SimulatedDay,
)
from repro.workloads.longitudinal import GrowthModel, sampled_days

__all__ = [
    "AllocationRegistry",
    "AllocationRecord",
    "ASRole",
    "ASSpec",
    "AdjacencySpec",
    "Relationship",
    "TopologySpec",
    "generate_topology",
    "TopologyParams",
    "CommunityPractice",
    "RelationshipImportPolicy",
    "GaoRexfordExportFilter",
    "ScrubInternalTags",
    "REL_CUSTOMER",
    "REL_PEER",
    "REL_PROVIDER",
    "InternetModel",
    "InternetConfig",
    "SimulatedDay",
    "GrowthModel",
    "sampled_days",
]
