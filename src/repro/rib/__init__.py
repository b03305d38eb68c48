"""Routing information bases and the BGP decision process.

A router (in :mod:`repro.simulator`) owns one :class:`AdjRIBIn` per
peer, one :class:`LocRIB`, and one :class:`AdjRIBOut` per peer.  The
duplicate-update phenomenon the paper studies lives precisely in the
seam between Loc-RIB changes and Adj-RIB-Out comparison — see
:mod:`repro.vendors` for how implementations differ.
"""

from repro.rib.route import Route, RouteSource
from repro.rib.adj_rib import AdjRIBIn, AdjRIBOut
from repro.rib.loc_rib import LocRIB
from repro.rib.decision import DecisionProcess, DecisionConfig

__all__ = [
    "Route",
    "RouteSource",
    "AdjRIBIn",
    "AdjRIBOut",
    "LocRIB",
    "DecisionProcess",
    "DecisionConfig",
]
