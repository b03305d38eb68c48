"""Policy engine: composable import/export transform chains.

A :class:`PolicyStep` maps ``(PathAttributes, PolicyContext)`` to new
attributes or ``None`` (reject).  A :class:`PolicyChain` applies steps
in order, short-circuiting on rejection.  A :class:`RoutingPolicy`
bundles an import chain and an export chain for one BGP neighbor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

from repro.bgp.attributes import PathAttributes
from repro.netbase.asn import ASN
from repro.netbase.prefix import Prefix


class PolicyContext(NamedTuple):
    """Facts a policy step may consult.

    ``local_asn`` is the AS applying the policy; ``prefix`` is the
    route's destination; ``ingress_point`` names the router/location
    where the route enters the AS (geo-taggers encode it; ``None`` on
    export).  No field names the peer, so update groups can share one.
    """

    local_asn: ASN
    prefix: Prefix
    ingress_point: Optional[str] = None
    is_ebgp: bool = True


class PolicyStep:
    """Base class: one attribute transform.

    Subclasses override :meth:`apply`; returning ``None`` rejects the
    route, any other value replaces the attribute set.

    A router runs a shared export chain once per update group (see
    :mod:`repro.simulator.router`), so an export step must depend only
    on its configuration, the attributes and the context, and must not
    rewrite NEXT_HOP.
    """

    def apply(
        self, attributes: PathAttributes, context: PolicyContext
    ) -> "PathAttributes | None":
        """Transform *attributes*; None rejects the route."""
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable description for configuration dumps."""
        return type(self).__name__

    def __repr__(self) -> str:
        return f"<{self.describe()}>"


class AcceptAll(PolicyStep):
    """Identity transform (the default import/export policy)."""

    def apply(self, attributes, context):
        return attributes


class RejectAll(PolicyStep):
    """Reject every route (session filtering)."""

    def apply(self, attributes, context):
        return None


class PolicyChain:
    """An ordered list of steps applied left to right."""

    __slots__ = ("_steps",)

    def __init__(self, steps: Iterable[PolicyStep] = ()):
        self._steps = tuple(steps)
        for step in self._steps:
            if not isinstance(step, PolicyStep):
                raise TypeError(f"not a PolicyStep: {step!r}")

    @property
    def steps(self) -> tuple:
        """The steps in application order."""
        return self._steps

    def apply(
        self, attributes: PathAttributes, context: PolicyContext
    ) -> "PathAttributes | None":
        """Run the chain; None when any step rejects."""
        current = attributes
        for step in self._steps:
            current = step.apply(current, context)
            if current is None:
                return None
        return current

    def then(self, *steps: PolicyStep) -> "PolicyChain":
        """Return a new chain with *steps* appended."""
        return PolicyChain(self._steps + steps)

    def describe(self) -> str:
        """Render the chain as ``step -> step -> ...``."""
        if not self._steps:
            return "accept"
        return " -> ".join(step.describe() for step in self._steps)

    def __len__(self) -> int:
        return len(self._steps)

    def __repr__(self) -> str:
        return f"PolicyChain({self.describe()})"


@dataclass
class RoutingPolicy:
    """Per-neighbor import and export chains (by default the shared,
    immutable accept chains)."""

    import_chain: PolicyChain = PolicyChain()
    export_chain: PolicyChain = PolicyChain()

    @classmethod
    def permissive(cls) -> "RoutingPolicy":
        """Accept and propagate everything unchanged.

        This is the paper's "no community filtering" default that makes
        community exploration visible at collectors.
        """
        return cls()

    def describe(self) -> str:
        """Render both chains for configuration dumps."""
        return (
            f"import: {self.import_chain.describe()};"
            f" export: {self.export_chain.describe()}"
        )
