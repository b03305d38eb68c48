"""The §4 data-preparation pipeline.

    "Using current and historical allocation information from the
     regional registries, we remove BGP messages that contain an
     unallocated ASN or prefix at the time of the message. [...] we add
     the ASN of the route server to the AS path.  Finally, some BGP
     collectors only record messages at the single second granularity.
     When multiple messages arrive in the same second [...] we preserve
     the message ordering and assume that each subsequent message
     arrives 0.01ms after the last."

The pipeline operates on ordered observation feeds and is pure: it
yields new observations and a :class:`CleaningReport` of what it did.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Protocol

from repro.analysis.observations import Observation
from repro.netbase.asn import AS_TRANS, ASN
from repro.netbase.memo import bounded_store, memo_counters
from repro.netbase.prefix import Prefix

#: The paper's disambiguation step: 0.01 ms.
SAME_SECOND_STEP = 0.00001

#: Bound for the per-pipeline AS-path memo (cleared wholesale).
_PATH_MEMO_LIMIT = 65536

#: The scan memos are per-pipeline; their effectiveness counters are
#: process-wide like every other named memo's.
_PATH_INFO_STATS = memo_counters("cleaning.path_info")
_PEER_INFO_STATS = memo_counters("cleaning.peer_info")


class AllocationOracle(Protocol):
    """What the pipeline needs to know about registry history."""

    def asn_allocated(self, asn: int, when: float) -> bool:
        """Was *asn* allocated at time *when*?"""
        ...

    def prefix_allocated(self, prefix: Prefix, when: float) -> bool:
        """Was *prefix* (or a covering block) allocated at *when*?"""
        ...


class AcceptEverything:
    """Oracle that treats all resources as allocated (no registry)."""

    def asn_allocated(self, asn: int, when: float) -> bool:
        return True

    def prefix_allocated(self, prefix: Prefix, when: float) -> bool:
        return True


@dataclass
class CleaningReport:
    """What the pipeline removed or repaired."""

    input_observations: int = 0
    output_observations: int = 0
    dropped_unallocated_asn: int = 0
    dropped_unallocated_prefix: int = 0
    dropped_reserved_asn: int = 0
    dropped_long_prefix: int = 0
    repaired_route_server_paths: int = 0
    disambiguated_timestamps: int = 0
    route_server_peers: "set" = field(default_factory=set)

    @property
    def dropped_total(self) -> int:
        """All removed observations."""
        return (
            self.dropped_unallocated_asn
            + self.dropped_unallocated_prefix
            + self.dropped_reserved_asn
            + self.dropped_long_prefix
        )

    def summary(self) -> str:
        """One-line human-readable report."""
        return (
            f"cleaned {self.input_observations} -> "
            f"{self.output_observations} observations "
            f"(dropped {self.dropped_total}, repaired "
            f"{self.repaired_route_server_paths} route-server paths, "
            f"disambiguated {self.disambiguated_timestamps} timestamps)"
        )


class CleaningPipeline:
    """Configurable implementation of the §4 preparation steps."""

    def __init__(
        self,
        *,
        oracle: Optional[AllocationOracle] = None,
        drop_reserved_asns: bool = True,
        max_prefix_length_v4: Optional[int] = None,
        repair_route_server_paths: bool = True,
        disambiguate_same_second: bool = True,
        same_second_step: float = SAME_SECOND_STEP,
    ):
        self._oracle = oracle or AcceptEverything()
        self._drop_reserved = drop_reserved_asns
        self._max_length_v4 = max_prefix_length_v4
        self._repair_route_servers = repair_route_server_paths
        self._disambiguate = disambiguate_same_second
        self._step = same_second_step
        # Hot-path memos.  The oracle fast path only fires for the
        # exact no-registry class (a subclass may override per-time
        # behavior); the AS-path memo keys on the interned path objects
        # the decode layer hands us, so the reserved/involved scan runs
        # once per distinct path instead of once per observation.
        self._oracle_accepts_all = type(self._oracle) is AcceptEverything
        self._path_info: dict = {}  # ASPath -> (distinct asns, flagged)
        self._peer_info: dict = {}  # int -> (ASN, flagged)

    def run(
        self, observations: Iterable[Observation]
    ) -> "tuple[List[Observation], CleaningReport]":
        """Apply every enabled step; returns (cleaned, report).

        Batch wrapper over :meth:`stream` — results are bit-identical
        because every step is a single order-preserving pass.
        """
        report = CleaningReport()
        cleaned = list(self.stream(observations, report))
        return cleaned, report

    def stream(
        self,
        observations: Iterable[Observation],
        report: "Optional[CleaningReport]" = None,
    ) -> Iterator[Observation]:
        """Incrementally clean an ordered feed, one observation at a
        time (bounded memory: the disambiguation state is one
        ``(second, timestamp)`` pair per collector, see
        :meth:`_disambiguate_one`).  *report* is updated as
        observations flow, so a live pipeline can inspect it mid-run."""
        if report is None:
            report = CleaningReport()
        last_by_collector: dict = {}
        for observation in observations:
            report.input_observations += 1
            result = self._clean_one(observation, report)
            if result is None:
                continue
            if self._disambiguate:
                result = self._disambiguate_one(
                    result, last_by_collector, report
                )
            report.output_observations += 1
            yield result

    def sink(
        self,
        downstream,
        report: "Optional[CleaningReport]" = None,
    ) -> "CleaningSink":
        """A push-based form of :meth:`stream` for sink pipelines."""
        return CleaningSink(self, downstream, report=report)

    def _clean_one(
        self, observation: Observation, report: CleaningReport
    ) -> Optional[Observation]:
        when = observation.timestamp
        if (
            self._max_length_v4 is not None
            and observation.prefix.version == 4
            and observation.prefix.length > self._max_length_v4
        ):
            report.dropped_long_prefix += 1
            return None
        if not self._oracle_accepts_all and not self._oracle.prefix_allocated(
            observation.prefix, when
        ):
            report.dropped_unallocated_prefix += 1
            return None
        as_path = observation.as_path
        if as_path is not None:
            path_info = self._path_info.get(as_path)
            if path_info is None:
                distinct = frozenset(as_path.asns())
                flagged = any(
                    asn.is_reserved or asn == AS_TRANS for asn in distinct
                )
                path_info = bounded_store(
                    self._path_info, as_path, (distinct, flagged),
                    _PATH_MEMO_LIMIT, _PATH_INFO_STATS,
                )
            else:
                _PATH_INFO_STATS.hits += 1
            path_asns, path_flagged = path_info
        else:
            path_asns, path_flagged = (), False
        peer_info = self._peer_info.get(observation.session.peer_asn)
        if peer_info is None:
            peer = ASN(observation.session.peer_asn)
            peer_info = bounded_store(
                self._peer_info,
                int(peer),
                (peer, bool(peer.is_reserved or peer == AS_TRANS)),
                _PATH_MEMO_LIMIT, _PEER_INFO_STATS,
            )
        else:
            _PEER_INFO_STATS.hits += 1
        peer, peer_flagged = peer_info
        if self._drop_reserved and (path_flagged or peer_flagged):
            report.dropped_reserved_asn += 1
            return None
        if not self._oracle_accepts_all and (
            not self._oracle.asn_allocated(int(peer), when)
            or any(
                not self._oracle.asn_allocated(int(asn), when)
                for asn in path_asns
            )
        ):
            report.dropped_unallocated_asn += 1
            return None
        if (
            self._repair_route_servers
            and observation.is_announcement
            and as_path is not None
            and not as_path.is_empty()
        ):
            if observation.as_path.first_asn != peer:
                report.repaired_route_server_paths += 1
                report.route_server_peers.add(observation.session)
                return observation.with_as_path(
                    observation.as_path.prepend(peer)
                )
        return observation

    # ------------------------------------------------------------------
    # timestamp disambiguation
    # ------------------------------------------------------------------
    def _disambiguate_one(
        self,
        observation: Observation,
        last_by_collector: dict,
        report: CleaningReport,
    ) -> Observation:
        """Spread same-second arrivals by the configured step.

        Input order is preserved; only timestamps recorded at
        whole-second granularity are touched.  Messages that already
        carry sub-second precision are assumed disambiguated by the
        collector.

        *last_by_collector* maps each collector to one ``(second,
        last timestamp)`` pair, replaced when the collector's next
        whole-second arrival falls in a different second.  On a
        time-ordered feed that is the same as remembering every second
        ever seen.  A feed that goes back in time restarts the
        revisited second instead: its first arrival keeps its own
        timestamp, and the step counts up again from there.
        """
        timestamp = observation.timestamp
        second = int(timestamp)
        if timestamp != second:
            return observation
        collector = observation.session.collector
        state = last_by_collector.get(collector)
        if state is None or state[0] != second:
            last_by_collector[collector] = (second, timestamp)
            return observation
        adjusted = state[1] + self._step
        last_by_collector[collector] = (second, adjusted)
        report.disambiguated_timestamps += 1
        return observation.shifted(adjusted)


class CleaningSink:
    """Push-based cleaning stage: clean each observation as it
    arrives and forward survivors downstream."""

    def __init__(
        self,
        pipeline: CleaningPipeline,
        downstream,
        *,
        report: "Optional[CleaningReport]" = None,
    ):
        self._pipeline = pipeline
        self.downstream = downstream
        self.report = report if report is not None else CleaningReport()
        self._last_by_collector: dict = {}

    def push(self, observation: Observation) -> None:
        pipeline = self._pipeline
        self.report.input_observations += 1
        result = pipeline._clean_one(observation, self.report)
        if result is None:
            return
        if pipeline._disambiguate:
            result = pipeline._disambiguate_one(
                result, self._last_by_collector, self.report
            )
        self.report.output_observations += 1
        self.downstream.push(result)

    def close(self) -> None:
        self.downstream.close()
