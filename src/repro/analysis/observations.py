"""Per-prefix observations and per-session streams.

The paper's unit of analysis is not the UPDATE message (which may carry
several prefixes) but the *(session, prefix)* observation: "we first
group them by the prefix and the BGP session of a peer AS / next-hop,
in arriving order" (§5).  :func:`explode_update` flattens messages,
:func:`group_into_streams` builds the ordered per-key streams every
later stage consumes.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional

from repro.bgp.aspath import ASPath
from repro.bgp.community import CommunitySet
from repro.bgp.message import UpdateMessage
from repro.mrt.records import Bgp4mpMessage
from repro.netbase.asn import ASN
from repro.netbase.prefix import Prefix


class ObservationKind(enum.Enum):
    """Announcement or withdrawal."""

    ANNOUNCE = "announce"
    WITHDRAW = "withdraw"


# The per-observation paths read members through these aliases: on
# Python 3.11 every ``ObservationKind.X`` lookup runs the Python-level
# ``EnumType.__getattr__`` hook.
_ANNOUNCE = ObservationKind.ANNOUNCE
_WITHDRAW = ObservationKind.WITHDRAW


class SessionKey(NamedTuple):
    """Identity of one BGP session at one collector.

    A named tuple, so hashing and equality run in C; its hash is the
    hash of the plain field tuple.
    """

    collector: str
    peer_asn: int
    peer_address: str

    def __str__(self) -> str:
        return f"{self.collector}:{self.peer_asn}@{self.peer_address}"


class Observation(NamedTuple):
    """One per-prefix event as seen by a collector session.

    A named tuple: one is built per (message, prefix), and building,
    hashing and comparing one are tuple operations.
    """

    timestamp: float
    session: SessionKey
    prefix: Prefix
    kind: ObservationKind
    as_path: Optional[ASPath] = None
    communities: CommunitySet = CommunitySet.empty()
    med: Optional[int] = None

    @property
    def is_announcement(self) -> bool:
        """True for announcements."""
        return self.kind is _ANNOUNCE

    @property
    def is_withdrawal(self) -> bool:
        """True for withdrawals."""
        return self.kind is _WITHDRAW

    def stream_key(self) -> "tuple[SessionKey, Prefix]":
        """The (session, prefix) grouping key of §5."""
        return (self.session, self.prefix)

    def shifted(self, new_timestamp: float) -> "Observation":
        """Copy with a different timestamp (cleaning pipeline)."""
        return self._replace(timestamp=new_timestamp)

    def with_as_path(self, as_path: ASPath) -> "Observation":
        """Copy with a repaired AS path (route-server fix-up)."""
        return self._replace(as_path=as_path)


_new_tuple = tuple.__new__
_NO_COMMUNITIES = Observation._field_defaults["communities"]


def explode_update(
    timestamp: float,
    session: SessionKey,
    message: UpdateMessage,
) -> "tuple[Observation, ...]":
    """Flatten one UPDATE into its per-prefix observations.

    Withdrawals come first, matching wire order within a message.
    """
    # Built with tuple.__new__ and every field given: the named tuple's
    # own constructor is a Python-level call, once per (message,
    # prefix).
    observations = []
    for prefix in message.withdrawn:
        observations.append(
            _new_tuple(
                Observation,
                (timestamp, session, prefix, _WITHDRAW, None,
                 _NO_COMMUNITIES, None),
            )
        )
    announced = message.announced
    if announced:
        attributes = message.attributes
        assert attributes is not None
        tail = (
            _ANNOUNCE,
            attributes.as_path,
            attributes.communities,
            attributes.med,
        )
        for prefix in announced:
            observations.append(
                _new_tuple(Observation, (timestamp, session, prefix) + tail)
            )
    return tuple(observations)


def observations_from_collector(collector) -> Iterator[Observation]:
    """Observations from a simulated collector archive (arrival order)."""
    for record in collector.records:
        session = SessionKey(
            collector=record.collector,
            peer_asn=int(record.peer_asn),
            peer_address=record.peer_address,
        )
        yield from explode_update(record.timestamp, session, record.message)


def observations_from_mrt(
    records: Iterable[Bgp4mpMessage], collector: str
) -> Iterator[Observation]:
    """Observations from MRT records (e.g. a parsed archive file)."""
    for record in records:
        if not isinstance(record.message, UpdateMessage):
            continue
        session = SessionKey(
            collector=collector,
            peer_asn=int(record.peer_asn),
            peer_address=record.peer_address,
        )
        yield from explode_update(record.timestamp, session, record.message)


class StreamGrouper:
    """Incremental (session, prefix) grouper — the online form of
    :func:`group_into_streams`.

    Push observations in arrival order; :attr:`streams` is always the
    grouping of everything seen so far, so a live pipeline can inspect
    per-stream state mid-run instead of waiting for the feed to end.
    Usable directly as a pipeline sink (``push``/``close``).
    """

    def __init__(self):
        self.streams: "Dict[tuple, List[Observation]]" = {}
        self.observations = 0

    def push(self, observation: Observation) -> "tuple":
        """Add one observation; returns its stream key."""
        key = observation.stream_key()
        self.streams.setdefault(key, []).append(observation)
        self.observations += 1
        return key

    def close(self) -> None:
        """Pipeline sink hook; grouping state needs no finalization."""

    def stream(self, key: "tuple") -> "List[Observation]":
        """One stream's observations so far (empty if unseen)."""
        return self.streams.get(key, [])


def group_into_streams(
    observations: Iterable[Observation],
) -> "Dict[tuple, List[Observation]]":
    """Group observations by (session, prefix), preserving order.

    The input must already be in arrival order (collector archives and
    MRT files are); each output list is then automatically ordered.
    Batch wrapper over :class:`StreamGrouper`.
    """
    grouper = StreamGrouper()
    for observation in observations:
        grouper.push(observation)
    return grouper.streams


def peer_ases(observations: Iterable[Observation]) -> "set[ASN]":
    """Distinct peer ASNs across observations."""
    return {ASN(obs.session.peer_asn) for obs in observations}


def sessions_of(observations: Iterable[Observation]) -> "set[SessionKey]":
    """Distinct sessions across observations."""
    return {obs.session for obs in observations}
