"""Route collectors: the measurement apparatus.

A :class:`RouteCollector` mimics a RouteViews / RIPE RIS collector: it
peers with routers (multihop eBGP), never advertises anything, and
archives every received message with its arrival timestamp and session
envelope.  Records can be exported as genuine MRT bytes via
:meth:`RouteCollector.dump_mrt`, optionally at whole-second resolution
to emulate the legacy collectors whose data the paper's cleaning step
must disambiguate (§4).

Since the streaming-pipeline refactor the collector is a pipeline
*source*: every :class:`CollectedMessage` is pushed to attached sinks
(:meth:`attach_sink`) the moment it arrives, and the archive itself is
one of two :mod:`repro.pipeline.sinks` backends selected by
``archive_policy``:

* ``full`` — keep everything in memory (the classic behavior);
* ``mrt-spill`` — nothing retained in RAM; the archive streams to an
  MRT file on disk and is replayable through :meth:`to_bgp4mp`.
"""

from __future__ import annotations

import io
import zlib
from typing import BinaryIO, Iterator, List, NamedTuple, Optional

from repro.bgp.message import UpdateMessage
from repro.mrt.records import Bgp4mpMessage
from repro.mrt.writer import MRTWriter
from repro.netbase.asn import ASN
from repro.pipeline.sinks import (
    ArchiveSink,
    MrtSpillArchive,
    SequenceView,
    Sink,
    make_archive,
)
from repro.simulator.session import BGPSession


class CollectedMessage(NamedTuple):
    """One archived message with its session envelope (a named tuple,
    built once per archived message)."""

    timestamp: float
    collector: str
    peer_asn: ASN
    peer_address: str
    message: UpdateMessage


class RouteCollector:
    """A passive BGP listener that archives everything it hears."""

    def __init__(
        self,
        network,
        name: str,
        asn: int = 12_456,
        *,
        archive_policy: str = "full",
        spill_dir: "Optional[str]" = None,
    ):
        self._network = network
        self.name = name
        self.asn = ASN(asn)
        # crc32, not hash(): str hashing is salted per process, and the
        # addresses must be identical across interpreter runs for
        # bit-reproducible archives.  The router id lives in
        # 198.51.100.1..200 and the collector-side MRT local address in
        # 198.51.100.201..254, so the two can never collide no matter
        # what the collector is called.
        digest = zlib.crc32(name.encode("utf-8"))
        self.router_id = f"198.51.100.{1 + (digest % 200)}"
        #: Deterministic per-collector MRT ``local_address`` (outside
        #: the router-id range by construction).
        self.local_address = f"198.51.100.{201 + (digest % 54)}"
        self.archive_policy = archive_policy
        self._archive: ArchiveSink = make_archive(
            archive_policy,
            spill_dir=spill_dir,
            prefix=f"repro-{name}-",
        )
        self._spills = isinstance(self._archive, MrtSpillArchive)
        self._sessions: List[BGPSession] = []
        self._sinks: "List[Sink]" = []

    # ------------------------------------------------------------------
    # pipeline attachment
    # ------------------------------------------------------------------
    def attach_sink(self, sink: "Sink") -> "Sink":
        """Stream every future :class:`CollectedMessage` to *sink*.

        Sinks see messages the moment they arrive — during warm-up
        convergence as well as the measured day — in exactly archive
        order.  Returns the sink for chaining.
        """
        self._sinks.append(sink)
        return sink

    # ------------------------------------------------------------------
    # node protocol (same duck type as Router)
    # ------------------------------------------------------------------
    def attach_session(self, session: BGPSession, **_ignored) -> None:
        """Register a collector session."""
        self._sessions.append(session)

    def receive(self, session: BGPSession, message: UpdateMessage) -> None:
        """Archive an inbound message."""
        self.receive_batch(session, [message])

    def receive_batch(
        self, session: BGPSession, messages: "List[UpdateMessage]"
    ) -> None:
        """Archive a coalesced burst of inbound messages in order."""
        timestamp = self._network.queue.now
        peer = session.other(self)
        peer_asn = ASN(peer.asn)
        peer_address = session.peer_address(self)
        spill = self._archive.push_fields if self._spills else None
        sinks = self._sinks
        for message in messages:
            if spill is not None:
                spill(
                    timestamp,
                    int(peer_asn),
                    int(self.asn),
                    peer_address,
                    self.local_address,
                    message,
                )
                if not sinks:
                    continue
            record = CollectedMessage(
                timestamp=timestamp,
                collector=self.name,
                peer_asn=peer_asn,
                peer_address=peer_address,
                message=message,
            )
            if spill is None:
                self._archive.push(record)
            for sink in sinks:
                sink.push(record)

    def session_down(self, session: BGPSession) -> None:
        """Collectors keep their archive across session churn."""

    def session_up(self, session: BGPSession) -> None:
        """Collectors never advertise, so nothing to resend."""

    # ------------------------------------------------------------------
    # archive access
    # ------------------------------------------------------------------
    @property
    def records(self) -> SequenceView:
        """Retained messages in arrival order (read-only, no copy).

        Under ``full`` this is every message ever heard; under
        ``mrt-spill`` it is empty — use :meth:`to_bgp4mp` to stream the
        on-disk archive instead.
        """
        return self._archive.retained

    @property
    def sessions(self) -> SequenceView:
        """The collector's peering sessions (read-only view)."""
        return SequenceView(self._sessions)

    @property
    def spill_path(self) -> "Optional[str]":
        """The on-disk archive path under ``mrt-spill``, else None."""
        if self._spills:
            return self._archive.path
        return None

    def clear(self) -> int:
        """Drop the archive (between experiment phases)."""
        return self._archive.clear()

    def message_count(self) -> int:
        """Number of archived messages (all-time, any policy)."""
        return self._archive.total_archived

    def close(self) -> None:
        """Release archive resources (flushes/closes spill files)."""
        self._archive.close()

    # ------------------------------------------------------------------
    # MRT export
    # ------------------------------------------------------------------
    def _to_bgp4mp_record(self, record: CollectedMessage) -> Bgp4mpMessage:
        return Bgp4mpMessage(
            timestamp=record.timestamp,
            peer_asn=int(record.peer_asn),
            local_asn=int(self.asn),
            peer_address=record.peer_address,
            local_address=self.local_address,
            message=record.message,
        )

    def to_bgp4mp(self) -> Iterator[Bgp4mpMessage]:
        """View the archive as MRT-ready records.

        Under ``mrt-spill`` the records are re-read from the spill
        file.
        """
        if self._spills:
            yield from self._archive.replay()
            return
        for record in self._archive.retained:
            yield self._to_bgp4mp_record(record)

    def dump_mrt(
        self,
        stream: Optional[BinaryIO] = None,
        *,
        extended_timestamps: bool = True,
    ) -> bytes:
        """Write the archive as MRT; returns the bytes when unbuffered.

        ``extended_timestamps=False`` emulates legacy collectors that
        record at whole-second granularity.
        """
        own_buffer = stream is None
        target = stream if stream is not None else io.BytesIO()
        writer = MRTWriter(target, extended_timestamps=extended_timestamps)
        for record in self.to_bgp4mp():
            writer.write_bgp4mp(record)
        if own_buffer:
            return target.getvalue()  # type: ignore[union-attr]
        return b""

    def __repr__(self) -> str:
        return (
            f"RouteCollector({self.name}, sessions={len(self._sessions)},"
            f" records={self.message_count()},"
            f" policy={self.archive_policy})"
        )
