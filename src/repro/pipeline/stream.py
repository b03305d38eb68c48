"""Incremental exploder/grouper: messages in, observations out.

:class:`ObservationStream` is the pipeline's workhorse stage.  It is a
sink of archived collector messages (simulated
:class:`~repro.simulator.collector.CollectedMessage` items or MRT
:class:`~repro.mrt.records.Bgp4mpMessage` records) and a source of
per-prefix :class:`~repro.analysis.observations.Observation` events —
the same flattening :func:`~repro.analysis.observations.explode_update`
performs in batch, done one message at a time so memory stays bounded
no matter how long the run is.

:func:`replay_mrt` is the disk-side source: it pumps an on-disk MRT
archive — including one the simulator itself spilled — through the
identical observation path a live simulation uses.
"""

from __future__ import annotations

from typing import BinaryIO, Dict, Optional, Union

from repro.analysis.observations import SessionKey, explode_update
from repro.bgp.message import UpdateMessage
from repro.pipeline.sinks import Sink, SinkBase


class ObservationStream(SinkBase):
    """Explode archived messages into observations, incrementally.

    Push :class:`CollectedMessage` items (live simulation) via
    :meth:`push`, or hand any archived message with its session to
    :meth:`emit` (:func:`replay_mrt` does so for MRT records); every
    resulting observation is forwarded to *downstream* in arrival
    order.  An archived message of another type (the decoder hands
    its :class:`~repro.bgp.constants.MessageType` instead of a
    message object) is counted in :attr:`messages_seen` and dropped,
    as the batch helpers do.
    """

    def __init__(self, downstream: "Sink"):
        self.downstream = downstream
        self.messages_seen = 0
        self.observations_emitted = 0
        # SessionKey is immutable; reuse one instance per session so a
        # million-message stream does not allocate a million keys.
        self._session_cache: "Dict[tuple, SessionKey]" = {}

    # ------------------------------------------------------------------
    # sources
    # ------------------------------------------------------------------
    def push(self, record) -> None:
        """One simulated :class:`CollectedMessage`."""
        self.emit(
            record.timestamp,
            record.collector,
            record.peer_asn,
            record.peer_address,
            record.message,
        )

    def emit(
        self,
        timestamp: float,
        collector: str,
        peer_asn: int,
        peer_address: str,
        message,
    ) -> None:
        """One archived message of the session (collector, peer)."""
        self.messages_seen += 1
        if not isinstance(message, UpdateMessage):
            return
        cache_key = (collector, peer_asn, peer_address)
        session = self._session_cache.get(cache_key)
        if session is None:
            session = SessionKey(collector, int(peer_asn), peer_address)
            self._session_cache[cache_key] = session
        for observation in explode_update(timestamp, session, message):
            self.observations_emitted += 1
            self.downstream.push(observation)

    def close(self) -> None:
        self.downstream.close()


def replay_mrt(
    source: "Union[str, BinaryIO]",
    sink: "Sink",
    *,
    collector: str = "mrt",
    tolerant: bool = True,
    stats: "Optional[Dict[str, int]]" = None,
) -> int:
    """Pump an MRT archive through *sink* as observations.

    *source* is a path or an open binary stream.  Returns the number
    of observations delivered.  An exception raised by the reader or
    the sink propagates to the caller after the reader is released.

    When *stats* is a dict it is filled with the replay's bookkeeping —
    ``records``, ``skipped_records``, ``error_records`` (tolerant-mode
    drops), ``messages`` and ``observations`` — so callers can surface
    what the reader silently stepped over.  The dict is populated even
    when the replay ends in an exception.
    """
    from repro.mrt.reader import MRTReader

    stream = ObservationStream(sink)
    if isinstance(source, (str, bytes)):
        handle: "Optional[BinaryIO]" = open(source, "rb")
    else:
        handle = None
    reader_stream = handle if handle is not None else source
    reader = MRTReader(reader_stream, tolerant=tolerant)
    records = 0
    try:
        emit = stream.emit
        for record in reader:
            records += 1
            emit(
                record.timestamp,
                collector,
                record.peer_asn,
                record.peer_address,
                record.message,
            )
    finally:
        if handle is not None:
            handle.close()
        if stats is not None:
            stats["records"] = records
            stats["skipped_records"] = reader.skipped_records
            stats["error_records"] = reader.error_records
            stats["messages"] = stream.messages_seen
            stats["observations"] = stream.observations_emitted
    return stream.observations_emitted
