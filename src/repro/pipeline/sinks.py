"""The :class:`Sink` protocol and the generic pipeline plumbing.

A sink is anything with ``push(item)`` and ``close()``.  Sinks are
deliberately minimal — no generics, no buffering contract — because
the pipeline's invariant lives in the *callers*: items are pushed in
arrival order, exactly once, and ``close()`` is called at most once
when the source is exhausted.

The archive sinks (:class:`ListArchive`, :class:`MrtSpillArchive`)
back the collector's ``archive_policy`` knob.  Both archive every
:class:`~repro.simulator.collector.CollectedMessage` and differ only
in where they keep it:

========== =================== ===========================
policy      memory              fidelity of ``records``
========== =================== ===========================
full        O(messages)         everything
mrt-spill   O(1)                nothing in RAM; the full
                                archive lives in an MRT
                                file and is replayable
========== =================== ===========================
"""

from __future__ import annotations

import os
import tempfile
from typing import Iterator, List, Optional, Protocol, Sequence

from repro import faults


class Sink(Protocol):
    """Anything that accepts an ordered stream of pushed items."""

    def push(self, item) -> None:
        """Accept one item."""
        ...

    def close(self) -> None:
        """The source is exhausted; release resources."""
        ...


class SinkBase:
    """No-op base class for sinks that only care about some hooks."""

    def push(self, item) -> None:
        """Accept one item (default: drop it)."""

    def close(self) -> None:
        """Release resources (default: nothing to release)."""


class SequenceView(Sequence):
    """Read-only, copy-free view over a list.

    The collector's ``records``/``sessions`` properties used to copy
    the whole backing list on every access, which hot-loop callers
    (lab experiments, analysis passes) paid O(n) for per call.  This
    view is O(1) to create and delegates item access; slicing returns
    a fresh list (the copy is then explicit at the call site).
    """

    __slots__ = ("_items",)

    def __init__(self, items):
        self._items = items

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index):
        return self._items[index]

    def __iter__(self) -> Iterator:
        return iter(self._items)

    def __eq__(self, other) -> bool:
        if isinstance(other, SequenceView):
            other = other._items
        if isinstance(other, (list, tuple)):
            return len(self._items) == len(other) and all(
                mine == theirs for mine, theirs in zip(self._items, other)
            )
        return NotImplemented

    def __repr__(self) -> str:
        return f"SequenceView({list(self._items)!r})"


# ----------------------------------------------------------------------
# archive policies
# ----------------------------------------------------------------------
#: The archive policies, spelled exactly as a spec must spell them.
ARCHIVE_POLICIES = ("full", "mrt-spill")


def parse_archive_policy(policy: str) -> str:
    """Return *policy* if it is exactly ``full`` or ``mrt-spill``.

    Only the exact spelling is accepted: the spec is hashed with the
    raw string, so a second spelling of one policy would give one run
    a second cache key.  Raises :class:`ValueError` otherwise.
    """
    if policy not in ARCHIVE_POLICIES:
        raise ValueError(
            f"unknown archive_policy {policy!r}; use 'full' or 'mrt-spill'"
        )
    return policy


class ArchiveSink(SinkBase):
    """Common interface of the collector archive backends."""

    @property
    def retained(self) -> SequenceView:
        """What is still held in memory, oldest first."""
        raise NotImplementedError

    @property
    def total_archived(self) -> int:
        """Every message ever pushed (retained or not)."""
        raise NotImplementedError

    def clear(self) -> int:
        """Drop the archive; returns the all-time count dropped."""
        raise NotImplementedError


class ListArchive(ArchiveSink):
    """The ``full`` policy: keep everything, like the seed collector."""

    def __init__(self):
        self._records: "List" = []

    def push(self, item) -> None:
        self._records.append(item)

    @property
    def retained(self) -> SequenceView:
        return SequenceView(self._records)

    @property
    def total_archived(self) -> int:
        return len(self._records)

    def clear(self) -> int:
        count = len(self._records)
        self._records.clear()
        return count


class MrtSpillArchive(ArchiveSink):
    """The ``mrt-spill`` policy: stream every message to an MRT file.

    Nothing is retained in memory; the archive *is* the (replayable)
    MRT file, written with extended timestamps so sub-second ordering
    survives the round trip.  Items pushed here must already be
    :class:`~repro.mrt.records.Bgp4mpMessage`-convertible — the
    collector pushes ready-made BGP4MP records.
    """

    def __init__(
        self,
        *,
        spill_dir: "Optional[str]" = None,
        prefix: str = "repro-spill-",
    ):
        from repro.mrt.writer import MRTWriter

        handle, path = tempfile.mkstemp(
            prefix=prefix, suffix=".mrt", dir=spill_dir
        )
        self.path = path
        self._stream = os.fdopen(handle, "wb")
        faults.faultpoint("pipeline.spill.open", name=path)
        self._writer = MRTWriter(self._stream, extended_timestamps=True)
        self._total = 0
        self._closed = False

    def push(self, item) -> None:
        self._writer.write_bgp4mp(item)
        self._total += 1

    def push_fields(
        self,
        timestamp: float,
        peer_asn: int,
        local_asn: int,
        peer_address: str,
        local_address: str,
        message,
    ) -> None:
        """Record-object-free spill (the collector's hot loop)."""
        self._writer.write_message(
            timestamp, peer_asn, local_asn, peer_address, local_address,
            message,
        )
        self._total += 1

    @property
    def retained(self) -> SequenceView:
        return SequenceView([])

    @property
    def total_archived(self) -> int:
        return self._total

    def flush(self) -> None:
        """Make every spilled byte visible to readers."""
        if not self._closed:
            self._stream.flush()

    def replay(self):
        """Iterate the spilled archive as BGP4MP records."""
        from repro.mrt.reader import MRTReader

        self.flush()
        with open(self.path, "rb") as handle:
            yield from MRTReader(handle)

    def clear(self) -> int:
        count = self._total
        if not self._closed:
            self._stream.flush()
            self._stream.seek(0)
            self._stream.truncate()
        self._total = 0
        return count

    def close(self) -> None:
        if not self._closed:
            faults.faultpoint("pipeline.spill.close", name=self.path)
            self._stream.flush()
            self._stream.close()
            self._closed = True

    def unlink(self) -> None:
        """Close and delete the spill file (cleanup)."""
        self.close()
        try:
            os.unlink(self.path)
        except OSError:
            pass


def make_archive(
    policy: str, *, spill_dir: "Optional[str]" = None, prefix: str = "repro-spill-"
) -> ArchiveSink:
    """Instantiate the archive backend for a policy string."""
    if parse_archive_policy(policy) == "full":
        return ListArchive()
    return MrtSpillArchive(spill_dir=spill_dir, prefix=prefix)
