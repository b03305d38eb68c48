"""The streaming observation pipeline.

The paper's methodology is a pipeline — collector archive →
per-(session, prefix) observation streams → cleaning/dedup →
classification → tables — and this package is its incremental spine.
Every stage is a :class:`Sink`: a tiny push-based protocol (``push`` /
``close``) that lets the simulator, the MRT reader and the analysis
layer exchange events one at a time instead of materializing whole
archives in memory.

* :mod:`repro.pipeline.sinks` — the :class:`Sink` protocol, the
  collector archive backends (the in-memory :class:`ListArchive` and
  the spill-to-disk :class:`MrtSpillArchive`) and the
  :class:`SequenceView` read-only wrapper;
* :mod:`repro.pipeline.stream` — :class:`ObservationStream`, the
  incremental exploder that turns archived collector messages (or MRT
  records) into per-prefix :class:`~repro.analysis.observations.
  Observation` events, plus :func:`replay_mrt`, the source that pumps
  an on-disk archive through the identical path a live simulation
  uses.
"""

from repro.pipeline.sinks import (
    ArchiveSink,
    ListArchive,
    MrtSpillArchive,
    SequenceView,
    Sink,
    make_archive,
    parse_archive_policy,
)
from repro.pipeline.stream import (
    ObservationStream,
    replay_mrt,
)

__all__ = [
    "ArchiveSink",
    "ListArchive",
    "MrtSpillArchive",
    "SequenceView",
    "Sink",
    "make_archive",
    "parse_archive_policy",
    "ObservationStream",
    "replay_mrt",
]
