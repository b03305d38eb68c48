"""MRT archive format (RFC 6396) — the format of RouteViews / RIS dumps.

The reproduction both *writes* MRT (the synthetic internet model dumps
its collector feeds exactly the way RouteViews archives update files)
and *reads* MRT (the analysis pipeline consumes archives, so it would
work unmodified on real ``updates.*.bz2`` files if they were supplied).
"""

from repro.mrt.records import (
    MRTHeader,
    MRTType,
    Bgp4mpSubtype,
    Bgp4mpMessage,
    MRTError,
)
from repro.mrt.reader import MRTReader
from repro.mrt.table_dump import (
    RibEntry,
    RibSnapshot,
    snapshot_from_collector,
)
from repro.mrt.writer import MRTWriter

__all__ = [
    "MRTHeader",
    "MRTType",
    "Bgp4mpSubtype",
    "Bgp4mpMessage",
    "MRTError",
    "MRTReader",
    "MRTWriter",
    "RibEntry",
    "RibSnapshot",
    "snapshot_from_collector",
]
