"""Measurement analysis: the paper's core contribution.

This package turns raw update feeds (simulated collector archives or
MRT files) into the paper's results:

* :mod:`repro.analysis.observations` — flattening UPDATE messages into
  per-prefix observations and grouping them into per-session streams;
* :mod:`repro.analysis.cleaning` — the §4 data preparation pipeline
  (unallocated ASN/prefix removal, route-server AS-path repair,
  same-second timestamp disambiguation);
* :mod:`repro.analysis.classify` — the §5 announcement-type taxonomy
  (``pc pn nc nn xc xn``);
* :mod:`repro.analysis.exploration` — §6 community-exploration and
  duplicate-burst detection around beacon withdrawal phases;
* :mod:`repro.analysis.revealed` — §6 revealed-information analysis;
* :mod:`repro.analysis.tables` — Table 1 / Table 2 builders;
* :mod:`repro.analysis.longitudinal` — Figure 2 / Figure 6 series.
"""

from repro.analysis.observations import (
    Observation,
    ObservationKind,
    SessionKey,
    StreamGrouper,
    explode_update,
    observations_from_collector,
    observations_from_mrt,
    group_into_streams,
)
from repro.analysis.classify import (
    AnnouncementType,
    UpdateClassifier,
    TypeCounts,
    classify_observations,
)
from repro.analysis.cleaning import (
    CleaningPipeline,
    CleaningReport,
    CleaningSink,
)
from repro.analysis.exploration import (
    PhaseActivity,
    CommunityExplorationDetector,
    ExplorationEvent,
    label_phases,
)
from repro.analysis.revealed import RevealedInfoAnalysis, RevealedInfoResult
from repro.analysis.duplicates import (
    DuplicateAttributor,
    DuplicateCause,
    DuplicateReport,
    attribute_duplicates,
)
from repro.analysis.tomography import (
    CommunityBehaviorClassifier,
    InferredBehavior,
    BehaviorInference,
    score_against_ground_truth,
)
from repro.analysis.tables import Table1, Table2, build_table1, build_table2
from repro.analysis.longitudinal import (
    DailySnapshot,
    LongitudinalSeries,
)

__all__ = [
    "Observation",
    "ObservationKind",
    "SessionKey",
    "StreamGrouper",
    "explode_update",
    "observations_from_collector",
    "observations_from_mrt",
    "group_into_streams",
    "AnnouncementType",
    "UpdateClassifier",
    "TypeCounts",
    "classify_observations",
    "CleaningPipeline",
    "CleaningReport",
    "CleaningSink",
    "PhaseActivity",
    "CommunityExplorationDetector",
    "ExplorationEvent",
    "label_phases",
    "RevealedInfoAnalysis",
    "RevealedInfoResult",
    "DuplicateAttributor",
    "DuplicateCause",
    "DuplicateReport",
    "attribute_duplicates",
    "CommunityBehaviorClassifier",
    "InferredBehavior",
    "BehaviorInference",
    "score_against_ground_truth",
    "Table1",
    "Table2",
    "build_table1",
    "build_table2",
    "DailySnapshot",
    "LongitudinalSeries",
]
