"""Static-analysis devtools: the repo's contract linter.

Six PRs of hard-won invariants — bit-reproducible results, byte-
neutral instrumentation, machine-JSON-owns-stdout, bounded memos,
cache versions that move with the schema — were enforced only by
runtime tests that catch a violation *after* it ships a wrong byte.
This package rejects the bug classes at lint time instead:

======== ==========================================================
code     contract
======== ==========================================================
DET001   no bare ``hash()``/``id()`` in deterministic modules
DET002   no ambient entropy (unseeded ``random.*``, ``time.time()``,
         ``os.urandom``, unsorted set iteration) in those modules
OBS001   hot paths use only the gated no-op instrumentation helpers
IO001    ``cli.py`` stdout flows through the designated emitters
CACHE001 serialized result schema moves only with ``CACHE_VERSION``
MEMO001  module-level dict caches build on ``bounded_store``
GC001    cyclic-collector control calls live only in the one pause
         helper (``scenarios.engine.paused_gc``)
SYN001   every scanned file parses
SUP001   every suppression is well-formed and gives a reason
======== ==========================================================

Use it three ways, all the same pipeline:

* CLI: ``repro check [--format json] [--select CODES] [PATHS]``,
  ``repro check --explain CODE``; exit 0 clean / 1 findings / 2 usage;
* pytest: ``from repro.devtools import run_check, check_source``;
* CI: ``scripts/ci.sh`` runs the tree check before the test tiers.

Waivers: ``# repro: allow(CODE) reason`` on (or directly above) the
line, reason mandatory.  There is no bulk grandfathering: any finding
not waived in-line fails the check.

The package depends on nothing outside the stdlib (``ast`` does the
work) and nothing in it is imported by the runtime modules it checks.
"""

from repro.devtools.api import (
    UsageError,
    catalog,
    check_modules,
    check_source,
    explain,
    run_check,
)
from repro.devtools.checkers import (
    ALL_CHECKERS,
    CHECKERS_BY_CODE,
    KNOWN_CODES,
    schema_fingerprint,
)
from repro.devtools.findings import REPORT_VERSION, CheckReport, Finding
from repro.devtools.project import (
    Project,
    SourceModule,
    load_module,
    parse_module,
)
from repro.devtools.suppress import parse_suppressions

__all__ = [
    "ALL_CHECKERS",
    "CHECKERS_BY_CODE",
    "CheckReport",
    "Finding",
    "KNOWN_CODES",
    "Project",
    "REPORT_VERSION",
    "SourceModule",
    "UsageError",
    "catalog",
    "check_modules",
    "check_source",
    "explain",
    "load_module",
    "parse_module",
    "parse_suppressions",
    "run_check",
    "schema_fingerprint",
]
