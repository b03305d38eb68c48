"""Declarative, validated, parallel experiment orchestration.

Every result in this repository — the §3 lab matrix, the Table 1/2
measurement day, the ablation what-ifs — used to be a hand-rolled
driver script wiring :class:`Network` / :class:`InternetModel` /
analysis code together.  This package replaces those drivers with one
declarative contract and one engine:

* :mod:`repro.scenarios.spec` — :class:`ScenarioSpec`, a typed,
  stdlib-only description of one experiment (topology params, vendor
  mix, community practices, event schedule, damping/MRAI knobs,
  collectors, seed, duration) with strict upfront validation;
* :mod:`repro.scenarios.registry` — a named catalog
  (``@scenario`` decorator) pre-seeded with the paper's matrix plus
  what-ifs: mixed-vendor internets, scrubbing sweeps, beacon-density
  sweeps and a topology-scale ladder;
* :mod:`repro.scenarios.engine` — ``run_scenario(spec)``, the single
  execution path from spec to :class:`ScenarioResult`;
* :mod:`repro.scenarios.collectors` — pluggable metric collectors
  fanned out through a :class:`CollectorProxy` (update counts,
  community prevalence, duplicate rates, lab matrix and every paper
  artifact: Tables 1/2, Figs 3-6, tomography, damping replay);
* :mod:`repro.scenarios.backends` — pluggable sweep execution
  backends (``serial`` / ``processes`` / ``queue``) behind one
  :class:`ExecutionBackend` interface; ``processes`` runs cells on
  forked lanes that charge a crash or timeout to exactly the cell
  that caused it;
* :mod:`repro.scenarios.runner` — a fault-tolerant, resumable sweep
  runner with per-spec result caching keyed on a stable spec hash
  and an on-disk ``sweep.json`` manifest, so N-seed sweeps use every
  core, re-runs are free, failed cells are reported instead of
  aborting, and killed sweeps resume where they stopped;
* :mod:`repro.scenarios.serialize` — spec/result JSON round-trip for
  reproducible, shareable run recipes.

Quick use::

    from repro.scenarios import get_scenario, run_scenario
    result = run_scenario(get_scenario("internet-small"))
    print(result.metrics["table2"]["full_shares"])

or from the command line::

    repro scenario list
    repro scenario run internet-small
    repro scenario sweep internet-small --seeds 1,2,3 --workers 4
"""

from repro.scenarios.backends import (
    BACKEND_NAMES,
    ExecutionBackend,
    DEFAULT_STALE_CLAIM_SECONDS,
    JobFailure,
    JobOutcome,
    ProcessBackend,
    QueueBackend,
    SerialBackend,
    SweepJob,
    backoff_delay,
    make_backend,
)
from repro.scenarios.collectors import (
    CollectorProxy,
    MetricCollector,
    ScenarioContext,
    collector,
    known_collector_names,
    make_collectors,
)
from repro.scenarios.engine import (
    ScenarioResult,
    internet_config_from_spec,
    run_scenario,
    run_scenario_json,
)
from repro.scenarios.registry import (
    UnknownScenarioError,
    all_scenarios,
    get_scenario,
    register,
    scenario,
    scenario_names,
    unregister,
)
from repro.scenarios.runner import (
    SweepFailureError,
    SweepManifest,
    SweepReport,
    SweepRunner,
    expand_seeds,
    resume_sweep,
    run_sweep,
)
from repro.scenarios.serialize import (
    failure_from_dict,
    failure_to_dict,
    result_from_json,
    result_to_json,
    spec_from_dict,
    spec_from_json,
    spec_hash,
    spec_to_dict,
    spec_to_json,
)
from repro.scenarios.spec import (
    InternetSpec,
    LabSpec,
    MrtSpec,
    ScenarioSpec,
    ScenarioValidationError,
)

__all__ = [
    "BACKEND_NAMES",
    "ExecutionBackend",
    "JobFailure",
    "DEFAULT_STALE_CLAIM_SECONDS",
    "JobOutcome",
    "ProcessBackend",
    "QueueBackend",
    "SerialBackend",
    "SweepJob",
    "backoff_delay",
    "make_backend",
    "CollectorProxy",
    "MetricCollector",
    "ScenarioContext",
    "collector",
    "known_collector_names",
    "make_collectors",
    "ScenarioResult",
    "internet_config_from_spec",
    "run_scenario",
    "run_scenario_json",
    "UnknownScenarioError",
    "all_scenarios",
    "get_scenario",
    "register",
    "scenario",
    "scenario_names",
    "unregister",
    "SweepFailureError",
    "SweepManifest",
    "SweepReport",
    "SweepRunner",
    "expand_seeds",
    "resume_sweep",
    "run_sweep",
    "failure_from_dict",
    "failure_to_dict",
    "result_from_json",
    "result_to_json",
    "spec_from_dict",
    "spec_from_json",
    "spec_hash",
    "spec_to_dict",
    "spec_to_json",
    "InternetSpec",
    "LabSpec",
    "MrtSpec",
    "ScenarioSpec",
    "ScenarioValidationError",
]
