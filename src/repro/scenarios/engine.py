"""The scenario engine: one entry point from spec to results.

:func:`run_scenario` is the single execution path every driver —
CLI, examples, the paper-artifact tests, the parallel sweep runner —
goes through:

1. validate the spec upfront (:meth:`ScenarioSpec.validate`);
2. instantiate the workload: the §3 lab matrix
   (:class:`repro.simulator.experiments.LabTopology`), one synthetic
   internet day (:class:`repro.workloads.InternetModel`) or an
   on-disk MRT archive (the ``mrt`` kind — real data or a file a
   previous run spilled);
3. attach the spec's metric collectors through a
   :class:`CollectorProxy` and stream every event through them;
4. return a :class:`ScenarioResult` whose ``metrics`` are plain
   JSON-friendly data, keyed by collector name.

Internet scenarios feed the metric collectors *live*: an
:class:`ObservationStream` is attached as a collector sink before the
network is even built, so metrics accumulate while the simulation runs
instead of after it, and ``archive_policy=mrt-spill`` keeps collector
memory bounded.  A run's progress is visible as heartbeats every N
observations, delivered to the run's journal and/or an
``on_heartbeat`` callable.

Every run executes under :class:`paused_gc`: the cyclic collector is
off while the world is simulated or replayed and back in the caller's
state when the run returns.

Results carry the spec and its stable hash, so a result is a complete,
reproducible record of what ran.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.netbase.memo import memo_stats, reset_memo_stats
from repro.obs import metrics as obs_metrics
from repro.obs.journal import RunJournal
from repro.pipeline.sinks import SinkBase
from repro.pipeline.stream import ObservationStream
from repro.scenarios.collectors import (
    CollectorProxy,
    ScenarioContext,
    make_collectors,
)
from repro.scenarios.serialize import (
    result_to_json,
    spec_from_json,
    spec_hash,
)
from repro.scenarios.spec import (
    InternetSpec,
    LabSpec,
    MrtSpec,
    ScenarioSpec,
    ScenarioValidationError,
)

#: Signature of the heartbeat hook: one JSON-friendly progress dict.
HeartbeatHook = Callable[[dict], None]

#: Default journal heartbeat cadence, in observations.
DEFAULT_HEARTBEAT_EVERY = 5000


@dataclass
class ScenarioResult:
    """Everything one scenario run produced."""

    spec: ScenarioSpec
    #: Stable hash of the spec (cache key / provenance).
    spec_hash: str
    #: Collector name -> that collector's metrics dict.
    metrics: "Dict[str, dict]" = field(default_factory=dict)
    #: Collector name -> on-disk MRT archive path, for runs under
    #: ``archive_policy=mrt-spill`` (the files are flushed and closed,
    #: ready for ``mrt-replay --input``).
    spill_paths: "Dict[str, str]" = field(default_factory=dict)
    #: MRT-replay source bookkeeping (``records``, ``skipped_records``,
    #: ``error_records``, ``messages``, ``observations``) so
    #: tolerant-mode drops are visible in the result instead of silent.
    #: Empty for non-mrt scenario kinds.
    reader_stats: "Dict[str, int]" = field(default_factory=dict)
    #: Instrumentation snapshot (phase wall times, counters, gauges,
    #: memo hit/miss/evict rates) — populated only when the metrics
    #: registry is enabled for the run, *always* empty in sweep worker
    #: payloads (wall times are volatile; the cross-backend determinism
    #: contract requires byte-identical worker output).
    metrics_report: dict = field(default_factory=dict)

    @property
    def name(self) -> str:
        """The scenario name."""
        return self.spec.name

    def metric(self, collector: str, key: str, default=None):
        """Convenience lookup: ``metrics[collector][key]``."""
        return self.metrics.get(collector, {}).get(key, default)


class paused_gc:
    """Disable CPython's cyclic collector, restoring the caller's state.

    The simulator, policy, RIB, read-path and collector layers allocate
    no reference cycles per event (``tests/test_gc_pause.py``), so
    inside a run the collector would only re-scan live RIBs and free
    nothing.  A run's one piece of cyclic garbage is its own world (network <->
    routers <-> sessions).  Nothing is promoted to an older generation
    while paused, so the first young collection after the restore
    frees it, at the caller's next container allocation: ``__exit__``
    allocates none itself, which a generator-based context manager's
    ``StopIteration`` would.  Nested pauses and callers that already
    disabled the collector keep their state; exceptions restore it too.
    """

    def __enter__(self) -> None:
        self._enabled = gc.isenabled()
        gc.disable()  # repro: allow(GC001) the one collector-policy site

    def __exit__(self, *exc_info) -> None:
        if self._enabled:
            gc.enable()  # repro: allow(GC001) the one collector-policy site


class _MetricsPump(SinkBase):
    """Terminal sink of a live run: proxy fan-out + heartbeats."""

    def __init__(
        self,
        proxy: CollectorProxy,
        *,
        journal: "Optional[RunJournal]" = None,
        heartbeat_every: "Optional[int]" = None,
        on_heartbeat: "Optional[HeartbeatHook]" = None,
    ):
        self.proxy = proxy
        self._journal = journal
        self._on_heartbeat = on_heartbeat
        # Heartbeats only make sense with somewhere to deliver them.
        if journal is None and on_heartbeat is None:
            heartbeat_every = None
        elif heartbeat_every is None:
            heartbeat_every = DEFAULT_HEARTBEAT_EVERY
        self._heartbeat_every = heartbeat_every
        self._started = time.perf_counter()

    def _heartbeat(self, count: int) -> None:
        from repro.obs.journal import peak_rss_kb

        elapsed = time.perf_counter() - self._started
        payload = {
            "observations": count,
            "elapsed_seconds": elapsed,
            "rate_per_second": count / elapsed if elapsed > 0 else 0.0,
            "peak_rss_kb": peak_rss_kb(),
        }
        if self._journal is not None:
            self._journal.write("heartbeat", **payload)
        if self._on_heartbeat is not None:
            self._on_heartbeat(payload)

    def push(self, observation) -> None:
        proxy = self.proxy
        proxy.observe(observation)
        count = proxy.observed
        if (
            self._heartbeat_every
            and count % self._heartbeat_every == 0
        ):
            self._heartbeat(count)


def check_heartbeat_every(heartbeat_every: "Optional[int]") -> None:
    """Reject a heartbeat cadence below one observation.

    ``None`` means the default cadence.
    """
    if heartbeat_every is not None and heartbeat_every < 1:
        raise ValueError(
            f"heartbeat_every must be at least 1, got {heartbeat_every}"
        )


def run_scenario(
    spec: ScenarioSpec,
    *,
    journal_path: "Optional[str]" = None,
    heartbeat_every: "Optional[int]" = None,
    on_heartbeat: "Optional[HeartbeatHook]" = None,
) -> ScenarioResult:
    """Validate and execute one scenario.

    With a *journal_path* the run appends its JSONL journal there: a
    ``start`` line, heartbeat lines every *heartbeat_every*
    observations, then ``finish``, or ``fail`` with the error when the
    run raises.  *on_heartbeat*, if given, receives the same heartbeat
    payloads in-process.  Heartbeats count observations, so they apply
    to the streaming kinds (internet, mrt); lab scenarios deliver one
    event per experiment cell and send none.  A *heartbeat_every*
    below 1 raises :class:`ValueError` before anything is written.

    When the metrics registry is enabled
    (:func:`repro.obs.set_metrics_enabled`), the run starts from a
    clean registry and memo-counter slate and the result carries a
    ``metrics_report`` describing exactly this run.  The run executes
    under :class:`paused_gc`.
    """
    check_heartbeat_every(heartbeat_every)
    if journal_path is None:
        return _run(spec, None, heartbeat_every, on_heartbeat)
    journal = RunJournal(journal_path)
    journal.write("start", name=spec.name)
    try:
        result = _run(spec, journal, heartbeat_every, on_heartbeat)
    except BaseException as exc:
        # Every started run ends its journal, so a journal reader
        # never sees a run that began and never finished.
        journal.write("fail", error=str(exc))
        journal.close()
        raise
    journal.write("finish")
    journal.close()
    return result


def _run(
    spec: ScenarioSpec,
    journal: "Optional[RunJournal]",
    heartbeat_every: "Optional[int]",
    on_heartbeat: "Optional[HeartbeatHook]",
) -> ScenarioResult:
    spec.validate()
    with paused_gc():
        instrumented = obs_metrics.metrics_enabled()
        if instrumented:
            # One report == one run: never blend in a previous run's state.
            obs_metrics.reset_metrics()
            reset_memo_stats()
        with obs_metrics.phase("scenario.setup"):
            proxy = make_collectors(spec.collectors)
            pump = _MetricsPump(
                proxy,
                journal=journal,
                heartbeat_every=heartbeat_every,
                on_heartbeat=on_heartbeat,
            )
        spill_paths: "Dict[str, str]" = {}
        reader_stats: "Dict[str, int]" = {}
        if spec.kind == "lab":
            _run_lab(spec, proxy)
        elif spec.kind == "mrt":
            _run_mrt(spec, proxy, pump, reader_stats)
        else:
            _run_internet(spec, proxy, pump, spill_paths)
        with obs_metrics.phase("scenario.analyze"):
            metrics = proxy.finish()
        report: dict = {}
        if instrumented:
            registry = obs_metrics.registry()
            registry.count("scenario.observations", proxy.observed)
            if reader_stats:
                replay_seconds = registry.timer_seconds("phase.mrt.replay")
                if replay_seconds > 0:
                    registry.gauge(
                        "mrt.records_per_second",
                        reader_stats.get("records", 0) / replay_seconds,
                    )
            report = {
                "phases": registry.phase_seconds(),
                "memo": memo_stats(),
            }
            report.update(registry.report())
        return ScenarioResult(
            spec=spec,
            spec_hash=spec_hash(spec),
            metrics=metrics,
            spill_paths=spill_paths,
            reader_stats=reader_stats,
            metrics_report=report,
        )


def run_scenario_json(
    spec_json: str, journal_path: "Optional[str]" = None
) -> str:
    """Worker entry point for the execution backends: JSON in, JSON out.

    Every backend — inline, forked lanes, work queue — funnels sweep
    cells through this one function, so the spec/result JSON text is
    the *entire* contract between coordinator and worker.  That keeps
    the multiprocessing surface to two strings and turns determinism
    into something checkable: identical spec text must yield
    byte-identical result text wherever it ran (the cross-backend
    determinism suite asserts exactly that).

    Two consequences for observability:

    * the returned JSON never carries a ``metrics_report`` — wall
      times are volatile, and a worker's payload must not depend on
      whether the coordinator happened to enable instrumentation;
    * progress goes out-of-band instead, as heartbeat lines appended
      to *journal_path* (the sweep runner points this at the cell's
      journal next to the cache manifest).
    """
    result = run_scenario(
        spec_from_json(spec_json), journal_path=journal_path
    )
    result.metrics_report = {}
    return result_to_json(result)


# ----------------------------------------------------------------------
# lab scenarios
# ----------------------------------------------------------------------
def _run_lab(spec: ScenarioSpec, proxy: CollectorProxy) -> None:
    from repro.simulator.experiments import run_experiment
    from repro.vendors.profiles import profile_by_name

    lab = spec.lab or LabSpec()
    proxy.start(ScenarioContext(spec))
    with obs_metrics.phase("lab.run"):
        for experiment in lab.experiments:
            for vendor_name in lab.vendors:
                result = run_experiment(
                    experiment,
                    profile_by_name(vendor_name),
                    mrai=lab.mrai,
                )
                proxy.observe_lab(result)
                obs_metrics.count("lab.experiments")


# ----------------------------------------------------------------------
# internet scenarios (live-sink streaming)
# ----------------------------------------------------------------------
def _run_internet(
    spec: ScenarioSpec,
    proxy: CollectorProxy,
    pump: _MetricsPump,
    spill_paths: "Dict[str, str]",
) -> None:
    from repro.workloads import InternetModel

    config = internet_config_from_spec(spec)
    model = InternetModel(config)
    context = ScenarioContext(spec)
    proxy.start(context)
    # The observation stream is attached before build(), so the
    # collectors' warm-up traffic reaches the metric collectors in
    # exactly archive order — metric-for-metric identical to the old
    # post-run batch iteration (per-(session, prefix) event order is
    # the same either way; see tests/test_pipeline.py).
    model.attach_collector_sink(ObservationStream(pump))
    with obs_metrics.phase("internet.build"):
        model.build()
        model.schedule_day()
        # Only the scheduled beacon events originate beacon prefixes,
        # so the set is complete before any is announced.
        context.beacon_prefixes.update(model.beacon_prefixes)
        context.practices.update(model.practices)
    with obs_metrics.phase("internet.run"):
        model.run_day()
    day = model.simulated_day()
    if obs_metrics.metrics_enabled():
        # Post-run reads of counters the event loop keeps anyway —
        # the hot path itself stays untouched.
        queue = model.network.queue
        messages = day.total_collected_messages()
        obs_metrics.gauge("sim.events_processed", queue.processed)
        obs_metrics.gauge("sim.peak_pending_events", queue.peak_pending)
        obs_metrics.gauge("sim.collected_messages", messages)
        if queue.processed:
            # Batching effectiveness: archived messages per dispatched
            # event — higher means delivery batching is doing its job.
            obs_metrics.gauge(
                "sim.messages_per_event", messages / queue.processed
            )
    # Flush and close the archives: under mrt-spill the buffered tail
    # must reach disk before anyone replays the file, and the result
    # carries the paths so the round trip works from the CLI.
    for collector in day.collectors():
        collector.close()
        if collector.spill_path is not None:
            spill_paths[collector.name] = collector.spill_path


def internet_config_from_spec(spec: ScenarioSpec):
    """Materialize an :class:`InternetConfig` from an internet spec.

    The spec's ``scale`` picks the base configuration; only explicitly
    overridden fields are applied on top, and the scenario ``seed``
    always drives the day's randomness.  The topology seed stays pinned
    to the base scale unless ``topology_seed`` overrides it, so N-seed
    sweeps rerun the *same* internet under different event randomness.
    """
    from repro.vendors.profiles import profile_by_name
    from repro.workloads import InternetConfig

    section = spec.internet or InternetSpec()
    if section.scale == "small":
        config = InternetConfig.small()
    else:
        config = InternetConfig.mar20()
    config.seed = spec.seed
    if spec.duration is not None:
        config.day_seconds = float(spec.duration)
    topology = config.topology
    if section.topology_seed is not None:
        topology.seed = section.topology_seed
    for label in ("tier1_count", "transit_count", "stub_count"):
        value = getattr(section, label)
        if value is not None:
            setattr(topology, label, value)
    if section.vendor_mix is not None:
        total = sum(weight for _, weight in section.vendor_mix)
        config.vendor_mix = tuple(
            (profile_by_name(name), weight / total)
            for name, weight in section.vendor_mix
        )
    if section.collector_names is not None:
        config.collector_names = tuple(section.collector_names)
    passthrough = (
        "tagger_fraction",
        "cleaner_egress_fraction",
        "cleaner_ingress_fraction",
        "scrub_internal_fraction",
        "collector_peer_fraction",
        "collector_peer_clean_fraction",
        "include_route_server",
        "include_bogons",
        "beacon_count",
        "link_flaps",
        "prefix_flaps",
        "med_churn_events",
        "community_churn_events",
        "prepend_change_events",
        "collector_session_resets",
        "mrai",
        "archive_policy",
    )
    for label in passthrough:
        value = getattr(section, label)
        if value is not None:
            setattr(config, label, value)
    return config


# ----------------------------------------------------------------------
# mrt-replay scenarios (on-disk archives as a first-class source)
# ----------------------------------------------------------------------
def _run_mrt(
    spec: ScenarioSpec,
    proxy: CollectorProxy,
    pump: _MetricsPump,
    reader_stats: "Dict[str, int]",
) -> None:
    from repro.pipeline.stream import replay_mrt

    section = spec.mrt or MrtSpec()
    if not section.path:
        raise ScenarioValidationError(
            spec.name,
            [
                "mrt.path is required to run an mrt scenario"
                " (e.g. repro scenario run mrt-replay --input FILE)"
            ],
        )
    proxy.start(ScenarioContext(spec))
    try:
        handle = open(section.path, "rb")
    except OSError as exc:
        raise ScenarioValidationError(
            spec.name, [f"cannot open mrt archive {section.path!r}: {exc}"]
        ) from None
    with handle, obs_metrics.phase("mrt.replay"):
        replay_mrt(
            handle,
            pump,
            collector=section.collector,
            tolerant=section.tolerant,
            stats=reader_stats,
        )
