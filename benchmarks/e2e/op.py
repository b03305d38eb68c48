#!/usr/bin/env python3
"""One operation of the end-to-end benchmark, in a fresh process.

``bench.py`` starts this script once per operation, with ``src`` on
``PYTHONPATH``.  A fresh process per operation gives every operation
its own peak RSS, cold decode memos and a fresh process-global
``BGPSession`` counter, exactly like one ``repro scenario run``.  The
request is one JSON object on stdin; the answer is one JSON line on
stdout.

An operation has two parts:

* set-up: importing ``repro`` and building the specs.  The request's
  sender turns the moment set-up ends (``ready``, on the system-wide
  monotonic clock) into ``setup_s``;
* the measured call, timed around ``run_scenario`` (kinds ``sim``,
  ``replay`` and ``spill``) or ``run_sweep`` (kind ``sweep``).

The process, and every process it starts, runs on one CPU.  While it
runs, :class:`HostSpeed` times a fixed reference loop every 10 ms, on
that CPU, and the answer carries each part's *slowdown*: the trimmed
mean of those times over the loop's time on a quiet reference host.
The sender divides each part's time by its slowdown.

A request with ``"probe": true`` stops after set-up.  One with
``"trace": true`` runs without the sampler and runs both parts under
``cProfile``, the measured call with the obs registry enabled, and
adds self time per layer (see :data:`LAYERS`) and call counts to the
answer.  Work done after the measured call (digests, the sweep's warm
re-run) is never timed, sampled or profiled.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import json
import os
import pstats
import resource
import shutil
import signal
import struct
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import replace

#: Layer -> path prefixes inside the ``repro`` package.  A file belongs
#: to the layer with the longest matching prefix, so ``bgp/wire.py`` is
#: ``bgp.wire`` while the rest of ``bgp/`` is ``bgp.attributes``.  The
#: empty prefix makes ``scenarios.infra`` the layer of everything else:
#: the rest of ``scenarios/``, ``durable``, ``faults``, ``obs`` and the
#: CLI entry points.
LAYERS = (
    ("simulator.events", ("simulator/",)),
    ("simulator.router", ("simulator/router.py", "simulator/damping.py")),
    ("rib.decision", ("rib/decision.py",)),
    ("rib.tables", ("rib/",)),
    ("policy", ("policy/", "vendors/", "workloads/practices.py")),
    ("workloads", ("workloads/", "beacons/")),
    ("simulator.collector", ("simulator/collector.py", "mrt/writer.py")),
    ("bgp.attributes", ("bgp/",)),
    ("bgp.wire", ("bgp/wire.py",)),
    ("mrt.reader", ("mrt/",)),
    ("netbase", ("netbase/",)),
    ("pipeline", ("pipeline/", "analysis/observations.py")),
    ("analysis.classify", ("analysis/classify.py", "analysis/duplicates.py")),
    ("analysis.cleaning", ("analysis/cleaning.py",)),
    ("scenarios.collectors", ("scenarios/collectors.py", "analysis/")),
    ("scenarios.infra", ("",)),
)
LAYER_NAMES = tuple(name for name, _ in LAYERS)

#: Where this script's own frames and the profiler's root go: the
#: layer whose entry points they call.
ENTRY_LAYER = "scenarios.infra"

#: Calls into public functions, counted by the profiler:
#: metric -> (file inside ``repro``, function name).
COUNTED_CALLS = {
    "rib.decision.runs": ("rib/decision.py", "select"),
    "bgp.attributes.rewrites": ("bgp/attributes.py", "replace"),
    "bgp.wire.messages_decoded": ("bgp/wire.py", "decode_message_from"),
}

#: Seconds between two host-speed samples.
SAMPLE_PERIOD = 0.01
#: Seconds :func:`reference_work` takes on the 2-vCPU reference host
#: when no other tenant slows its CPU down.  A slowdown is a sample's
#: time over this; the value only sets the unit of normalised times.
REFERENCE_WORK_S = 2.0e-4
#: Share of the slowest samples left out of the mean (interrupts).
SAMPLE_TRIM = 0.03

_REFERENCE_BYTES = bytes(range(256)) * 4


class _Pair:
    __slots__ = ("left", "right", "total")

    def __init__(self, left: int, right: int, total: int):
        self.left = left
        self.right = right
        self.total = total

    def key(self):
        return (self.left, self.right)


def reference_work() -> int:
    """A fixed mix of the work the program does: dict updates with
    tuple keys and strings, integer arithmetic, small objects with
    slots and methods, and byte parsing."""
    table: "dict[tuple, int]" = {}
    for i in range(75):
        key = (i % 61, i & 7)
        table[key] = table.get(key, 0) + len(str(i))
    total = len(sorted(table.items()))
    x = 0
    for i in range(375):
        x = (x * 31 + i) & 0xFFFF
    pairs: "dict[tuple, _Pair]" = {}
    for i in range(62):
        pair = _Pair(i & 15, i >> 4, i)
        key = pair.key()
        if key in pairs:
            pairs[key].total += pair.total
        else:
            pairs[key] = pair
    view = memoryview(_REFERENCE_BYTES)
    for offset in range(0, 400, 8):
        high, low = struct.unpack_from("!HH", _REFERENCE_BYTES, offset)
        total += high ^ low ^ int.from_bytes(view[offset + 4:offset + 8], "big")
        total += len(_REFERENCE_BYTES[offset:offset + 6].hex())
    return total + x + len(pairs)


class HostSpeed:
    """Samples how fast this process's CPU runs, from inside it.

    On a shared host the CPU's speed changes from second to second
    with what other tenants run, by up to 2x.  Every
    :data:`SAMPLE_PERIOD` a ``SIGALRM`` handler times
    :func:`reference_work` with the garbage collector off, so each
    sample sees the CPU the program runs on, at the moment it runs.
    """

    def __init__(self):
        self._samples: "list[float]" = []

    def _sample(self, _signum, _frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        started = time.perf_counter()
        reference_work()
        self._samples.append(time.perf_counter() - started)
        if collecting:
            gc.enable()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD, SAMPLE_PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def take(self) -> dict:
        """The slowdown since the last take, and the seconds sampling
        took (which the sender takes off the part's time)."""
        samples, self._samples = sorted(self._samples), []
        if not samples:
            return {"slowdown": None, "sampled_s": 0.0, "samples": 0}
        kept = samples[: max(1, round(len(samples) * (1 - SAMPLE_TRIM)))]
        return {
            "slowdown": sum(kept) / len(kept) / REFERENCE_WORK_S,
            "sampled_s": sum(samples),
            "samples": len(samples),
        }


class LayerMap:
    """Maps a profiler code location to its layer."""

    def __init__(self, repro_dir: str):
        self._root = os.path.join(os.path.abspath(repro_dir), "")
        self._prefixes = sorted(
            (
                (prefix, layer)
                for layer, prefixes in LAYERS
                for prefix in prefixes
            ),
            key=lambda item: -len(item[0]),
        )

    def relative(self, filename: str) -> "str | None":
        """*filename* relative to the ``repro`` package, or None."""
        if not filename.startswith(self._root):
            return None
        return filename[len(self._root):].replace(os.sep, "/")

    def layer(self, filename: str) -> "str | None":
        """The layer of *filename*; None for code outside ``repro``."""
        if filename == os.path.abspath(__file__):
            return ENTRY_LAYER
        relative = self.relative(filename)
        if relative is None:
            return None
        return next(
            layer
            for prefix, layer in self._prefixes
            if relative.startswith(prefix)
        )


def layer_self_times(stats: dict, layers: LayerMap) -> "dict[str, float]":
    """Profiler self time per layer; nothing is left unassigned.

    *stats* is ``pstats.Stats(...).stats``.  Self time of code outside
    ``repro`` (the standard library, and builtins when they are
    profiled) is charged to the layers that called it, in proportion
    to the time each caller spent in it; a caller that is itself
    outside ``repro`` passes its share on to its own callers the same
    way.  Each split's weights sum to one, and a function with no
    weighted caller goes to :data:`ENTRY_LAYER`, so the totals sum to
    the profiler's total by construction.
    """
    own = {func: layers.layer(func[0]) for func in stats}
    spreads: "dict[tuple, dict[str, float]]" = {}

    def split(func, index: int, active: set) -> "dict[str, float]":
        # index 2 weighs each caller by the callee's self time spent
        # under it, index 3 by the callee's cumulative time.
        by_time: "dict[str, float]" = defaultdict(float)
        by_calls: "dict[str, float]" = defaultdict(float)
        active.add(func)
        for caller, edge in stats[func][4].items():
            if caller in active:
                continue
            layer = own.get(caller, ENTRY_LAYER)
            parts = {layer: 1.0} if layer else spread(caller, active)
            for part_layer, part in parts.items():
                by_time[part_layer] += edge[index] * part
                by_calls[part_layer] += edge[1] * part
        active.discard(func)
        for weights in (by_time, by_calls):
            total = sum(weights.values())
            if total > 0:
                return {
                    layer: weight / total for layer, weight in weights.items()
                }
        return {ENTRY_LAYER: 1.0}

    def spread(func, active: set) -> "dict[str, float]":
        if func not in spreads:
            spreads[func] = split(func, 3, active)
        return spreads[func]

    totals = dict.fromkeys(LAYER_NAMES, 0.0)
    for func, (_cc, _nc, self_time, _cum, _callers) in stats.items():
        if self_time <= 0:
            continue
        layer = own[func]
        if layer is not None:
            totals[layer] += self_time
            continue
        for part_layer, part in split(func, 2, set()).items():
            totals[part_layer] += self_time * part
    return totals


def counted_calls(stats: dict, layers: LayerMap) -> "dict[str, int]":
    """The :data:`COUNTED_CALLS` counts from one profile."""
    wanted = {target: metric for metric, target in COUNTED_CALLS.items()}
    counts = dict.fromkeys(COUNTED_CALLS, 0)
    for (filename, _line, function), entry in stats.items():
        metric = wanted.get((layers.relative(filename), function))
        if metric is not None:
            counts[metric] += entry[1]
    return counts


def digest(results) -> str:
    """sha256 over the results' metrics and reader stats, in order.

    The spec (which names archive paths) is left out, so the digest
    depends only on what the run computed.
    """
    payload = [
        {"metrics": result.metrics, "reader_stats": result.reader_stats}
        for result in results
    ]
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


def observations(result) -> int:
    return result.metrics["update_counts"]["observations"]


def cell_facts(report) -> dict:
    """The cell figures of a ``SweepReport``, for the layer table."""
    return {
        "cell_p50_s": report.cell_seconds_percentile(0.5),
        "cell_p75_s": report.cell_seconds_percentile(0.75),
        "cell_busy_s": report.total_cell_seconds(),
        "workers": report.workers,
    }


def run_cell_facts(walls: "dict[str, float]") -> dict:
    """:func:`cell_facts` of plain ``run_scenario`` calls, one cell each."""
    from repro.scenarios import SweepReport

    return cell_facts(
        SweepReport(results=[], workers=1, cell_wall_seconds=walls)
    )


def summed_types(results) -> "dict[str, int]":
    types: "dict[str, int]" = defaultdict(int)
    for result in results:
        for kind, count in result.metrics["update_counts"]["types"].items():
            types[kind] += count
    return dict(sorted(types.items()))


# ----------------------------------------------------------------------
# operation kinds: each builds its specs (set-up) and returns the
# measured call and the untimed summary of what it returned
# ----------------------------------------------------------------------
def prepare_sim(request):
    from repro.scenarios import get_scenario, run_scenario

    spec = get_scenario(request["scenario"])

    def run():
        started = time.perf_counter()
        result = run_scenario(spec)
        return result, time.perf_counter() - started

    def summarize(output):
        result, wall = output
        return {
            "digest": digest([result]),
            "observations": observations(result),
            "reports": [result.metrics_report],
            **run_cell_facts({result.name: wall}),
        }

    return run, summarize


def prepare_spill(request):
    from repro.scenarios import get_scenario, run_scenario

    spec = get_scenario(request["scenario"])
    spec = replace(
        spec, internet=replace(spec.internet, archive_policy="mrt-spill")
    )

    def run():
        return run_scenario(spec)

    def summarize(result):
        archives = {}
        for collector, path in sorted(result.spill_paths.items()):
            target = os.path.join(request["out_dir"], f"{collector}.mrt")
            os.replace(path, target)
            archives[collector] = target
        return {
            "digest": digest([result]),
            "types": summed_types([result]),
            "spec_hash": result.spec_hash,
            "archives": archives,
        }

    return run, summarize


def prepare_replay(request):
    from repro.scenarios import get_scenario, run_scenario

    base = get_scenario(request["scenario"])
    specs = [
        replace(base, mrt=replace(base.mrt, path=path, collector=collector))
        for collector, path in request["archives"]
    ]

    def run():
        output = []
        for spec in specs:
            started = time.perf_counter()
            result = run_scenario(spec)
            output.append((result, time.perf_counter() - started))
        return output

    def summarize(output):
        results = sorted(
            (result for result, _ in output),
            key=lambda result: result.spec.mrt.collector,
        )
        return {
            "digest": digest(results),
            "observations": sum(
                result.reader_stats["observations"] for result in results
            ),
            "reader_stats": {
                result.spec.mrt.collector: result.reader_stats
                for result in results
            },
            "types": summed_types(results),
            "reports": [result.metrics_report for result in results],
            **run_cell_facts(
                {result.spec.mrt.collector: wall for result, wall in output}
            ),
        }

    return run, summarize


def prepare_sweep(request):
    from repro.scenarios import expand_seeds, get_scenario, run_sweep

    specs = expand_seeds(
        get_scenario(request["scenario"]), request["cell_seeds"]
    )
    cache_dir = tempfile.mkdtemp(prefix="sweep-cache-")
    options = dict(
        backend=request["backend"],
        workers=request["workers"],
        cache_dir=cache_dir,
    )

    def run():
        return run_sweep(specs, **options)

    def summarize(report):
        results = sorted(report.results, key=lambda result: result.name)
        warm = run_sweep(specs, **options)
        warm_results = sorted(warm.results, key=lambda result: result.name)
        shutil.rmtree(cache_dir)
        return {
            "digest": digest(results),
            "observations": sum(observations(r) for r in results),
            **cell_facts(report),
            "misses": report.cache_misses,
            "sweep_failures": len(report.failures) + len(warm.failures),
            "warm_hits": warm.cache_hits,
            "warm_digest": digest(warm_results),
        }

    return run, summarize


KINDS = {
    "sim": prepare_sim,
    "spill": prepare_spill,
    "replay": prepare_replay,
    "sweep": prepare_sweep,
}


def peak_rss_mb() -> float:
    """Peak RSS of this process and of every child it has reaped."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


def trace_facts(profiles, facts: dict) -> dict:
    """Per-layer self times, call counts and obs reports of one op."""
    import repro

    layers = LayerMap(os.path.dirname(repro.__file__))
    stats = {part: pstats.Stats(profile) for part, profile in profiles.items()}
    table = {}
    for part, part_stats in stats.items():
        times = layer_self_times(part_stats.stats, layers)
        for layer, seconds in times.items():
            table.setdefault(layer, {})[part] = seconds
    memo: "dict[str, dict[str, int]]" = {}
    gauges: "dict[str, float]" = {}
    phases: "dict[str, float]" = defaultdict(float)
    for report in facts.pop("reports", ()):
        for name, counters in report.get("memo", {}).items():
            into = memo.setdefault(name, {"hits": 0, "misses": 0})
            into["hits"] += counters["hits"]
            into["misses"] += counters["misses"]
        gauges.update(report.get("gauges", {}))
        for name, seconds in report.get("phases", {}).items():
            phases[name] += seconds
    return {
        "layers": table,
        "total_s": sum(part_stats.total_tt for part_stats in stats.values()),
        "calls": counted_calls(stats["run"].stats, layers),
        "memo": memo,
        "gauges": gauges,
        "phases": dict(phases),
    }


def measure(request: dict, speed: HostSpeed) -> dict:
    """Set up and run the requested op; returns its facts."""
    profiles = {}
    if request.get("trace"):
        # Without builtin entries a builtin's time is part of its
        # caller's self time, which is where the layer table wants it,
        # and the profiler costs less.
        profiles = {
            part: cProfile.Profile(builtins=False) for part in ("setup", "run")
        }
        profiles["setup"].enable()
    else:
        speed.start()
    run, summarize = KINDS[request["kind"]](request)
    facts = {"ready": time.monotonic(), "setup_speed": speed.take()}
    if profiles:
        profiles["setup"].disable()
    if request.get("probe"):
        return facts
    if profiles:
        from repro.obs.metrics import enabled_scope, set_metrics_enabled

        def untraced_child() -> None:
            # Sweep pool workers fork from this process and would
            # inherit the profiler hook and the enabled registry; their
            # cells must run as they do untraced.
            sys.setprofile(None)
            set_metrics_enabled(False)

        os.register_at_fork(after_in_child=untraced_child)
        with enabled_scope():
            profiles["run"].enable()
            started = time.perf_counter()
            output = run()
            wall = time.perf_counter() - started
            profiles["run"].disable()
    else:
        started = time.perf_counter()
        output = run()
        wall = time.perf_counter() - started
    facts["run_speed"] = speed.take()
    speed.stop()
    peak = peak_rss_mb()
    facts.update(summarize(output))
    facts.update(wall_s=wall, peak_rss_mb=peak)
    if profiles:
        facts["trace"] = trace_facts(profiles, facts)
    facts.pop("reports", None)
    return facts


def main() -> int:
    request = json.loads(sys.stdin.read())
    sys.setrecursionlimit(10000)
    # Sweep pool workers inherit the CPU, so the samples see the CPU
    # that every part of the op runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    speed = HostSpeed()
    try:
        facts = measure(request, speed)
    finally:
        # A failing op must still exit with its own status, not be
        # killed by a timer signal once its handler is gone.
        speed.stop()
    print(json.dumps(facts, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
