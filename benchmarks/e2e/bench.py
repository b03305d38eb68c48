#!/usr/bin/env python3
"""End-to-end benchmark: the paper's measurement day and a sweep.

Usage, from the repository root::

    python3 benchmarks/e2e/bench.py                      # every workload
    python3 benchmarks/e2e/bench.py --workload replay-mar20 --seed 7
    python3 benchmarks/e2e/bench.py --trace 1            # layer tables
    python3 benchmarks/e2e/bench.py --workload sim-medium --seed 3 \\
        --seconds 10 --trace 0

The workloads and their parameters are in ``workloads.json`` next to
this file; metric names, units and regression bounds are in the
repository's ``BENCHMARK.json``.  Every operation (op) runs in a fresh
``op.py`` process, one after another (a closed loop with one client).
A run first starts ``setup_samples`` set-up probes, then ops until
``--seconds`` have passed, and never fewer than one op.  Times are
normalised to the reference host's speed, sampled inside each op (see
``op.HostSpeed``).  With ``--trace 1`` a run makes one profiled op
instead and reports per-layer metrics.

``--seed`` is the load generator's seed.  The simulated days are the
same at every seed; the seed sets ``PYTHONHASHSEED`` in every process
an op starts and which archive is replayed first.  So the output
digest of every op, at every seed, must equal the one pinned in
``workloads.json``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit status is 0 when
every op passed every check, 1 otherwise, and 2 when the sources or
the benchmark files are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from op import LAYER_NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OP = os.path.join(HERE, "op.py")
TABLE = os.path.join(HERE, "workloads.json")
CONTRACT = os.path.join(ROOT, "BENCHMARK.json")
#: Generated inputs and per-op scratch dirs; ignored by git.
WORK = os.path.join(HERE, ".work")

#: Seconds an op may take before it is killed and counted as failed.
OP_TIMEOUT = 60.0
#: The same for a profiled op, which runs about 2.5x slower.
TRACE_TIMEOUT = 2 * OP_TIMEOUT
#: The same for generating the replay input (a full simulated day).
INPUT_TIMEOUT = 600.0

E2E_UNITS = {
    "wall_s": "s",
    "obs_per_s": "obs/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: Memo -> label in ``netbase.memo.<label>.hit_rate``.
MEMOS = (
    ("wire.attr_block", "attr_block"),
    ("wire.as_path", "as_path"),
    ("wire.community_set", "community_set"),
    ("prefix.nlri", "nlri"),
)


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or files)."""


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from None


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def src_tree_sha256() -> str:
    """sha256 over every ``src/repro/**/*.py``, path and content."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "repro")
    paths = []
    for directory, _dirs, files in os.walk(package):
        paths.extend(
            os.path.join(directory, name)
            for name in files
            if name.endswith(".py")
        )
    for path in sorted(paths):
        digest.update(os.path.relpath(path, SRC).encode() + b"\0")
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def median_and_quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ----------------------------------------------------------------------
# one op in a fresh process
# ----------------------------------------------------------------------
def normalised(seconds: float, speed: dict) -> float:
    """*seconds* of a part of an op at the reference host's speed.

    The time the part spent sampling is taken off first; the rest is
    divided by the part's slowdown (see ``op.HostSpeed``).
    """
    return (seconds - speed["sampled_s"]) / speed["slowdown"]


def run_child(request: dict, seed: int, timeout: float = OP_TIMEOUT):
    """Run one ``op.py`` process; returns ``(facts, error)``.

    On success *facts* is the child's answer plus ``setup_raw_s``: the
    time from just before the process was started to the end of its
    set-up, both read from the system-wide monotonic clock.  Unless
    the op was traced, ``setup_s`` and ``wall_s`` are normalised to
    the reference host's speed; the measured wall time is kept as
    ``wall_raw_s``.
    """
    tmp_root = os.path.join(WORK, "tmp")
    os.makedirs(tmp_root, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="op-", dir=tmp_root)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    env["TMPDIR"] = scratch
    try:
        spawned = time.monotonic()
        child = subprocess.Popen(
            [sys.executable, OP],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            cwd=scratch,
            text=True,
            start_new_session=True,
        )
        try:
            out, err = child.communicate(json.dumps(request), timeout=timeout)
        except subprocess.TimeoutExpired:
            out, err = None, f"timed out after {timeout:.0f} s"
        finally:
            # The op's own children (sweep pool workers) share its
            # session; none may outlive the op.
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            child.wait()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if out is None:
        return None, err
    if child.returncode != 0:
        lines = err.strip().splitlines() or [""]
        return None, f"exit {child.returncode}: {lines[-1]}"
    try:
        facts = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None, "no JSON answer on stdout"
    facts["setup_raw_s"] = facts["ready"] - spawned
    if request.get("trace"):
        facts["setup_s"] = facts["setup_raw_s"]
        return facts, None
    parts = [("setup_s", "setup_raw_s", "setup_speed")]
    if not request.get("probe"):
        facts["wall_raw_s"] = facts["wall_s"]
        parts.append(("wall_s", "wall_raw_s", "run_speed"))
    for name, raw, speed in parts:
        if facts[speed]["slowdown"] is None:
            return None, f"no host-speed samples in {name}"
        facts[name] = normalised(facts[raw], facts[speed])
    return facts, None


# ----------------------------------------------------------------------
# the replay input: the source day's spilled archives, cached
# ----------------------------------------------------------------------
def replay_inputs(entry: dict, seed: int, log) -> "tuple[dict, str | None]":
    """The spilled archives of ``entry["source"]``, generated once.

    Cached under ``.work/inputs`` keyed by the source scenario and a
    sha256 over ``src/repro`` (which fixes the spill spec, its seed and
    the code that writes the bytes), and checked by size and sha256
    on every hit.  Returns ``(index, error)``; the index holds each
    archive's path, size and sha256 and the spill run's digest and
    announcement types.
    """
    key = hashlib.sha256(
        json.dumps(
            {
                "source": entry["source"],
                "policy": "mrt-spill",
                "src": src_tree_sha256(),
            },
            sort_keys=True,
        ).encode()
    ).hexdigest()[:16]
    inputs_dir = os.path.join(WORK, "inputs")
    final = os.path.join(inputs_dir, f"{entry['source']}-{key}")
    index = load_inputs(final)
    if index is not None:
        index["generated"] = False
        return index, None
    if os.path.exists(final):
        log(f"  input cache {final} is damaged; regenerating")
    # Archives made from older sources are never read again, and a
    # staging dir is left only by a run that was killed.
    os.makedirs(inputs_dir, exist_ok=True)
    for name in os.listdir(inputs_dir):
        if name.startswith((f"{entry['source']}-", "staging-")):
            shutil.rmtree(os.path.join(inputs_dir, name), ignore_errors=True)
    staging = tempfile.mkdtemp(prefix="staging-", dir=inputs_dir)
    started = time.perf_counter()
    facts, error = run_child(
        {"kind": "spill", "scenario": entry["source"], "out_dir": staging},
        seed,
        timeout=INPUT_TIMEOUT,
    )
    if error is not None:
        shutil.rmtree(staging, ignore_errors=True)
        return {}, f"input generation failed: {error}"
    index = {
        "source": entry["source"],
        "spec_hash": facts["spec_hash"],
        "digest": facts["digest"],
        "types": facts["types"],
        "generate_s": time.perf_counter() - started,
        "archives": {},
    }
    for collector, path in facts["archives"].items():
        index["archives"][collector] = {
            "file": os.path.basename(path),
            "bytes": os.path.getsize(path),
            "sha256": sha256_file(path),
        }
    with open(os.path.join(staging, "input.json"), "w") as handle:
        json.dump(index, handle, indent=2, sort_keys=True)
    os.replace(staging, final)
    index = load_inputs(final)
    if index is None:
        return {}, f"input generation left no valid archives in {final}"
    index["generated"] = True
    return index, None


def load_inputs(directory: str) -> "dict | None":
    """The input index in *directory* if every archive checks out."""
    try:
        index = load_json(os.path.join(directory, "input.json"))
        for archive in index["archives"].values():
            archive["path"] = os.path.join(directory, archive["file"])
            if (
                os.path.getsize(archive["path"]) != archive["bytes"]
                or sha256_file(archive["path"]) != archive["sha256"]
            ):
                return None
    except (BenchError, OSError, KeyError, TypeError):
        return None
    return index


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
def check_op(entry: dict, facts: dict, first_digest, inputs: dict):
    """Every way *facts* can be wrong, as a list of messages."""
    problems = []
    expected = entry.get("expected_output_sha256")
    if expected and facts["digest"] != expected:
        problems.append(
            f"output digest {facts['digest'][:16]} != pinned {expected[:16]}"
        )
    if first_digest is not None and facts["digest"] != first_digest:
        problems.append(
            f"output digest {facts['digest'][:16]} differs from the"
            f" first op's {first_digest[:16]}"
        )
    kind = entry["kind"]
    if kind == "replay":
        for collector, stats in sorted(facts["reader_stats"].items()):
            damaged = stats["error_records"] + stats["skipped_records"]
            if damaged:
                problems.append(f"{collector}: {damaged} damaged records")
        if facts["types"] != inputs["types"]:
            problems.append(
                f"replayed types {facts['types']} != live run's"
                f" {inputs['types']}"
            )
    elif kind == "sweep":
        cells = entry["cells"]
        if facts["misses"] != cells or facts["sweep_failures"]:
            problems.append(
                f"cold sweep: {facts['misses']} misses,"
                f" {facts['sweep_failures']} failures (want {cells}, 0)"
            )
        if facts["warm_hits"] != cells:
            problems.append(
                f"warm re-run: {facts['warm_hits']} hits (want {cells})"
            )
        if facts["warm_digest"] != facts["digest"]:
            problems.append("warm re-run digest differs from the cold run")
    return problems


def check_inputs(entry: dict, inputs: dict):
    expected = entry.get("source_sha256")
    if expected and inputs["digest"] != expected:
        return [
            f"spill run digest {inputs['digest'][:16]} != live run's"
            f" pinned {expected[:16]}"
        ]
    return []


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def e2e_metrics(passed, setups):
    """End-to-end metrics and print-only extras over the passed ops.

    *setups* holds the facts of every process that finished its
    set-up: the probes and the ops.
    """
    if not passed:
        zeros = {name: (0.0, unit) for name, unit in E2E_UNITS.items()}
        return zeros, {}

    def median(key, of=passed):
        return statistics.median([facts[key] for facts in of])

    wall_q1, wall, wall_q3 = median_and_quartiles(
        [facts["wall_s"] for facts in passed]
    )
    values = {
        "wall_s": wall,
        "obs_per_s": statistics.median(
            [facts["observations"] / facts["wall_s"] for facts in passed]
        ),
        "peak_rss_mb": median("peak_rss_mb"),
        "setup_s": median("setup_s", setups),
    }
    metrics = {name: (values[name], unit) for name, unit in E2E_UNITS.items()}
    extras = {
        "wall_s.q1": (wall_q1, "s"),
        "wall_s.q3": (wall_q3, "s"),
        "ops": (len(passed), "count"),
        "setup_s.n": (len(setups), "count"),
        "wall_raw_s": (median("wall_raw_s"), "s"),
        "setup_raw_s": (median("setup_raw_s", setups), "s"),
        "host.slowdown": (
            statistics.median(
                [facts["run_speed"]["slowdown"] for facts in passed]
            ),
            "x",
        ),
    }
    return metrics, extras


def layer_metrics(facts: dict):
    """The per-layer metrics of one traced op, plus print-only extras."""
    trace = facts["trace"]
    total = trace["total_s"]
    metrics = {}
    for layer in LAYER_NAMES:
        parts = trace["layers"].get(layer, {})
        seconds = parts.get("setup", 0.0) + parts.get("run", 0.0)
        metrics[f"{layer}.self_s"] = (seconds, "s")
        metrics[f"{layer}.share"] = (seconds / total, "fraction")
    gauges = trace["gauges"]
    for name, gauge, unit in (
        ("simulator.events.processed", "sim.events_processed", "count"),
        ("simulator.events.peak_pending", "sim.peak_pending_events", "count"),
        (
            "simulator.events.messages_per_event",
            "sim.messages_per_event",
            "msg/event",
        ),
        ("simulator.collector.messages", "sim.collected_messages", "count"),
    ):
        metrics[name] = (gauges.get(gauge, 0), unit)
    for name, count in trace["calls"].items():
        metrics[name] = (count, "count")
    reader = list(facts.get("reader_stats", {}).values())
    metrics["mrt.reader.records"] = (
        sum(stats["records"] for stats in reader),
        "count",
    )
    metrics["mrt.reader.damaged"] = (
        sum(s["error_records"] + s["skipped_records"] for s in reader),
        "count",
    )
    for memo, label in MEMOS:
        counters = trace["memo"].get(memo, {"hits": 0, "misses": 0})
        lookups = counters["hits"] + counters["misses"]
        metrics[f"netbase.memo.{label}.hit_rate"] = (
            counters["hits"] / lookups if lookups else 0.0,
            "fraction",
        )
    metrics["pipeline.observations"] = (facts["observations"], "count")
    workers = facts["workers"]
    elapsed = facts["setup_s"] + facts["wall_s"]
    busy = facts["cell_busy_s"]
    metrics["scenarios.infra.cell_p50_s"] = (facts["cell_p50_s"], "s")
    metrics["scenarios.infra.cell_p75_s"] = (facts["cell_p75_s"], "s")
    metrics["scenarios.infra.utilization"] = (
        busy / (elapsed * workers),
        "fraction",
    )
    metrics["scenarios.infra.wait_s"] = (elapsed * workers - busy, "s")
    extras = {
        f"phase.{name}_s": (seconds, "s")
        for name, seconds in sorted(trace["phases"].items())
    }
    extras["trace.total_s"] = (total, "s")
    extras["trace.wall_s"] = (facts["wall_s"], "s")
    return metrics, extras


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------
def op_request(entry: dict, seed: int, inputs: dict) -> dict:
    """The request every op of this run sends: the generated inputs.

    The seed orders the replayed archives.  The sweep's cells keep
    their order: the single pool worker's peak RSS depends on which
    cells it runs last, and a seed-made order moved it by 3%.
    """
    request = {"kind": entry["kind"], "scenario": entry["scenario"]}
    if entry["kind"] == "replay":
        archives = [
            [collector, archive["path"]]
            for collector, archive in sorted(inputs["archives"].items())
        ]
        random.Random(seed).shuffle(archives)
        request["archives"] = archives
    elif entry["kind"] == "sweep":
        request.update(
            cell_seeds=list(range(1, entry["cells"] + 1)),
            workers=entry["workers"],
            backend=entry["backend"],
        )
    return request


def run_workload(
    entry: dict,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    setup_samples: int,
    log=print,
) -> dict:
    """Run one workload; never raises for a failing op.

    Returns ``attempted``/``failed`` op counts, the ``problems`` found,
    the ``metrics`` (name -> (value, unit)): end-to-end ones, or with
    *trace* per-layer ones, plus print-only ``extras`` and the op
    ``digests``.
    """
    result = {
        "attempted": 0,
        "failed": 0,
        "problems": [],
        "metrics": {},
        "extras": {},
        "digests": [],
    }

    def fail(label: str, problems) -> None:
        result["failed"] += 1
        for problem in problems:
            result["problems"].append(f"{label}: {problem}")
            log(f"  {label}: FAILED: {problem}")

    inputs: dict = {}
    if entry["kind"] == "replay":
        result["attempted"] += 1
        inputs, error = replay_inputs(entry, seed, log)
        problems = [error] if error else check_inputs(entry, inputs)
        if problems:
            fail("input", problems)
        if error:
            if not trace:
                result["metrics"], result["extras"] = e2e_metrics([], [])
            return result
        how = "generated now" if inputs["generated"] else "cached"
        log(f"  input_gen_s {inputs['generate_s']:.2f} ({how})")
        for collector, archive in sorted(inputs["archives"].items()):
            log(
                f"  input {collector}: {archive['bytes']} bytes,"
                f" sha256 {archive['sha256']}"
            )
    request = op_request(entry, seed, inputs)

    setups = []
    passed = []
    first_digest = None

    def run_op(label: str, **extra):
        nonlocal first_digest
        result["attempted"] += 1
        timeout = TRACE_TIMEOUT if extra.get("trace") else OP_TIMEOUT
        facts, error = run_child(dict(request, **extra), seed, timeout)
        if error is not None:
            fail(label, [error])
            return None
        setups.append(facts)
        if extra.get("probe"):
            return facts
        problems = check_op(entry, facts, first_digest, inputs)
        if first_digest is None:
            first_digest = facts["digest"]
        result["digests"].append(facts["digest"])
        measured = (
            f" (measured {facts['wall_raw_s']:.3f} s)"
            if "wall_raw_s" in facts
            else ""
        )
        log(
            f"  {label}: wall {facts['wall_s']:.3f} s{measured},"
            f" setup {facts['setup_s']:.3f} s,"
            f" rss {facts['peak_rss_mb']:.1f} MB,"
            f" digest {facts['digest']}"
        )
        if problems:
            fail(label, problems)
            return None
        passed.append(facts)
        return facts

    if trace:
        facts = run_op("traced op", trace=True)
        if facts is None:
            return result
        result["metrics"], result["extras"] = layer_metrics(facts)
        return result

    for probe in range(setup_samples):
        run_op(f"setup probe {probe + 1}", probe=True)
    started = time.monotonic()
    ops = 0
    while ops == 0 or time.monotonic() - started < seconds:
        ops += 1
        run_op(f"op {ops}")
    result["metrics"], result["extras"] = e2e_metrics(passed, setups)
    return result


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------
def contract_metrics(contract: dict, trace: bool):
    """(name, unit) of every metric a run must report."""
    section = contract["per_layer" if trace else "end_to_end"]
    return [(metric["name"], metric["unit"]) for metric in section]


def report(result: dict, contract_names, prefix: str = "") -> dict:
    """Print *result*'s table; return its contract metrics as JSON."""
    metrics = result["metrics"]
    for name, (value, unit) in list(metrics.items()) + list(
        result["extras"].items()
    ):
        print(f"  {name:<40} {value:>16.6g} {unit}")
    attempted, failed = result["attempted"], result["failed"]
    print(
        f"  {'error_rate':<40} {failed / max(attempted, 1):>16.6g}"
        f" ({failed} of {attempted} processes failed)"
    )
    selected = {}
    for name, unit in contract_names:
        if name not in metrics:
            if not result["failed"]:
                raise BenchError(f"the harness does not compute {name!r}")
            continue
        value, have_unit = metrics[name]
        if have_unit != unit:
            raise BenchError(
                f"{name}: BENCHMARK.json says {unit!r}, harness {have_unit!r}"
            )
        selected[prefix + name] = {"value": value, "unit": unit}
    return selected


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark (see benchmarks/e2e/README.md)."
    )
    parser.add_argument(
        "--workload",
        help="comma-separated workload names (default: all of them)",
    )
    parser.add_argument("--seed", type=int, help="load generator seed")
    parser.add_argument(
        "--seconds",
        type=float,
        help="how long to keep starting ops (default: BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        default=0,
        help="1: one profiled op per workload, per-layer metrics",
    )
    arguments = parser.parse_args(argv)
    # A terminated harness still kills and reaps the op it is waiting
    # for (run_child's cleanup runs as SystemExit unwinds).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if not os.path.isdir(os.path.join(SRC, "repro")):
            raise BenchError(f"no repro sources under {SRC}")
        contract = load_json(CONTRACT)
        table = load_json(TABLE)
        names = (
            arguments.workload.split(",")
            if arguments.workload
            else list(table["workloads"])
        )
        unknown = [name for name in names if name not in table["workloads"]]
        if unknown:
            raise BenchError(f"unknown workload(s): {', '.join(unknown)}")
        seed = (
            table["default_seed"] if arguments.seed is None else arguments.seed
        )
        seconds = (
            contract["run_seconds"]
            if arguments.seconds is None
            else arguments.seconds
        )
        trace = bool(arguments.trace)
        print(
            f"seed {seed}, {seconds:g} s per workload, trace {int(trace)},"
            f" cpu_count {os.cpu_count()}, Python"
            f" {platform.python_version()}"
        )
        wanted = contract_metrics(contract, trace)
        attempted = failed = 0
        selected = {}
        for name in names:
            print(f"== {name}")
            result = run_workload(
                table["workloads"][name],
                seed=seed,
                seconds=seconds,
                trace=trace,
                setup_samples=table["setup_samples"],
            )
            prefix = "" if len(names) == 1 else f"{name}."
            selected.update(report(result, wanted, prefix))
            attempted += result["attempted"]
            failed += result["failed"]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": selected,
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
