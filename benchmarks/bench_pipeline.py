#!/usr/bin/env python
"""Streaming-pipeline benchmark: events/sec and memory per policy.

Runs ladder scenarios with a live analysis sink (collector →
:class:`ObservationStream` → :class:`UpdateClassifier`) under each
collector ``archive_policy`` — ``full`` and ``mrt-spill`` — and
records the results into ``BENCH_pipeline.json`` so the
memory/throughput trade-off of the streaming refactor is tracked from
PR to PR.

Beyond timing, the harness *asserts* the refactor's contract:

* **bounded memory** — under ``mrt-spill`` every collector retains
  zero records, while the all-time message count (and the live
  classifier) prove the full stream still flowed, and the spilled
  archive hashes identically to the ``full`` policy's export;
* **equivalence** — the live classifier's type counts are identical
  across both policies (the archive backend cannot change what the
  analysis sees);
* **throughput** — ``mrt-spill`` stays within
  ``--min-throughput-ratio`` (default 0.9) of the ``full`` policy's
  events/sec, so bounding memory is not a hidden slowdown.

Usage::

    python benchmarks/bench_pipeline.py            # tiny + medium
    python benchmarks/bench_pipeline.py --quick    # tiny only, 1 repeat
    python benchmarks/bench_pipeline.py --keep-spill DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"),
)

from repro.analysis.classify import TYPE_ORDER, UpdateClassifier  # noqa: E402
from repro.pipeline.stream import ObservationStream  # noqa: E402
from repro.scenarios import get_scenario  # noqa: E402
from repro.scenarios.engine import internet_config_from_spec  # noqa: E402
from repro.simulator.session import BGPSession  # noqa: E402
from repro.workloads import InternetModel  # noqa: E402

LADDER = ("topology-tiny", "topology-medium", "topology-large")
DEFAULT_SCENARIOS = ("topology-tiny", "topology-medium")
POLICIES = ("full", "mrt-spill")


def peak_rss_kb() -> int:
    """Process peak RSS in KiB (monotonic; recorded for context)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_once(scenario: str, policy: str, *, spill_dir=None) -> dict:
    """One measured simulation with a live classification sink."""
    config = internet_config_from_spec(get_scenario(scenario))
    config.archive_policy = policy
    config.spill_dir = spill_dir
    BGPSession._counter = 0
    model = InternetModel(config)
    classifier = UpdateClassifier()
    stream = ObservationStream(classifier)
    model.attach_collector_sink(stream)
    started = time.perf_counter()
    day = model.run()
    elapsed = time.perf_counter() - started
    delivered = sum(
        router.received_updates for router in day.network.routers.values()
    ) + day.total_collected_messages()
    collectors = day.collectors()
    retained = {c.name: len(c.records) for c in collectors}
    spill_paths = [c.spill_path for c in collectors if c.spill_path]
    # Hash the full-fidelity export so both policies are provably
    # archiving the same stream.
    digest = hashlib.sha256()
    for collector in collectors:
        digest.update(collector.name.encode("utf-8"))
        digest.update(collector.dump_mrt())
    archive_hash = digest.hexdigest()[:16]
    for collector in collectors:
        collector.close()
    return {
        "scenario": scenario,
        "archive_policy": policy,
        "elapsed_seconds": round(elapsed, 4),
        "messages_delivered": delivered,
        "events_per_sec": round(delivered / elapsed, 1) if elapsed else 0.0,
        "observations_streamed": stream.observations_emitted,
        "classified_types": {
            kind.value: classifier.counts.counts[kind]
            for kind in TYPE_ORDER
        },
        "collector_messages": day.total_collected_messages(),
        "retained_records": retained,
        "retained_total": sum(retained.values()),
        "archive_hash": archive_hash,
        "peak_rss_kb": peak_rss_kb(),
        "spill_paths": spill_paths,
    }


def run_best_of(scenario, policy, repeat, *, spill_dir=None) -> dict:
    """Best of *repeat* runs; spill files are unlinked per run unless
    the caller asked to keep them (every repeat writes fresh ones)."""
    best = None
    for _ in range(max(1, repeat)):
        result = run_once(scenario, policy, spill_dir=spill_dir)
        if spill_dir is None:
            for path in result["spill_paths"]:
                try:
                    os.unlink(path)
                except OSError:
                    pass
            result["spill_paths"] = []
        if best is None or result["events_per_sec"] > best["events_per_sec"]:
            best = result
    return best


def check_contract(
    scenario: str,
    by_policy: "dict[str, dict]",
    min_ratio: float,
    min_measured_seconds: float,
):
    """Assert bounded memory, equivalence and throughput; raises SystemExit.

    The throughput floor only applies to rungs whose full-policy run
    lasts at least *min_measured_seconds*: on sub-second rungs the
    events/sec ratio measures constant setup costs (spill-file
    creation, cache warm-up), not the streaming hot path.  The memory
    and equivalence contracts are asserted unconditionally.
    """
    full = by_policy["full"]
    check_throughput = full["elapsed_seconds"] >= min_measured_seconds
    problems = []
    for policy, result in by_policy.items():
        if result["classified_types"] != full["classified_types"]:
            problems.append(
                f"{scenario}/{policy}: live classification diverged from"
                f" the full policy"
            )
        if result["collector_messages"] != full["collector_messages"]:
            problems.append(
                f"{scenario}/{policy}: collector message count diverged"
            )
        if policy == "mrt-spill":
            if result["retained_total"] != 0:
                problems.append(
                    f"{scenario}/mrt-spill: retained"
                    f" {result['retained_total']} records in memory"
                )
            if result["archive_hash"] != full["archive_hash"]:
                problems.append(
                    f"{scenario}/mrt-spill: spilled archive hash"
                    f" {result['archive_hash']} != full"
                    f" {full['archive_hash']}"
                )
        if (
            check_throughput
            and policy != "full"
            and full["events_per_sec"]
        ):
            ratio = result["events_per_sec"] / full["events_per_sec"]
            if ratio < min_ratio:
                problems.append(
                    f"{scenario}/{policy}: {ratio:.2f}x of full-policy"
                    f" throughput (floor {min_ratio})"
                )
    if problems:
        raise SystemExit(
            "pipeline contract violated:\n  " + "\n  ".join(problems)
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the streaming observation pipeline."
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smoke mode: smallest ladder rung only, one repeat",
    )
    parser.add_argument(
        "--scenarios",
        default=None,
        help=f"comma-separated scenario names (default:"
        f" {','.join(DEFAULT_SCENARIOS)}; ladder: {','.join(LADDER)})",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=3,
        help="runs per scenario x policy; the best is recorded",
    )
    parser.add_argument(
        "--min-throughput-ratio",
        type=float,
        default=0.9,
        help="mrt-spill must reach this fraction of the full"
        " policy's events/sec (default 0.9, i.e. at most ~10%%"
        " regression)",
    )
    parser.add_argument(
        "--min-measured-seconds",
        type=float,
        default=1.0,
        help="apply the throughput floor only to rungs whose"
        " full-policy run lasts at least this long (default 1.0)",
    )
    parser.add_argument(
        "--keep-spill",
        default=None,
        metavar="DIR",
        help="write mrt-spill archives into DIR and keep them"
        " (default: system temp, deleted)",
    )
    parser.add_argument(
        "--output",
        default=os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "..",
            "BENCH_pipeline.json",
        ),
        help="where to write the JSON report (default: repo root)",
    )
    args = parser.parse_args(argv)

    if args.scenarios:
        scenarios = tuple(
            name.strip() for name in args.scenarios.split(",") if name.strip()
        )
    elif args.quick:
        scenarios = (LADDER[0],)
    else:
        scenarios = DEFAULT_SCENARIOS
    repeat = 1 if args.quick else args.repeat

    runs = []
    for scenario in scenarios:
        by_policy = {}
        for policy in POLICIES:
            result = run_best_of(
                scenario, policy, repeat, spill_dir=args.keep_spill
            )
            by_policy[policy] = result
            runs.append(result)
            print(
                f"{scenario} [{policy}]:"
                f" {result['events_per_sec']:,.0f} events/s,"
                f" {result['observations_streamed']} observations"
                f" streamed, retained {result['retained_total']}"
                f" records, hash {result['archive_hash'] or '-'}"
            )
        check_contract(
            scenario,
            by_policy,
            args.min_throughput_ratio,
            args.min_measured_seconds,
        )
        full_rate = by_policy["full"]["events_per_sec"]
        for policy in POLICIES[1:]:
            ratio = (
                by_policy[policy]["events_per_sec"] / full_rate
                if full_rate
                else 0.0
            )
            print(f"  {policy}: {ratio:.2f}x of full-policy throughput")

    report = {
        "version": 1,
        "quick": bool(args.quick),
        "repeat": repeat,
        "min_throughput_ratio": args.min_throughput_ratio,
        "runs": runs,
    }

    # Merge with any existing report: keep the recorded baseline block
    # and entries for (scenario, policy) pairs not re-run this time.
    if os.path.exists(args.output):
        try:
            with open(args.output, "r", encoding="utf-8") as handle:
                previous_report = json.load(handle)
        except (OSError, ValueError):
            previous_report = {}
        if "baseline" in previous_report:
            report["baseline"] = previous_report["baseline"]
        fresh = {(run["scenario"], run["archive_policy"]) for run in runs}
        kept = [
            run
            for run in previous_report.get("runs", [])
            if (run.get("scenario"), run.get("archive_policy")) not in fresh
        ]
        report["runs"] = sorted(
            kept + runs,
            key=lambda run: (
                run.get("scenario", ""),
                POLICIES.index(run["archive_policy"])
                if run.get("archive_policy") in POLICIES
                else 99,
            ),
        )

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {os.path.abspath(args.output)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
