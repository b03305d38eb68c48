#!/usr/bin/env python3
"""Record sets of benchmark runs and one traced run per workload.

Usage, from the repository root::

    python3 benchmarks/e2e/record.py                 # -> recorded.json
    python3 benchmarks/e2e/record.py --out elsewhere.json

It records two sets.  A set runs every workload once per seed, for
ten seeds.  Each run is
exactly what ``bench.py --workload NAME --seed N --trace 0`` does, with
``run_seconds`` from ``BENCHMARK.json``.  Set *k* uses seeds
``10k+1 .. 10k+10``, so no two runs share a seed.  For every
end-to-end metric the record holds each run's value and, per set, the
median, the quartiles and the spread (q3 - q1) / median next to the
metric's bound.  Every later set's medians are compared with the first
set's.  Then one ``--trace 1`` run per workload records the layer
table and ``trace.overhead``: the traced op's wall time over the first
set's median measured (not normalised) wall time.  The result goes to
``recorded.json`` next to this file unless ``--out`` names another.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import sys

import bench

#: Runs per set, each with its own seed, and sets per record.
RUNS = 10
SETS = 2


def summarize(values, bound: float) -> dict:
    q1, median, q3 = bench.median_and_quartiles(values)
    spread = (q3 - q1) / median
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": spread,
        "bound": bound,
        "spread_within_bound": spread <= bound,
    }


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse *second* is than *first*, as a share of *first*."""
    change = (second - first) / first
    return change if better == "lower" else -change


def plain(pairs: dict) -> dict:
    return {name: value for name, (value, _unit) in pairs.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default=os.path.join(bench.HERE, "recorded.json")
    )
    arguments = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    contract = bench.load_json(bench.CONTRACT)
    table = bench.load_json(bench.TABLE)
    names = list(table["workloads"])
    metrics = {metric["name"]: metric for metric in contract["end_to_end"]}

    def run(name: str, seed: int, trace: bool) -> dict:
        return bench.run_workload(
            table["workloads"][name],
            seed=seed,
            seconds=contract["run_seconds"],
            trace=trace,
            setup_samples=table["setup_samples"],
            log=lambda line: None,
        )

    record = {
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "run_seconds": contract["run_seconds"],
        "output_sha256": {
            name: table["workloads"][name]["expected_output_sha256"]
            for name in names
        },
        "sets": [],
    }
    for index in range(SETS):
        seeds = [index * RUNS + n + 1 for n in range(RUNS)]
        runs = {name: [] for name in names}
        for seed in seeds:
            for name in names:
                result = run(name, seed, trace=False)
                row = {
                    "seed": seed,
                    "attempted": result["attempted"],
                    "failed": result["failed"],
                    "problems": result["problems"],
                    "metrics": plain(result["metrics"]),
                    "extras": plain(result["extras"]),
                }
                runs[name].append(row)
                print(
                    f"set {index + 1} seed {seed} {name}: failed"
                    f" {row['failed']}/{row['attempted']}, wall_s"
                    f" {row['metrics']['wall_s']:.4f}, setup_s"
                    f" {row['metrics']['setup_s']:.4f}",
                    flush=True,
                )
        summary = {}
        for name in names:
            summary[name] = {
                metric: summarize(
                    [row["metrics"][metric] for row in runs[name]],
                    spec["bound"],
                )
                for metric, spec in metrics.items()
            }
        record["sets"].append(
            {"seeds": seeds, "runs": runs, "summary": summary}
        )
    first = record["sets"][0]["summary"]
    record["later_vs_first"] = []
    for later in record["sets"][1:]:
        comparison = {}
        for name in names:
            comparison[name] = {}
            for metric, spec in metrics.items():
                worse = worse_by(
                    first[name][metric]["median"],
                    later["summary"][name][metric]["median"],
                    spec["better"],
                )
                comparison[name][metric] = {
                    "worse_by": worse,
                    "bound": spec["bound"],
                    "within_bound": worse <= spec["bound"],
                }
        record["later_vs_first"].append(comparison)
    record["traced"] = {}
    record["input_archives"] = {}
    for name in names:
        result = run(name, 1, trace=True)
        traced = plain(result["metrics"])
        traced.update(plain(result["extras"]))
        traced["trace.overhead"] = traced["trace.wall_s"] / statistics.median(
            row["extras"]["wall_raw_s"]
            for row in record["sets"][0]["runs"][name]
        )
        traced["failed"] = result["failed"]
        record["traced"][name] = traced
        entry = table["workloads"][name]
        if entry["kind"] == "replay":
            index, _error = bench.replay_inputs(entry, 1, lambda line: None)
            record["input_archives"][name] = {
                collector: {"bytes": a["bytes"], "sha256": a["sha256"]}
                for collector, a in sorted(index["archives"].items())
            }
    with open(arguments.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    for index, later in enumerate(record["sets"]):
        for name in names:
            for metric, row in later["summary"][name].items():
                print(
                    f"set {index + 1} {name:<13} {metric:<12}"
                    f" median {row['median']:<12.6g} spread"
                    f" {row['spread']:.2%} (bound {row['bound']:.0%})"
                )
    for comparison in record["later_vs_first"]:
        for name, rows in comparison.items():
            for metric, row in rows.items():
                print(
                    f"later vs first {name:<13} {metric:<12} worse by"
                    f" {row['worse_by']:+.2%} (bound {row['bound']:.0%})"
                )
    print(f"wrote {arguments.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
