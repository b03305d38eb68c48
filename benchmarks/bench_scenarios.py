"""Scenario engine throughput across execution backends.

Times the same 4-seed sweep (the ``topology-tiny`` scenario) through
every execution backend — ``serial``, ``processes``, ``queue`` —
plus the ``processes`` backend against a cold and a warm spec-hash
cache.  Simulations are pure-Python CPU-bound work, so on multi-core
hosts ``processes`` should approach ``cores``-fold speed-up over
``serial``, and a single ``queue`` invocation tracks ``serial`` plus
the per-cell claim/done file round trip (its parallelism comes from
running N invocations).  Regressions in the pool fan-out or the
queue's filesystem protocol show up as shrinking ratios.

Also asserts the backend contract end to end: every backend produces
identical results for identical specs, and a warm cache serves the
whole sweep without simulating anything.
"""

import os

from repro.reports import render_table
from repro.scenarios import QueueBackend, expand_seeds, get_scenario, run_sweep

SEEDS = (1, 2, 3, 4)


def sweep_specs():
    return expand_seeds(get_scenario("topology-tiny"), SEEDS)


def test_bench_scenario_sweep_backends(benchmark, tmp_path):
    all_cores = os.cpu_count() or 1

    def timed_sweeps():
        serial = run_sweep(sweep_specs(), workers=1, backend="serial")
        processes = run_sweep(
            sweep_specs(), workers=all_cores, backend="processes"
        )
        queue = run_sweep(
            sweep_specs(),
            backend=QueueBackend(str(tmp_path / "queue")),
        )
        cold = run_sweep(
            sweep_specs(),
            workers=all_cores,
            backend="processes",
            cache_dir=str(tmp_path / "cache"),
        )
        warm = run_sweep(
            sweep_specs(),
            workers=all_cores,
            backend="processes",
            cache_dir=str(tmp_path / "cache"),
        )
        return serial, processes, queue, cold, warm

    serial, processes, queue, cold, warm = benchmark.pedantic(
        timed_sweeps, rounds=1, iterations=1
    )
    speedup = (
        serial.elapsed_seconds / processes.elapsed_seconds
        if processes.elapsed_seconds
        else 1.0
    )
    rows = [
        (
            report.backend,
            report.workers if report.backend != "serial" else 1,
            cache,
            f"{report.elapsed_seconds:.2f}s",
        )
        for report, cache in (
            (serial, "off"),
            (processes, "off"),
            (queue, "off"),
            (cold, "cold"),
            (warm, "warm"),
        )
    ]
    print()
    print(
        render_table(
            ("backend", "workers", "cache", "wall-clock"),
            rows,
            title=(
                f"Scenario sweep: {len(SEEDS)} seeds across backends"
                f" (processes speed-up {speedup:.2f}x over serial)"
            ),
        )
    )
    # Identical specs => identical results, whatever backend ran them.
    for report in (processes, queue, cold):
        assert len(report.results) == len(serial.results)
        assert not report.failures
        for left, right in zip(serial.results, report.results):
            assert left.spec_hash == right.spec_hash
            assert left.metrics == right.metrics
    # The warm re-run is served entirely from the spec-hash cache.
    assert cold.cache_misses == len(SEEDS)
    assert warm.cache_hits == len(SEEDS)
    assert warm.cache_misses == 0
