"""Cross-backend determinism: every backend, byte-identical payloads.

The execution backends are pure transport — where a sweep cell runs
(inline, a forked lane, a queue claimant) must never leak into the
result.  This suite pins that down at the strongest level available:
the serialized ``result_to_json`` payload, byte for byte, for the same
spec across all three backends and across worker counts, over a smoke
subset of the registry kinds (internet, ablation what-if, lab, and
mrt replay of a simulator-spilled archive).
"""

import shutil

import pytest

from repro.scenarios import (
    InternetSpec,
    MrtSpec,
    ProcessBackend,
    QueueBackend,
    ScenarioSpec,
    SerialBackend,
    SweepRunner,
    expand_seeds,
    get_scenario,
    result_to_json,
    run_scenario,
    run_sweep,
)

TINY_TOPOLOGY = dict(
    tier1_count=2,
    transit_count=3,
    stub_count=5,
    beacon_count=1,
    link_flaps=2,
    prefix_flaps=1,
    med_churn_events=1,
    community_churn_events=2,
    prepend_change_events=1,
    collector_session_resets=1,
)

SMOKE_KEYS = ("internet", "ablation", "lab", "mrt")
BACKEND_KEYS = ("serial", "processes", "queue")


@pytest.fixture(scope="module")
def spilled_archive(tmp_path_factory):
    """A tiny simulator-spilled MRT archive for the mrt smoke cell."""
    spec = ScenarioSpec(
        name="determinism-spill",
        kind="internet",
        seed=7,
        internet=InternetSpec(
            archive_policy="mrt-spill",
            collector_names=("rrc00",),
            **TINY_TOPOLOGY,
        ),
        collectors=("update_counts",),
    )
    result = run_scenario(spec)
    # Move the spill out of the system tempdir so its path (which is
    # part of the mrt spec, and so of the payload) is test-owned and
    # stable for the whole module.
    target = str(
        tmp_path_factory.mktemp("determinism") / "spilled.mrt"
    )
    shutil.move(result.spill_paths["rrc00"], target)
    return target


def smoke_spec(key: str, spilled_archive: str) -> ScenarioSpec:
    """One representative spec per registry kind/what-if family."""
    if key == "internet":
        return ScenarioSpec(
            name="determinism-internet",
            kind="internet",
            seed=11,
            internet=InternetSpec(**TINY_TOPOLOGY),
            collectors=("update_counts", "duplicates", "table2"),
        )
    if key == "ablation":
        # The scrub-heavy what-if's knobs on the tiny topology.
        return ScenarioSpec(
            name="determinism-ablation",
            kind="internet",
            seed=11,
            internet=InternetSpec(
                scrub_internal_fraction=1.0,
                cleaner_egress_fraction=0.45,
                cleaner_ingress_fraction=0.05,
                tagger_fraction=0.5,
                **TINY_TOPOLOGY,
            ),
            collectors=("update_counts", "community_prevalence"),
        )
    if key == "lab":
        return get_scenario("lab-junos")
    return ScenarioSpec(
        name="determinism-mrt",
        kind="mrt",
        mrt=MrtSpec(path=spilled_archive),
        collectors=("update_counts", "table2"),
    )


def make_smoke_backend(key: str, work_dir: str):
    if key == "serial":
        return SerialBackend()
    if key == "processes":
        return ProcessBackend()
    return QueueBackend(work_dir)


@pytest.fixture(scope="module")
def reference_payloads(spilled_archive):
    """Serial-backend ground truth, one payload per smoke spec."""
    payloads = {}
    for key in SMOKE_KEYS:
        spec = smoke_spec(key, spilled_archive)
        report = SweepRunner(workers=1, backend=SerialBackend()).run(
            [spec]
        )
        assert not report.failures
        payloads[key] = result_to_json(report.results[0])
    return payloads


@pytest.mark.parametrize("backend_key", BACKEND_KEYS)
@pytest.mark.parametrize("spec_key", SMOKE_KEYS)
def test_payload_byte_identical_across_backends(
    spec_key, backend_key, spilled_archive, reference_payloads, tmp_path
):
    spec = smoke_spec(spec_key, spilled_archive)
    backend = make_smoke_backend(backend_key, str(tmp_path / "q"))
    report = SweepRunner(workers=1, backend=backend).run([spec])
    assert not report.failures
    assert len(report.results) == 1
    assert (
        result_to_json(report.results[0])
        == reference_payloads[spec_key]
    )


@pytest.mark.parametrize("backend_key", ("processes",))
def test_payload_byte_identical_across_worker_counts(
    backend_key, spilled_archive
):
    # A 4-cell sweep so workers=4 genuinely fans out, against the
    # same sweep pinned to one worker (which runs the inline path).
    specs = expand_seeds(
        smoke_spec("internet", spilled_archive), (1, 2, 3, 4)
    )
    one = run_sweep(specs, workers=1, backend=backend_key)
    four = run_sweep(specs, workers=4, backend=backend_key)
    assert not one.failures and not four.failures
    payload = lambda report: [  # noqa: E731
        result_to_json(result) for result in report.results
    ]
    assert payload(one) == payload(four)


def test_queue_invocations_reassemble_the_serial_sweep(
    spilled_archive, tmp_path
):
    # Two queue invocations draining one work dir: the first computes
    # everything, the second (with its own cache, as a second machine
    # would have) adopts the done records without recomputing; both
    # caches end up byte-identical to a serial run.  (Concurrent
    # invocations are covered in the scheduler suite; here the
    # question is the bytes.)
    work_dir = str(tmp_path / "queue")
    specs = expand_seeds(
        smoke_spec("internet", spilled_archive), (1, 2, 3, 4)
    )
    serial = run_sweep(specs, workers=1, backend="serial")
    serial_payloads = [
        result_to_json(result) for result in serial.results
    ]
    for invocation in range(2):
        cache = str(tmp_path / f"cache{invocation}")
        report = run_sweep(
            specs,
            workers=1,
            backend=QueueBackend(work_dir),
            cache_dir=cache,
        )
        assert not report.failures
        converged = run_sweep(
            specs, workers=1, backend="serial", cache_dir=cache
        )
        assert converged.cache_hits == len(specs)
        assert [
            result_to_json(result) for result in converged.results
        ] == serial_payloads
