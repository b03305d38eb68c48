"""Timing gates: floors and budgets that a regression must not cross.

Each gate compares two timings taken in this process, or one timing
against a recorded rate, with wide margins, so a shared or loaded
machine does not trip it.  The end-to-end numbers (wall time, peak
RSS, per-layer self time) live in ``benchmarks/e2e/``; these gates
only catch a fast path that stopped being fast:

* metrics enabled costs at most 15% over metrics disabled;
* decode+classify of a spilled archive stays at or above the rate the
  read path had before its overhaul;
* an ``mrt-spill`` collector keeps at least half the ``full``
  policy's simulation throughput.

The equivalence contracts behind those fast paths are tested
elsewhere: instrumentation is byte-neutral (``test_obs_engine.py``),
spill bytes equal the ``full`` dump (``test_mrt_roundtrip.py``) and
archive policies leave metrics unchanged (``test_pipeline.py``).
Memos on against memos off is checked here too, on the same
full-size archive the read floor times.
"""

import dataclasses
import hashlib
import os
import time

import pytest

from repro.analysis.classify import TYPE_ORDER, UpdateClassifier
from repro.bgp import wire
from repro.bgp.wire import encode_message
from repro.mrt import records as mrt_records
from repro.mrt.reader import MRTReader
from repro.netbase import prefix as prefix_module
from repro.obs import metrics as obs_metrics
from repro.pipeline.stream import ObservationStream, replay_mrt
from repro.scenarios import get_scenario, run_scenario
from repro.scenarios.engine import internet_config_from_spec
from repro.workloads import InternetModel

#: Timed runs per side; every gate keeps the best one.  A
#: ``topology-tiny`` run lasts about 0.2 s, and on a shared 2-CPU
#: machine single runs of it vary by up to 40%; the best of 3 then
#: still showed a 15% metrics overhead in 1 of 12 trials where the
#: true cost is 0-3%.  The best of 7 stayed under 8% in all 12.
REPEAT = 7

#: Largest allowed slowdown of a run with metrics enabled.
MAX_OBS_OVERHEAD = 0.15

#: Decode+classify rate (observations/s) of the read path before its
#: overhaul: a per-field ``stream.read`` MRT reader, an if/elif
#: attribute chain and no decode memos.  Best of 3 on
#: ``internet-small-spill``'s archive amplified x8, one CPU.
PRE_OVERHAUL_DECODE_CLASSIFY_OBS_PER_S = 19_676.1

#: The read path must reach at least this multiple of that rate.
MIN_READ_RATIO = 1.0

#: ``mrt-spill`` must keep at least this share of ``full``'s events/s.
MIN_SPILL_RATIO = 0.5


def _set_decode_memos(enabled: bool) -> None:
    wire.set_decode_memo(enabled)
    prefix_module.set_nlri_memo(enabled)
    mrt_records.set_address_memo(enabled)


# ----------------------------------------------------------------------
# instrumentation overhead
# ----------------------------------------------------------------------
def test_metrics_overhead_within_budget():
    spec = get_scenario("topology-tiny")

    def run(enabled):
        with obs_metrics.enabled_scope(enabled):
            started = time.perf_counter()
            run_scenario(spec)
            elapsed = time.perf_counter() - started
        obs_metrics.reset_metrics()
        return elapsed

    run(False)  # warm imports and caches for both modes
    best = {False: float("inf"), True: float("inf")}
    for _ in range(REPEAT):
        # Interleaved, so slow drift hits both modes alike.
        for enabled in (False, True):
            best[enabled] = min(best[enabled], run(enabled))
    overhead = best[True] / best[False] - 1.0
    assert overhead <= MAX_OBS_OVERHEAD, (
        f"metrics enabled cost {overhead:.1%} over disabled"
        f" ({best[True]:.3f}s vs {best[False]:.3f}s; budget"
        f" {MAX_OBS_OVERHEAD:.0%})"
    )


# ----------------------------------------------------------------------
# read path
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def amplified_archive(tmp_path_factory):
    """``internet-small-spill``'s archive, concatenated 8 times.

    MRT records frame themselves, so eight copies of an archive are
    one archive eight times as long.
    """
    (spill_path,) = run_scenario(
        get_scenario("internet-small-spill")
    ).spill_paths.values()
    try:
        with open(spill_path, "rb") as handle:
            blob = handle.read()
    finally:
        os.unlink(spill_path)
    path = tmp_path_factory.mktemp("read-floor") / "small-x8.mrt"
    path.write_bytes(blob * 8)
    return str(path)


def _decode_classify(path):
    classifier = UpdateClassifier()
    observations = replay_mrt(path, classifier, collector="gate")
    return observations, classifier


def test_decode_classify_reaches_pre_overhaul_rate(amplified_archive):
    _set_decode_memos(True)
    best = float("inf")
    for _ in range(REPEAT):
        started = time.perf_counter()
        observations, _ = _decode_classify(amplified_archive)
        best = min(best, time.perf_counter() - started)
    rate = observations / best
    floor = MIN_READ_RATIO * PRE_OVERHAUL_DECODE_CLASSIFY_OBS_PER_S
    assert rate >= floor, (
        f"decode+classify ran at {rate:,.0f} obs/s, below"
        f" {MIN_READ_RATIO}x the pre-overhaul {floor:,.0f} obs/s"
    )


def _archive_fingerprint(path):
    """Digest of every decoded record, re-encoded, plus type counts."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        reader = MRTReader(handle, tolerant=True)
        for record in reader:
            digest.update(
                repr(
                    (
                        record.timestamp,
                        int(record.peer_asn),
                        int(record.local_asn),
                        record.peer_address,
                        record.local_address,
                    )
                ).encode()
            )
            digest.update(encode_message(record.message))
        digest.update(
            repr((reader.skipped_records, reader.error_records)).encode()
        )
    _, classifier = _decode_classify(path)
    types = {
        kind.value: classifier.counts.counts[kind] for kind in TYPE_ORDER
    }
    return digest.hexdigest(), types


def test_decode_memos_do_not_change_the_archive(amplified_archive):
    _set_decode_memos(True)
    fast = _archive_fingerprint(amplified_archive)
    _set_decode_memos(False)
    try:
        naive = _archive_fingerprint(amplified_archive)
    finally:
        _set_decode_memos(True)
    assert sum(fast[1].values()) > 0
    assert fast == naive


# ----------------------------------------------------------------------
# collector archive policy
# ----------------------------------------------------------------------
def _simulate(policy, spill_dir):
    """(events/s, messages delivered, records retained) of one day."""
    spec = get_scenario("topology-tiny")
    spec = dataclasses.replace(
        spec,
        internet=dataclasses.replace(spec.internet, archive_policy=policy),
    )
    config = internet_config_from_spec(spec)
    config.spill_dir = spill_dir
    model = InternetModel(config)
    model.attach_collector_sink(ObservationStream(UpdateClassifier()))
    started = time.perf_counter()
    day = model.run()
    elapsed = time.perf_counter() - started
    delivered = sum(
        router.received_updates for router in day.network.routers.values()
    ) + day.total_collected_messages()
    retained = 0
    for collector in day.collectors():
        retained += len(collector.records)
        collector.close()
    return delivered / elapsed, delivered, retained


def test_spill_keeps_half_the_full_policy_throughput(tmp_path):
    best = {"full": 0.0, "mrt-spill": 0.0}
    delivered = {}
    for _ in range(REPEAT):
        for policy in best:
            rate, count, retained = _simulate(policy, str(tmp_path))
            best[policy] = max(best[policy], rate)
            delivered[policy] = count
            if policy == "mrt-spill":
                assert retained == 0
    assert delivered["full"] == delivered["mrt-spill"] > 0
    ratio = best["mrt-spill"] / best["full"]
    assert ratio >= MIN_SPILL_RATIO, (
        f"mrt-spill ran at {ratio:.2f}x the full policy's events/s"
        f" (floor {MIN_SPILL_RATIO})"
    )
