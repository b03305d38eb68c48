"""Tier-1 checks of the end-to-end benchmark harness on tiny workloads.

The real workload table takes minutes per run, so these tests pass a
copy of it shrunk to ``topology-tiny`` (a simulated day, a replay of
its spill and a 4-cell sweep) and keep every generated file under a
temporary work dir.
"""

from __future__ import annotations

import copy
import os
import shutil
import subprocess
import sys

import pytest

import bench
from op import (
    ENTRY_LAYER,
    LAYER_NAMES,
    REFERENCE_WORK_S,
    HostSpeed,
    LayerMap,
    layer_self_times,
)


@pytest.fixture(scope="module")
def tiny_table():
    table = copy.deepcopy(bench.load_json(bench.TABLE))
    for entry in table["workloads"].values():
        entry["scenario"] = (
            "mrt-replay" if entry["kind"] == "replay" else "topology-tiny"
        )
        entry["expected_output_sha256"] = None
        if entry["kind"] == "replay":
            entry["source"] = "topology-tiny"
            entry["source_sha256"] = None
        if entry["kind"] == "sweep":
            entry["cells"] = 4
    return table


@pytest.fixture(scope="module")
def contract():
    return bench.load_json(bench.CONTRACT)


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    with pytest.MonkeyPatch.context() as patch:
        path = tmp_path_factory.mktemp("bench-work")
        patch.setattr(bench, "WORK", str(path))
        yield path


def run(table, name, *, seed=1, trace=False):
    return bench.run_workload(
        table["workloads"][name],
        seed=seed,
        seconds=0,
        trace=trace,
        setup_samples=0,
        log=lambda line: None,
    )


@pytest.fixture(scope="module")
def untraced(tiny_table, work_dir):
    return {name: run(tiny_table, name) for name in tiny_table["workloads"]}


@pytest.fixture(scope="module")
def traced(tiny_table, work_dir):
    return {
        name: run(tiny_table, name, seed=2, trace=True)
        for name in tiny_table["workloads"]
    }


def test_every_e2e_metric_is_reported_with_its_unit(untraced, contract):
    for name, result in untraced.items():
        assert result["failed"] == 0, (name, result["problems"])
        assert result["digests"], name
        for metric in contract["end_to_end"]:
            value, unit = result["metrics"][metric["name"]]
            assert unit == metric["unit"]
            assert value > 0, (name, metric["name"])


def test_times_are_normalised_by_the_sampled_slowdown(untraced):
    for name, result in untraced.items():
        slowdown, unit = result["extras"]["host.slowdown"]
        assert unit == "x" and slowdown > 0, name
        # One op: wall_s is its measured time, less sampling, over
        # its slowdown.
        raw = result["extras"]["wall_raw_s"][0]
        assert 0 < result["metrics"]["wall_s"][0] <= raw / slowdown, name


def test_host_speed_leaves_out_the_slowest_samples():
    speed = HostSpeed()
    speed._samples = [REFERENCE_WORK_S] * 97 + [50 * REFERENCE_WORK_S] * 3
    taken = speed.take()
    assert taken["slowdown"] == pytest.approx(1.0)
    assert taken["samples"] == 100
    assert taken["sampled_s"] == pytest.approx(247 * REFERENCE_WORK_S)
    assert speed.take()["slowdown"] is None


def test_digests_agree_across_ops_seeds_and_tracing(untraced, traced):
    for name in untraced:
        digests = untraced[name]["digests"] + traced[name]["digests"]
        assert len(digests) == 2
        assert len(set(digests)) == 1, name


def test_replay_input_is_the_live_day(untraced, tiny_table, work_dir):
    index, error = bench.replay_inputs(
        tiny_table["workloads"]["replay-mar20"], 1, lambda line: None
    )
    assert error is None and not index["generated"]
    assert index["digest"] == untraced["sim-medium"]["digests"][0]
    assert set(index["archives"]) == {"rrc00", "route-views2"}


def test_traced_table_reconciles_and_shows_the_mechanism_split(
    traced, contract
):
    for name, result in traced.items():
        assert result["failed"] == 0, (name, result["problems"])
        layers = sum(
            value
            for key, (value, _unit) in result["metrics"].items()
            if key.endswith(".self_s")
        )
        total = result["extras"]["trace.total_s"][0]
        assert layers == pytest.approx(total, rel=0.01), name
        for metric in contract["per_layer"]:
            _value, unit = result["metrics"][metric["name"]]
            assert unit == metric["unit"]
    sim = traced["sim-medium"]["metrics"]
    replay = traced["replay-mar20"]["metrics"]
    assert sim["bgp.wire.messages_decoded"][0] == 0
    assert sim["rib.decision.runs"][0] > 0
    assert replay["bgp.wire.messages_decoded"][0] > 0
    assert replay["rib.decision.runs"][0] == 0
    assert replay["mrt.reader.records"][0] > 0


def test_a_broken_op_is_counted_not_raised(
    tiny_table, work_dir, tmp_path, monkeypatch
):
    entry = dict(tiny_table["workloads"]["replay-mar20"])
    index, error = bench.replay_inputs(entry, 1, lambda line: None)
    assert error is None
    broken = copy.deepcopy(index)
    for collector, archive in broken["archives"].items():
        with open(archive["path"], "rb") as handle:
            data = handle.read()
        archive["path"] = str(tmp_path / f"{collector}.mrt")
        with open(archive["path"], "wb") as handle:
            handle.write(data[:-7])
    monkeypatch.setattr(bench, "replay_inputs", lambda *args: (broken, None))
    entry["scenario"] = "mrt-replay-strict"
    result = bench.run_workload(
        entry,
        seed=1,
        seconds=0,
        trace=False,
        setup_samples=0,
        log=lambda line: None,
    )
    assert result["failed"] == 1
    assert result["attempted"] == 2  # the input and the op
    assert "op 1: exit 1" in result["problems"][0]
    assert set(result["metrics"]) == set(bench.E2E_UNITS)


def test_layer_map_follows_the_package_layout():
    import repro

    layers = LayerMap(os.path.dirname(repro.__file__))
    root = os.path.dirname(repro.__file__)
    expected = {
        "bgp/wire.py": "bgp.wire",
        "bgp/attributes.py": "bgp.attributes",
        "simulator/events.py": "simulator.events",
        "simulator/damping.py": "simulator.router",
        "mrt/writer.py": "simulator.collector",
        "mrt/shard.py": "mrt.reader",
        "workloads/practices.py": "policy",
        "beacons/origin.py": "workloads",
        "analysis/observations.py": "pipeline",
        "analysis/tables.py": "scenarios.collectors",
        "scenarios/runner.py": "scenarios.infra",
        "durable.py": "scenarios.infra",
    }
    for relative, layer in expected.items():
        assert layers.layer(os.path.join(root, relative)) == layer
    assert layers.layer(os.__file__) is None


def test_foreign_self_time_is_charged_to_the_calling_layers():
    root = "/pkg/repro"
    layers = LayerMap(root)
    wire = (f"{root}/bgp/wire.py", 1, "decode")
    rib = (f"{root}/rib/trie.py", 1, "insert")
    helper = ("/lib/helper.py", 1, "helper")
    builtin = ("~", 0, "<built-in method len>")
    # (cc, nc, self, cumulative, callers{caller: (cc, nc, self, cum)})
    stats = {
        wire: (1, 1, 1.0, 3.0, {}),
        rib: (1, 1, 2.0, 5.0, {}),
        helper: (2, 2, 0.5, 3.5, {
            wire: (1, 1, 0.1, 1.0),
            rib: (1, 1, 0.4, 2.5),
            helper: (0, 0, 0, 0),
        }),
        builtin: (3, 3, 4.0, 4.0, {
            helper: (2, 2, 3.0, 3.0), rib: (1, 1, 1.0, 1.0),
        }),
        ("/lib/root.py", 1, "<module>"): (1, 1, 0.25, 0.25, {}),
    }
    totals = layer_self_times(stats, layers)
    assert set(totals) == set(LAYER_NAMES)
    assert sum(totals.values()) == pytest.approx(7.75)
    assert totals[ENTRY_LAYER] == pytest.approx(0.25)
    # helper's own 0.5 s splits by its self time under each caller
    # (0.1 : 0.4); the builtin's 3.0 s under helper splits by helper's
    # cumulative time under each caller (1.0 : 2.5).
    assert totals["bgp.wire"] == pytest.approx(1.0 + 0.1 + 3.0 / 3.5)
    assert totals["rib.tables"] == pytest.approx(
        2.0 + 0.4 + 1.0 + 3.0 * 2.5 / 3.5
    )


def test_benchmark_json_keeps_its_shape(contract):
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    table = bench.load_json(bench.TABLE)
    assert [w["name"] for w in contract["workloads"]] == list(
        table["workloads"]
    )
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    setup = bounds.pop("setup_s")
    assert all(0 < bound <= 0.10 for bound in bounds.values())
    assert max(bounds.values()) <= setup <= 0.15
    names = [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    assert len(names) == len(set(names))
    assert {m["name"]: m["unit"] for m in contract["end_to_end"]} == (
        bench.E2E_UNITS
    )


def test_without_the_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(bench.CONTRACT, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        bench.HERE,
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns(".work", "__pycache__"),
    )
    completed = subprocess.run(
        [sys.executable, "benchmarks/e2e/bench.py", "--workload", "sim-medium"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode == 2
    assert '"correct"' not in completed.stdout
