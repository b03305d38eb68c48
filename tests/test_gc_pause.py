"""The cyclic-collector pause around scenario runs, and why it is safe.

:func:`repro.scenarios.engine.paused_gc` turns CPython's cyclic
collector off for the duration of every :func:`run_scenario` call.
That is only sound while the hot layers — simulator, policy, RIB, read
path, collectors — allocate no reference cycles per event: a paused
run that leaked cycles would grow without bound.  These tests pin that
invariant (with the pause swapped out and the collector made eager, no
collection during a run frees anything), that the result keeps no
reference to the simulated world, and that every exit path restores the
caller's collector state.
"""

import contextlib
import dataclasses
import gc
import shutil

import pytest

from repro import cli
from repro.bgp import wire
from repro.mrt import records as mrt_records
from repro.netbase import prefix as prefix_module
from repro.scenarios import engine, get_scenario, run_scenario
from repro.scenarios.spec import MrtSpec, ScenarioSpec
from repro.simulator.router import Router


@pytest.fixture(scope="module")
def spilled_archive(tmp_path_factory):
    """A small simulator-spilled MRT archive (topology-tiny, one feed)."""
    base = get_scenario("topology-tiny")
    spec = ScenarioSpec(
        name="gc-spill",
        kind="internet",
        seed=base.seed,
        internet=dataclasses.replace(
            base.internet,
            archive_policy="mrt-spill",
            collector_names=("rrc00",),
        ),
        collectors=("update_counts",),
    )
    result = run_scenario(spec)
    target = str(tmp_path_factory.mktemp("gc-pause") / "spilled.mrt")
    shutil.move(result.spill_paths["rrc00"], target)
    return target


def _replay_spec(path: str) -> ScenarioSpec:
    base = get_scenario("mrt-replay")
    return ScenarioSpec(
        name="gc-replay",
        kind="mrt",
        mrt=MrtSpec(path=path),
        collectors=base.collectors,
    )


def _clear_decode_memos():
    """Empty the read-path memos, as a fresh process starts them.

    An earlier test that decoded the same archive bytes leaves them
    warm, and a warm replay allocates too little to trigger a middle
    collection.
    """
    for toggle in (
        wire.set_decode_memo,
        prefix_module.set_nlri_memo,
        mrt_records.set_address_memo,
    ):
        toggle(toggle(True))  # each call clears; the second restores


@contextlib.contextmanager
def _collector_enabled():
    """Run the block with the collector on, restoring the prior state."""
    was_enabled = gc.isenabled()
    gc.enable()
    try:
        yield
    finally:
        if not was_enabled:
            gc.disable()


class TestNoCyclesPerEvent:
    def test_eager_collector_frees_nothing_during_runs(
        self, monkeypatch, spilled_archive
    ):
        monkeypatch.setattr(engine, "paused_gc", contextlib.nullcontext)
        specs = [
            get_scenario("topology-tiny"),
            get_scenario("damping-replay"),
            _replay_spec(spilled_archive),
        ]
        collections = []

        def on_gc(phase, info):
            if phase == "stop":
                collections.append(
                    (info["generation"], info["collected"])
                )

        thresholds = gc.get_threshold()
        with _collector_enabled():
            gc.set_threshold(100, 5, 5)
            try:
                for spec in specs:
                    _clear_decode_memos()
                    gc.collect()  # earlier tests' garbage is not ours
                    gc.callbacks.append(on_gc)
                    try:
                        run_scenario(spec)
                    finally:
                        gc.callbacks.remove(on_gc)
                    # Young and middle collections ran, so the check
                    # has teeth (3.11 defers full ones on a big heap).
                    assert {0, 1} <= {gen for gen, _ in collections}
                    freed = [c for c in collections if c[1]]
                    assert freed == [], (spec.name, freed[:5])
                    collections.clear()
            finally:
                gc.set_threshold(*thresholds)

    def test_result_keeps_no_reference_to_the_world(self):
        def live_routers() -> int:
            gc.collect()
            return sum(
                1 for obj in gc.get_objects() if isinstance(obj, Router)
            )

        before = live_routers()
        result = run_scenario(get_scenario("topology-tiny"))
        assert result.metrics  # the result itself survives
        assert live_routers() == before


class TestCollectorStateRestored:
    def _spec(self):
        return get_scenario("topology-tiny")

    def test_paused_during_the_run_and_restored_after(self):
        seen = []

        def hook(payload):
            seen.append(gc.isenabled())

        with _collector_enabled():
            run_scenario(self._spec(), heartbeat_every=1, on_heartbeat=hook)
            assert gc.isenabled()
        assert seen and not any(seen)

    def test_restored_after_an_exception(self):
        class Boom(Exception):
            pass

        def hook(payload):
            raise Boom()

        with _collector_enabled():
            with pytest.raises(Boom):
                run_scenario(
                    self._spec(), heartbeat_every=1, on_heartbeat=hook
                )
            assert gc.isenabled()

    def test_caller_disabled_collector_stays_disabled(self):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            run_scenario(self._spec())
            assert not gc.isenabled()
        finally:
            if was_enabled:
                gc.enable()

    def test_nested_pauses_restore_the_outer_state(self):
        with _collector_enabled():
            with engine.paused_gc():
                with engine.paused_gc():
                    assert not gc.isenabled()
                assert not gc.isenabled()
            assert gc.isenabled()

    def test_classify_command_runs_paused(self, monkeypatch, spilled_archive):
        # `scenario run mrt-replay --input` is the CLI's archive path.
        seen = []
        push = engine._MetricsPump.push

        def spy(pump, observation):
            seen.append(gc.isenabled())
            push(pump, observation)

        monkeypatch.setattr(engine._MetricsPump, "push", spy)
        with _collector_enabled():
            argv = ["scenario", "run", "mrt-replay", "--input", spilled_archive]
            assert cli.main(argv) == 0
            assert gc.isenabled()
        assert seen and not any(seen)
