"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("command", ["lab", "simulate", "classify"])
    def test_removed_commands_rejected(self, command, capsys):
        # `scenario run lab-baseline`, `scenario run internet-small` and
        # `scenario run mrt-replay --input FILE` replace the three.
        with pytest.raises(SystemExit) as info:
            main([command])
        assert info.value.code == 2
        assert f"invalid choice: {command!r}" in capsys.readouterr().err


class TestLabCommand:
    """The §3 lab matrix for one vendor: ``scenario run --spec-file``."""

    def test_single_vendor_matrix(self, tmp_path, capsys):
        assert main(_lab_spec_file(tmp_path, "junos")) == 0
        out = capsys.readouterr().out
        assert "Junos" in out
        assert "exp4" in out

    def test_unknown_vendor_fails_cleanly(self, tmp_path, capsys):
        assert main(_lab_spec_file(tmp_path, "nokia")) == 2
        assert "unknown vendor" in capsys.readouterr().err


def _lab_spec_file(tmp_path, vendor):
    import json

    path = tmp_path / "lab.json"
    path.write_text(
        json.dumps(
            {
                "name": "lab-one",
                "kind": "lab",
                "lab": {"vendors": [vendor]},
                "collectors": ["lab_matrix"],
            }
        )
    )
    return ["scenario", "run", "--spec-file", str(path)]


class TestClassifyCommand:
    """Classifying an MRT archive: ``scenario run mrt-replay --input``."""

    def test_classifies_archive(self, tmp_path, capsys):
        # Build a small archive via the simulator.
        from repro.netbase import Prefix
        from repro.simulator import Network

        network = Network()
        origin = network.add_router("origin", 65001)
        middle = network.add_router("middle", 65002)
        collector = network.add_collector("rrc0")
        network.connect(origin, middle)
        network.connect(middle, collector)
        origin.originate(Prefix("203.0.113.0/24"))
        network.converge()
        origin.withdraw_origination(Prefix("203.0.113.0/24"))
        network.converge()
        archive = tmp_path / "updates.mrt"
        archive.write_bytes(collector.dump_mrt())

        assert main(_replay(archive)) == 0
        out = capsys.readouterr().out
        assert "Collector: table1" in out
        assert "announcements" in out
        assert "Table 2: announcement types" in out

    def test_missing_file_fails_cleanly(self, capsys):
        assert main(_replay("/nonexistent/file.mrt")) == 2
        assert "cannot open" in capsys.readouterr().err

    def test_empty_archive_decodes_zero_records(self, tmp_path, capsys):
        empty = tmp_path / "empty.mrt"
        empty.write_bytes(b"")
        assert main(_replay(empty)) == 0
        assert "0 records decoded" in capsys.readouterr().out

    def test_strict_replay_of_truncated_archive_exits_cleanly(
        self, tmp_path, capsys
    ):
        from repro.obs import read_journal

        archive = tmp_path / "updates.mrt"
        archive.write_bytes(_spilled_archive()[:-7])
        journal = tmp_path / "run.jsonl"
        argv = _replay(archive, "mrt-replay-strict")
        assert main(argv + ["--journal", str(journal)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert str(archive) in err
        assert "truncated" in err
        events = [event["event"] for event in read_journal(str(journal))]
        assert events[0] == "start"
        assert events[-1] == "fail"


def _replay(path, scenario="mrt-replay"):
    return ["scenario", "run", scenario, "--input", str(path)]


def _spilled_archive() -> bytes:
    """The bytes of a topology-tiny day's spilled single-feed archive."""
    import dataclasses
    import os

    from repro.scenarios import get_scenario, run_scenario

    base = get_scenario("topology-tiny")
    spec = dataclasses.replace(
        base,
        internet=dataclasses.replace(
            base.internet,
            archive_policy="mrt-spill",
            collector_names=("rrc00",),
        ),
    )
    path = run_scenario(spec).spill_paths["rrc00"]
    try:
        with open(path, "rb") as handle:
            return handle.read()
    finally:
        os.unlink(path)


class TestScenarioParser:
    def test_scenario_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario"])

    def test_sweep_arguments(self):
        arguments = build_parser().parse_args(
            [
                "scenario",
                "sweep",
                "internet-small",
                "--seeds",
                "1,2,3",
                "--workers",
                "2",
                "--cache-dir",
                "/tmp/c",
            ]
        )
        assert arguments.scenario_command == "sweep"
        assert arguments.name == "internet-small"
        assert arguments.seeds == "1,2,3"
        assert arguments.workers == 2

    def test_sweep_backend_arguments(self):
        arguments = build_parser().parse_args(
            [
                "scenario",
                "sweep",
                "internet-small",
                "--backend",
                "serial",
                "--max-retries",
                "2",
            ]
        )
        assert arguments.backend == "serial"
        assert arguments.max_retries == 2
        assert not arguments.resume

    def test_sweep_name_optional_for_resume(self):
        arguments = build_parser().parse_args(
            ["scenario", "sweep", "--resume", "--cache-dir", "/tmp/c"]
        )
        assert arguments.name is None
        assert arguments.resume


class TestScenarioCommand:
    def test_list_shows_catalog(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        assert "internet-small" in out
        assert "lab-baseline" in out
        assert "scrub-heavy" in out

    def test_list_filters_by_kind(self, capsys):
        assert main(["scenario", "list", "--kind", "lab"]) == 0
        out = capsys.readouterr().out
        assert "lab-baseline" in out
        assert "internet-small" not in out

    def test_run_lab_scenario(self, capsys):
        assert main(["scenario", "run", "lab-junos"]) == 0
        out = capsys.readouterr().out
        assert "Lab behavior matrix" in out
        assert "Junos" in out
        assert "hash=" in out

    def test_run_unknown_scenario_fails_cleanly(self, capsys):
        assert main(["scenario", "run", "no-such-scenario"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_run_requires_exactly_one_source(self, capsys):
        assert main(["scenario", "run"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_run_spec_file(self, tmp_path, capsys):
        from repro.scenarios import get_scenario, spec_to_json

        path = tmp_path / "lab.json"
        path.write_text(spec_to_json(get_scenario("lab-junos")))
        assert main(["scenario", "run", "--spec-file", str(path)]) == 0
        assert "Lab behavior matrix" in capsys.readouterr().out

    def test_run_invalid_spec_file_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"name": "x", "kind": "lab", "collectors": ["bogus"]}'
        )
        assert main(["scenario", "run", "--spec-file", str(path)]) == 2
        assert "unknown collector" in capsys.readouterr().err

    def test_run_rejects_removed_decode_workers_flag(self, tmp_path, capsys):
        # An MRT replay has one serial read path and no worker count.
        path = tmp_path / "empty.mrt"
        path.write_bytes(b"")
        with pytest.raises(SystemExit) as info:
            main(
                [
                    "scenario", "run", "mrt-replay",
                    "--input", str(path), "--workers", "2",
                ]
            )
        assert info.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_run_rejects_heartbeat_cadence_with_nowhere_to_go(self, capsys):
        # Without --journal or --progress no heartbeat is delivered, so
        # the cadence is a usage error rather than silently ignored.
        code = main(
            ["scenario", "run", "topology-tiny", "--heartbeat-every", "100"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("bad run arguments: ")
        assert "--journal or --progress" in captured.err
        assert captured.err.count("\n") == 1

    def test_run_json_output(self, capsys):
        assert main(["scenario", "run", "lab-junos", "--json"]) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["name"] == "lab-junos"
        assert "lab_matrix" in payload["metrics"]

    def test_sweep_with_cache(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        arguments = [
            "scenario",
            "sweep",
            "lab-junos",
            "--seeds",
            "1,2",
            "--workers",
            "1",
            "--cache-dir",
            cache,
        ]
        assert main(arguments) == 0
        first = capsys.readouterr().out
        assert "2 miss(es)" in first
        assert main(arguments) == 0
        second = capsys.readouterr().out
        assert "2 hit(s)" in second

    def test_sweep_resume_round_trip(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        first = [
            "scenario",
            "sweep",
            "lab-junos",
            "--seeds",
            "1,2",
            "--workers",
            "1",
            "--backend",
            "serial",
            "--cache-dir",
            cache,
        ]
        assert main(first) == 0
        capsys.readouterr()
        resumed = [
            "scenario",
            "sweep",
            "--resume",
            "--cache-dir",
            cache,
            "--workers",
            "1",
        ]
        assert main(resumed) == 0
        out = capsys.readouterr().out
        assert "Resumed sweep" in out
        assert "2 hit(s), 0 miss(es)" in out

    def test_sweep_resume_requires_cache_dir(self, capsys):
        assert main(["scenario", "sweep", "--resume"]) == 2
        assert "--cache-dir" in capsys.readouterr().err

    def test_sweep_resume_rejects_scenario_name(self, capsys):
        assert (
            main(
                [
                    "scenario",
                    "sweep",
                    "lab-junos",
                    "--resume",
                    "--cache-dir",
                    "/tmp/does-not-matter",
                ]
            )
            == 2
        )
        assert "drop the scenario name" in capsys.readouterr().err

    def test_sweep_without_name_or_resume(self, capsys):
        assert main(["scenario", "sweep"]) == 2
        assert "scenario name" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--cell-timeout", "inf"],
            ["--cell-timeout", "nan"],
            ["--backend", "queue", "--stale-claim", "nan"],
        ],
    )
    def test_sweep_non_finite_timing_rejected(self, flags, tmp_path, capsys):
        # `--cell-timeout inf` used to die in an OverflowError traceback
        # and `--stale-claim nan` used to disable requeue silently.
        argv = ["scenario", "sweep", "topology-tiny", "--seeds", "1"]
        argv += ["--cache-dir", str(tmp_path / "cache"), *flags]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("bad sweep arguments: ")
        assert "must be finite" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.fixture(scope="class")
    def swept_cache(self, tmp_path_factory):
        """A cache dir holding one finished ``lab-junos`` sweep."""
        cache = tmp_path_factory.mktemp("swept") / "cache"
        argv = ["scenario", "sweep", "lab-junos", "--seeds", "1"]
        assert main([*argv, "--cache-dir", str(cache)]) == 0
        return str(cache)

    @pytest.mark.parametrize("lost_after", ["nan", "inf", "0", "-5"])
    def test_status_bad_lost_after_rejected(
        self, lost_after, swept_cache, capsys
    ):
        # `--lost-after nan` used to render the status and exit 0.
        capsys.readouterr()
        argv = ["scenario", "sweep", "--status", "--cache-dir"]
        argv += [swept_cache, "--lost-after", lost_after]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("bad sweep arguments: ")
        assert "must be finite and > 0" in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_sweep_bad_shard_rejected(self, capsys):
        # --shard is gone (the queue backend partitions a sweep
        # dynamically); any value is now an unknown argument.
        with pytest.raises(SystemExit) as info:
            main(["scenario", "sweep", "lab-junos", "--shard", "5/2"])
        assert info.value.code == 2
        assert "unrecognized arguments: --shard" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "flag", [["--speculate"], ["--pool-rebuilds", "1"]]
    )
    def test_removed_scheduler_flags_rejected(self, flag, capsys):
        # Forked lanes attribute every death and timeout exactly, so
        # the pool-rebuild budget and straggler speculation are gone.
        with pytest.raises(SystemExit) as info:
            main(["scenario", "sweep", "lab-junos", *flag])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in (
            capsys.readouterr().err
        )

    def test_sweep_failure_reported_with_spec_context(self, capsys):
        # mrt-replay cells have no --input in a sweep, so every cell
        # fails at run time; the CLI must name the spec, not dump an
        # anonymous pool traceback, and exit nonzero.
        assert (
            main(
                [
                    "scenario",
                    "sweep",
                    "mrt-replay",
                    "--seeds",
                    "1",
                    "--workers",
                    "1",
                    "--backend",
                    "serial",
                ]
            )
            == 1
        )
        captured = capsys.readouterr()
        assert "mrt-replay@seed1" in captured.err
        assert "failed after 1 attempt(s)" in captured.err
        # No --cache-dir was given, so there is nothing to resume;
        # the advice must say how to make the next run resumable.
        assert "--cache-dir" in captured.out
        assert "--resume" not in captured.out


class TestModuleEntryPoint:
    def test_python_dash_m_repro(self):
        import os
        import subprocess
        import sys

        environment = dict(os.environ)
        source_root = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "src",
        )
        environment["PYTHONPATH"] = source_root + (
            os.pathsep + environment["PYTHONPATH"]
            if environment.get("PYTHONPATH")
            else ""
        )
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "scenario", "list"],
            capture_output=True,
            text=True,
            env=environment,
        )
        assert completed.returncode == 0
        assert "internet-small" in completed.stdout
