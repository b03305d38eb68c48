"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_lab_defaults(self):
        arguments = build_parser().parse_args(["lab"])
        assert arguments.command == "lab"
        assert arguments.vendor is None

    def test_classify_requires_file(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["classify"])

    def test_simulate_scale_choices(self):
        arguments = build_parser().parse_args(
            ["simulate", "--scale", "mar20", "--seed", "7"]
        )
        assert arguments.scale == "mar20"
        assert arguments.seed == 7
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--scale", "huge"])


class TestLabCommand:
    def test_single_vendor_matrix(self, capsys):
        assert main(["lab", "--vendor", "junos"]) == 0
        out = capsys.readouterr().out
        assert "Junos" in out
        assert "exp4" in out

    def test_unknown_vendor_fails_cleanly(self, capsys):
        assert main(["lab", "--vendor", "nokia"]) == 2
        assert "unknown vendor" in capsys.readouterr().err


class TestClassifyCommand:
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

        assert main(["classify", str(archive)]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Announcements" in out

    def test_missing_file_fails_cleanly(self, capsys):
        assert main(["classify", "/nonexistent/file.mrt"]) == 2
        assert "cannot open" in capsys.readouterr().err

    def test_empty_archive_reports_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.mrt"
        empty.write_bytes(b"")
        assert main(["classify", str(empty)]) == 1
        assert "no update messages" in capsys.readouterr().err


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
