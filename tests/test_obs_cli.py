"""CLI observability: --metrics/--journal/--progress/--profile and the
stdout discipline (machine output on stdout, chatter on stderr)."""

import json

import pytest

from repro.cli import main
from repro.obs import metrics as obs_metrics
from repro.obs.journal import read_journal


@pytest.fixture(autouse=True)
def metrics_off_afterwards():
    obs_metrics.set_metrics_enabled(False)
    obs_metrics.reset_metrics()
    yield
    obs_metrics.set_metrics_enabled(False)
    obs_metrics.reset_metrics()


class TestRunMetrics:
    def test_metrics_prints_report_tables(self, capsys):
        assert main(["scenario", "run", "lab-baseline", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "Phase timing" in out
        assert "lab.run" in out
        assert "Instrumentation" in out

    def test_metrics_flag_does_not_leak(self):
        assert main(["scenario", "run", "lab-baseline", "--metrics"]) == 0
        assert obs_metrics.metrics_enabled() is False

    def test_metrics_json_carries_report(self, capsys):
        code = main(
            ["scenario", "run", "topology-tiny", "--json", "--metrics"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        report = payload["metrics_report"]
        assert report["phases"]["internet.run"] > 0
        assert "prefix.nlri" in report["memo"]

    def test_plain_json_has_no_report(self, capsys):
        assert main(["scenario", "run", "topology-tiny", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "metrics_report" not in payload

    def test_metrics_out_writes_report_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        code = main(
            [
                "scenario",
                "run",
                "topology-tiny",
                "--metrics-out",
                str(out_file),
            ]
        )
        assert code == 0
        report = json.loads(out_file.read_text())
        assert report["phases"]["internet.build"] > 0
        # --metrics-out implies instrumentation without requiring
        # --metrics; the human tables print too.  (No memo table here:
        # a live internet run never touches the decode memos.)
        assert "Phase timing" in capsys.readouterr().out


class TestRunJournalAndProgress:
    def test_journal_written(self, tmp_path, capsys):
        journal = tmp_path / "run.jsonl"
        code = main(
            [
                "scenario",
                "run",
                "topology-tiny",
                "--journal",
                str(journal),
                "--heartbeat-every",
                "100",
            ]
        )
        assert code == 0
        events = [event["event"] for event in read_journal(str(journal))]
        assert events[0] == "start"
        assert "heartbeat" in events
        assert events[-1] == "finish"

    @pytest.mark.parametrize("cadence", ["0", "-3"])
    def test_bad_heartbeat_cadence_exits_2(self, cadence, tmp_path, capsys):
        journal = tmp_path / "run.jsonl"
        code = main(
            [
                "scenario",
                "run",
                "topology-tiny",
                "--progress",
                "--journal",
                str(journal),
                "--heartbeat-every",
                cadence,
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("bad run arguments: ")
        assert captured.err.count("\n") == 1
        assert not journal.exists()

    def test_json_stdout_stays_parseable_with_progress(self, capsys):
        # Satellite guarantee: piping --json through json.loads works
        # even with heartbeats enabled, because progress is stderr-only.
        code = main(
            [
                "scenario",
                "run",
                "topology-tiny",
                "--json",
                "--progress",
                "--heartbeat-every",
                "100",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["spec"]["name"] == "topology-tiny"
        assert "observations @" in captured.err

    def test_profile_summary_on_stderr_stdout_intact(self, capsys):
        code = main(
            ["scenario", "run", "topology-tiny", "--json", "--profile"]
        )
        assert code == 0
        captured = capsys.readouterr()
        json.loads(captured.out)  # stdout must remain one JSON doc
        assert "cumulative" in captured.err
        assert "run_scenario" in captured.err


class TestSweepObservability:
    def test_progress_lines_and_wall_summary(self, tmp_path, capsys):
        code = main(
            [
                "scenario",
                "sweep",
                "topology-tiny",
                "--seeds",
                "1,2",
                "--backend",
                "serial",
                "--workers",
                "1",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--progress",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "cells:" in captured.out
        assert "median" in captured.out
        assert "[sweep] topology-tiny@seed1: done" in captured.err

    def test_sweep_json_stdout_parseable_with_progress(
        self, tmp_path, capsys
    ):
        code = main(
            [
                "scenario",
                "sweep",
                "topology-tiny",
                "--seeds",
                "1",
                "--backend",
                "serial",
                "--workers",
                "1",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--progress",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 1

    def test_manifest_records_timing_and_journals_exist(self, tmp_path):
        from repro.obs.journal import journal_dir
        from repro.scenarios.runner import SweepManifest

        cache = str(tmp_path / "cache")
        code = main(
            [
                "scenario",
                "sweep",
                "topology-tiny",
                "--seeds",
                "1,2",
                "--backend",
                "serial",
                "--workers",
                "1",
                "--cache-dir",
                cache,
            ]
        )
        assert code == 0
        manifest = SweepManifest.load(cache)
        assert len(manifest.cells) == 2
        for digest, cell in manifest.cells.items():
            assert cell["state"] == "done"
            assert cell["attempts"] == 1
            assert cell["finished_at"] >= cell["started_at"]
            events = read_journal(
                f"{journal_dir(cache)}/{digest}.jsonl"
            )
            kinds = [event["event"] for event in events]
            assert kinds[0] == "start"
            assert kinds[-1] == "finish"

    def test_resume_tolerates_old_manifest_without_timing(
        self, tmp_path, capsys
    ):
        # A manifest from before this change has no attempts/timing
        # keys; --resume must load it and finish the pending cells.
        cache = str(tmp_path / "cache")
        code = main(
            [
                "scenario",
                "sweep",
                "topology-tiny",
                "--seeds",
                "1",
                "--backend",
                "serial",
                "--workers",
                "1",
                "--cache-dir",
                cache,
            ]
        )
        assert code == 0
        capsys.readouterr()
        manifest_path = f"{cache}/sweep.json"
        from repro import durable

        data = json.loads(durable.read_durable(manifest_path))
        for cell in data["cells"].values():
            for key in ("attempts", "started_at", "finished_at"):
                cell.pop(key, None)
            cell["state"] = "pending"
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        code = main(
            [
                "scenario",
                "sweep",
                "--resume",
                "--cache-dir",
                cache,
                "--backend",
                "serial",
                "--workers",
                "1",
            ]
        )
        assert code == 0
        assert "topology-tiny@seed1" in capsys.readouterr().out
