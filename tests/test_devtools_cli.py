"""``repro check`` CLI contract: exit codes, JSON schema, explain.

Also the clean-tree regression gate: the shipped ``src/`` tree must
lint clean with nothing but in-line waivers, and the recorded
``CACHE_SCHEMA_FINGERPRINT`` must match the live schema.
"""

import json
import os

import pytest

from repro import cli as repro_cli
from repro.devtools import (
    KNOWN_CODES,
    REPORT_VERSION,
    load_module,
    run_check,
    schema_fingerprint,
)
from repro.devtools.project import Project

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")


@pytest.fixture
def bad_tree(tmp_path, monkeypatch):
    """A scan root with one DET001 violation; cwd moved there so the
    CLI's relative paths resolve inside it."""
    package = tmp_path / "repro" / "rib"
    package.mkdir(parents=True)
    (package / "decision.py").write_text(
        "def f(route):\n    return hash(route)\n"
    )
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        monkeypatch.chdir(tmp_path)
        assert repro_cli.main(["check", "."]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one(self, bad_tree, capsys):
        assert repro_cli.main(["check", "."]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out

    def test_unknown_select_code_exits_two(self, bad_tree, capsys):
        assert repro_cli.main(["check", "--select", "NOPE001", "."]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "NOPE001" in captured.err

    def test_missing_path_exits_two(self, bad_tree, capsys):
        assert repro_cli.main(["check", "no/such/dir"]) == 2
        assert "no such file" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        (["--baseline", "X"], ["--no-baseline"], ["--write-baseline"]),
        ids=("baseline", "no-baseline", "write-baseline"),
    )
    def test_removed_baseline_flags_exit_two(self, bad_tree, flags):
        # Only in-line waivers silence a finding; there is no baseline
        # file to point at, write or skip.
        with pytest.raises(SystemExit) as excinfo:
            repro_cli.main(["check", *flags, "."])
        assert excinfo.value.code == 2


class TestJsonOutput:
    def test_schema_is_stable(self, bad_tree, capsys):
        assert repro_cli.main(["check", "--format", "json", "."]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == REPORT_VERSION
        assert set(document) == {
            "version",
            "clean",
            "files_scanned",
            "codes",
            "counts",
            "suppressed",
            "findings",
        }
        (finding,) = document["findings"]
        assert set(finding) == {
            "code",
            "path",
            "line",
            "col",
            "message",
            "line_text",
        }
        assert finding["code"] == "DET001"
        assert document["counts"] == {"DET001": 1}
        assert document["clean"] is False

    def test_findings_are_sorted(self, bad_tree, capsys):
        (bad_tree / "repro" / "rib" / "another.py").write_text(
            "import time\n\ndef f():\n    return time.time(), hash(f)\n"
        )
        repro_cli.main(["check", "--format", "json", "."])
        document = json.loads(capsys.readouterr().out)
        keys = [
            (f["path"], f["line"], f["col"], f["code"])
            for f in document["findings"]
        ]
        assert keys == sorted(keys)

    def test_select_narrows_codes(self, bad_tree, capsys):
        assert (
            repro_cli.main(
                ["check", "--format", "json", "--select", "DET002", "."]
            )
            == 0
        )
        document = json.loads(capsys.readouterr().out)
        assert document["codes"] == ["DET002"]
        assert document["findings"] == []


class TestExplain:
    def test_explain_known_code(self, capsys):
        assert repro_cli.main(["check", "--explain", "DET001"]) == 0
        out = capsys.readouterr().out
        assert "DET001" in out
        # The rationale must carry the historical bug, not just a rule.
        assert "PYTHONHASHSEED" in out

    def test_explain_all_covers_every_code(self, capsys):
        assert repro_cli.main(["check", "--explain", "all"]) == 0
        out = capsys.readouterr().out
        for code in KNOWN_CODES:
            assert code in out

    def test_explain_unknown_code_exits_two(self, capsys):
        assert repro_cli.main(["check", "--explain", "XX999"]) == 2
        assert "XX999" in capsys.readouterr().err


class TestShippedTree:
    """Regression gate for the sweep: the repo must stay lint-clean."""

    def test_src_tree_is_clean(self):
        report = run_check([SRC])
        assert report.clean, report.render_human()
        assert report.files_scanned > 50

    def test_recorded_fingerprint_matches_live_schema(self):
        # The CACHE001 guard itself: if this fails, the serialized
        # result schema changed — bump CACHE_VERSION in
        # scenarios/runner.py and re-pin CACHE_SCHEMA_FINGERPRINT.
        from repro.scenarios.runner import CACHE_SCHEMA_FINGERPRINT

        project = Project(
            modules=[
                load_module(
                    os.path.join(SRC, "repro", "scenarios", name)
                )
                for name in (
                    "serialize.py",
                    "engine.py",
                    "runner.py",
                )
            ]
        )
        assert schema_fingerprint(project) == CACHE_SCHEMA_FINGERPRINT

    def test_cli_entry_on_shipped_tree(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        assert repro_cli.main(["check", "src"]) == 0
        out = capsys.readouterr().out
        assert "clean" in out
