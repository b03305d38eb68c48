"""Suppression directives and on-disk tree scans."""

import textwrap

import pytest

from repro.devtools import check_source, run_check


def _check(source, rel, select=None):
    return check_source(textwrap.dedent(source), rel, select=select)


_HASH_SNIPPET = """
def tie_break(route):
    return hash(route)  # repro: allow(DET001) ordering is re-sorted downstream
"""

_HASH_STANDALONE = """
def tie_break(route):
    # repro: allow(DET001) ordering is re-sorted downstream
    return hash(route)
"""


class TestSuppressions:
    def test_trailing_comment_suppresses_own_line(self):
        report = _check(_HASH_SNIPPET, "rib/decision.py")
        assert report.clean
        assert report.suppressed == 1

    def test_standalone_comment_covers_next_line(self):
        report = _check(_HASH_STANDALONE, "rib/decision.py")
        assert report.clean
        assert report.suppressed == 1

    def test_standalone_comment_does_not_leak_past_next_line(self):
        report = _check(
            """
            def tie_break(route):
                # repro: allow(DET001) first call only
                first = hash(route)
                second = hash(route)
                return first + second
            """,
            "rib/decision.py",
        )
        assert [f.code for f in report.findings] == ["DET001"]
        assert report.suppressed == 1

    def test_wrong_code_does_not_suppress(self):
        report = _check(
            """
            def tie_break(route):
                return hash(route)  # repro: allow(DET002) wrong code
            """,
            "rib/decision.py",
        )
        assert [f.code for f in report.findings] == ["DET001"]

    def test_multiple_codes_in_one_directive(self):
        report = _check(
            """
            import time

            def stamp(route):
                # repro: allow(DET001, DET002) display-only diagnostic string
                return f"{hash(route)}@{time.time()}"
            """,
            "analysis/tables.py",
        )
        assert report.clean
        assert report.suppressed == 2

    def test_missing_reason_is_sup001(self):
        report = _check(
            """
            def tie_break(route):
                return hash(route)  # repro: allow(DET001)
            """,
            "rib/decision.py",
        )
        codes = sorted(f.code for f in report.findings)
        # The directive is rejected, so DET001 also survives.
        assert codes == ["DET001", "SUP001"]

    def test_unknown_code_is_sup001(self):
        report = _check(
            """
            x = 1  # repro: allow(NOPE123) not a real code
            """,
            "analysis/tables.py",
        )
        assert [f.code for f in report.findings] == ["SUP001"]
        assert "NOPE123" in report.findings[0].message

    def test_malformed_directive_is_sup001(self):
        report = _check(
            """
            x = 1  # repro: allow DET001 forgot the parens
            """,
            "analysis/tables.py",
        )
        assert [f.code for f in report.findings] == ["SUP001"]

    def test_sup001_cannot_self_suppress(self):
        report = _check(
            """
            # repro: allow(SUP001) trying to waive the waiver checker
            x = 1  # repro: allow(BOGUS999) bad
            """,
            "analysis/tables.py",
        )
        codes = [f.code for f in report.findings]
        assert "SUP001" in codes

    def test_prose_mention_is_not_a_directive(self):
        report = _check(
            '''
            """Docs may say ``# repro: allow(DET001) reason`` freely."""

            # The syntax is `# repro: allow(CODE) reason`, documented here.
            x = 1
            ''',
            "analysis/tables.py",
        )
        assert report.clean
        assert report.suppressed == 0

    def test_unused_suppression_does_not_count(self):
        report = _check(
            """
            # repro: allow(DET001) nothing on the next line triggers this
            x = 1
            """,
            "analysis/tables.py",
        )
        assert report.clean
        assert report.suppressed == 0


class TestRunCheckOnDisk:
    def test_scans_directory(self, tmp_path):
        package = tmp_path / "repro" / "rib"
        package.mkdir(parents=True)
        bad = package / "decision.py"
        bad.write_text("def f(route):\n    return hash(route)\n")
        report = run_check([str(tmp_path)])
        assert [f.code for f in report.findings] == ["DET001"]
        assert not report.clean

    def test_missing_path_raises(self):
        from repro.devtools import UsageError

        with pytest.raises(UsageError):
            run_check(["definitely/not/here"])
