"""Finding records and report shaping for the contract linter.

A :class:`Finding` is one contract violation at one source location.
Findings are plain data — the whole devtools subsystem keeps the
pipeline ``parse -> check -> filter -> report`` free of hidden state
so the pytest-importable API and the CLI see exactly the same objects.

The *location* (``path:line:col``) orders human output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

#: Schema version of the ``--format json`` document.  Bump (and update
#: the schema test) whenever the emitted shape changes — the linter
#: holds itself to the same output-discipline contract it enforces.
REPORT_VERSION = 2


@dataclass(frozen=True)
class Finding:
    """One contract violation at one source location."""

    #: Checker code, e.g. ``"DET001"``.
    code: str
    #: Path as scanned (repo-relative when the CLI is run from the
    #: repository root, absolute when given absolute paths).
    path: str
    #: 1-based line of the violating node; 0 for whole-file findings.
    line: int
    #: 0-based column of the violating node.
    col: int
    #: One-sentence description of this specific violation.
    message: str
    #: Stripped text of the violating source line.
    line_text: str = ""

    def sort_key(self):
        return (self.path, self.line, self.col, self.code, self.message)

    def as_dict(self) -> "Dict[str, Any]":
        return {
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "line_text": self.line_text,
        }

    def render(self) -> str:
        """The one-line human form: ``path:line:col CODE message``."""
        return f"{self.path}:{self.line}:{self.col} {self.code} {self.message}"


@dataclass
class CheckReport:
    """Everything one ``repro check`` invocation produced."""

    #: Findings that survived suppressions, sorted.
    findings: "List[Finding]" = field(default_factory=list)
    #: Findings silenced by ``# repro: allow(...)`` comments.
    suppressed: int = 0
    #: How many files were parsed and checked.
    files_scanned: int = 0
    #: Which checker codes ran (sorted).
    codes: "List[str]" = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings

    def counts_by_code(self) -> "Dict[str, int]":
        counts: "Dict[str, int]" = {}
        for finding in self.findings:
            counts[finding.code] = counts.get(finding.code, 0) + 1
        return dict(sorted(counts.items()))

    def as_dict(self) -> "Dict[str, Any]":
        """The stable ``--format json`` document."""
        return {
            "version": REPORT_VERSION,
            "clean": self.clean,
            "files_scanned": self.files_scanned,
            "codes": list(self.codes),
            "counts": self.counts_by_code(),
            "suppressed": self.suppressed,
            "findings": [finding.as_dict() for finding in self.findings],
        }

    def render_human(self) -> str:
        """Multi-line human report (one line per finding + summary)."""
        lines = [finding.render() for finding in self.findings]
        silenced = (
            f" ({self.suppressed} suppressed)" if self.suppressed else ""
        )
        if self.findings:
            touched = len({finding.path for finding in self.findings})
            lines.append("")
            lines.append(
                f"repro check: {len(self.findings)} finding(s) in"
                f" {touched} file(s), {self.files_scanned} file(s)"
                f" scanned{silenced}"
            )
        else:
            lines.append(
                f"repro check: clean — {self.files_scanned} file(s)"
                f" scanned{silenced}"
            )
        return "\n".join(lines)


def sort_findings(findings: "Sequence[Finding]") -> "List[Finding]":
    return sorted(findings, key=Finding.sort_key)
