"""Suppression comments: the linter's one escape hatch.

``# repro: allow(CODE) reason`` is a *reasoned*, per-line waiver.
The reason is mandatory: a suppression is a reviewed decision, and
the decision's justification belongs next to the code it waives.  A
suppression on its own comment line covers the next source line; a
trailing comment covers its own line.  Multiple codes separate with
commas: ``# repro: allow(DET001,DET002) <reason>``.  There is no bulk
grandfathering: every finding that is not waived in-line fails the
check.

Malformed suppressions (missing reason, unknown code, bad syntax) are
themselves findings (``SUP001``): a waiver that silently fails open
or silently fails closed is worse than no waiver at all.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.devtools.findings import Finding

#: The suppression marker, anchored to the start of the comment so a
#: prose mention of the syntax deeper in a comment is not a directive.
_DIRECTIVE_RE = re.compile(r"^#+\s*repro:")
_ALLOW_RE = re.compile(
    r"^#+\s*repro:\s*allow\(\s*(?P<codes>[^)]*)\)\s*(?P<reason>.*)$"
)

#: A valid checker code: letters then digits (DET001, MEMO001, ...).
_CODE_RE = re.compile(r"^[A-Z]{2,8}[0-9]{3}$")

@dataclass
class Suppression:
    """One parsed ``# repro: allow(...)`` comment."""

    #: Line the comment sits on (1-based).
    comment_line: int
    #: Line the waiver applies to (the same line for trailing
    #: comments, the next source line for standalone comment lines).
    target_line: int
    codes: "Tuple[str, ...]"
    reason: str
    #: Set when a finding actually used this waiver (unused
    #: suppressions are reported so stale waivers get cleaned up).
    used: bool = field(default=False, compare=False)


def _iter_comments(source: str) -> "Iterable[Tuple[int, int, str]]":
    """Yield ``(line, col, text)`` for every comment in *source*.

    Tokenizing (rather than regexing raw lines) is what keeps a
    ``# repro:`` mention inside a docstring or string literal — this
    module's own documentation, say — from reading as a directive.
    Tokenization runs on a best-effort basis: when it dies partway
    (the SYN001 case), whatever comments it produced before the error
    still count, so waivers keep working in a broken file.
    """
    reader = io.StringIO(source).readline
    try:
        for token in tokenize.generate_tokens(reader):
            if token.type == tokenize.COMMENT:
                yield token.start[0], token.start[1], token.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return


def parse_suppressions(
    source: str, known_codes: "Set[str]", path: str
) -> "Tuple[List[Suppression], List[Finding]]":
    """Extract suppressions (and SUP001 findings) from *source*."""
    suppressions: "List[Suppression]" = []
    problems: "List[Finding]" = []
    lines = source.splitlines()
    for index, col, raw in _iter_comments(source):
        if _DIRECTIVE_RE.match(raw) is None:
            continue
        match = _ALLOW_RE.match(raw)
        if match is None:
            # Any other "# repro:" comment is a typo'd directive — e.g.
            # ``# repro: allow DET001`` — which would otherwise fail
            # open (no waiver) while looking like one in review.
            problems.append(
                Finding(
                    code="SUP001",
                    path=path,
                    line=index,
                    col=col,
                    message=(
                        "unrecognized '# repro:' directive; the"
                        " only form is"
                        " '# repro: allow(CODE[,CODE]) reason'"
                    ),
                    line_text=_line_text(lines, index),
                )
            )
            continue
        codes = tuple(
            part.strip() for part in match.group("codes").split(",")
            if part.strip()
        )
        reason = match.group("reason").strip()
        bad = [code for code in codes if not _CODE_RE.match(code)]
        if not codes or bad:
            problems.append(
                Finding(
                    code="SUP001",
                    path=path,
                    line=index,
                    col=col,
                    message=(
                        f"malformed suppression codes {bad or '()'};"
                        " expected e.g. allow(DET001) or"
                        " allow(DET001,MEMO001)"
                    ),
                    line_text=_line_text(lines, index),
                )
            )
            continue
        unknown = [code for code in codes if code not in known_codes]
        if unknown:
            problems.append(
                Finding(
                    code="SUP001",
                    path=path,
                    line=index,
                    col=col,
                    message=(
                        f"suppression names unknown code(s)"
                        f" {', '.join(unknown)}; run 'repro check"
                        " --explain CODE' for the catalog"
                    ),
                    line_text=_line_text(lines, index),
                )
            )
            continue
        if not reason:
            problems.append(
                Finding(
                    code="SUP001",
                    path=path,
                    line=index,
                    col=col,
                    message=(
                        f"suppression of {','.join(codes)} has no"
                        " reason; a waiver must say why the contract"
                        " does not apply here"
                    ),
                    line_text=_line_text(lines, index),
                )
            )
            continue
        # A comment with only whitespace before it is a standalone
        # waiver line covering the next source line; a trailing
        # comment covers its own.
        before = lines[index - 1][:col] if index <= len(lines) else ""
        if before.strip():
            target = index
        else:
            target = _next_source_line(lines, index)
        suppressions.append(
            Suppression(
                comment_line=index,
                target_line=target,
                codes=codes,
                reason=reason,
            )
        )
    return suppressions, problems


def _line_text(lines: "List[str]", index: int) -> str:
    if 1 <= index <= len(lines):
        return lines[index - 1].strip()
    return ""


def _next_source_line(lines: "List[str]", comment_index: int) -> int:
    """First non-blank, non-comment line after a standalone waiver."""
    for index in range(comment_index + 1, len(lines) + 1):
        text = lines[index - 1].strip()
        if text and not text.startswith("#"):
            return index
    return comment_index


def apply_suppressions(
    findings: "Iterable[Finding]",
    suppressions: "Sequence[Suppression]",
) -> "Tuple[List[Finding], int]":
    """Drop findings waived by *suppressions*; returns (kept, dropped).

    SUP001 never suppresses itself: a malformed waiver cannot be
    waved away by the comment that is malformed.
    """
    by_line: "Dict[int, List[Suppression]]" = {}
    for suppression in suppressions:
        by_line.setdefault(suppression.target_line, []).append(suppression)
    kept: "List[Finding]" = []
    dropped = 0
    for finding in findings:
        waiver = None
        if finding.code != "SUP001":
            for candidate in by_line.get(finding.line, ()):
                if finding.code in candidate.codes:
                    waiver = candidate
                    break
        if waiver is None:
            kept.append(finding)
        else:
            waiver.used = True
            dropped += 1
    return kept, dropped
