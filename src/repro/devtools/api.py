"""The pytest-importable entry points of the contract linter.

:func:`run_check` is the whole pipeline — expand paths, parse once,
run the selected checkers, apply suppressions, sort — and both the
CLI and the test suite call it, so what CI enforces is exactly what a
test can assert.  :func:`check_source` runs the same
pipeline over one in-memory snippet placed at a chosen
package-relative path; the fixture suites are built on it.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.devtools.checkers import (
    ALL_CHECKERS,
    CHECKERS_BY_CODE,
    KNOWN_CODES,
    Checker,
)
from repro.devtools.findings import CheckReport, Finding, sort_findings
from repro.devtools.project import (
    Project,
    SourceModule,
    iter_python_files,
    load_module,
    parse_module,
)
from repro.devtools.suppress import apply_suppressions, parse_suppressions


class UsageError(ValueError):
    """Bad invocation (unknown code, missing path): CLI exit 2."""


def resolve_select(
    select: "Optional[Iterable[str]]",
) -> "Tuple[Checker, ...]":
    """The checker set for a ``--select`` value (None = all)."""
    if select is None:
        return ALL_CHECKERS
    chosen: "List[Checker]" = []
    for code in select:
        normalized = code.strip().upper()
        if not normalized:
            continue
        if normalized not in CHECKERS_BY_CODE:
            raise UsageError(
                f"unknown checker code {normalized!r}; known:"
                f" {', '.join(KNOWN_CODES)}"
            )
        checker = CHECKERS_BY_CODE[normalized]
        if checker not in chosen:
            chosen.append(checker)
    if not chosen:
        raise UsageError("--select named no checkers")
    return tuple(chosen)


def check_modules(
    modules: "Sequence[SourceModule]",
    checkers: "Sequence[Checker]" = ALL_CHECKERS,
) -> CheckReport:
    """Run *checkers* over already-parsed *modules*."""
    selected_codes = {checker.code for checker in checkers}
    project = Project(modules=list(modules))
    findings: "List[Finding]" = []
    suppressed_total = 0
    for module in project.modules:
        suppressions, problems = parse_suppressions(
            module.source, set(KNOWN_CODES), module.path
        )
        module_findings: "List[Finding]" = [
            problem for problem in problems
            if "SUP001" in selected_codes
        ]
        for checker in checkers:
            module_findings.extend(checker.check(module))
        kept, dropped = apply_suppressions(module_findings, suppressions)
        suppressed_total += dropped
        findings.extend(kept)
    project_findings: "List[Finding]" = []
    for checker in checkers:
        project_findings.extend(checker.finalize(project))
    # Project-level findings honor suppressions on their anchor line
    # in the module they point at.
    for finding in project_findings:
        module = next(
            (m for m in project.modules if m.path == finding.path), None
        )
        if module is not None:
            suppressions, _ = parse_suppressions(
                module.source, set(KNOWN_CODES), module.path
            )
            kept, dropped = apply_suppressions([finding], suppressions)
            suppressed_total += dropped
            findings.extend(kept)
        else:
            findings.append(finding)
    return CheckReport(
        findings=sort_findings(findings),
        suppressed=suppressed_total,
        files_scanned=len(project.modules),
        codes=sorted(selected_codes),
    )


def run_check(
    paths: "Sequence[str]",
    select: "Optional[Iterable[str]]" = None,
) -> CheckReport:
    """Lint *paths* (files and/or directories) and report.

    Raises :class:`UsageError` for unknown codes or missing paths.
    """
    checkers = resolve_select(select)
    try:
        files = list(iter_python_files(tuple(paths)))
    except FileNotFoundError as exc:
        raise UsageError(f"no such file or directory: {exc.args[0]}")
    modules = [load_module(path) for path in files]
    return check_modules(modules, checkers)


def check_source(
    source: str,
    rel: str,
    select: "Optional[Iterable[str]]" = None,
    path: "Optional[str]" = None,
    extra_modules: "Optional[Sequence[Tuple[str, str]]]" = None,
) -> CheckReport:
    """Lint one in-memory snippet as if it lived at ``repro/<rel>``.

    *extra_modules* adds more ``(rel, source)`` snippets to the same
    project — how the CACHE001 fixtures assemble a miniature
    serialize/engine/runner trio.
    """
    modules = [parse_module(path or rel, source, rel=rel)]
    for extra_rel, extra_source in extra_modules or ():
        modules.append(
            parse_module(extra_rel, extra_source, rel=extra_rel)
        )
    return check_modules(modules, resolve_select(select))


def explain(code: str) -> str:
    """The rationale text behind one checker code."""
    normalized = code.strip().upper()
    checker = CHECKERS_BY_CODE.get(normalized)
    if checker is None:
        raise UsageError(
            f"unknown checker code {code!r}; known:"
            f" {', '.join(KNOWN_CODES)}"
        )
    return (
        f"{checker.code} — {checker.title}\n\n{checker.explain}"
    )


def catalog() -> "List[Tuple[str, str]]":
    """(code, title) pairs for every checker, in code order."""
    return [
        (code, CHECKERS_BY_CODE[code].title) for code in KNOWN_CODES
    ]
