"""``repro check`` — the CLI face of the contract linter.

Exit-code contract (CI and editors key off it):

* ``0`` — clean: no findings after suppressions and the baseline;
* ``1`` — findings: at least one contract violation to show;
* ``2`` — usage error: unknown code, missing path, damaged baseline.

Output discipline (the linter eats its own cooking): findings — the
machine-consumable product, human or JSON — go to stdout; diagnostics
and usage errors go to stderr.
"""

from __future__ import annotations

import json
import os
import sys

from repro.devtools.api import (
    UsageError,
    catalog,
    explain,
    run_check,
)
from repro.devtools.suppress import (
    DEFAULT_BASELINE_NAME,
    BaselineError,
    baseline_from_findings,
    empty_baseline,
    load_baseline,
    save_baseline,
)

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def add_check_parser(subparsers) -> None:
    """Attach the ``check`` subcommand to the main ``repro`` parser."""
    check = subparsers.add_parser(
        "check",
        help="static analysis: enforce the repo's contract invariants",
        description=(
            "AST-based contract linter: determinism (DET001/DET002),"
            " hot-path instrumentation gating (OBS001), CLI stdout"
            " discipline (IO001), cache schema versioning (CACHE001),"
            " bounded memos (MEMO001), one cyclic-collector policy"
            " (GC001) and atomic durable writes (DUR001).  Exit 0"
            " clean, 1 findings, 2 usage error."
        ),
    )
    check.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files/directories to lint (default: src, else .)",
    )
    check.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        help="findings as lines for humans or one JSON document",
    )
    check.add_argument(
        "--select",
        default=None,
        metavar="CODES",
        help="comma-separated checker codes to run (default: all)",
    )
    check.add_argument(
        "--explain",
        default=None,
        metavar="CODE",
        help=(
            "print the rationale and historical bug behind CODE"
            " (or 'all') and exit"
        ),
    )
    check.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help=(
            "grandfathered-findings file (default:"
            f" ./{DEFAULT_BASELINE_NAME} when present)"
        ),
    )
    check.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file (strict mode)",
    )
    check.add_argument(
        "--write-baseline",
        action="store_true",
        help=(
            "write the current findings to the baseline file and exit"
            " 0 (adoption helper; the shipped baseline stays empty)"
        ),
    )


def run_check_command(arguments) -> int:
    """Execute ``repro check``; returns the process exit code."""
    if arguments.explain is not None:
        return _run_explain(arguments.explain)
    paths = list(arguments.paths)
    if not paths:
        paths = ["src"] if os.path.isdir("src") else ["."]
    select = (
        arguments.select.split(",") if arguments.select is not None
        else None
    )
    baseline_path = arguments.baseline
    if baseline_path is None and not arguments.no_baseline:
        if os.path.exists(DEFAULT_BASELINE_NAME):
            baseline_path = DEFAULT_BASELINE_NAME
    try:
        if arguments.no_baseline or baseline_path is None:
            baseline = empty_baseline()
        else:
            baseline = load_baseline(baseline_path)
        if arguments.write_baseline:
            return _run_write_baseline(
                paths, select, baseline_path or DEFAULT_BASELINE_NAME
            )
        report = run_check(paths, select=select, baseline=baseline)
    except (UsageError, BaselineError) as exc:
        print(f"repro check: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if arguments.format == "json":
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(report.render_human())
    return EXIT_CLEAN if report.clean else EXIT_FINDINGS


def _run_explain(code: str) -> int:
    try:
        if code.strip().lower() == "all":
            blocks = [explain(entry) for entry, _ in catalog()]
            print("\n\n".join(blocks))
        else:
            print(explain(code))
    except UsageError as exc:
        print(f"repro check: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_CLEAN


def _run_write_baseline(paths, select, baseline_path) -> int:
    report = run_check(paths, select=select, baseline=empty_baseline())
    save_baseline(baseline_from_findings(report.findings), baseline_path)
    print(
        f"repro check: wrote {len(report.findings)} finding(s) to"
        f" {baseline_path}",
        file=sys.stderr,
    )
    return EXIT_CLEAN
