"""``repro check`` — the CLI face of the contract linter.

Exit-code contract (CI and editors key off it):

* ``0`` — clean: no findings after in-line suppressions;
* ``1`` — findings: at least one contract violation to show;
* ``2`` — usage error: unknown code, missing path, unknown flag.

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
    try:
        report = run_check(paths, select=select)
    except UsageError as exc:
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

