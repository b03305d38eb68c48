"""Parsed-source model shared by every checker.

A :class:`SourceModule` is one Python file parsed once — AST, raw
source, line list and package-relative path — handed to every
selected checker, so a full-tree run costs one ``ast.parse`` per file
no matter how many checkers are on.  Every checker reads one module
at a time; no rule spans files.

Checkers scope themselves by *package-relative* path — the path below
the ``repro`` package directory (``simulator/session.py``,
``bgp/wire.py``, ``cli.py``) — so the same rules apply whether the
tree is scanned as ``src/``, ``src/repro/`` or one file at a time,
and so fixture tests can claim any scope by naming their snippet.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from repro.devtools.findings import Finding

#: Modules whose outputs must be bit-reproducible (DET001/DET002):
#: everything feeding persisted results or collector metrics.
DETERMINISTIC_PREFIXES = ("rib/", "simulator/", "analysis/", "scenarios/")

#: Hot-path modules (OBS001): instrumentation here must be the gated
#: no-op-span/counter pattern and nothing else.
HOT_PATH_PREFIXES = ("mrt/", "simulator/")
HOT_PATH_FILES = ("bgp/wire.py",)

#: The CLI module (IO001): stdout belongs to the designated emitters.
CLI_FILES = ("cli.py",)

#: Modules that persist durable on-disk state (DUR001): every cache,
#: manifest or queue record write must go through
#: ``repro.durable.atomic_write`` — no ad-hoc ``open(..., "w")`` /
#: ``os.replace`` tmp-rename reimplementations.
DURABLE_STATE_FILES = (
    "scenarios/runner.py",
    "scenarios/backends.py",
    "faults/doctor.py",
)


@dataclass
class SourceModule:
    """One parsed Python source file."""

    #: Path as given to the scanner (what findings report).
    path: str
    #: Package-relative path below ``repro/`` ("" when outside it).
    rel: str
    source: str
    tree: "Optional[ast.AST]"
    #: Raised text when the file does not parse (SYN001).
    syntax_error: "Optional[str]" = None
    lines: "List[str]" = field(default_factory=list)

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def finding(
        self, code: str, node, message: str
    ) -> Finding:
        """Build a finding anchored on an AST node (or (line, col))."""
        if isinstance(node, tuple):
            line, col = node
        else:
            line = getattr(node, "lineno", 0)
            col = getattr(node, "col_offset", 0)
        return Finding(
            code=code,
            path=self.path,
            line=line,
            col=col,
            message=message,
            line_text=self.line_text(line),
        )

    # ------------------------------------------------------------------
    # scope predicates
    # ------------------------------------------------------------------
    @property
    def in_repro_package(self) -> bool:
        return bool(self.rel)

    @property
    def is_deterministic(self) -> bool:
        return self.rel.startswith(DETERMINISTIC_PREFIXES)

    @property
    def is_hot_path(self) -> bool:
        return (
            self.rel.startswith(HOT_PATH_PREFIXES)
            or self.rel in HOT_PATH_FILES
        )

    @property
    def is_cli(self) -> bool:
        return self.rel in CLI_FILES

    @property
    def is_durable_state(self) -> bool:
        return self.rel in DURABLE_STATE_FILES


def package_relative(path: str) -> str:
    """The path below the ``repro`` package dir, '' when outside it.

    ``src/repro/simulator/session.py`` -> ``simulator/session.py``;
    a path with no ``repro`` component (say a fixture file) is not
    part of the package and gets no package-scoped checks.
    """
    parts = os.path.normpath(path).replace(os.sep, "/").split("/")
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return "/".join(parts[index + 1:])
    return ""


def parse_module(
    path: str, source: str, rel: "Optional[str]" = None
) -> SourceModule:
    """Parse one file's *source* into a :class:`SourceModule`.

    *rel* overrides the package-relative path — fixture tests use it
    to place an in-memory snippet inside any scope.
    """
    if rel is None:
        rel = package_relative(path)
    try:
        tree = ast.parse(source)
        error = None
    except SyntaxError as exc:
        tree = None
        error = f"{exc.msg} (line {exc.lineno})"
    return SourceModule(
        path=path,
        rel=rel,
        source=source,
        tree=tree,
        syntax_error=error,
        lines=source.splitlines(),
    )


def load_module(path: str) -> SourceModule:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_module(path, handle.read())


def iter_python_files(paths: "Tuple[str, ...]") -> "Iterator[str]":
    """Expand files/directories into a sorted, de-duplicated file list.

    Raises :class:`FileNotFoundError` for a path that does not exist —
    the CLI turns that into a usage error (exit 2) instead of a clean
    run over nothing.
    """
    seen = set()
    ordered: "List[str]" = []
    for path in paths:
        if os.path.isfile(path):
            candidates = [path]
        elif os.path.isdir(path):
            candidates = []
            for root, dirs, files in os.walk(path):
                dirs.sort()
                dirs[:] = [
                    name for name in dirs
                    if name != "__pycache__" and not name.startswith(".")
                ]
                for name in sorted(files):
                    if name.endswith(".py"):
                        candidates.append(os.path.join(root, name))
        else:
            raise FileNotFoundError(path)
        for candidate in candidates:
            marker = os.path.normpath(candidate)
            if marker not in seen:
                seen.add(marker)
                ordered.append(candidate)
    return iter(ordered)
