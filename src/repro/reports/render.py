"""Plain-text rendering of tables and series.

The CLI, the examples and the paper-artifact tests print paper-shaped
artifacts (the same rows as Table 1/2, the same series as Figures
2-6) to stdout; these helpers keep that output aligned and consistent.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence


def format_share(share: "float | None") -> str:
    """Render a fraction as the paper's percentage style (``33.7%``)."""
    if share is None:
        return "-"
    return f"{share * 100:.1f}%"


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence],
    *,
    title: Optional[str] = None,
) -> str:
    """Render rows as an aligned ASCII table."""
    materialized: List[List[str]] = [
        [str(cell) for cell in row] for row in rows
    ]
    widths = [len(header) for header in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(
        header.ljust(widths[index]) for index, header in enumerate(headers)
    )
    lines.append(header_line)
    lines.append("  ".join("-" * width for width in widths))
    for row in materialized:
        lines.append(
            "  ".join(
                cell.ljust(widths[index]) for index, cell in enumerate(row)
            )
        )
    return "\n".join(lines)


def render_kv_table(
    pairs: Iterable["tuple[str, str]"], *, title: Optional[str] = None
) -> str:
    """Render label/value pairs (Table 1 style)."""
    return render_table(("metric", "value"), pairs, title=title)


def render_series(
    points: Iterable["tuple[str, float]"],
    *,
    title: Optional[str] = None,
    value_format: str = "{:.3f}",
) -> str:
    """Render an (x, y) series as two aligned columns."""
    rows = [(x, value_format.format(y)) for x, y in points]
    return render_table(("x", "value"), rows, title=title)


def render_stacked_counts(
    labels: Sequence[str],
    stacks: "dict[str, Sequence[int]]",
    *,
    title: Optional[str] = None,
) -> str:
    """Render a stacked-bar-like table: one row per label, one column
    per stack key (Figure 2/3 style)."""
    keys = list(stacks)
    headers = ["x"] + keys + ["total"]
    rows = []
    for index, label in enumerate(labels):
        values = [stacks[key][index] for key in keys]
        rows.append([label] + values + [sum(values)])
    return render_table(headers, rows, title=title)
