"""Report rendering used by the CLI, examples and artifact tests."""

from repro.reports.render import (
    render_table,
    render_kv_table,
    render_series,
    render_stacked_counts,
    format_share,
)

__all__ = [
    "render_table",
    "render_kv_table",
    "render_series",
    "render_stacked_counts",
    "format_share",
]
