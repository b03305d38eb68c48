"""Plain-text rendering of the paper's single-day artifacts.

:func:`render_artifact` turns one collector's metrics into the table
the paper prints, with the paper's own column beside the measured one
where the paper gives numbers (Tables 1 and 2).  ``repro scenario run
paper`` prints every artifact through it; collectors that are not
paper artifacts get ``None`` and a generic rendering.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Optional

from repro.analysis.revealed import RevealedInfoResult
from repro.analysis.tables import (
    PAPER_TABLE1,
    PAPER_TABLE2,
    TYPE_DESCRIPTIONS,
    Table1,
)
from repro.netbase.timebase import format_utc
from repro.reports.render import format_share, render_table

#: Events listed per Figure 4/5 stream.
SERIES_ROWS = 40

#: The type columns in the paper's order (payload dicts are unordered).
TYPE_CODES = tuple(PAPER_TABLE2)


def _table1(metrics: dict) -> str:
    table = Table1(
        **{item.name: metrics[item.name] for item in fields(Table1)}
    )
    rows = [
        (label, f"{PAPER_TABLE1[label]:,}", value)
        for label, value in table.as_rows()
    ]
    return render_table(
        ("metric", "paper (d_mar20)", "measured (simulated)"),
        rows,
        title="Collector: table1 (Table 1: dataset overview)",
    )


def _table2(metrics: dict) -> str:
    beacon = metrics["beacon_shares"] or {}
    rows = [
        (
            code,
            TYPE_DESCRIPTIONS[code],
            format_share(paper_full),
            format_share(metrics["full_shares"][code]),
            format_share(paper_beacon),
            format_share(beacon.get(code)),
        )
        for code, (paper_full, paper_beacon) in PAPER_TABLE2.items()
    ]
    return render_table(
        (
            "type",
            "observed changes",
            "paper d_mar20",
            "measured",
            "paper d_beacon",
            "measured",
        ),
        rows,
        title="Table 2: announcement types",
    )


def _damping(metrics: dict) -> str:
    table = render_table(
        ("type", "damped"),
        [(code, metrics["damped_by_type"][code]) for code in TYPE_CODES],
        title=(
            "Ablation A5: RFC 2439 damping replayed over the collector"
            " feed"
        ),
    )
    return (
        f"{table}\n{metrics['damped']:,} of {metrics['announcements']:,}"
        f" announcements damped ({format_share(metrics['damped_share'])});"
        f" suppress events: {metrics['suppress_events']},"
        f" releases: {metrics['releases']}"
    )


def _beacon_sessions(metrics: dict) -> str:
    rows = [
        (
            f"AS{session['peer_asn']}",
            session["announcements"],
            *(session["types"][code] for code in TYPE_CODES),
        )
        for session in metrics["sessions"]
    ]
    return render_table(
        ("session", "total", *TYPE_CODES),
        rows,
        title=(
            f"Figure 3: types per BGP session, beacon {metrics['prefix']},"
            f" collector {metrics['collector']}"
        ),
    )


def _stream(series: "Optional[dict]", title: str) -> str:
    if series is None:
        return f"{title}: no such beacon stream"
    rows = [
        (format_utc(when), kind, phase)
        for when, kind, phase in series["events"][:SERIES_ROWS]
    ]
    return render_table(
        ("time", "type", "phase"),
        rows,
        title=(
            f"{title}, beacon {series['prefix']},"
            f" session AS{series['peer_asn']}"
        ),
    )


def _beacon_phases(metrics: dict) -> str:
    fig4 = _stream(
        metrics["fig4"], "Figure 4: community exploration (nc)"
    )
    bursts = (metrics["fig4"] or {}).get("bursts", [])
    exploring = sum(
        1 for burst in bursts if burst["distinct_communities"] >= 2
    )
    fig5 = _stream(
        metrics["fig5"],
        "Figure 5: cleaned duplicates (nn) at a cleaning peer",
    )
    return (
        f"{fig4}\n{len(bursts)} exploration burst(s), {exploring} with"
        f" >= 2 distinct community attributes\n\n{fig5}"
    )


def _revealed(metrics: dict) -> str:
    result = RevealedInfoResult.from_metrics(metrics)
    return render_table(
        ("category", "count", "share"),
        [
            (label, count, format_share(share))
            for label, count, share in result.as_rows()
        ],
        title=(
            "Figure 6 (one day): revealed community attributes (paper,"
            " 2020-03-15: 62% exclusively withdrawal, 17% announcement,"
            " <1% outside)"
        ),
    )


def _tomography(metrics: dict) -> str:
    rows = [
        (f"AS{asn}", inferred, truth, f"{own:.2f}", f"{survival:.2f}", n)
        for asn, inferred, truth, own, survival, n in metrics["top"]
    ]
    table = render_table(
        ("AS", "inferred", "truth", "own-tag", "survival", "n"),
        rows,
        title=(
            "A4: per-AS community behavior inference (top 25 by"
            " evidence)"
        ),
    )
    # ``classified`` is a count that the payload stores as a float.
    scores = ", ".join(
        f"{name}={int(value)}" if name == "classified"
        else f"{name}={value:.2f}"
        for name, value in sorted(metrics["scores"].items())
    )
    return f"{table}\nscores: {scores}"


def _lab_matrix(metrics: dict) -> str:
    return render_table(
        metrics["headers"],
        metrics["rows"],
        title="Lab behavior matrix (paper §3)",
    )


_RENDERERS = {
    "table1": _table1,
    "table2": _table2,
    "damping": _damping,
    "beacon_sessions": _beacon_sessions,
    "beacon_phases": _beacon_phases,
    "revealed": _revealed,
    "tomography": _tomography,
    "lab_matrix": _lab_matrix,
}


def render_artifact(name: str, metrics: dict) -> "Optional[str]":
    """The paper-shaped table for collector *name*, or ``None``."""
    renderer = _RENDERERS.get(name)
    if renderer is None or not metrics:
        return None
    return renderer(metrics)
