"""The paper's artifacts, each held to the shape the paper reports.

Every artifact comes from ``run_scenario`` collectors: one session-wide
``run_sweep`` on ``processes`` lanes runs the ``paper`` scenario (the
calibrated d_mar20-like day), the eleven sampled days of the 2010-2020
series, the §3 lab matrix, three MRAI variants of ``internet-small``
and the all-Cisco/all-Junos internets.  Absolute magnitudes differ
from the paper by the documented scale factor, so the assertions are
the structural findings the paper's tables and figures show.  Each
test prints its table; run with ``pytest -s`` to see them.
"""

from dataclasses import replace

import pytest

from repro.analysis import AnnouncementType
from repro.analysis.classify import TYPE_ORDER
from repro.analysis.longitudinal import LongitudinalSeries
from repro.reports import format_share, render_stacked_counts, render_table
from repro.reports.paper import render_artifact
from repro.scenarios import get_scenario, run_sweep
from repro.vendors import ALL_PROFILES, CISCO_IOS, JUNOS
from repro.workloads import GrowthModel, sampled_days

DAYS = sampled_days(2010, 2020, per_year=1)
MRAI_VALUES = (0.0, 5.0, 30.0)
FLEETS = {"all-Cisco": "internet-all-cisco", "all-Junos": "internet-all-junos"}
FILTERING = (
    ("exp2", "no filtering"),
    ("exp3", "egress cleaning at X1"),
    ("exp4", "ingress cleaning at X1"),
)


def _mrai_spec(mrai):
    base = get_scenario("internet-small")
    return replace(
        base,
        name=f"internet-small@mrai{mrai:.0f}",
        internet=replace(base.internet, mrai=mrai),
    )


@pytest.fixture(scope="session")
def runs():
    """Scenario name -> metrics of every run the artifacts need."""
    growth = GrowthModel()
    specs = (
        [get_scenario("paper")]
        + [growth.spec_for(day) for day in DAYS]
        + [get_scenario("lab-baseline")]
        + [_mrai_spec(mrai) for mrai in MRAI_VALUES]
        + [get_scenario(name) for name in FLEETS.values()]
    )
    report = run_sweep(specs, workers=2, backend="processes")
    report.raise_failures()
    return {result.name: result.metrics for result in report.results}


@pytest.fixture(scope="session")
def paper(runs):
    return runs["paper"]


@pytest.fixture(scope="session")
def decade(runs):
    growth = GrowthModel()
    return LongitudinalSeries.from_metrics(
        DAYS, [runs[growth.spec_for(day).name] for day in DAYS]
    )


@pytest.fixture(scope="session")
def lab_cells(runs):
    return {
        (cell["experiment"], cell["vendor"]): cell
        for cell in runs["lab-baseline"]["lab_matrix"]["cells"]
    }


def _show(name, metrics):
    print()
    print(render_artifact(name, metrics))


def _nc_nn_share(types):
    classified = sum(types.values())
    return (types["nc"] + types["nn"]) / classified


def _withdraw_share(events, kind):
    phases = [phase for _, event_kind, phase in events if event_kind == kind]
    return sum(1 for phase in phases if phase == "withdraw") / len(phases)


def test_table1_shape(paper):
    table = paper["table1"]
    _show("table1", table)
    assert table["ipv4_prefixes"] > table["ipv6_prefixes"] > 0
    assert table["announcements"] > table["withdrawals"]
    assert table["with_communities"] / table["announcements"] > 0.5
    assert table["sessions"] >= table["peers"]
    assert table["unique_as_paths"] > 0
    assert table["unique_16bit_communities"] > 0


def test_table2_shape(paper):
    table = paper["table2"]
    _show("table2", table)
    full, beacon = table["full_shares"], table["beacon_shares"]
    # pc wins in both feeds.
    assert full["pc"] == max(full.values())
    assert beacon["pc"] == max(beacon.values())
    # No-path-change mass is large in the full feed...
    assert full["nc"] + full["nn"] > 0.35
    # ...and smaller in the controlled beacon subset.
    assert beacon["nc"] + beacon["nn"] < full["nc"] + full["nn"]
    # Prepending stays marginal.
    assert full["xc"] + full["xn"] < 0.03


def test_fig2_longitudinal_types(decade):
    series = decade.type_series()
    print()
    print(
        render_stacked_counts(
            [snapshot.label for snapshot in decade],
            {
                kind.value: [count for _, count in series[kind]]
                for kind in TYPE_ORDER
            },
            title="Figure 2: daily announcements per type (2010-2020)",
        )
    )
    first, last = decade.snapshots[0], decade.snapshots[-1]
    # Growth: the 2020 day carries several times the 2010 messages.
    assert (
        last.type_counts.classified_total
        > 2 * first.type_counts.classified_total
    )
    # "Most notable are the types pc and nn [...] they are historically
    # the most dominant of all types": both rank in the top three at
    # the end of the decade.
    last_shares = last.type_counts.shares()
    top3 = sorted(last_shares, key=last_shares.get, reverse=True)[:3]
    assert AnnouncementType.PC in top3
    assert AnnouncementType.NN in top3
    # Share stability: nc+nn stays within a band across the decade
    # ("despite increased community usage, the share of all types is
    # relatively stable").
    no_path_shares = [
        snapshot.type_counts.no_path_change_share()
        for snapshot in decade
        if snapshot.type_counts.classified_total > 100
    ]
    assert max(no_path_shares) - min(no_path_shares) < 0.45


def test_fig3_types_per_session(paper):
    figure = paper["beacon_sessions"]
    _show("beacon_sessions", figure)
    sessions = figure["sessions"]
    assert len(sessions) >= 3, "beacon visible on too few sessions"
    totals = [session["announcements"] for session in sessions]
    # Sessions differ in volume...
    assert max(totals) > min(totals)
    # ...and in their type mix.
    mixes = {
        tuple(
            round(count / sum(session["types"].values()), 2)
            for count in session["types"].values()
        )
        for session in sessions
        if sum(session["types"].values()) >= 10
    }
    assert len(mixes) > 1


def test_fig4_community_exploration(paper):
    _show("beacon_phases", paper["beacon_phases"])
    figure = paper["beacon_phases"]["fig4"]
    assert figure is not None
    assert figure["types"]["nc"] >= 2, "no community exploration"
    # The nc announcements concentrate in withdrawal phases, like the
    # paper's "all announcements show up only during the withdrawal
    # phases".
    assert _withdraw_share(figure["events"], "nc") > 0.5
    # Exploration bursts with distinct community attributes exist.
    assert any(
        burst["opener"] in ("pc", "nc")
        and burst["distinct_communities"] >= 2
        for burst in figure["bursts"]
    )


def test_fig5_duplicate_bursts(paper):
    figure = paper["beacon_phases"]["fig5"]
    assert figure is not None, "no community-free beacon stream found"
    assert figure["types"]["nn"] >= 1, "no duplicates on stream"
    # No community-only announcements can exist on a cleaned stream.
    assert figure["types"]["nc"] == 0
    # Duplicates concentrate in withdrawal phases.
    assert _withdraw_share(figure["events"], "nn") >= 0.5


def test_fig6_longitudinal_revelation(decade):
    rows = decade.revealed_series()
    print()
    print(
        render_table(
            ("day", "total uniq", "withdrawal-only", "ratio"),
            [
                (day, total, withdrawal, format_share(ratio))
                for day, total, withdrawal, ratio in rows
            ],
            title=(
                "Figure 6: revealed unique community attributes during"
                " withdrawal phases (beacons)"
            ),
        )
    )
    populated = [row for row in rows if row[1] > 0]
    assert len(populated) >= 5
    # Absolute growth across the decade.
    assert populated[-1][1] > populated[0][1]
    # The withdrawal-exclusive ratio dominates and is fairly stable
    # (days with trivially few attributes are sampling noise).
    mean, deviation = decade.ratio_stability(min_total=25)
    assert mean > 0.4, f"withdrawal ratio too low: {mean:.2f}"
    assert deviation < 0.35, f"ratio unstable: +-{deviation:.2f}"


def test_fig6_single_day(paper):
    revealed = paper["revealed"]
    _show("revealed", revealed)
    assert revealed["total_unique"] > 0
    # Withdrawal-phase exploration dominates revelation.
    assert revealed["withdrawal_ratio"] > 0.4
    assert (
        revealed["exclusively_withdrawal"]
        > revealed["exclusively_announcement"]
    )


def test_a4_tomography(paper):
    _show("tomography", paper["tomography"])
    scores = paper["tomography"]["scores"]
    assert scores["classified"] >= 10
    assert scores["accuracy"] > 0.5, scores


def test_a5_damping(paper):
    damping = paper["damping"]
    _show("damping", damping)
    damped = damping["damped_by_type"]
    types = paper["update_counts"]["types"]
    assert damping["suppress_events"] > 0
    # Damping absorbs a real share of the spurious traffic...
    assert (damped["nc"] + damped["nn"]) / (types["nc"] + types["nn"]) > 0.10
    # ...but it also withholds genuine path changes (the cost side).
    assert damped["pc"] + damped["pn"] > 0


def test_lab_experiment_matrix(runs, lab_cells):
    _show("lab_matrix", runs["lab-baseline"]["lab_matrix"])
    # The paper's §3 summary, per vendor.
    for vendor in ALL_PROFILES:
        junos = vendor is JUNOS
        exp1 = lab_cells[("exp1", vendor.name)]
        assert exp1["update_sent_y1_to_x1"] != junos
        assert not exp1["update_reached_collector"]
        exp2 = lab_cells[("exp2", vendor.name)]
        assert exp2["update_reached_collector"]
        assert exp2["collector_saw_community_change"]
        exp3 = lab_cells[("exp3", vendor.name)]
        assert exp3["update_reached_collector"] != junos
        if not junos:
            assert exp3["collector_saw_duplicate"]
        exp4 = lab_cells[("exp4", vendor.name)]
        assert not exp4["update_reached_collector"]


def test_single_lab_run_cisco(lab_cells):
    assert lab_cells[("exp2", CISCO_IOS.name)][
        "collector_saw_community_change"
    ]


def test_a1_filtering_placement(lab_cells):
    print()
    print(
        render_table(
            ("filtering", "vendor", "collector msgs after link event"),
            [
                (
                    label,
                    vendor.name,
                    lab_cells[(experiment, vendor.name)][
                        "collector_messages"
                    ],
                )
                for experiment, label in FILTERING
                for vendor in ALL_PROFILES
            ],
            title="Ablation A1: community filtering placement",
        )
    )
    for vendor in ALL_PROFILES:
        unfiltered, egress, ingress = (
            lab_cells[(experiment, vendor.name)]["collector_messages"]
            for experiment, _ in FILTERING
        )
        # Ingress cleaning is strictly the quietest.
        assert ingress == 0
        assert unfiltered >= 1
        if vendor is JUNOS:
            assert egress == 0  # dedup absorbs the cleaned duplicate
        else:
            assert egress >= 1  # the leaked nn duplicate


def test_a2_vendor_dedup(runs):
    print()
    print(
        render_table(
            ("fleet", "observations", "nn count", "nn share"),
            [
                (
                    label,
                    runs[name]["update_counts"]["observations"],
                    runs[name]["duplicates"]["nn"],
                    format_share(runs[name]["duplicates"]["nn_share"]),
                )
                for label, name in FLEETS.items()
            ],
            title="Ablation A2: vendor duplicate suppression",
        )
    )
    # Junos's Adj-RIB-Out comparison suppresses duplicates fleet-wide.
    assert (
        runs["internet-all-junos"]["duplicates"]["nn"]
        < runs["internet-all-cisco"]["duplicates"]["nn"]
    )


def test_a3_mrai_pacing(runs):
    volumes = {
        mrai: runs[_mrai_spec(mrai).name]["update_counts"]["observations"]
        for mrai in MRAI_VALUES
    }
    print()
    print(
        render_table(
            ("MRAI", "collected observations"),
            [(f"{mrai:.0f}s", volume) for mrai, volume in volumes.items()],
            title="Ablation A3: MRAI pacing vs message volume",
        )
    )
    assert volumes[0.0] > 0
    # Pacing can only merge messages, never multiply them: allow a
    # small tolerance for timing-dependent exploration differences.
    assert volumes[30.0] <= volumes[0.0] * 1.15
