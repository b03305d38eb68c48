"""Metric collectors fed by the proxy's single §5 classification pass.

The proxy types each observation once and hands the type to every
collector.  These tests hold that fan-out to the reference builders
(``build_table1``, ``build_table2``, ``classify_observations``) on
seeded random streams, pin the damping what-if, and guard the one-pass
shape itself: one classifier call per observation and no collector
buffering the feed.
"""

import random
from dataclasses import replace

import pytest

from repro.analysis import (
    CommunityBehaviorClassifier,
    CommunityExplorationDetector,
    RevealedInfoResult,
    build_table1,
    build_table2,
    classify_observations,
    group_into_streams,
    score_against_ground_truth,
)
from repro.analysis.classify import (
    TYPE_ORDER,
    AnnouncementType,
    UpdateClassifier,
)
from repro.analysis.exploration import stream_phase_activity
from repro.analysis.observations import (
    Observation,
    ObservationKind,
    SessionKey,
)
from repro.analysis.revealed import revealed_communities
from repro.beacons import BeaconSchedule
from repro.bgp import ASPath, CommunitySet
from repro.netbase import Prefix
from repro.scenarios import (
    ScenarioContext,
    get_scenario,
    make_collectors,
    run_scenario,
)
from repro.scenarios.collectors import CommunityPrevalence
from repro.scenarios.registry import INTERNET_COLLECTORS, PAPER_COLLECTORS
from repro.simulator.damping import RouteDamper
from repro.workloads import CommunityPractice

SESSIONS = (
    SessionKey("rrc00", 20205, "10.0.0.1"),
    SessionKey("rrc00", 3356, "10.0.0.2"),
    SessionKey("route-views2", 20205, "192.0.2.7"),
)
BEACONS = (Prefix("84.205.64.0/24"), Prefix("84.205.65.0/24"))
OTHERS = (Prefix("203.0.113.0/24"), Prefix("2001:db8::/32"))
#: Prepend variants of one another plus genuinely different paths and
#: one AS_SET path, so every first letter (p, x, n) comes up.
PATHS = (
    "3356 1299 12654",
    "3356 3356 1299 12654",
    "3356 1299 1299 12654",
    "3356 174 12654",
    "6939 12654",
    "6939 {64500,64501}",
)
#: Classic-only, large-only, mixed and empty community attributes.
COMMUNITIES = ("", "3356:100", "3356:100 3356:200", "3356:200", "1:2:3")


def random_stream(seed, length=600):
    """A seeded observation feed in arrival order.

    Roughly one observation in six is a withdrawal, so re-announcements
    after a withdrawal are common.  Attribute objects are sometimes
    re-parsed instead of reused: equal-but-not-identical values take
    the classifier's equality path rather than its identity fast path.
    """
    rng = random.Random(seed)
    paths = [ASPath.from_string(text) for text in PATHS]
    communities = [CommunitySet.parse(text) for text in COMMUNITIES]
    prefixes = BEACONS + OTHERS
    stream = []
    timestamp = 1584316800.0
    for _ in range(length):
        timestamp += rng.uniform(0.0, 30.0)
        session = rng.choice(SESSIONS)
        prefix = rng.choice(prefixes)
        if rng.random() < 1 / 6:
            stream.append(
                Observation(
                    timestamp, session, prefix, ObservationKind.WITHDRAW
                )
            )
            continue
        index = rng.randrange(len(PATHS))
        path = paths[index]
        if rng.random() < 0.2:
            path = ASPath.from_string(PATHS[index])
        index = rng.randrange(len(COMMUNITIES))
        community_set = communities[index]
        if rng.random() < 0.2:
            community_set = CommunitySet.parse(COMMUNITIES[index])
        stream.append(
            Observation(
                timestamp,
                session,
                prefix,
                ObservationKind.ANNOUNCE,
                as_path=path,
                communities=community_set,
            )
        )
    return stream


def reference_damping(observations):
    """The damping collector as first written: own classifier, str keys."""
    damper = RouteDamper()
    classifier = UpdateClassifier()
    damped = {kind: 0 for kind in AnnouncementType}
    total = 0
    for observation in observations:
        key = str(observation.session)
        kind = classifier.observe(observation)
        if observation.is_withdrawal:
            damper.penalize(
                key,
                observation.prefix,
                observation.timestamp,
                is_withdrawal=True,
            )
            continue
        if kind is None:
            continue
        if kind != AnnouncementType.NN:
            damper.penalize(
                key,
                observation.prefix,
                observation.timestamp,
                is_withdrawal=False,
            )
        total += 1
        if damper.is_suppressed(
            key, observation.prefix, observation.timestamp
        ):
            damped[kind] += 1
    return {
        "announcements": total,
        "damped": sum(damped.values()),
        "damped_by_type": {kind.value: damped[kind] for kind in TYPE_ORDER},
        "suppress_events": damper.suppressions,
        "releases": damper.releases,
    }


def shares(counts):
    return {kind.value: counts.share(kind) for kind in TYPE_ORDER}


def run_proxy(names, observations, beacons=()):
    proxy = make_collectors(names)
    proxy.start(ScenarioContext(None, beacon_prefixes=beacons))
    for observation in observations:
        proxy.observe(observation)
    return proxy


class TestDifferentialAgainstReferenceBuilders:
    @pytest.mark.parametrize("seed", range(8))
    def test_shared_pass_matches_reference_builders(self, seed):
        observations = random_stream(seed)
        metrics = run_proxy(
            INTERNET_COLLECTORS + ("damping",), observations, BEACONS
        ).finish()

        table2 = build_table2(observations, set(BEACONS))
        assert metrics["table2"] == {
            "full_shares": shares(table2.full),
            "beacon_shares": shares(table2.beacon),
            "classified": table2.full.classified_total,
        }

        counts = classify_observations(observations)
        update_counts = metrics["update_counts"]
        assert update_counts["observations"] == len(observations)
        assert update_counts["announcements"] == counts.announcements_total
        assert update_counts["withdrawals"] == counts.withdrawals
        assert update_counts["types"] == {
            kind.value: counts.counts[kind] for kind in TYPE_ORDER
        }
        duplicates = metrics["duplicates"]
        assert duplicates["classified"] == counts.classified_total
        assert duplicates["nn"] == counts.counts[AnnouncementType.NN]
        assert duplicates["nc"] == counts.counts[AnnouncementType.NC]

        table1 = build_table1(observations)
        collected = metrics["table1"]
        for field in (
            "ipv4_prefixes",
            "ipv6_prefixes",
            "ases",
            "sessions",
            "peers",
            "announcements",
            "with_communities",
            "unique_16bit_communities",
            "unique_as_paths",
            "withdrawals",
        ):
            assert collected[field] == getattr(table1, field), field
        assert collected["community_share"] == table1.community_share
        prevalence = metrics["community_prevalence"]
        assert prevalence["announcements"] == table1.announcements
        assert prevalence["with_communities"] == table1.with_communities
        assert prevalence["unique_16bit_communities"] == (
            table1.unique_16bit_communities
        )

        damping = metrics["damping"]
        assert {
            key: damping[key] for key in reference_damping(observations)
        } == reference_damping(observations)

    def test_streams_cover_every_case(self):
        observations = random_stream(0)
        counts = classify_observations(observations)
        for kind in TYPE_ORDER:
            assert counts.counts[kind] > 0, kind
        assert counts.withdrawals > 0
        assert any(obs.prefix.version == 6 for obs in observations)

    def test_no_beacons_leaves_subset_column_empty(self):
        metrics = run_proxy(("table2",), random_stream(3)).finish()
        assert metrics["table2"]["beacon_shares"] is None


class TestDampingReplayPinned:
    def test_metrics_unchanged(self):
        # Recorded before the damper was keyed by SessionKey instead of
        # its string form.
        metrics = run_scenario(get_scenario("damping-replay")).metrics
        assert metrics["damping"] == {
            "announcements": 3724,
            "damped": 1282,
            "damped_by_type": {
                "pc": 361,
                "pn": 362,
                "nc": 227,
                "nn": 332,
                "xc": 0,
                "xn": 0,
            },
            "damped_share": 0.3442534908700322,
            "suppress_events": 259,
            "releases": 180,
        }
        assert metrics["update_counts"]["observations"] == 4497
        assert metrics["duplicates"]["classified"] == 3724


@pytest.fixture(scope="module")
def tiny_spill_archive(tmp_path_factory):
    """A topology-tiny day spilled to one small MRT archive."""
    import os

    spec = get_scenario("topology-tiny")
    spec = replace(
        spec,
        internet=replace(
            spec.internet,
            archive_policy="mrt-spill",
            collector_names=("rrc00",),
        ),
    )
    result = run_scenario(spec)
    target = tmp_path_factory.mktemp("spill") / "tiny.mrt"
    target.write_bytes(open(result.spill_paths["rrc00"], "rb").read())
    for spilled in result.spill_paths.values():
        os.unlink(spilled)
    return str(target)


def _holds_observations(value):
    if isinstance(value, dict):
        value = list(value.keys()) + list(value.values())
    if isinstance(value, (list, tuple, set, frozenset)):
        return any(isinstance(item, Observation) for item in value)
    return False


class TestOnePass:
    def test_one_classifier_call_per_observation(
        self, tiny_spill_archive, monkeypatch
    ):
        import repro.scenarios.engine as engine

        calls = []
        proxies = []
        original_observe = UpdateClassifier.observe
        original_make = engine.make_collectors

        def counting_observe(self, observation, key=None):
            calls.append(1)
            return original_observe(self, observation, key)

        def capturing_make(names):
            proxy = original_make(names)
            proxies.append(proxy)
            return proxy

        monkeypatch.setattr(UpdateClassifier, "observe", counting_observe)
        monkeypatch.setattr(engine, "make_collectors", capturing_make)
        base = get_scenario("mrt-replay")
        result = run_scenario(
            replace(base, mrt=replace(base.mrt, path=tiny_spill_archive))
        )
        observations = result.reader_stats["observations"]
        assert observations > 0
        assert len(calls) == observations
        assert result.metrics["update_counts"]["observations"] == observations
        (proxy,) = proxies
        for collector in proxy.collectors:
            for name, value in vars(collector).items():
                assert not _holds_observations(value), (collector.name, name)


    def test_one_prevalence_count_per_observation(
        self, tiny_spill_archive, monkeypatch
    ):
        calls = []
        original_observe = CommunityPrevalence.observe

        def counting_observe(self, observation, kind):
            calls.append(1)
            return original_observe(self, observation, kind)

        monkeypatch.setattr(CommunityPrevalence, "observe", counting_observe)
        base = get_scenario("mrt-replay")
        assert {"community_prevalence", "table1"} <= set(base.collectors)
        result = run_scenario(
            replace(base, mrt=replace(base.mrt, path=tiny_spill_archive))
        )
        assert len(calls) == result.reader_stats["observations"]
        announcements = result.metrics["update_counts"]["announcements"]
        assert result.metrics["table1"]["announcements"] == announcements
        assert (
            result.metrics["community_prevalence"]["announcements"]
            == announcements
        )

    @pytest.mark.parametrize(
        "names",
        [("table1",), ("community_prevalence",), ("update_counts",)],
    )
    def test_prevalence_counted_only_when_reported(self, names, monkeypatch):
        calls = []
        original_observe = CommunityPrevalence.observe

        def counting_observe(self, observation, kind):
            calls.append(1)
            return original_observe(self, observation, kind)

        monkeypatch.setattr(CommunityPrevalence, "observe", counting_observe)
        observations = random_stream(5)
        reference = build_table1(observations)
        metrics = run_proxy(names, observations).finish()
        reported = set(names) & {"table1", "community_prevalence"}
        assert len(calls) == (len(observations) if reported else 0)
        for name in reported:
            collected = metrics[name]
            assert collected["announcements"] == reference.announcements
            assert (
                collected["with_communities"] == reference.with_communities
            )
            assert collected["unique_16bit_communities"] == (
                reference.unique_16bit_communities
            )
            assert collected["community_share"] == reference.community_share


def _reference_pick(streams, kind):
    """The stream with the most *kind* announcements (first on ties)."""
    best, best_count = None, -1
    for key, stream in streams.items():
        count = stream_phase_activity(stream).type_counts()[kind]
        if count > best_count:
            best, best_count = key, count
    return best


class TestPaperCollectors:
    """The artifact collectors against the analysis APIs they wrap."""

    @pytest.mark.parametrize("seed", range(4))
    def test_match_the_analysis_apis(self, seed):
        observations = random_stream(seed)
        practices = {
            3356: CommunityPractice.TAGGER,
            1299: CommunityPractice.CLEANER_EGRESS,
            6939: CommunityPractice.IGNORER,
        }
        proxy = make_collectors(PAPER_COLLECTORS)
        proxy.start(
            ScenarioContext(
                None, beacon_prefixes=BEACONS, practices=practices
            )
        )
        for observation in observations:
            proxy.observe(observation)
        metrics = proxy.finish()
        beacon_feed = [obs for obs in observations if obs.prefix in BEACONS]

        sessions = {}
        for obs in beacon_feed:
            if obs.prefix == BEACONS[0] and obs.session.collector == "rrc00":
                sessions.setdefault(obs.session, []).append(obs)
        expected = sorted(
            (
                (str(session), classify_observations(stream))
                for session, stream in sessions.items()
            ),
            key=lambda item: item[1].announcements_total,
            reverse=True,
        )
        assert [
            (row["session"], row["announcements"], row["types"])
            for row in metrics["beacon_sessions"]["sessions"]
        ] == [
            (
                session,
                counts.announcements_total,
                {kind.value: counts.counts[kind] for kind in TYPE_ORDER},
            )
            for session, counts in expected
        ]

        streams = group_into_streams(beacon_feed)
        fig4 = _reference_pick(streams, AnnouncementType.NC)
        schedule = BeaconSchedule()
        assert metrics["beacon_phases"]["fig4"]["events"] == [
            [when, kind.value, schedule.classify(when).value]
            for when, kind in stream_phase_activity(streams[fig4]).events
        ]
        bursts = metrics["beacon_phases"]["fig4"]["bursts"]
        assert [burst["start"] for burst in bursts] == [
            event.start
            for event in CommunityExplorationDetector().detect(
                {fig4: streams[fig4]}
            )
        ]
        cleaned = {
            key: stream
            for key, stream in streams.items()
            if not any(
                obs.is_announcement and not obs.communities.is_empty()
                for obs in stream
            )
        }
        fig5 = _reference_pick(cleaned, AnnouncementType.NN)
        if fig5 is None:
            assert metrics["beacon_phases"]["fig5"] is None
        else:
            assert metrics["beacon_phases"]["fig5"]["prefix"] == str(fig5[1])

        revealed = revealed_communities(beacon_feed)
        assert RevealedInfoResult.from_metrics(metrics["revealed"]) == revealed

        classifier = CommunityBehaviorClassifier(min_samples=40)
        classifier.observe_all(observations)
        assert metrics["tomography"]["scores"] == score_against_ground_truth(
            classifier.infer_all(),
            {asn: practice.value for asn, practice in practices.items()},
        )

    def test_empty_artifacts_on_an_mrt_replay_still_render(
        self, tiny_spill_archive
    ):
        from repro.reports.paper import render_artifact

        base = get_scenario("mrt-replay")
        result = run_scenario(
            replace(
                base,
                mrt=replace(base.mrt, path=tiny_spill_archive),
                collectors=PAPER_COLLECTORS,
            )
        )
        metrics = result.metrics
        # A replay has no beacon schedule and no ground truth.
        assert metrics["beacon_sessions"]["sessions"] == []
        assert metrics["beacon_phases"] == {"fig4": None, "fig5": None}
        assert metrics["revealed"]["total_unique"] == 0
        assert metrics["tomography"]["scores"]["classified"] == 0
        for name in PAPER_COLLECTORS[1:]:  # all but update_counts
            assert render_artifact(name, metrics[name])
        # The classified count prints as an integer, not as 0.00.
        assert render_artifact("tomography", metrics["tomography"]).endswith(
            "classified=0"
        )
