"""Definition-level oracle for the §5 announcement types.

The paper compares each announcement with the previous announcement on
its (session, prefix) stream.  The AS path letter is ``n`` when the path
is unchanged, ``x`` when only prepending changed, and ``p`` otherwise.
The community letter is ``c`` when the community attribute changed and
``n`` otherwise.  Withdrawals are not typed and reset nothing, and the
first announcement on a stream has no predecessor.

The oracle below states those rules as plain comparisons over the raw
values the test generated: an AS path is a sequence of segments, an
AS_SET segment compares as a set, a sequence compares as a sequence,
prepending is a run of one AS within a sequence, and the community
attribute compares as a set of values.  Streams are keyed by plain field
tuples.  It never calls the classifier's helpers, and
:class:`UpdateClassifier`, :class:`CollectorProxy` and
:func:`compare_announcements` are held to it on hypothesis streams.
"""

from itertools import groupby

from hypothesis import given, settings, strategies as st

from repro.analysis.classify import (
    AnnouncementType,
    UpdateClassifier,
    compare_announcements,
)
from repro.analysis.observations import (
    Observation,
    ObservationKind,
    SessionKey,
)
from repro.bgp import ASPath, CommunitySet
from repro.bgp.aspath import PathSegment, SegmentType
from repro.bgp.community import Community, LargeCommunity
from repro.netbase import Prefix
from repro.scenarios.collectors import (
    CollectorProxy,
    MetricCollector,
    UpdateCountsCollector,
)

SESSIONS = (
    ("rrc00", 20205, "10.0.0.1"),
    ("rrc00", 20205, "10.0.0.2"),
    ("rrc01", 3356, "10.0.0.1"),
)
PREFIXES = ((4, 10 << 24, 8), (4, 10 << 24, 9), (6, 0x20010DB8 << 96, 32))
#: Raw community values: ints are RFC 1997, triples are RFC 8092.
COMMUNITY_VALUES = (
    (3356 << 16) | 1,
    (3356 << 16) | 2,
    (20205 << 16) | 666,
    (64500, 1, 2),
    (64500, 1, 3),
)


# ----------------------------------------------------------------------
# the oracle
# ----------------------------------------------------------------------
def collapse_runs(sequence):
    """A sequence with each run of one AS kept once."""
    return tuple(asn for asn, _ in groupby(sequence))


def path_value(segments):
    """A path as comparable data: sets as sets, sequences as tuples."""
    return tuple(
        (kind, frozenset(asns) if kind == "set" else tuple(asns))
        for kind, asns in segments or ()
    )


def without_prepending(segments):
    return tuple(
        (kind, collapse_runs(asns) if kind == "seq" else asns)
        for kind, asns in path_value(segments)
    )


def definition_type(previous, current):
    """The two-letter type of *current* after *previous*.

    Each argument is ``(segments, community_values)`` as generated.
    """
    (previous_path, previous_communities) = previous
    (path, communities) = current
    if path_value(path) == path_value(previous_path):
        path_letter = "n"
    elif without_prepending(path) == without_prepending(previous_path):
        path_letter = "x"
    else:
        path_letter = "p"
    community_letter = (
        "c" if set(communities) != set(previous_communities) else "n"
    )
    return path_letter + community_letter


def definition_types(events):
    """The oracle's type per event (None: withdrawal or first)."""
    last = {}
    types = []
    for event in events:
        key = (SESSIONS[event["session"]], PREFIXES[event["prefix"]])
        if event["withdraw"]:
            types.append(None)
            continue
        current = (event["path"], event["communities"])
        previous = last.get(key)
        last[key] = current
        types.append(
            None if previous is None else definition_type(previous, current)
        )
    return types


# ----------------------------------------------------------------------
# generated streams
# ----------------------------------------------------------------------
ASNS = st.integers(1, 5)
SEGMENTS = st.one_of(
    st.tuples(st.just("seq"), st.lists(ASNS, min_size=1, max_size=4)),
    st.tuples(st.just("set"), st.lists(ASNS, min_size=1, max_size=3)),
)


def make_event(
    session, prefix, withdraw, path, communities, share_objects=False
):
    """One generated event: indexes into SESSIONS and PREFIXES, raw
    path segments and community values, and whether the observation
    reuses the objects of an earlier equal announcement."""
    return {
        "session": session,
        "prefix": prefix,
        "withdraw": withdraw,
        "path": path,
        "communities": communities,
        "share_objects": share_objects,
    }


def merge_sequences(segments):
    """Adjacent sequences merged into one, as a path parser leaves them."""
    merged = []
    for kind, asns in segments:
        if kind == "seq" and merged and merged[-1][0] == "seq":
            merged[-1] = ("seq", merged[-1][1] + list(asns))
        else:
            merged.append((kind, list(asns)))
    return merged


BASE_PATHS = st.lists(SEGMENTS, max_size=3).map(merge_sequences)


@st.composite
def path_variant(draw, base):
    """*base* with each sequence member repeated 1-3 times (a prepend
    variant of it, or *base* itself) and each set drawn in some order."""
    variant = []
    for kind, asns in base:
        if kind == "set":
            variant.append((kind, draw(st.permutations(asns))))
            continue
        repeated = []
        for asn in asns:
            repeated.extend([asn] * draw(st.sampled_from((1, 1, 1, 2, 3))))
        variant.append((kind, repeated))
    return variant


@st.composite
def community_variant(draw, base):
    """*base* as a wire list: in some order, maybe with a duplicate."""
    values = draw(st.permutations(base))
    return values + values[: draw(st.integers(0, 1))]


@st.composite
def feeds(draw):
    """Events over a few streams, built so that repeats, prepend-only
    changes, AS_SET reorderings, community reorderings and duplicates,
    withdraw/re-announce and first-on-stream announcements all occur."""
    bases = draw(st.lists(BASE_PATHS, min_size=1, max_size=3))
    community_bases = draw(
        st.lists(
            st.lists(st.sampled_from(COMMUNITY_VALUES), max_size=3),
            min_size=1,
            max_size=3,
        )
    )
    events = []
    for _ in range(draw(st.integers(1, 25))):
        withdraw = draw(st.integers(0, 5)) == 0
        base = draw(st.sampled_from(bases))
        path = None if draw(st.integers(0, 15)) == 0 else draw(
            path_variant(base)
        )
        events.append(
            make_event(
                draw(st.integers(0, len(SESSIONS) - 1)),
                draw(st.integers(0, len(PREFIXES) - 1)),
                withdraw,
                None if withdraw else path,
                [] if withdraw else draw(
                    community_variant(draw(st.sampled_from(community_bases)))
                ),
                draw(st.booleans()),
            )
        )
    return events


def build_path(segments):
    if segments is None:
        return None
    kinds = {"seq": SegmentType.AS_SEQUENCE, "set": SegmentType.AS_SET}
    return ASPath(PathSegment(kinds[kind], asns) for kind, asns in segments)


def build_communities(values):
    return CommunitySet(
        [Community(value) for value in values if isinstance(value, int)],
        [LargeCommunity(*value) for value in values if isinstance(value, tuple)],
    )


def observations(events):
    """Observations for *events*, every key built afresh.

    Each observation gets its own SessionKey, with strings rebuilt at
    run time, and its own Prefix: equal keys, never identical ones.
    Paths and community sets are rebuilt too, except where the event
    shares the objects of an earlier equal announcement, the way decode
    interning does.
    """
    shared = {}
    built = []
    for number, event in enumerate(events):
        collector, peer_asn, peer_address = SESSIONS[event["session"]]
        session = SessionKey(
            "".join(collector), int(str(peer_asn)), "".join(peer_address)
        )
        version, network, length = PREFIXES[event["prefix"]]
        prefix = Prefix.from_int(network, length, version)
        if event["withdraw"]:
            built.append(
                Observation(number, session, prefix, ObservationKind.WITHDRAW)
            )
            continue
        value = (repr(event["path"]), repr(event["communities"]))
        fresh = (
            build_path(event["path"]),
            build_communities(event["communities"]),
        )
        path, communities = (
            shared.setdefault(value, fresh) if event["share_objects"] else fresh
        )
        built.append(
            Observation(
                number,
                session,
                prefix,
                ObservationKind.ANNOUNCE,
                as_path=path,
                communities=communities,
            )
        )
    return built


def type_names(types):
    return [None if kind is None else kind.value for kind in types]


class RecordingCollector(MetricCollector):
    name = "recording"

    def __init__(self):
        self.kinds = []

    def observe(self, observation, kind):
        self.kinds.append(kind)


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------
class TestOracleItself:
    """The oracle, and the classifier with it, on a hand-labelled feed."""

    FEED = [
        # (session, prefix, withdraw, path, communities, expected)
        (0, 0, False, [("seq", [1, 2])], [1], None),  # first on stream
        (0, 0, False, [("seq", [1, 2])], [1, 1], "nn"),  # duplicate value
        (0, 0, False, [("seq", [1, 2])], [2], "nc"),
        (0, 0, False, [("seq", [1, 1, 2])], [2], "xn"),
        (0, 0, False, [("seq", [1, 2, 2])], [1], "xc"),
        (0, 0, False, [("seq", [1, 3])], [1], "pn"),
        (0, 0, True, None, [], None),  # withdrawal
        (0, 0, False, [("seq", [1, 3])], [(64500, 1, 2)], "nc"),
        (1, 0, False, [("seq", [1, 3])], [], None),  # other session
        (0, 1, False, [("seq", [1, 3])], [], None),  # other prefix
        (0, 0, False, [("seq", [1]), ("set", [4, 5])], [], "pc"),
        (0, 0, False, [("seq", [1]), ("set", [5, 4])], [], "nn"),
        (0, 0, False, [("seq", [1, 1]), ("set", [5, 4])], [], "xn"),
        (0, 0, False, [("seq", [1]), ("set", [4])], [], "pn"),
        (0, 0, False, None, [], "pn"),  # no AS_PATH: the empty path
        (0, 0, False, [], [], "nn"),
    ]

    def events(self):
        return [make_event(*row[:-1]) for row in self.FEED]

    def test_oracle_matches_the_labels(self):
        expected = [row[-1] for row in self.FEED]
        assert definition_types(self.events()) == expected

    def test_classifier_matches_the_labels(self):
        classifier = UpdateClassifier()
        types = [
            classifier.observe(observation)
            for observation in observations(self.events())
        ]
        assert type_names(types) == [row[-1] for row in self.FEED]


class TestClassifierAgainstDefinition:
    @given(feeds())
    @settings(max_examples=120, deadline=None)
    def test_update_classifier(self, events):
        classifier = UpdateClassifier()
        types = [
            classifier.observe(observation)
            for observation in observations(events)
        ]
        assert type_names(types) == definition_types(events)

    @given(feeds())
    @settings(max_examples=60, deadline=None)
    def test_collector_proxy(self, events):
        recording = RecordingCollector()
        counts = UpdateCountsCollector()
        proxy = CollectorProxy([recording, counts])
        for observation in observations(events):
            proxy.push(observation)
        expected = definition_types(events)
        assert type_names(recording.kinds) == expected
        tallied = counts.finish()["types"]
        for kind in AnnouncementType:
            assert tallied[kind.value] == expected.count(kind.value)
        assert counts.finish()["withdrawals"] == sum(
            1 for event in events if event["withdraw"]
        )

    @given(feeds())
    @settings(max_examples=40, deadline=None)
    def test_compare_announcements_pairwise(self, events):
        announcements = [
            (event, observation)
            for event, observation in zip(events, observations(events))
            if not event["withdraw"]
        ]
        for (before, old), (after, new) in zip(
            announcements, announcements[1:]
        ):
            kind = compare_announcements(
                old.as_path, old.communities, new.as_path, new.communities
            )
            assert kind.value == definition_type(
                (before["path"], before["communities"]),
                (after["path"], after["communities"]),
            )

    def test_stream_keys_are_equal_but_not_identical(self):
        first, second = observations(
            [make_event(0, 0, False, [("seq", [1])], [])] * 2
        )
        assert first.session == second.session
        assert first.session is not second.session
        assert first.session.collector is not second.session.collector
        assert first.prefix == second.prefix
        assert first.prefix is not second.prefix
