"""Unit tests for repro.bgp.aspath."""

import pickle
import sys

import pytest

from repro.bgp import ASPath, PathSegment, SegmentType
from repro.bgp.errors import AttributeError_
from repro.netbase import ASN


class TestConstruction:
    def test_from_asns(self):
        path = ASPath.from_asns([20205, 3356, 174, 12654])
        assert path.first_asn == ASN(20205)
        assert path.origin_asn == ASN(12654)
        assert path.hop_count() == 4

    def test_from_string_simple(self):
        path = ASPath.from_string("20205 3356 174 12654")
        assert path == ASPath.from_asns([20205, 3356, 174, 12654])

    def test_from_string_with_as_set(self):
        path = ASPath.from_string("100 200 {300,400}")
        assert len(path.segments) == 2
        assert path.segments[1].is_set

    def test_empty(self):
        assert ASPath.empty().is_empty()
        assert ASPath.empty().first_asn is None
        assert ASPath.empty().origin_asn is None
        assert ASPath.from_asns([]).is_empty()

    def test_segment_rejects_empty(self):
        with pytest.raises(AttributeError_):
            PathSegment(SegmentType.AS_SEQUENCE, [])

    def test_segment_rejects_overlong(self):
        with pytest.raises(AttributeError_):
            PathSegment(SegmentType.AS_SEQUENCE, range(1, 257))

    def test_rejects_non_segments(self):
        with pytest.raises(AttributeError_):
            ASPath(("not a segment",))  # type: ignore[arg-type]


class TestLength:
    def test_sequence_length(self):
        assert ASPath.from_asns([1, 2, 3]).length() == 3

    def test_as_set_counts_as_one(self):
        path = ASPath.from_string("100 {200,300}")
        assert path.length() == 2
        assert path.hop_count() == 3

    def test_prepending_increases_length(self):
        path = ASPath.from_asns([1, 2])
        assert path.prepend(1).length() == 3


class TestPrepend:
    def test_prepend_merges_into_sequence(self):
        path = ASPath.from_asns([2, 3]).prepend(1)
        assert path.asns() == (ASN(1), ASN(2), ASN(3))
        assert len(path.segments) == 1

    def test_prepend_count(self):
        path = ASPath.from_asns([2]).prepend(1, 3)
        assert path.asns() == (ASN(1), ASN(1), ASN(1), ASN(2))

    def test_prepend_onto_empty(self):
        path = ASPath.empty().prepend(9)
        assert path.asns() == (ASN(9),)

    def test_prepend_before_as_set(self):
        path = ASPath((PathSegment(SegmentType.AS_SET, [5, 6]),)).prepend(1)
        assert path.segments[0].kind == SegmentType.AS_SEQUENCE
        assert path.segments[1].is_set

    def test_prepend_rejects_zero_count(self):
        with pytest.raises(AttributeError_):
            ASPath.from_asns([1]).prepend(2, 0)


class TestPrependDetection:
    def test_distinct_ases_collapses_runs(self):
        path = ASPath.from_asns([1, 1, 1, 2, 3, 3])
        assert path.distinct_ases() == (ASN(1), ASN(2), ASN(3))

    def test_without_prepending(self):
        path = ASPath.from_asns([1, 1, 2])
        assert path.without_prepending() == ASPath.from_asns([1, 2])

    def test_is_prepend_variant(self):
        base = ASPath.from_asns([1, 2, 3])
        prepended = ASPath.from_asns([1, 1, 2, 3])
        assert prepended.is_prepend_variant_of(base)
        assert base.is_prepend_variant_of(prepended)

    def test_equal_paths_are_not_variants(self):
        base = ASPath.from_asns([1, 2])
        assert not base.is_prepend_variant_of(ASPath.from_asns([1, 2]))

    def test_different_paths_are_not_variants(self):
        first = ASPath.from_asns([1, 2, 3])
        second = ASPath.from_asns([1, 4, 3])
        assert not first.is_prepend_variant_of(second)

    def test_has_prepending(self):
        assert ASPath.from_asns([1, 1, 2]).has_prepending()
        assert not ASPath.from_asns([1, 2, 1]).has_prepending()


class TestSemantics:
    def test_contains_for_loop_detection(self):
        path = ASPath.from_asns([20205, 3356, 174])
        assert path.contains(3356)
        assert not path.contains(12654)

    def test_as_set_equality_is_unordered(self):
        first = PathSegment(SegmentType.AS_SET, [1, 2])
        second = PathSegment(SegmentType.AS_SET, [2, 1])
        assert first == second
        assert hash(first) == hash(second)

    def test_sequence_equality_is_ordered(self):
        first = PathSegment(SegmentType.AS_SEQUENCE, [1, 2])
        second = PathSegment(SegmentType.AS_SEQUENCE, [2, 1])
        assert first != second

    def test_str_rendering(self):
        path = ASPath.from_string("100 200 {300,400}")
        assert str(path) == "100 200 {300,400}"

    def test_iteration_yields_segments(self):
        path = ASPath.from_string("100 {200,300}")
        assert [segment.is_set for segment in path] == [False, True]

    def test_len_counts_hops(self):
        assert len(ASPath.from_asns([1, 1, 2])) == 3


class TestValueContract:
    """Segments are ``(kind, asns)`` tuples with value semantics."""

    def test_sequence_hash_is_the_tuple_hash(self):
        segment = PathSegment(SegmentType.AS_SEQUENCE, [3, 1, 2])
        members = (ASN(3), ASN(1), ASN(2))
        assert hash(segment) == hash((SegmentType.AS_SEQUENCE, members))
        confed = PathSegment(SegmentType.AS_CONFED_SEQUENCE, [7])
        assert hash(confed) == hash(
            (SegmentType.AS_CONFED_SEQUENCE, (ASN(7),))
        )

    @pytest.mark.parametrize(
        "kind", [SegmentType.AS_SET, SegmentType.AS_CONFED_SET]
    )
    def test_set_segments_ignore_member_order(self, kind):
        first = PathSegment(kind, [1, 2, 3])
        second = PathSegment(kind, [3, 1, 2])
        assert first == second
        assert not first != second
        assert hash(first) == hash(second)
        assert first.is_set and first.path_length_contribution() == 1
        assert first.asns == (ASN(1), ASN(2), ASN(3))  # wire order kept

    def test_sequence_never_equals_a_set_of_the_same_members(self):
        sequence = PathSegment(SegmentType.AS_SEQUENCE, [1, 2])
        as_set = PathSegment(SegmentType.AS_SET, [1, 2])
        assert sequence != as_set
        assert as_set != sequence
        assert not sequence == as_set
        assert not as_set == sequence
        assert ASPath((sequence,)) != ASPath((as_set,))

    def test_accessors_keep_their_meaning(self):
        segment = PathSegment(SegmentType.AS_SEQUENCE, [1, 1, 2])
        assert segment.kind is SegmentType.AS_SEQUENCE
        assert segment.asns == (ASN(1), ASN(1), ASN(2))
        assert all(type(asn) is ASN for asn in segment.asns)
        assert not segment.is_set
        assert segment.path_length_contribution() == 3
        assert repr(segment) == "PathSegment(AS_SEQUENCE, [1, 1, 2])"
        assert str(segment) == "1 1 2"
        as_set = PathSegment(SegmentType.AS_SET, [5, 4])
        assert repr(as_set) == "PathSegment(AS_SET, [5, 4])"
        assert str(as_set) == "{5,4}"

    def test_pickle_round_trip(self):
        segments = [
            PathSegment(SegmentType.AS_SEQUENCE, [1, 2]),
            PathSegment(SegmentType.AS_SET, [4, 3]),
        ]
        path = ASPath.from_string("1 2 {4,3}")
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            for segment in segments:
                copy = pickle.loads(pickle.dumps(segment, protocol))
                assert copy == segment
                assert type(copy) is type(segment)
                assert copy.is_set == segment.is_set
            copy = pickle.loads(pickle.dumps(path, protocol))
            assert copy == path
            assert hash(copy) == hash(path)
            assert str(copy) == "1 2 {4,3}"

    def test_segments_are_immutable(self):
        segment = PathSegment(SegmentType.AS_SEQUENCE, [1, 2])
        with pytest.raises(AttributeError):
            segment.kind = SegmentType.AS_SET
        with pytest.raises(AttributeError):
            segment.asns = (ASN(3),)
        with pytest.raises(AttributeError):
            segment.extra = 1
        with pytest.raises(TypeError):
            segment[1] = (ASN(3),)

    def test_a_bare_tuple_is_not_a_segment(self):
        with pytest.raises(AttributeError_):
            ASPath([("not", "a segment")])  # type: ignore[list-item]
        with pytest.raises(AttributeError_):
            ASPath([(SegmentType.AS_SEQUENCE, (ASN(1),))])  # type: ignore

    def test_path_equality_runs_one_python_frame(self):
        # Equal but distinct sequence segments compare in C: the only
        # Python frame is ASPath.__eq__ itself.
        first = ASPath.from_asns([20205, 3356, 174])
        second = ASPath.from_asns([20205, 3356, 174])
        assert first.segments[0] is not second.segments[0]
        frames = []

        def count_calls(frame, event, arg):
            if event == "call":
                frames.append(frame.f_code.co_name)

        sys.setprofile(count_calls)
        try:
            equal = first == second
        finally:
            sys.setprofile(None)
        assert equal
        assert frames == ["__eq__"]
