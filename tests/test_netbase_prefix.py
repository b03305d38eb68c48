"""Unit tests for repro.netbase.prefix."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.netbase import Prefix, PrefixError


class TestParsing:
    def test_parse_ipv4(self):
        prefix = Prefix("84.205.64.0/24")
        assert prefix.version == 4
        assert prefix.length == 24
        assert prefix.network_address == "84.205.64.0"

    def test_parse_ipv6(self):
        prefix = Prefix("2001:db8::/32")
        assert prefix.version == 6
        assert prefix.length == 32

    def test_parse_rejects_missing_length(self):
        with pytest.raises(PrefixError):
            Prefix("10.0.0.0")

    def test_parse_rejects_bad_length(self):
        with pytest.raises(PrefixError):
            Prefix("10.0.0.0/33")
        with pytest.raises(PrefixError):
            Prefix("2001:db8::/129")

    def test_parse_rejects_host_bits(self):
        with pytest.raises(PrefixError):
            Prefix("10.0.0.1/24")

    def test_non_strict_masks_host_bits(self):
        prefix = Prefix("10.0.0.1/24", strict=False)
        assert str(prefix) == "10.0.0.0/24"

    def test_parse_rejects_garbage(self):
        with pytest.raises(PrefixError):
            Prefix("not-a-prefix/8")

    def test_parse_rejects_non_string(self):
        with pytest.raises(PrefixError):
            Prefix(1234)  # type: ignore[arg-type]

    def test_copy_constructor(self):
        original = Prefix("10.0.0.0/8")
        assert Prefix(original) == original

    def test_zero_length_prefix(self):
        default = Prefix("0.0.0.0/0")
        assert default.length == 0
        assert default.contains(Prefix("203.0.113.0/24"))


class TestFromInt:
    def test_roundtrip(self):
        prefix = Prefix.from_int(10 << 24, 8, 4)
        assert str(prefix) == "10.0.0.0/8"

    def test_rejects_bad_version(self):
        with pytest.raises(PrefixError):
            Prefix.from_int(0, 8, 5)

    def test_rejects_host_bits(self):
        with pytest.raises(PrefixError):
            Prefix.from_int(1, 8, 4)

    def test_rejects_negative_network(self):
        with pytest.raises(PrefixError):
            Prefix.from_int(-1, 8, 4)


class TestContainment:
    def test_contains_more_specific(self):
        assert Prefix("10.0.0.0/8").contains(Prefix("10.1.0.0/16"))

    def test_contains_self(self):
        prefix = Prefix("10.0.0.0/8")
        assert prefix.contains(prefix)

    def test_does_not_contain_less_specific(self):
        assert not Prefix("10.1.0.0/16").contains(Prefix("10.0.0.0/8"))

    def test_does_not_contain_sibling(self):
        assert not Prefix("10.0.0.0/16").contains(Prefix("11.0.0.0/16"))

    def test_cross_version_never_contains(self):
        assert not Prefix("0.0.0.0/0").contains(Prefix("2001:db8::/32"))

    def test_overlaps_is_symmetric(self):
        big = Prefix("10.0.0.0/8")
        small = Prefix("10.2.3.0/24")
        assert big.overlaps(small)
        assert small.overlaps(big)
        assert not small.overlaps(Prefix("11.0.0.0/8"))


class TestDerivation:
    def test_supernet_default(self):
        assert str(Prefix("10.128.0.0/9").supernet()) == "10.0.0.0/8"

    def test_supernet_explicit(self):
        assert str(Prefix("10.2.3.0/24").supernet(8)) == "10.0.0.0/8"

    def test_supernet_rejects_longer(self):
        with pytest.raises(PrefixError):
            Prefix("10.0.0.0/8").supernet(16)

    def test_subnets(self):
        low, high = Prefix("10.0.0.0/8").subnets()
        assert str(low) == "10.0.0.0/9"
        assert str(high) == "10.128.0.0/9"

    def test_subnets_rejects_host_route(self):
        with pytest.raises(PrefixError):
            Prefix("10.0.0.1/32").subnets()

    def test_hosts_count(self):
        assert Prefix("10.0.0.0/24").hosts_count() == 256
        assert Prefix("10.0.0.0/32").hosts_count() == 1


class TestNLRI:
    def test_roundtrip_v4(self):
        prefix = Prefix("84.205.64.0/24")
        decoded, consumed = Prefix.from_nlri(prefix.to_nlri(), 4)
        assert decoded == prefix
        assert consumed == len(prefix.to_nlri())

    def test_roundtrip_v6(self):
        prefix = Prefix("2001:db8:42::/48")
        decoded, consumed = Prefix.from_nlri(prefix.to_nlri(), 6)
        assert decoded == prefix

    def test_nlri_length_is_minimal(self):
        # /8 needs exactly one network octet.
        assert len(Prefix("10.0.0.0/8").to_nlri()) == 2
        assert len(Prefix("10.0.0.0/9").to_nlri()) == 3

    def test_decode_rejects_truncated(self):
        with pytest.raises(PrefixError):
            Prefix.from_nlri(bytes([24, 84]), 4)

    def test_decode_rejects_empty(self):
        with pytest.raises(PrefixError):
            Prefix.from_nlri(b"", 4)

    def test_decode_rejects_overlong(self):
        with pytest.raises(PrefixError):
            Prefix.from_nlri(bytes([33, 1, 2, 3, 4, 5]), 4)

    def test_decode_masks_sloppy_trailing_bits(self):
        # 10.0.0.255/24 on the wire should decode as 10.0.0.0/24.
        data = bytes([24, 10, 0, 255])
        decoded, _ = Prefix.from_nlri(data, 4)
        assert str(decoded) == "10.0.255.0/24"


class TestOrdering:
    def test_sort_by_version_then_network(self):
        prefixes = [
            Prefix("2001:db8::/32"),
            Prefix("10.0.0.0/8"),
            Prefix("9.0.0.0/8"),
        ]
        ordered = sorted(prefixes)
        assert [p.version for p in ordered] == [4, 4, 6]
        assert str(ordered[0]) == "9.0.0.0/8"

    def test_equality_and_hash(self):
        first = Prefix("10.0.0.0/8")
        second = Prefix("10.0.0.0/8")
        assert first == second
        assert hash(first) == hash(second)
        assert first != Prefix("10.0.0.0/9")

    def test_repr_is_evaluable_form(self):
        assert repr(Prefix("10.0.0.0/8")) == "Prefix('10.0.0.0/8')"


@st.composite
def prefix_triples(draw):
    """Valid ``(version, network, length)`` triples, host bits clear."""
    version = draw(st.sampled_from((4, 6)))
    max_bits = 32 if version == 4 else 128
    length = draw(st.integers(0, max_bits))
    top = draw(st.integers(0, (1 << length) - 1)) if length else 0
    return version, top << (max_bits - length), length


class TestValueTypeContract:
    """Prefix is a ``(version, network, length)`` tuple: hash, equality
    and order are those of the plain field tuple."""

    @given(prefix_triples())
    @settings(max_examples=200, deadline=None)
    def test_hash_is_the_field_tuples(self, triple):
        version, network, length = triple
        prefix = Prefix.from_int(network, length, version)
        assert hash(prefix) == hash((version, network, length))
        assert (prefix.version, prefix.network, prefix.length) == triple

    @given(st.lists(prefix_triples(), max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_sorts_by_version_network_length(self, triples):
        prefixes = [Prefix.from_int(n, l, v) for v, n, l in triples]
        assert [
            (p.version, p.network, p.length) for p in sorted(prefixes)
        ] == sorted(triples)

    @given(prefix_triples())
    @settings(max_examples=50, deadline=None)
    def test_pickle_round_trip(self, triple):
        version, network, length = triple
        prefix = Prefix.from_int(network, length, version)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(prefix, protocol))
            assert type(copy) is Prefix
            assert copy == prefix

    def test_copy_constructor_returns_its_argument(self):
        prefix = Prefix("10.0.0.0/8")
        assert Prefix(prefix) is prefix

    def test_text_forms_unchanged(self):
        assert str(Prefix("10.0.0.0/8")) == "10.0.0.0/8"
        assert repr(Prefix("2001:db8::/32")) == "Prefix('2001:db8::/32')"

    def test_immutable(self):
        prefix = Prefix("10.0.0.0/8")
        with pytest.raises(AttributeError):
            prefix.extra = 1  # type: ignore[attr-defined]
