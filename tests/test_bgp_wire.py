"""Unit + property tests for the BGP wire codec."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.bgp import (
    ASPath,
    CommunitySet,
    Origin,
    PathAttributes,
    UpdateMessage,
    decode_message,
    encode_message,
)
from repro.bgp.community import Community, LargeCommunity
from repro.bgp.constants import HEADER_LENGTH, MARKER, MessageType
from repro.bgp.errors import MessageError, WireFormatError
from repro.netbase import Prefix


def attrs(**overrides):
    defaults = dict(
        as_path=ASPath.from_string("20205 3356 174 12654"),
        next_hop="10.0.0.1",
    )
    defaults.update(overrides)
    return PathAttributes(**defaults)


def raw(kind, body=b""):
    """One wire-format message of type code *kind* around *body*."""
    return MARKER + struct.pack("!HB", HEADER_LENGTH + len(body), kind) + body


def open_body(
    asn=65000, hold_time=90, router_id=0xCB007101, optional=b"", version=4
):
    """An OPEN body: fixed fields, then the optional parameters."""
    return struct.pack(
        "!BHHIB", version, asn, hold_time, router_id, len(optional)
    ) + optional


#: Optional parameters announcing the four-octet AS 4259840100
#: (RFC 6793) behind AS_TRANS in the 2-octet field.
FOUR_OCTET_AS = bytes([2, 6, 65, 4]) + struct.pack("!I", 4259840100)


class TestRoundtrips:
    def test_announcement(self):
        update = UpdateMessage.announce(Prefix("84.205.64.0/24"), attrs())
        assert decode_message(encode_message(update)) == update

    def test_withdrawal(self):
        update = UpdateMessage.withdraw(
            [Prefix("84.205.64.0/24"), Prefix("10.0.0.0/8")]
        )
        assert decode_message(encode_message(update)) == update

    def test_ipv6_announcement_uses_mp_reach(self):
        update = UpdateMessage.announce(
            Prefix("2001:db8::/32"), attrs(next_hop="2001:db8::1")
        )
        assert decode_message(encode_message(update)) == update

    def test_ipv6_withdrawal_uses_mp_unreach(self):
        update = UpdateMessage.withdraw(Prefix("2001:db8::/32"))
        assert decode_message(encode_message(update)) == update

    def test_mixed_families(self):
        update = UpdateMessage(
            announced=[Prefix("10.0.0.0/8")],
            withdrawn=[Prefix("2001:db8::/32"), Prefix("11.0.0.0/8")],
            attributes=attrs(),
        )
        decoded = decode_message(encode_message(update))
        assert set(decoded.announced) == set(update.announced)
        assert set(decoded.withdrawn) == set(update.withdrawn)

    def test_full_attribute_set(self):
        rich = attrs(
            origin=Origin.EGP,
            med=77,
            local_pref=150,
            communities=CommunitySet.parse("3356:300 65535:666 1:2:3"),
            atomic_aggregate=True,
            aggregator=(__import__("repro.netbase", fromlist=["ASN"]).ASN(64500), "192.0.2.9"),
            originator_id="192.0.2.7",
            cluster_list=("192.0.2.5", "192.0.2.6"),
        )
        update = UpdateMessage.announce(Prefix("10.0.0.0/8"), rich)
        assert decode_message(encode_message(update)) == update

    def test_unknown_transitive_attribute_roundtrip(self):
        exotic = attrs(extra=((99, b"\x01\x02\x03"),))
        update = UpdateMessage.announce(Prefix("10.0.0.0/8"), exotic)
        decoded = decode_message(encode_message(update))
        assert decoded.attributes.extra == ((99, b"\x01\x02\x03"),)

    # UPDATE is the only type encoded; the others decode to their
    # MessageType.
    def test_open(self):
        body = open_body(asn=23456, optional=FOUR_OCTET_AS)
        assert decode_message(raw(1, body)) is MessageType.OPEN

    def test_open_16bit_asn_without_capability(self):
        assert decode_message(raw(1, open_body())) is MessageType.OPEN

    def test_keepalive(self):
        assert decode_message(raw(4)) is MessageType.KEEPALIVE

    def test_notification(self):
        body = bytes([6, 4]) + b"shutdown"
        assert decode_message(raw(3, body)) is MessageType.NOTIFICATION

    def test_open_capabilities_are_not_read(self):
        # A four-octet AS capability cut to two bytes inside a longer
        # parameter: the OPEN's own lengths agree, so it is accepted.
        optional = bytes([2, 4, 65, 4, 0, 1])
        body = open_body(asn=23456, optional=optional)
        assert decode_message(raw(1, body)) is MessageType.OPEN

    def test_as_set_roundtrip(self):
        update = UpdateMessage.announce(
            Prefix("10.0.0.0/8"),
            attrs(as_path=ASPath.from_string("100 {200,300}")),
        )
        assert decode_message(encode_message(update)) == update


class TestErrors:
    def test_rejects_bad_marker(self):
        wire = bytearray(raw(4))
        wire[0] = 0
        with pytest.raises(WireFormatError):
            decode_message(bytes(wire))

    def test_rejects_truncated_header(self):
        with pytest.raises(WireFormatError):
            decode_message(MARKER[:10])

    def test_rejects_truncated_body(self):
        wire = encode_message(
            UpdateMessage.withdraw(Prefix("10.0.0.0/8"))
        )
        with pytest.raises(WireFormatError):
            decode_message(wire[:-1])

    def test_rejects_trailing_garbage(self):
        wire = raw(4) + b"\x00"
        with pytest.raises(WireFormatError):
            decode_message(wire)

    def test_rejects_unknown_type(self):
        wire = bytearray(raw(4))
        wire[18] = 9
        with pytest.raises(WireFormatError):
            decode_message(bytes(wire))

    def test_rejects_keepalive_with_body(self):
        body = b"x"
        wire = MARKER + struct.pack("!HB", HEADER_LENGTH + 1, 4) + body
        with pytest.raises(WireFormatError):
            decode_message(wire)


#: Every rule by which the decoder rejects a message of another type
#: than UPDATE, with the exception class it raises.
NON_UPDATE_REJECTIONS = [
    ("keepalive-with-body", raw(4, b"x"), WireFormatError),
    ("route-refresh-3-bytes", raw(5, b"\x00\x01\x00"), WireFormatError),
    ("route-refresh-5-bytes", raw(5, b"\x00\x01\x00\x01\x00"),
     WireFormatError),
    ("notification-empty", raw(3), WireFormatError),
    ("notification-1-byte", raw(3, b"\x06"), WireFormatError),
    # An error code outside RFC 4271's 1-6 has always raised a plain
    # ValueError, which the MRT reader counts as damage all the same.
    ("notification-code-0", raw(3, b"\x00\x00"), ValueError),
    ("notification-code-7", raw(3, b"\x07\x00"), ValueError),
    ("open-9-bytes", raw(1, open_body()[:9]), WireFormatError),
    ("open-version-3", raw(1, open_body(version=3)), WireFormatError),
    (
        "open-optional-truncated",
        raw(1, open_body(optional=FOUR_OCTET_AS)[:-1]),
        WireFormatError,
    ),
    ("open-hold-time-1", raw(1, open_body(hold_time=1)), MessageError),
    ("open-hold-time-2", raw(1, open_body(hold_time=2)), MessageError),
    ("type-0", raw(0), WireFormatError),
    ("type-6", raw(6), WireFormatError),
    ("type-255", raw(255, b"\x00\x00"), WireFormatError),
]


class TestNonUpdateRejections:
    @pytest.mark.parametrize(
        "wire, error",
        [case[1:] for case in NON_UPDATE_REJECTIONS],
        ids=[case[0] for case in NON_UPDATE_REJECTIONS],
    )
    def test_rejects(self, wire, error):
        with pytest.raises(error) as caught:
            decode_message(wire)
        assert type(caught.value) is error


# ----------------------------------------------------------------------
# property-based roundtrips
# ----------------------------------------------------------------------
@st.composite
def _prefix_v4(draw):
    length = draw(st.integers(min_value=8, max_value=24))
    network = draw(st.integers(min_value=0, max_value=2**length - 1))
    return Prefix.from_int(network << (32 - length), length, 4)


prefixes_v4 = _prefix_v4()

communities = st.builds(
    Community.of,
    st.integers(min_value=0, max_value=0xFFFF),
    st.integers(min_value=0, max_value=0xFFFF),
)

large_communities = st.builds(
    LargeCommunity,
    st.integers(min_value=0, max_value=0xFFFFFFFF),
    st.integers(min_value=0, max_value=0xFFFFFFFF),
    st.integers(min_value=0, max_value=0xFFFFFFFF),
)

as_paths = st.lists(
    st.integers(min_value=1, max_value=2**32 - 2), min_size=1, max_size=8
).map(ASPath.from_asns)


@st.composite
def update_messages(draw):
    announced = draw(st.lists(prefixes_v4, min_size=0, max_size=4, unique=True))
    withdrawn = draw(st.lists(prefixes_v4, min_size=0, max_size=4, unique=True))
    if not announced and not withdrawn:
        announced = [draw(prefixes_v4)]
    attributes = None
    if announced:
        attributes = PathAttributes(
            as_path=draw(as_paths),
            next_hop="10.0.0.1",
            med=draw(st.one_of(st.none(), st.integers(0, 2**32 - 1))),
            communities=CommunitySet(
                draw(st.lists(communities, max_size=5)),
                draw(st.lists(large_communities, max_size=3)),
            ),
        )
    return UpdateMessage(
        announced=announced, withdrawn=withdrawn, attributes=attributes
    )


class TestProperties:
    @given(update_messages())
    @settings(max_examples=200, deadline=None)
    def test_update_roundtrip(self, update):
        assert decode_message(encode_message(update)) == update

    @given(
        st.integers(min_value=0, max_value=0xFFFF),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=0xFFFF).filter(
            lambda hold_time: hold_time not in (1, 2)
        ),
        st.binary(max_size=32),
    )
    @settings(max_examples=100, deadline=None)
    def test_open_decodes_to_its_type(
        self, asn, router_id, hold_time, optional
    ):
        body = open_body(asn, hold_time, router_id, optional)
        assert decode_message(raw(1, body)) is MessageType.OPEN

    @given(st.binary(max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_decoder_never_crashes_on_noise(self, noise):
        try:
            decode_message(MARKER + noise)
        except WireFormatError:
            pass  # rejecting is fine; crashing is not
