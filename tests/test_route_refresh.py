"""Tests for ROUTE-REFRESH (RFC 2918) decoding and beacon anchors."""

import struct

import pytest

from repro.bgp import decode_message
from repro.bgp.constants import HEADER_LENGTH, MARKER, MessageType
from repro.bgp.errors import WireFormatError


def route_refresh(body: bytes) -> bytes:
    return MARKER + struct.pack("!HB", HEADER_LENGTH + len(body), 5) + body


class TestRouteRefresh:
    def test_roundtrip(self):
        # An archived refresh request is checked and decoded to its type.
        for afi, safi in ((1, 1), (2, 1), (1, 2)):
            wire = route_refresh(struct.pack("!HBB", afi, 0, safi))
            assert decode_message(wire) is MessageType.ROUTE_REFRESH

    def test_decoder_rejects_bad_length(self):
        # A 3-byte body where RFC 2918 fixes 4 bytes.
        with pytest.raises(WireFormatError):
            decode_message(route_refresh(b"\x00\x01\x00"))


class TestBeaconAnchor:
    def test_anchor_is_announced_once_and_stays(self):
        from repro.beacons import BeaconOrigin
        from repro.netbase import Prefix, parse_utc
        from repro.simulator import Network

        day = parse_utc("2020-03-15")
        network = Network(start_time=day - 3600)
        origin = network.add_router("origin", 65001)
        middle = network.add_router("middle", 65002)
        collector = network.add_collector("rrc0")
        network.connect(origin, middle)
        network.connect(middle, collector)
        network.converge()

        beacon_prefix = Prefix("84.205.64.0/24")
        anchor_prefix = Prefix("84.205.80.0/24")
        agent = BeaconOrigin(
            origin, beacon_prefix, anchor_prefix=anchor_prefix
        )
        agent.schedule_day(day)
        network.run(until=day + 86_400)
        network.converge()

        anchor_events = [
            record
            for record in collector.records
            if anchor_prefix
            in record.message.announced + record.message.withdrawn
        ]
        # One announcement, never withdrawn: the control stream.
        assert len(anchor_events) == 1
        assert anchor_events[0].message.is_announcement
        beacon_withdrawals = [
            record
            for record in collector.records
            if beacon_prefix in record.message.withdrawn
        ]
        assert len(beacon_withdrawals) == 6
