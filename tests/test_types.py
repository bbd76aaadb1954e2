"""Unit tests for packet/flit types and size arithmetic."""

import pytest

from repro.noc.types import (
    CACHE_LINE_BYTES,
    CONTROL_BYTES,
    Packet,
    PacketType,
    packet_bytes,
    packet_flits,
)


class TestPacketType:
    def test_request_reply_partition(self):
        for t in PacketType:
            assert t.is_request != t.is_reply

    def test_data_carriers(self):
        assert PacketType.READ_REPLY.carries_data
        assert PacketType.WRITE_REQUEST.carries_data
        assert not PacketType.READ_REQUEST.carries_data
        assert not PacketType.WRITE_REPLY.carries_data


class TestSizes:
    def test_packet_bytes(self):
        assert packet_bytes(PacketType.READ_REQUEST) == CONTROL_BYTES
        assert packet_bytes(PacketType.READ_REPLY) == (
            CONTROL_BYTES + CACHE_LINE_BYTES
        )

    @pytest.mark.parametrize(
        "ptype,flit_bytes,expected",
        [
            (PacketType.READ_REQUEST, 16, 1),
            (PacketType.WRITE_REQUEST, 16, 5),
            (PacketType.READ_REPLY, 16, 5),
            (PacketType.WRITE_REPLY, 16, 1),
            (PacketType.READ_REPLY, 32, 3),   # CMesh width
            (PacketType.READ_REPLY, 2, 36),   # DA2Mesh subnet width
            (PacketType.WRITE_REPLY, 2, 4),
        ],
    )
    def test_packet_flits(self, ptype, flit_bytes, expected):
        assert packet_flits(ptype, flit_bytes) == expected

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            packet_flits(PacketType.READ_REPLY, 0)


class TestPacket:
    def test_make_flits_structure(self):
        p = Packet(1, PacketType.READ_REPLY, 0, 9, 5, 0)
        flits = p.make_flits()
        assert len(flits) == 5
        assert flits[0].is_head and not flits[0].is_tail
        assert flits[-1].is_tail and not flits[-1].is_head
        assert all(not f.is_head and not f.is_tail for f in flits[1:-1])
        assert all(f.packet is p for f in flits)

    def test_single_flit_head_and_tail(self):
        p = Packet(1, PacketType.READ_REQUEST, 0, 9, 1, 0)
        (flit,) = p.make_flits()
        assert flit.is_head and flit.is_tail

    def test_latency_requires_delivery(self):
        p = Packet(1, PacketType.READ_REQUEST, 0, 9, 1, created=10)
        with pytest.raises(ValueError):
            _ = p.latency
        p.delivered = 25
        assert p.latency == 15


class TestSlots:
    def test_hot_classes_have_no_instance_dict(self):
        # The tick loop allocates or touches these millions of times;
        # __slots__ drops the per-instance __dict__ (~104 bytes each).
        from repro.mem.hbm import MemoryAccess
        from repro.noc.stats import LatencyAccumulator
        from repro.noc.types import Flit
        from repro.workloads.generator import GeneratedRequest

        packet = Packet(1, PacketType.READ_REQUEST, 0, 1, 1, 0)
        for obj in (
            packet,
            Flit(packet, 0, True, True),
            GeneratedRequest(True, 0, True),
            MemoryAccess(None, True, True, 0),
            LatencyAccumulator(),
        ):
            assert not hasattr(obj, "__dict__"), type(obj).__name__
