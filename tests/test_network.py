"""Integration-style tests of the network: delivery, credits, ordering."""

import random

import pytest

from repro.core.grid import Grid
from repro.noc import (
    Network,
    NetworkInterface,
    Packet,
    PacketType,
    packet_flits,
)


def make_net(width=4, **kwargs):
    kwargs.setdefault("flit_bytes", 16)
    kwargs.setdefault("vc_classes", [(0,), (1,)])
    net = Network("t", Grid(width), **kwargs)
    nis = {n: NetworkInterface(net, n) for n in net.grid.nodes()}
    return net, nis


def send(net, nis, pid, src, dst, ptype=PacketType.READ_REQUEST, vc_class=0):
    size = packet_flits(ptype, net.flit_bytes)
    packet = Packet(pid, ptype, src, dst, size, 0, vc_class=vc_class)
    nis[src].enqueue(packet)
    return packet


def run_until_idle(net, grid_nodes, max_cycles=5000):
    received = []
    for _ in range(max_cycles):
        net.tick()
        for n in grid_nodes:
            while True:
                p = net.pop_delivered(n)
                if p is None:
                    break
                received.append(p)
        if net.idle():
            break
    return received


class TestDelivery:
    def test_single_packet_delivered(self):
        net, nis = make_net()
        packet = send(net, nis, 1, 0, 15)
        received = run_until_idle(net, list(net.grid.nodes()))
        assert received == [packet]
        assert packet.delivered is not None
        assert packet.injected is not None

    def test_latency_at_zero_load_matches_model(self):
        net, nis = make_net(8)
        src, dst = 0, 63
        packet = send(net, nis, 1, src, dst, PacketType.READ_REPLY, 1)
        run_until_idle(net, [dst])
        hops = net.grid.hops(src, dst)
        # Zero-load: 1 cycle NI-core serialisation + 1 cycle NI link +
        # 1 cycle/hop + eject arbitration + sink + (size-1) serialisation.
        assert packet.latency == hops + packet.size + 2

    def test_all_pairs_delivery(self):
        net, nis = make_net(4)
        pid = 0
        expected = set()
        for src in net.grid.nodes():
            for dst in net.grid.nodes():
                if src == dst:
                    continue
                pid += 1
                send(net, nis, pid, src, dst)
                expected.add(pid)
        received = run_until_idle(net, list(net.grid.nodes()))
        assert {p.pid for p in received} == expected

    def test_packets_arrive_at_correct_node(self):
        net, nis = make_net(4)
        p1 = send(net, nis, 1, 0, 5)
        p2 = send(net, nis, 2, 3, 12)
        for _ in range(200):
            net.tick()
            if net.idle():
                break
        assert net.pop_delivered(5).pid == 1
        assert net.pop_delivered(12).pid == 2
        assert net.pop_delivered(5) is None

    def test_multi_flit_packet_arrives_whole(self):
        net, nis = make_net()
        packet = send(net, nis, 1, 0, 15, PacketType.READ_REPLY, 1)
        assert packet.size == 5
        received = run_until_idle(net, [15])
        assert received[0] is packet


class TestConservation:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_no_loss_under_load(self, seed):
        net, nis = make_net(8)
        rng = random.Random(seed)
        nodes = list(net.grid.nodes())
        sent = 0
        for _ in range(300):
            for src in nodes:
                if rng.random() < 0.1:
                    dst = rng.choice(nodes)
                    if dst == src:
                        continue
                    sent += 1
                    reply = rng.random() < 0.5
                    send(
                        net, nis, sent, src, dst,
                        PacketType.READ_REPLY if reply
                        else PacketType.READ_REQUEST,
                        1 if reply else 0,
                    )
            net.tick()
        received = run_until_idle(net, nodes, max_cycles=20000)
        drained = len(received)
        # Some packets were consumed during the load loop as well.
        assert net.idle()
        assert net.stats.packets_delivered == sent
        assert drained <= sent

    def test_flit_conservation_counters(self):
        net, nis = make_net(4)
        for pid in range(1, 11):
            send(net, nis, pid, pid % 16, (pid * 7) % 16)
        run_until_idle(net, list(net.grid.nodes()))
        assert net.stats.flits_injected == net.stats.flits_ejected


class TestCredits:
    def test_credits_restored_after_drain(self):
        net, nis = make_net()
        send(net, nis, 1, 0, 15, PacketType.READ_REPLY, 1)
        run_until_idle(net, [15])
        for router in net.routers:
            for port, out in router.outputs.items():
                if port < 4 and port in router.neighbors:
                    for vc, credits in enumerate(out.credits):
                        assert credits == net.vc_capacity
                for vc in range(out.num_vcs):
                    assert out.owner[vc] is None

    def test_eject_credits_returned_on_pop(self):
        net, nis = make_net()
        send(net, nis, 1, 0, 15, PacketType.READ_REPLY, 1)
        for _ in range(100):
            net.tick()
            if net.in_flight() == 0:
                break
        router = net.routers[15]
        eject = router.outputs[router.eject_ports[0]]
        before = eject.credits[0]
        assert before < net.eject_capacity  # packet parked in receive queue
        net.pop_delivered(15)
        assert eject.credits[0] == before + 5

    def test_backpressure_blocks_ejection(self):
        """If nobody consumes at the destination, injection stalls."""
        net, nis = make_net(4)
        dst = 15
        for pid in range(1, 30):
            send(net, nis, pid, 0, dst, PacketType.READ_REPLY, 1)
        for _ in range(400):
            net.tick()
        # Without pops, only eject_capacity worth of flits drained.
        assert not net.idle()
        drained = 0
        for _ in range(5000):
            net.tick()
            while net.pop_delivered(dst):
                drained += 1
            if net.idle():
                break
        assert drained == 29
        assert net.idle()

    def test_add_eject_port_defaults_to_constructed_capacity(self):
        """Regression: extra eject ports once defaulted to 2*vc_capacity,
        ignoring an explicit ``eject_capacity`` at construction."""
        net, _ = make_net(eject_capacity=7)
        router = net.routers[3]
        built = router.outputs[router.eject_ports[0]]
        assert built.capacity == 7
        port = net.add_eject_port(3)
        added = router.outputs[port]
        assert added.capacity == 7
        assert added.credits[0] == 7

    def test_add_eject_port_explicit_capacity_still_honoured(self):
        net, _ = make_net(eject_capacity=7)
        port = net.add_eject_port(0, capacity=11)
        assert net.routers[0].outputs[port].capacity == 11


class TestVcClasses:
    def test_classes_stay_separated_without_monopolize(self):
        net, nis = make_net(4)
        send(net, nis, 1, 0, 15, PacketType.READ_REQUEST, 0)
        send(net, nis, 2, 0, 15, PacketType.READ_REPLY, 1)
        seen_violation = []
        for _ in range(200):
            net.tick()
            for router in net.routers:
                for port in router.input_ports:
                    for vc, ivc in enumerate(router.inputs[port]):
                        for flit in ivc.queue:
                            if vc not in net.vc_classes[flit.packet.vc_class]:
                                seen_violation.append((router.node, port, vc))
            if net.idle():
                break
        assert not seen_violation


class TestHeatmap:
    def test_residence_recorded(self):
        net, nis = make_net(8)
        send(net, nis, 1, 0, 63, PacketType.READ_REPLY, 1)
        run_until_idle(net, [63])
        heat = net.stats.heatmap()
        assert heat.shape == (64,)
        assert heat.sum() > 0


class TestEventModel:
    def test_router_commits_its_moves(self):
        """Router.tick schedules each move's flit and credit for the
        next cycle and counts it, with on_move fired once per move."""
        net, nis = make_net(8)
        send(net, nis, 1, 0, 63, PacketType.READ_REPLY, 1)
        seen = []
        net.on_move = lambda *args: seen.append(args)
        for _ in range(4):
            net.tick()
        assert seen
        stats = net.stats
        assert stats.xbar_traversals == stats.buffer_reads == len(seen)
        assert sum(stats.residence_count) == len(seen)
        cycle = net.cycle
        this_cycle = [m for m in seen if m[-1] == cycle]
        nxt = cycle + 1
        # Routers add one credit per move; the NI's next flit also
        # lands in the arrivals, scheduled through schedule_flit.
        assert len(net._credits[nxt]) == len(this_cycle)
        router_arrivals = [
            ev for ev in net._arrivals[nxt]
            if any(ev[3] is m[5] for m in this_cycle)
        ]
        assert len(router_arrivals) == len(this_cycle)
        for (node, _ip, _iv, out_port, out_vc, flit, _c), arrival in zip(
            this_cycle, router_arrivals
        ):
            nbr, nbr_port = net.routers[node].neighbors[out_port]
            assert arrival == (nbr, nbr_port, out_vc, flit)

    def test_tick_return_matches_committed_moves(self):
        net, _ = make_net(8)
        router = net.routers[0]
        port = router.input_ports[-1]  # the NI's injection port
        packet = Packet(1, PacketType.READ_REQUEST, 0, 63, 1, 0)
        router.accept(port, 0, packet.make_flits()[0], 1)
        moves = router.tick(1)
        assert len(moves) == 1
        in_port, in_vc, out_port, out_vc, flit = moves[0]
        assert (in_port, in_vc, flit.packet) == (port, 0, packet)
        nbr, nbr_port = router.neighbors[out_port]
        assert net._arrivals == {2: [(nbr, nbr_port, out_vc, flit)]}
        assert net._credits == {2: [(net.upstream[(0, port)], 0)]}
        assert router.flit_count == 0
        assert router.tick(2) == []  # an empty router commits nothing
        assert list(net._arrivals) == [2]

    def test_idle_tick_equals_skip_cycle(self):
        ticked, _ = make_net()
        skipped, _ = make_net()
        for _ in range(7):
            ticked.tick()
            skipped.skip_cycle()
        assert ticked.cycle == skipped.cycle == 7
        assert ticked.stats.snapshot() == skipped.stats.snapshot()
        assert not ticked._arrivals and not ticked._credits


class TestResolveEngine:
    def test_resolve_engine_names_the_only_engine(self):
        # Kept for callers that record the engine name in run headers.
        from repro.noc.network import resolve_engine

        assert resolve_engine() == "object"
