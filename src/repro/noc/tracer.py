"""Optional per-packet event tracing.

Attach a :class:`PacketTracer` to a network to record every hop of
selected packets — the tool you reach for when a latency number looks
wrong and you need to see *where* a packet waited.  Tracing is opt-in
and filtered, so the simulator's hot path pays one attribute check when
disabled.

Usage::

    tracer = PacketTracer(net, watch=lambda p: p.pid == 42)
    ... run ...
    print(tracer.format_trace(42))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from .network import Network
from .types import Packet


@dataclass(frozen=True)
class HopEvent:
    """One traced event in a packet's life."""

    cycle: int
    node: int
    kind: str  # "inject" | "hop" | "eject" | "deliver"
    flit_idx: int
    detail: str = ""


class PacketTracer:
    """Records hop events for packets selected by ``watch``.

    The tracer attaches to the network's ``on_move`` / ``on_deliver`` /
    ``on_inject`` observation hooks, chaining any hook already there.
    """

    def __init__(
        self,
        network: Network,
        watch: Optional[Callable[[Packet], bool]] = None,
        max_packets: int = 1000,
    ) -> None:
        self.network = network
        self.watch = watch or (lambda p: True)
        self.max_packets = max_packets
        self.events: Dict[int, List[HopEvent]] = {}
        self.packets: Dict[int, Packet] = {}
        self._wrap()

    # ------------------------------------------------------------------
    def _record(self, packet: Packet, event: HopEvent) -> None:
        if packet.pid not in self.events:
            if len(self.events) >= self.max_packets:
                return
            if not self.watch(packet):
                return
            self.events[packet.pid] = []
            self.packets[packet.pid] = packet
        self.events[packet.pid].append(event)

    def _wrap(self) -> None:
        net = self.network
        original_move = net.on_move
        original_deliver = net.on_deliver
        original_inject = net.on_inject
        routers = net.routers

        def move(node, in_port, in_vc, out_port, out_vc, flit, cycle):
            kind = "eject" if out_port in routers[node].eject_ports else "hop"
            self._record(
                flit.packet,
                HopEvent(
                    cycle=cycle,
                    node=node,
                    kind=kind,
                    flit_idx=flit.idx,
                    detail=f"p{in_port}v{in_vc}->p{out_port}v{out_vc}",
                ),
            )
            if original_move is not None:
                original_move(node, in_port, in_vc, out_port, out_vc,
                              flit, cycle)

        def deliver(node, eject_port, flit, cycle):
            if flit.is_tail:
                self._record(
                    flit.packet,
                    HopEvent(cycle=cycle, node=node, kind="deliver",
                             flit_idx=flit.idx),
                )
            if original_deliver is not None:
                original_deliver(node, eject_port, flit, cycle)

        def inject(buffer, flit, cycle):
            # The head flit leaving the NI buffer onto the injection
            # link — the event the "inject" kind documents; without it
            # path/wait accounting starts at the first router hop and
            # undercounts NI-link wait.
            link = "interposer" if buffer.interposer else "local"
            self._record(
                flit.packet,
                HopEvent(
                    cycle=cycle,
                    node=buffer.target_node,
                    kind="inject",
                    flit_idx=flit.idx,
                    detail=f"ni({link})->p{buffer.target_port}"
                    f"v{buffer.cur_vc}",
                ),
            )
            if original_inject is not None:
                original_inject(buffer, flit, cycle)

        net.on_move = move
        net.on_deliver = deliver
        net.on_inject = inject

    # ------------------------------------------------------------------
    def trace(self, pid: int) -> List[HopEvent]:
        """All recorded events of one packet, in order."""
        return list(self.events.get(pid, ()))

    def path(self, pid: int) -> List[int]:
        """The router sequence the packet's head flit visited."""
        return [
            e.node for e in self.trace(pid)
            if e.flit_idx == 0 and e.kind in ("hop", "eject")
        ]

    def wait_cycles(self, pid: int) -> int:
        """Cycles between the head flit's injection (or first recorded
        move) and its last move, minus the minimal hop count — time
        lost to contention, NI-link wait included."""
        head = [e for e in self.trace(pid) if e.flit_idx == 0
                and e.kind in ("inject", "hop", "eject")]
        if len(head) < 2:
            return 0
        elapsed = head[-1].cycle - head[0].cycle
        return max(0, elapsed - (len(head) - 1))

    def prune_delivered(self) -> int:
        """Drop traces of delivered packets; returns how many were dropped.

        Long-running monitors (the validation mode's auto-attached
        tracer) call this periodically so memory stays proportional to
        the in-flight population — stuck packets, by definition never
        delivered, keep their full history for the watchdog dump.
        """
        done = [
            pid for pid, packet in self.packets.items()
            if packet.delivered is not None
        ]
        for pid in done:
            del self.events[pid]
            del self.packets[pid]
        return len(done)

    def format_trace(self, pid: int) -> str:
        """Human-readable event log for one packet."""
        events = self.trace(pid)
        if not events:
            return f"packet {pid}: no recorded events"
        grid = self.network.grid
        lines = [f"packet {pid}:"]
        for e in events:
            x, y = grid.coord(e.node)
            lines.append(
                f"  cycle {e.cycle:>6}  ({x},{y})  {e.kind:<7} "
                f"flit {e.flit_idx}  {e.detail}"
            )
        return "\n".join(lines)
