"""A physical network: routers, links, event scheduling and delivery.

The network owns its clock (``cycle``), its routers, the in-flight flit
and credit events, the network interfaces that inject traffic, and the
per-node receive queues that ejected packets land in.  Multiple
networks (request/reply, CMesh overlay, DA2Mesh subnets) coexist in one
system and are ticked by the fabric at their own clock ratios.

Event model: router arbitration is processed per-router within a cycle,
but every effect (flit arrival downstream, credit return upstream) is
scheduled at least one cycle in the future, so intra-cycle processing
order cannot leak between routers.

Scheduling: two tick disciplines produce bit-identical behaviour.  The
*dense* scheduler walks every router and NI each cycle (the
differential-testing oracle); the *active* scheduler (default) visits
only armed components — routers holding flits and NIs with queued
packets or loaded buffers — and relies on every work-creating event
(flit arrival, NI enqueue, fault requeue) waking the affected
component.  Round-robin pointers advance only on wins, so skipping a
workless component is exactly equivalent to visiting it.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..core.grid import Grid
from . import routing
from .router import OutputPort, Router
from .stats import NetworkStats
from .types import Flit, Packet

SCHEDULER_ENV = "REPRO_SCHEDULER"
SCHEDULERS = ("dense", "active")


def resolve_scheduler(value: Optional[str] = None) -> str:
    """Normalise a scheduler choice (arg > ``REPRO_SCHEDULER`` > active)."""
    if not value:
        value = os.environ.get(SCHEDULER_ENV, "")
    value = (value or "active").strip().lower()
    if value not in SCHEDULERS:
        raise ValueError(
            f"unknown scheduler {value!r}; expected one of {SCHEDULERS}"
        )
    return value


def resolve_engine() -> str:
    """The tick engine's name; the per-object simulator is the only one.

    Kept because ``perfbench/run.py`` records it in its header line.
    """
    return "object"


class Network:
    """One physical NoC (mesh or concentrated mesh)."""

    def __init__(
        self,
        name: str,
        grid: Grid,
        flit_bytes: int,
        num_vcs: int = 2,
        vc_capacity: int = 5,
        routing_algorithm: str = "oddeven",
        vc_classes: Optional[Sequence[Sequence[int]]] = None,
        clock_ratio: float = 1.0,
        eject_capacity: Optional[int] = None,
        monopolize: bool = False,
        monopolize_injection: bool = False,
        interposer_mesh_links: bool = False,
        scheduler: Optional[str] = None,
        loops: Optional[Sequence[Sequence[int]]] = None,
    ) -> None:
        self.name = name
        self.scheduler = resolve_scheduler(scheduler)
        self._active_scheduler = self.scheduler == "active"
        self.grid = grid
        self.flit_bytes = flit_bytes
        self.num_vcs = num_vcs
        self.vc_capacity = vc_capacity
        self.clock_ratio = clock_ratio
        self.monopolize_injection = monopolize_injection
        self.interposer_mesh_links = interposer_mesh_links
        if vc_classes is None:
            vc_classes = [tuple(range(num_vcs))]
        self.vc_classes = [tuple(c) for c in vc_classes]
        if eject_capacity is None:
            # The receive buffer must hold at least one full packet or a
            # long packet could never finish ejecting (credits only
            # return when the whole packet is consumed).
            eject_capacity = 2 * vc_capacity
        self.eject_capacity = eject_capacity
        self.cycle = 0
        self.stats = NetworkStats(grid.size, flit_bytes)
        self.routers: List[Router] = []
        for node in grid.nodes():
            self.routers.append(
                Router(
                    node=node,
                    grid=grid,
                    network=self,
                    num_vcs=num_vcs,
                    vc_capacity=vc_capacity,
                    routing_algorithm=routing_algorithm,
                    vc_classes=self.vc_classes,
                    eject_capacity=eject_capacity,
                    monopolize=monopolize,
                )
            )
        # Loop topologies (ring/routerless) replace the mesh links with
        # precomputed unidirectional loops; each loop hop is its own
        # point-to-point link.  Wiring must precede the upstream map.
        self.loops: Optional[List[Tuple[int, ...]]] = None
        self.loop_ports: List[List[int]] = []
        if loops is None:
            self._wire_mesh()
        else:
            self._wire_loops(loops)
        # Optional hook replacing the mesh hop count in the zero-load
        # latency model: called as hook(packet, inject, node).  Loop
        # topologies supply the along-loop distance.
        self.hop_fn = None
        # Optional hook giving the dateline VC a buffered flit must
        # occupy at a node (loop topologies); the audit uses it instead
        # of the class-partition check, which loops do not obey.
        self.loop_vc_fn = None
        # (node, in_port) -> upstream OutputPort, for credit return.
        self.upstream: Dict[Tuple[int, int], OutputPort] = {}
        for router in self.routers:
            for port, (nbr, nbr_port) in router.neighbors.items():
                self.upstream[(nbr, nbr_port)] = router.outputs[port]
        self._arrivals: Dict[int, List[Tuple]] = {}
        self._credits: Dict[int, List[Tuple[OutputPort, int]]] = {}
        # Active-set state: router nodes holding flits, and the
        # registration indices of NIs with pending work.  Maintained
        # only under the active scheduler; the dense scheduler walks
        # everything unconditionally and serves as the oracle.
        self.active: set = set()
        self._active_nis: set = set()
        # Set (and never cleared) by the fault injector once any fault
        # actually fires in this network.  Routers then forbid sending
        # a flit back out its arrival port — a move only a fault detour
        # can make attractive — so fault-free runs stay bit-identical.
        self.faults_fired = False
        self.nis: List["object"] = []  # NetworkInterface instances
        # (node, eject_port) -> deque of (packet, eject OutputPort).
        self.receive_queues: Dict[Tuple[int, int], Deque[Tuple[Packet, OutputPort]]] = {}
        self._pop_rr: Dict[int, int] = {}  # per-node eject-port rotation
        # Delivered packets queued per node (all eject ports): lets
        # pop_delivered return immediately for the common empty case.
        self._delivered: Dict[int, int] = {}
        self._delivered_total = 0
        self.last_progress = 0  # cycle of the most recent committed move
        # Optional injection hook: called as hook(buffer, flit, cycle)
        # when an NI buffer sends a head flit.  Tracers attach here; the
        # disabled path costs one attribute test per head flit.
        self.on_inject = None
        # Optional observation hooks: on_move for each committed
        # crossbar traversal, on_deliver for each sink arrival (tail or
        # not).  Tracers attach here instead of monkey-patching
        # _commit/_deliver; the disabled path costs one attribute test.
        self.on_move = None
        self.on_deliver = None

    def _wire_mesh(self) -> None:
        for node in self.grid.nodes():
            x, y = self.grid.coord(node)
            for port in range(routing.NUM_MESH_PORTS):
                dx, dy = routing.port_delta(port)
                if self.grid.contains(x + dx, y + dy):
                    nbr = self.grid.node(x + dx, y + dy)
                    self.routers[node].connect(port, nbr, routing.opposite(port))

    def _wire_loops(self, loops: Sequence[Sequence[int]]) -> None:
        """Wire precomputed unidirectional loops instead of mesh links.

        ``loop_ports[lane][i]`` is the output port that ``loops[lane][i]``
        uses to forward along ``lane``; the mesh ports 0..3 stay unwired
        (and therefore always empty), so the tick loop skips them for free.
        """
        self.loops = [tuple(lane) for lane in loops]
        self.loop_ports = []
        for lane in self.loops:
            ports: List[int] = []
            length = len(lane)
            for i, node in enumerate(lane):
                nxt = lane[(i + 1) % length]
                out_port = self.routers[node].add_output_port(
                    self.num_vcs, self.vc_capacity
                )
                in_port = self.routers[nxt].add_input_port()
                self.routers[node].connect(out_port, nxt, in_port)
                ports.append(out_port)
            self.loop_ports.append(ports)

    # ------------------------------------------------------------------
    # Configuration helpers
    # ------------------------------------------------------------------
    def add_injection_port(self, node: int) -> int:
        """Add an NI-facing input port to ``node``'s router."""
        return self.routers[node].add_input_port()

    def add_eject_port(self, node: int, capacity: Optional[int] = None) -> int:
        """Add an extra ejection port (MultiPort / concentration).

        Defaults to the network's configured ``eject_capacity`` so extra
        ports match the depth of the ports built at construction time
        (a ``vc_capacity``-derived default here would silently give
        concentrated-mesh ports the wrong depth whenever the network
        was constructed with an explicit ``eject_capacity``).
        """
        if capacity is None:
            capacity = self.eject_capacity
        return self.routers[node].add_eject_port(capacity)

    def register_ni(self, ni: "object") -> None:
        ni._net_index = len(self.nis)
        self.nis.append(ni)

    def wake_ni(self, ni: "object") -> None:
        """Resync an NI's armed state after a mutation outside its tick.

        Call *after* the mutation (enqueue, credit return to a stalled
        link, fault quarantine/heal/requeue): the NI is armed exactly
        when it has work, keeping the armed set equal to the set of NIs
        with work — the scheduler audit's invariant.
        """
        if self._active_scheduler:
            if ni.has_work():
                self._active_nis.add(ni._net_index)
            else:
                self._active_nis.discard(ni._net_index)

    # ------------------------------------------------------------------
    # Telemetry (read-only probes; see repro.telemetry)
    # ------------------------------------------------------------------
    def register_telemetry(self, registry: "object", prefix: str) -> None:
        """Register this network's probes into a telemetry registry.

        Everything registered here only *reads* simulator state, so a
        telemetry-enabled run keeps ``stats_fingerprint`` bit-identical
        to a telemetry-off run (pinned by the differential test).
        """
        stats = self.stats

        if self._active_scheduler:
            def active_nodes():
                return self.active
        else:
            # Dense oracle: the equivalent ground truth is the set of
            # routers currently holding flits.
            def active_nodes():
                return [r.node for r in self.routers if r.flit_count]

        registry.register_series(f"{prefix}.in_flight", self.in_flight)
        registry.register_series(
            f"{prefix}.flits_injected", lambda: stats.flits_injected
        )
        registry.register_series(
            f"{prefix}.flits_ejected", lambda: stats.flits_ejected
        )
        registry.register_series(
            f"{prefix}.ni_backlog",
            lambda: sum(ni.backlog() for ni in self.nis),
        )
        registry.register_series(
            f"{prefix}.ni_buffer_flits",
            lambda: sum(ni.buffer_occupancy() for ni in self.nis),
        )
        registry.register_series(
            f"{prefix}.active_routers", lambda: len(active_nodes())
        )
        registry.register_residency(
            f"{prefix}.router_active", self.grid.size, active_nodes
        )
        for name in NetworkStats.TELEMETRY_COUNTERS:
            registry.register_final(
                f"{prefix}.{name}", lambda name=name: getattr(stats, name)
            )
        registry.register_final(
            f"{prefix}.peak_router_flits",
            lambda: max((r.peak_flits for r in self.routers), default=0),
        )
        for ni in self.nis:
            ni.register_telemetry(registry, prefix)

    # ------------------------------------------------------------------
    # Event scheduling (used by routers and NIs)
    # ------------------------------------------------------------------
    def schedule_flit(
        self, cycle: int, node: int, port: int, vc: int, flit: Flit
    ) -> None:
        self._arrivals.setdefault(cycle, []).append((node, port, vc, flit))

    def schedule_credit(self, cycle: int, port: OutputPort, vc: int) -> None:
        self._credits.setdefault(cycle, []).append((port, vc))

    def reclaim_scheduled_flits(self, node: int, port: int) -> List[Flit]:
        """Remove and return flits in flight toward ``(node, port)``.

        Fault-injection support: when a link fails, the flits already on
        the wire are pulled back in arrival order so the injector can
        restore them upstream and account for them in the dropped-flit
        ledger (keeping the conservation audits balanced).
        """
        reclaimed: List[Flit] = []
        for cycle in sorted(self._arrivals):
            events = self._arrivals[cycle]
            kept = [ev for ev in events if ev[0] != node or ev[1] != port]
            if len(kept) == len(events):
                continue
            reclaimed.extend(
                ev[3] for ev in events if ev[0] == node and ev[1] == port
            )
            if kept:
                self._arrivals[cycle] = kept
            else:
                del self._arrivals[cycle]
        return reclaimed

    # ------------------------------------------------------------------
    # Receive side
    # ------------------------------------------------------------------
    def pop_delivered(self, node: int, port: Optional[int] = None) -> Optional[Packet]:
        """Consume one delivered packet at ``node`` (frees its buffer credits).

        With ``port`` given, only that ejection port's queue is drained
        (concentrated meshes dedicate a port per attached tile);
        otherwise the node's ejection ports are scanned round-robin.
        """
        if not self._delivered.get(node):
            return None
        rotate = False
        if port is not None:
            ports = [port]
        else:
            ports = self.routers[node].eject_ports
            if len(ports) > 1:
                rotate = True
                start = self._pop_rr.get(node, 0)
                ports = ports[start:] + ports[:start]
        for k, p in enumerate(ports):
            queue = self.receive_queues.get((node, p))
            if queue:
                packet, eject_port = queue.popleft()
                eject_port.credits[0] += packet.size
                self._delivered[node] -= 1
                self._delivered_total -= 1
                if rotate:
                    # Advance past the port that actually served, and
                    # only on a successful pop — rotating on empty scans
                    # (or by a fixed step) starves later ports whenever
                    # load is asymmetric across eject ports.
                    self._pop_rr[node] = (start + k + 1) % len(ports)
                return packet
        return None

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def tick(self) -> None:
        """Advance the network by one of its own clock cycles."""
        self.cycle += 1
        cycle = self.cycle
        self.stats.cycles += 1

        active = self._active_scheduler

        for port, vc in self._credits.pop(cycle, ()):  # credit returns
            port.credits[vc] += 1
            if port.waker is not None:
                port.waker()

        for node, port, vc, flit in self._arrivals.pop(cycle, ()):
            if port < 0:  # ejection sink arrival; -port-1 is the eject port
                self._deliver(node, -port - 1, flit, cycle)
            else:
                self.routers[node].accept(port, vc, flit, cycle)
                self.stats.buffer_writes += 1
                if active:
                    self.active.add(node)

        # NIs.  All effects (flit onto a link, core reservation) are
        # local to the NI or scheduled >= 1 cycle ahead, and an NI only
        # gains work outside its own tick via enqueue, fault requeue, or
        # a credit returning to a stalled injection link — all of which
        # wake it — so visiting only armed NIs (in registration order,
        # matching the dense walk over ``nis``) is bit-identical to
        # visiting all of them: ticking a credit-stalled NI is a no-op.
        if active:
            if self._active_nis:
                idle_nis: List[int] = []
                nis = self.nis
                for idx in sorted(self._active_nis):
                    ni = nis[idx]
                    ni.tick(cycle)
                    if not ni.has_work():
                        idle_nis.append(idx)
                for idx in idle_nis:
                    self._active_nis.discard(idx)
            routers = self.routers
            finished: List[int] = []
            for node in sorted(self.active):
                router = routers[node]
                moves = router.tick(cycle)
                for in_port, in_vc, out_port, out_vc, flit in moves:
                    self._commit(
                        router, in_port, in_vc, out_port, out_vc, flit, cycle
                    )
                if router.flit_count == 0:
                    finished.append(node)
            for node in finished:
                self.active.discard(node)
            return

        # Dense oracle: unconditionally walk every NI and router.  A
        # workless component's tick is a no-op (rr pointers advance only
        # on wins), so this is behaviourally identical to the active
        # path — and catches any missed wake as a fingerprint mismatch.
        for ni in self.nis:
            ni.tick(cycle)
        for router in self.routers:
            moves = router.tick(cycle)
            for in_port, in_vc, out_port, out_vc, flit in moves:
                self._commit(
                    router, in_port, in_vc, out_port, out_vc, flit, cycle
                )

    def _commit(
        self,
        router: Router,
        in_port: int,
        in_vc: int,
        out_port: int,
        out_vc: int,
        flit: Flit,
        cycle: int,
    ) -> None:
        if self.on_move is not None:
            self.on_move(router.node, in_port, in_vc, out_port, out_vc, flit, cycle)
        # A traversal occupies the router for at least one cycle; waits
        # in the input buffer add on top (the Figure-4 heat metric).
        self.stats.record_move(router.node, cycle - flit.buffered_at + 1)
        up = self.upstream.get((router.node, in_port))
        if up is not None:
            self.schedule_credit(cycle + 1, up, in_vc)
        if out_port in router.neighbors:
            nbr, nbr_port = router.neighbors[out_port]
            self.schedule_flit(cycle + 1, nbr, nbr_port, out_vc, flit)
            if self.interposer_mesh_links:
                self.stats.link_hops_interposer += 1
                self.stats.interposer_hop_length += 1.0
            else:
                self.stats.link_hops_onchip += 1
        else:  # ejection
            eject_port_obj = router.outputs[out_port]
            self._arrivals.setdefault(cycle + 1, []).append(
                (router.node, -out_port - 1, 0, flit)
            )
            flit.packet.eject_port = eject_port_obj
            self.stats.flits_ejected += 1
        self.last_progress = cycle

    def _deliver(self, node: int, eject_port: int, flit: Flit, cycle: int) -> None:
        if self.on_deliver is not None:
            self.on_deliver(node, eject_port, flit, cycle)
        if not flit.is_tail:
            return
        packet = flit.packet
        packet.delivered = cycle
        self.receive_queues.setdefault((node, eject_port), deque()).append(
            (packet, packet.eject_port)
        )
        self._delivered[node] = self._delivered.get(node, 0) + 1
        self._delivered_total += 1
        inject = packet.inject_router if packet.inject_router is not None else packet.src
        if self.hop_fn is not None:
            hops = self.hop_fn(packet, inject, node)
        else:
            hops = self.grid.hops(inject, node)
        # Zero-load pipeline: 1 cycle NI link + 1 cycle per hop + 1 cycle
        # eject arbitration + 1 cycle to the sink + (size-1) serialisation.
        non_queuing = hops + packet.size + 2
        self.stats.record_delivery(packet, non_queuing)

    # ------------------------------------------------------------------
    # Quiescence (fast-forward support)
    # ------------------------------------------------------------------
    def skip_cycle(self) -> None:
        """Advance the clock over one provably-empty cycle.

        Only valid when :meth:`quiescent` holds: a tick of a fully
        quiescent network does nothing but increment ``cycle`` and
        ``stats.cycles``, so skipping is bit-identical to ticking.
        """
        self.cycle += 1
        self.stats.cycles += 1

    def quiescent(self) -> bool:
        """Nothing scheduled, buffered, queued or awaiting pop.

        Stronger than :meth:`idle`: pending credit returns and
        delivered-but-unpopped packets also block quiescence, because a
        tick (or an external pop) could still change state.
        """
        if self._arrivals or self._credits or self._delivered_total:
            return False
        if self._active_scheduler:
            return not self.active and not self._active_nis
        return self.in_flight() == 0 and all(
            not ni.has_work() for ni in self.nis
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def in_flight(self) -> int:
        """Flits buffered in routers plus scheduled arrivals."""
        if self._active_scheduler:
            routers = self.routers
            buffered = sum(routers[n].flit_count for n in self.active)
        else:
            buffered = sum(r.flit_count for r in self.routers)
        scheduled = sum(len(v) for v in self._arrivals.values())
        return buffered + scheduled

    def idle(self) -> bool:
        """No flits anywhere and no NI has pending work."""
        if self._active_scheduler:
            # Active-set invariants: every buffered flit's router is in
            # ``active`` and every NI with work is armed (NI.idle() is
            # exactly not-has_work()).  Pending arrivals land in
            # ``_arrivals``; pending credits don't count here (matching
            # the dense computation below).
            return (
                not self.active
                and not self._active_nis
                and not self._arrivals
            )
        if self.in_flight():
            return False
        return all(ni.idle() for ni in self.nis)
