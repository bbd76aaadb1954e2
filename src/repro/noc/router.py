"""A virtual-channel wormhole router with credit-based flow control.

The router follows BookSim's architecture at a one-cycle granularity:
route computation, VC allocation and separable input-first switch
allocation all happen in the cycle a flit sits at the head of its input
VC, and a winning flit traverses the crossbar onto the output link in
the same cycle (an aggressive single-stage pipeline; per-hop latency is
router + link = 2 cycles at zero load).

Port index space (per router):

* ``0..3`` — mesh ports E/W/S/N (input and output),
* ``4..4+e-1`` — ejection ports (output only; ``e`` > 1 for MultiPort),
* remaining — injection and interposer ports (input only), fed by
  network interfaces over :class:`UpstreamLink`-style credit links.

Virtual channels hold one packet each (Table 1): a VC's buffer capacity
equals the maximum packet size and output VC allocation is released
when the tail flit departs.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..core.grid import Grid
from . import routing
from .types import Flit


class InputVC:
    """One virtual-channel FIFO at a router input port."""

    __slots__ = ("queue", "out_port", "out_vc")

    def __init__(self) -> None:
        self.queue: Deque[Flit] = deque()
        self.out_port: Optional[int] = None
        self.out_vc: Optional[int] = None

    @property
    def busy(self) -> bool:
        return bool(self.queue)


class OutputPort:
    """Credit and allocation state for one output (or NI-to-router) link.

    ``credits[v]`` counts free flit slots in the downstream input VC
    ``v``; ``owner[v]`` is the upstream agent (input ``(port, vc)`` pair
    or an NI buffer id) holding the VC for the packet in flight.
    """

    __slots__ = ("num_vcs", "credits", "owner", "latency", "rr", "interposer",
                 "capacity", "waker")

    def __init__(
        self, num_vcs: int, capacity: int, latency: int = 1,
        interposer: bool = False,
    ) -> None:
        self.num_vcs = num_vcs
        self.capacity = capacity
        self.credits: List[int] = [capacity] * num_vcs
        self.owner: List[Optional[object]] = [None] * num_vcs
        self.latency = latency
        self.rr = 0  # output-side round-robin pointer
        self.interposer = interposer
        # Optional callback fired when a credit returns to this port.
        # NI injection links use it to re-arm a credit-stalled NI under
        # the active scheduler; router-to-router ports leave it None.
        self.waker: Optional[object] = None

    def free_vcs(self, allowed: Sequence[int]) -> List[int]:
        """VCs in ``allowed`` that are unowned and have buffer space."""
        return [v for v in allowed if self.owner[v] is None and self.credits[v] > 0]


class Router:
    """One mesh router; owned and ticked by a :class:`~repro.noc.network.Network`."""

    __slots__ = (
        "node",
        "network",
        "grid",
        "num_vcs",
        "inputs",
        "outputs",
        "neighbors",
        "eject_ports",
        "input_ports",
        "rr_in",
        "flit_count",
        "port_flits",
        "rr_mod",
        "_vc_orders",
        "routing_algorithm",
        "vc_classes",
        "monopolize",
        "monopoly_classes",
        "eject_filter",
        "route_override",
        "failed_outputs",
        "peak_flits",
    )

    def __init__(
        self,
        node: int,
        grid: Grid,
        network: "object",
        num_vcs: int,
        vc_capacity: int,
        routing_algorithm: str,
        vc_classes: Sequence[Sequence[int]],
        num_eject_ports: int = 1,
        eject_capacity: int = 16,
        monopolize: bool = False,
        monopoly_classes: Sequence[int] = (1,),
    ) -> None:
        self.node = node
        self.grid = grid
        self.network = network
        self.num_vcs = num_vcs
        self.routing_algorithm = routing_algorithm
        # vc_classes[c] = VCs that packets of class c may use.
        self.vc_classes = [tuple(vcs) for vcs in vc_classes]
        self.monopolize = monopolize
        self.monopoly_classes = tuple(monopoly_classes)

        self.neighbors: Dict[int, Tuple[int, int]] = {}  # port -> (node, in_port)
        self.inputs: Dict[int, List[InputVC]] = {
            p: [InputVC() for _ in range(num_vcs)]
            for p in range(routing.NUM_MESH_PORTS)
        }
        self.outputs: Dict[int, OutputPort] = {}
        for p in range(routing.NUM_MESH_PORTS):
            self.outputs[p] = OutputPort(num_vcs, vc_capacity)
        self.eject_ports: List[int] = []
        next_port = routing.NUM_MESH_PORTS
        for _ in range(num_eject_ports):
            # Ejection modelled as a single-VC link into the node's
            # receive queue; one packet drains at a time per port.
            self.outputs[next_port] = OutputPort(1, eject_capacity)
            self.eject_ports.append(next_port)
            next_port += 1
        self.input_ports: List[int] = list(range(routing.NUM_MESH_PORTS))
        self.rr_in: Dict[int, int] = {p: 0 for p in self.input_ports}
        self.flit_count = 0
        # High-water mark of buffered flits (telemetry: per-router
        # congestion without any per-cycle sampling cost).
        self.peak_flits = 0
        # Flits buffered per input port: lets the tick loop skip empty
        # ports without scanning their VCs.
        self.port_flits: Dict[int, int] = {p: 0 for p in self.input_ports}
        # Round-robin modulus: one slot per port index actually in use.
        # Must cover injection/interposer ports added later — a fixed
        # modulus would alias high port indices and break fairness.
        self.rr_mod = 1 + max(max(self.inputs), max(self.outputs))
        # _vc_orders[s] is the VC scan order starting at pointer s;
        # precomputing it keeps the per-cycle loop free of modulo math.
        self._vc_orders = [
            tuple((s + k) % num_vcs for k in range(num_vcs))
            for s in range(num_vcs)
        ]
        # Optional hook restricting which eject ports a packet may use
        # (concentrated meshes dedicate one port per attached tile).
        self.eject_filter = None
        # Optional hook replacing mesh route computation entirely:
        # called as hook(router, packet) -> (out_port, allowed_vcs).
        # Loop topologies (ring/routerless) use it — a packet on a
        # unidirectional loop has exactly one forward port, and its
        # legal VCs come from the loop's dateline, not vc_classes.
        self.route_override = None
        # Output ports currently failed by fault injection.  Failure is
        # fail-stop for *new* allocations only: a packet already
        # allocated to the port finishes its wormhole normally (links
        # fail at packet boundaries).
        self.failed_outputs: set = set()

    # ------------------------------------------------------------------
    # Construction helpers (called by the network builder)
    # ------------------------------------------------------------------
    def connect(self, port: int, neighbor: int, neighbor_port: int) -> None:
        """Wire mesh ``port`` to ``neighbor``'s input ``neighbor_port``."""
        self.neighbors[port] = (neighbor, neighbor_port)

    def add_input_port(self) -> int:
        """Add an input-only port (injection or interposer); returns index."""
        port = 1 + max(max(self.inputs), max(self.outputs))
        self.inputs[port] = [InputVC() for _ in range(self.num_vcs)]
        self.input_ports.append(port)
        self.rr_in[port] = 0
        self.port_flits[port] = 0
        self.rr_mod = max(self.rr_mod, port + 1)
        return port

    def add_output_port(
        self, num_vcs: int, capacity: int, latency: int = 1,
        interposer: bool = False,
    ) -> int:
        """Add an output-only link port (loop topologies); returns index."""
        port = 1 + max(max(self.inputs), max(self.outputs))
        self.outputs[port] = OutputPort(
            num_vcs, capacity, latency=latency, interposer=interposer
        )
        self.rr_mod = max(self.rr_mod, port + 1)
        return port

    def add_eject_port(self, capacity: int) -> int:
        """Add an extra ejection port (MultiPort / concentration)."""
        port = 1 + max(max(self.inputs), max(self.outputs))
        self.outputs[port] = OutputPort(1, capacity)
        self.eject_ports.append(port)
        self.rr_mod = max(self.rr_mod, port + 1)
        return port

    def disconnected_mesh_ports(self) -> List[int]:
        """Mesh ports with no neighbour (boundary routers)."""
        return [
            p for p in range(routing.NUM_MESH_PORTS) if p not in self.neighbors
        ]

    # ------------------------------------------------------------------
    # Flit intake (called by the network when a link delivers)
    # ------------------------------------------------------------------
    def accept(self, port: int, vc: int, flit: Flit, cycle: int) -> None:
        """Buffer one arriving flit at input ``(port, vc)``.

        ``Network.tick`` inlines this body in its arrival loop; keep the
        two in step.
        """
        flit.buffered_at = cycle
        self.inputs[port][vc].queue.append(flit)
        self.flit_count += 1
        if self.flit_count > self.peak_flits:
            self.peak_flits = self.flit_count
        self.port_flits[port] += 1

    # ------------------------------------------------------------------
    # One cycle
    # ------------------------------------------------------------------
    def tick(self, cycle: int) -> List[Tuple[int, int, int, int, Flit]]:
        """Arbitrate, commit the winners, and return them as moves.

        Each move is ``(in_port, in_vc, out_port, out_vc, flit)``.  The
        router commits its own moves: each winning flit is scheduled
        onto its downstream link (or into the ejection sink) and its
        input-VC credit onto the upstream link, both for the next
        cycle, directly in the network's event lists; ``on_move`` fires
        once per move in arbitration order, and the event counters are
        added once per tick.

        Round-robin pointers (``rr_in`` per input port, ``out.rr`` per
        output) advance lazily — only when an arbitration is actually
        won — so ticking an empty router is a strict no-op and the
        active scheduler may skip it without perturbing later
        arbitration order.
        """
        # --- Per-input-port arbitration (separable, input first) -----
        requests: List[Tuple[int, int, int, int]] = []  # in_port, in_vc, out_port, out_vc
        inputs = self.inputs
        outputs = self.outputs
        rr_in = self.rr_in
        port_flits = self.port_flits
        vc_orders = self._vc_orders
        for port in self.input_ports:
            if not port_flits[port]:
                continue
            vcs = inputs[port]
            for vc in vc_orders[rr_in[port]]:
                ivc = vcs[vc]
                if not ivc.queue:
                    continue
                out_port = ivc.out_port
                if out_port is None:
                    flit = ivc.queue[0]
                    if not flit.is_head:
                        continue
                    self._route_and_allocate(port, vc, ivc, flit)
                    out_port = ivc.out_port
                    if out_port is None:
                        continue
                out_vc = ivc.out_vc
                if outputs[out_port].credits[out_vc] > 0:
                    requests.append((port, vc, out_port, out_vc))
                    break
        if not requests:
            return requests

        # --- Per-output-port arbitration ------------------------------
        rr_mod = self.rr_mod
        if len(requests) == 1:
            winners = requests
        else:
            by_output: Dict[int, List[Tuple[int, int, int, int]]] = {}
            for req in requests:
                by_output.setdefault(req[2], []).append(req)
            winners = []
            for out_port, reqs in by_output.items():
                if len(reqs) == 1:
                    winners.append(reqs[0])
                else:
                    rr = outputs[out_port].rr
                    winners.append(
                        min(reqs, key=lambda r: (r[0] - rr) % rr_mod)
                    )

        # --- Commit: traverse the crossbar, schedule flits + credits --
        net = self.network
        nxt = cycle + 1
        arrivals = net._arrivals.get(nxt)
        if arrivals is None:
            arrivals = net._arrivals[nxt] = []
        credits = None  # fetched on the first credit (never left empty)
        upstream = net.upstream
        neighbors = self.neighbors
        on_move = net.on_move
        node = self.node
        num_vcs = self.num_vcs
        residence = 0
        hops = 0
        moves: List[Tuple[int, int, int, int, Flit]] = []
        for in_port, in_vc, out_port, out_vc in winners:
            out = outputs[out_port]
            ivc = inputs[in_port][in_vc]
            flit = ivc.queue.popleft()
            port_flits[in_port] -= 1
            out.credits[out_vc] -= 1
            out.rr = (in_port + 1) % rr_mod
            rr_in[in_port] = (in_vc + 1) % num_vcs
            if flit.is_tail:
                out.owner[out_vc] = None
                ivc.out_port = None
                ivc.out_vc = None
            if on_move is not None:
                on_move(node, in_port, in_vc, out_port, out_vc, flit, cycle)
            # A traversal occupies the router for at least one cycle;
            # waits in the input buffer add on top (the Figure-4 heat
            # metric).
            residence += cycle - flit.buffered_at + 1
            up = upstream.get((node, in_port))
            if up is not None:
                if credits is None:
                    credits = net._credits.get(nxt)
                    if credits is None:
                        credits = net._credits[nxt] = []
                credits.append((up, in_vc))
            link = neighbors.get(out_port)
            if link is not None:
                arrivals.append((link[0], link[1], out_vc, flit))
                hops += 1
            else:  # ejection: a negative port names the sink
                arrivals.append((node, -out_port - 1, 0, flit))
                flit.packet.eject_port = out
            moves.append((in_port, in_vc, out_port, out_vc, flit))
        count = len(moves)
        self.flit_count -= count
        stats = net.stats
        stats.buffer_reads += count
        stats.xbar_traversals += count
        stats.residence_cycles[node] += residence
        stats.residence_count[node] += count
        if hops:
            if net.interposer_mesh_links:
                stats.link_hops_interposer += hops
                stats.interposer_hop_length += float(hops)
            else:
                stats.link_hops_onchip += hops
        if count != hops:
            stats.flits_ejected += count - hops
        net.last_progress = cycle
        return moves

    # ------------------------------------------------------------------
    # Route computation + output VC allocation for a head flit
    # ------------------------------------------------------------------
    def _route_and_allocate(
        self, port: int, vc: int, ivc: InputVC, flit: Flit
    ) -> None:
        packet = flit.packet
        if packet.dst == self.node:
            self._allocate_eject(port, vc, ivc)
            return
        if self.route_override is not None:
            out_port, allowed = self.route_override(self, packet)
            best = self._scan_outputs((out_port,), allowed, (), packet)
            if best is not None:
                _, out_port, out_vc = best
                out = self.outputs[out_port]
                out.owner[out_vc] = (port, vc)
                ivc.out_port = out_port
                ivc.out_vc = out_vc
                self.network.stats.vc_allocs += 1
            return
        src = packet.inject_router if packet.inject_router is not None else packet.src
        candidates = routing.route_candidates(
            self.grid, self.routing_algorithm, self.node, src, packet.dst
        )
        allowed = self.vc_classes[packet.vc_class]
        borrowable = self._borrowable_vcs(packet.vc_class, vc)
        # Once any fault has fired in this network, a flit may never be
        # routed back out its arrival port.  Minimal routing never makes
        # the back direction productive, so this only bites packets that
        # previously detoured around a fault — and for those it is what
        # prevents a detour from ping-ponging between two routers.
        exclude = (
            port
            if port < routing.NUM_MESH_PORTS and self.network.faults_fired
            else -1
        )
        best = self._scan_outputs(candidates, allowed, borrowable, packet,
                                  exclude)
        if best is None and self.network.faults_fired:
            # Every turn-model-legal port may be structurally unusable
            # (failed, disconnected, or the arrival port).  Only then
            # widen — a merely credit-blocked candidate keeps the turn
            # model intact and simply waits.
            usable = any(
                p in self.neighbors
                and p not in self.failed_outputs
                and p != exclude
                for p in candidates
                if p != routing.PORT_EJECT
            )
            if not usable:
                # Fault-boundary traversal: try minimal directions in
                # order, then turn right of the primary direction, then
                # left, then reverse — strict priority, first
                # allocatable port wins (unlike the credit-adaptive
                # scan above).  Combined with the no-backtrack rule
                # this walks a packet deterministically around a fault
                # region; pathological multi-fault layouts can still
                # trap one, and the stall watchdog backstops those
                # with a diagnosis.
                minimal = routing.minimal_ports(
                    self.grid, self.node, packet.dst
                )
                primary = minimal[0]
                order = list(minimal) + [
                    routing.turn_right(primary),
                    routing.turn_left(primary),
                    routing.opposite(primary),
                ]
                tried = set()
                for p in order:
                    if p in tried:
                        continue
                    tried.add(p)
                    best = self._scan_outputs(
                        (p,), allowed, borrowable, packet, exclude
                    )
                    if best is not None:
                        break
        if best is None:
            return
        _, out_port, out_vc = best
        out = self.outputs[out_port]
        out.owner[out_vc] = (port, vc)
        ivc.out_port = out_port
        ivc.out_vc = out_vc
        self.network.stats.vc_allocs += 1

    def _scan_outputs(
        self,
        ports: Sequence[int],
        allowed: Sequence[int],
        borrowable: Sequence[int],
        packet: "object",
        exclude: int = -1,
    ) -> Optional[Tuple[int, int, int]]:
        """Best allocatable ``(credits, out_port, out_vc)`` among ``ports``.

        Minimal adaptive: prefer the output with the most credits over
        ``allowed``; within a port, the first free VC with the most
        credits.
        """
        failed = self.failed_outputs
        neighbors = self.neighbors
        outputs = self.outputs
        best: Optional[Tuple[int, int, int]] = None
        for out_port in ports:
            if out_port == routing.PORT_EJECT:
                continue  # dst != node here; ejection handled separately
            if out_port == exclude:
                continue
            if out_port not in neighbors:
                continue
            if failed and out_port in failed:
                continue
            out = outputs[out_port]
            credits = out.credits
            owner = out.owner
            out_vc = -1
            most = 0
            total = 0
            for v in allowed:
                c = credits[v]
                total += c
                if c > most and owner[v] is None:
                    out_vc = v
                    most = c
            if out_vc < 0:
                if not borrowable:
                    continue
                # VC monopolisation: borrow a foreign VC, but only when
                # its buffer is completely empty and the whole packet
                # fits, so the borrower fully vacates its own-class
                # resources (cut-through on the borrowed hop) and never
                # parks behind foreign-class flits.
                free = [
                    v
                    for v in out.free_vcs(borrowable)
                    if credits[v] == out.capacity
                    and out.capacity >= packet.size
                ]
                if not free:
                    continue
                out_vc = max(free, key=lambda v: credits[v])
            if best is None or total > best[0]:
                best = (total, out_port, out_vc)
        return best

    def _allocate_eject(self, port: int, vc: int, ivc: InputVC) -> None:
        packet = ivc.queue[0].packet
        ports = (
            self.eject_filter(packet) if self.eject_filter is not None
            else self.eject_ports
        )
        for eject in ports:
            out = self.outputs[eject]
            if out.owner[0] is None and out.credits[0] > 0:
                out.owner[0] = (port, vc)
                ivc.out_port = eject
                ivc.out_vc = 0
                return

    def _borrowable_vcs(self, vc_class: int, current_vc: int) -> Sequence[int]:
        """Foreign VCs this packet may additionally allocate (VC-Mono).

        VC monopolisation: when no flit of the other class is buffered
        at this router, the present class may also use the other
        class's VCs.  Three restrictions keep the protocol
        deadlock-free:

        * only ``monopoly_classes`` (replies, whose ejection is
          unconditionally consumed at PEs) may borrow — a request
          parked in a reply VC could block the very replies whose
          draining the request's own progress depends on;
        * a packet *currently* in a borrowed VC must return to its own
          class downstream, so a borrowed reply waits only on
          reply-class resources, which always drain; and
        * (checked by the caller) the packet must fit entirely in the
          borrowed VC's free space, so the borrower never stalls
          mid-transfer while holding own-class buffers upstream.
        """
        if not self.monopolize or vc_class not in self.monopoly_classes:
            return ()
        own = self.vc_classes[vc_class]
        if current_vc not in own:
            return ()  # already borrowing: own class only downstream
        foreign = []
        for other in range(len(self.vc_classes)):
            if other == vc_class:
                continue
            for ovc in self.vc_classes[other]:
                for p in self.input_ports:
                    q = self.inputs[p][ovc].queue
                    if q and q[0].packet.vc_class == other:
                        return ()
                foreign.append(ovc)
        return tuple(foreign)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def buffered_flits(self) -> int:
        return self.flit_count

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        x, y = self.grid.coord(self.node)
        return f"Router({x},{y})"
