"""Topology builders: plain mesh and the interposer concentrated mesh.

The CMesh used by the Interposer-CMesh baseline [Jerger et al., MICRO
2014] concentrates 2x2 tile blocks onto one CMesh router; the CMesh
routers form a half-size mesh whose links are routed in the interposer.
Each CMesh router has four local injection ports and four dedicated
ejection ports (one per attached tile), which is why those routers have
roughly twice the ports of a basic router (paper section 6.5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..core.grid import Grid
from .network import Network
from .types import Packet


def build_mesh(
    name: str,
    width: int,
    flit_bytes: int,
    height: int = 0,
    **kwargs,
) -> Network:
    """A plain ``width x height`` mesh network."""
    return Network(name, Grid(width, height), flit_bytes, **kwargs)


@dataclass(frozen=True)
class CmeshEnvelope:
    """Token wrapper for packets travelling the concentrated mesh.

    ``real_src``/``real_dst`` are *base-grid* tile ids; ``inner`` is the
    logical payload (a memory transaction or test marker).
    """

    real_src: int
    real_dst: int
    inner: Optional[object] = None


class CmeshMap:
    """Coordinate mapping between the base grid and the CMesh grid."""

    def __init__(self, base: Grid, concentration: int = 2) -> None:
        if base.width % concentration or base.height % concentration:
            raise ValueError("grid not divisible by concentration factor")
        self.base = base
        self.concentration = concentration
        self.cgrid = Grid(base.width // concentration,
                          base.height // concentration)

    def cmesh_node(self, tile: int) -> int:
        x, y = self.base.coord(tile)
        c = self.concentration
        return self.cgrid.node(x // c, y // c)

    def local_index(self, tile: int) -> int:
        x, y = self.base.coord(tile)
        c = self.concentration
        return (y % c) * c + (x % c)

    def tiles_of(self, cnode: int) -> Tuple[int, ...]:
        cx, cy = self.cgrid.coord(cnode)
        c = self.concentration
        return tuple(
            self.base.node(cx * c + dx, cy * c + dy)
            for dy in range(c)
            for dx in range(c)
        )


def build_cmesh(
    base: Grid,
    flit_bytes: int,
    concentration: int = 2,
    **kwargs,
) -> Tuple[Network, CmeshMap, Dict[Tuple[int, int], int]]:
    """Build the interposer CMesh overlay network.

    Returns the network (over the reduced grid, with per-tile dedicated
    ejection ports and ``eject_filter`` installed), the coordinate map,
    and the ``(cmesh_node, local_index) -> eject_port`` table.  The
    caller wires one NI per base tile into the corresponding CMesh
    router.
    """
    cmap = CmeshMap(base, concentration)
    kwargs.setdefault("interposer_mesh_links", True)
    net = Network(
        "cmesh",
        cmap.cgrid,
        flit_bytes,
        **kwargs,
    )
    ports_per_tile = concentration * concentration
    eject_port_of: Dict[Tuple[int, int], int] = {}
    for cnode in cmap.cgrid.nodes():
        # The default eject port serves local index 0; add the rest.
        eject_port_of[(cnode, 0)] = net.routers[cnode].eject_ports[0]
        for local in range(1, ports_per_tile):
            eject_port_of[(cnode, local)] = net.add_eject_port(cnode)

    def make_filter(cnode: int):
        def eject_filter(packet: Packet):
            envelope = packet.token
            local = cmap.local_index(envelope.real_dst)
            return (eject_port_of[(cnode, local)],)

        return eject_filter

    for cnode in cmap.cgrid.nodes():
        net.routers[cnode].eject_filter = make_filter(cnode)
    return net, cmap, eject_port_of
