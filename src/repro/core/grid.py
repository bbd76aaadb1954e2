"""Mesh-grid coordinate helpers shared by placement, EIR selection and the NoC.

A network of ``width x height`` tiles is addressed two ways:

* by coordinate ``(x, y)`` with ``0 <= x < width`` (column) and
  ``0 <= y < height`` (row), and
* by node id ``node = y * width + x``.

All modules in :mod:`repro` use these helpers so the two addressings can
never drift apart.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, List, Tuple

Coord = Tuple[int, int]

_MESH_OFFSETS: Tuple[Coord, ...] = ((0, -1), (0, 1), (1, 0), (-1, 0))
_DIAGONAL_OFFSETS: Tuple[Coord, ...] = ((-1, -1), (1, -1), (-1, 1), (1, 1))


@functools.lru_cache(maxsize=None)
def _offset_table(
    width: int, height: int, offsets: Tuple[Coord, ...]
) -> Tuple[Tuple[int, ...], ...]:
    """Per node id, the in-grid nodes at each of ``offsets``, in that order.

    Built once per grid shape: placement scoring asks for the same
    neighbourhoods thousands of times.
    """
    return tuple(
        tuple(
            (y + dy) * width + x + dx
            for dx, dy in offsets
            if 0 <= x + dx < width and 0 <= y + dy < height
        )
        for y in range(height)
        for x in range(width)
    )


@dataclass(frozen=True)
class Grid:
    """A rectangular tile grid.

    Parameters
    ----------
    width:
        Number of columns.
    height:
        Number of rows.  Defaults to ``width`` (square grid) when zero.
    """

    width: int
    height: int = 0

    def __post_init__(self) -> None:
        if self.height == 0:
            object.__setattr__(self, "height", self.width)
        if self.width <= 0 or self.height <= 0:
            raise ValueError("grid dimensions must be positive")

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Total number of tiles."""
        return self.width * self.height

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.size:
            raise ValueError(f"node {node} outside {self.width}x{self.height} grid")

    def node(self, x: int, y: int) -> int:
        """Return the node id for coordinate ``(x, y)``."""
        if not self.contains(x, y):
            raise ValueError(f"({x}, {y}) outside {self.width}x{self.height} grid")
        return y * self.width + x

    def coord(self, node: int) -> Coord:
        """Return the ``(x, y)`` coordinate of ``node``."""
        self._check_node(node)
        return node % self.width, node // self.width

    def contains(self, x: int, y: int) -> bool:
        """Whether ``(x, y)`` lies inside the grid."""
        return 0 <= x < self.width and 0 <= y < self.height

    def nodes(self) -> Iterator[int]:
        """Iterate all node ids in row-major order."""
        return iter(range(self.size))

    def coords(self) -> Iterator[Coord]:
        """Iterate all coordinates in row-major order."""
        return ((n % self.width, n // self.width) for n in range(self.size))

    # ------------------------------------------------------------------
    # Distances and neighbourhoods
    # ------------------------------------------------------------------
    def hops(self, a: int, b: int) -> int:
        """Manhattan (minimal mesh hop) distance between two nodes."""
        ax, ay = self.coord(a)
        bx, by = self.coord(b)
        return abs(ax - bx) + abs(ay - by)

    def neighbor_table(self) -> Tuple[Tuple[int, ...], ...]:
        """Mesh neighbours of every node, indexed by node id (unchecked).

        ``neighbor_table()[n]`` is :meth:`neighbors` of ``n`` as a
        shared tuple, for loops that look up many nodes known to be in
        range.
        """
        return _offset_table(self.width, self.height, _MESH_OFFSETS)

    def diagonal_table(self) -> Tuple[Tuple[int, ...], ...]:
        """Diagonal neighbours of every node, indexed by node id (unchecked)."""
        return _offset_table(self.width, self.height, _DIAGONAL_OFFSETS)

    def neighbors(self, node: int) -> List[int]:
        """The up-to-four mesh neighbours of ``node`` (N, S, E, W order)."""
        self._check_node(node)
        return list(self.neighbor_table()[node])

    def diagonal_neighbors(self, node: int) -> List[int]:
        """The up-to-four diagonal neighbours of ``node``."""
        self._check_node(node)
        return list(self.diagonal_table()[node])

    def ring(self, node: int, radius: int) -> List[int]:
        """All nodes at exactly ``radius`` Manhattan hops from ``node``."""
        if radius < 0:
            raise ValueError("radius must be non-negative")
        x, y = self.coord(node)
        out = []
        for dx in range(-radius, radius + 1):
            dy = radius - abs(dx)
            for sy in ({dy, -dy}):
                if self.contains(x + dx, y + sy):
                    out.append(self.node(x + dx, y + sy))
        return sorted(set(out))

    def within(self, node: int, radius: int) -> List[int]:
        """All nodes within ``radius`` hops of ``node`` (excluding itself)."""
        out: List[int] = []
        for r in range(1, radius + 1):
            out.extend(self.ring(node, r))
        return sorted(set(out))

    # ------------------------------------------------------------------
    # Alignment predicates (used by placement quality checks)
    # ------------------------------------------------------------------
    def same_row(self, a: int, b: int) -> bool:
        return self.coord(a)[1] == self.coord(b)[1]

    def same_col(self, a: int, b: int) -> bool:
        return self.coord(a)[0] == self.coord(b)[0]

    def same_diagonal(self, a: int, b: int) -> bool:
        """Whether two nodes share any (45-degree) diagonal."""
        ax, ay = self.coord(a)
        bx, by = self.coord(b)
        return abs(ax - bx) == abs(ay - by) and a != b

    def direction(self, src: int, dst: int) -> Coord:
        """Unit-ish direction ``(sign(dx), sign(dy))`` from ``src`` to ``dst``."""
        sx, sy = self.coord(src)
        dx, dy = self.coord(dst)
        step = lambda d: (d > 0) - (d < 0)  # noqa: E731 - tiny sign helper
        return step(dx - sx), step(dy - sy)


AXIS_DIRECTIONS: Tuple[Coord, ...] = ((1, 0), (-1, 0), (0, 1), (0, -1))
"""The four axis directions (E, W, S, N) used for EIR placement."""


def direction_name(direction: Coord) -> str:
    """Human-readable name of an axis direction."""
    names = {(1, 0): "x+", (-1, 0): "x-", (0, 1): "y+", (0, -1): "y-"}
    if direction not in names:
        raise ValueError(f"{direction} is not an axis direction")
    return names[direction]
