"""Finite hexagonal-grid topology: axial coordinates, 3-coloring, neighbor split by color."""

from __future__ import annotations

import operator
from enum import Enum
from typing import Iterable, NamedTuple, Optional, Tuple

Cell = Tuple[int, int]  # axial (q, r)

# The six axial offsets of a hex grid.
AXIAL_DIRECTIONS = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))


class Color(Enum):
    R = "R"
    G = "G"
    B = "B"

    @property
    def successor(self) -> "Color":
        """Cyclic order R -> G -> B -> R."""
        return _SUCC[self]

    @property
    def predecessor(self) -> "Color":
        return _PRED[self]

    def __str__(self) -> str:
        return self.value


_SUCC = {Color.R: Color.G, Color.G: Color.B, Color.B: Color.R}
_PRED = {v: k for k, v in _SUCC.items()}
_BY_INDEX = (Color.R, Color.G, Color.B)


def color_of(cell: Cell) -> Color:
    """Canonical proper 3-coloring of the hex grid: (q - r) mod 3 -> R, G, B.

    Every axial step changes (q - r) by +-1 or +2, all nonzero mod 3, so
    adjacent cells always get distinct colors.
    """
    q, r = cell
    return _BY_INDEX[(q - r) % 3]


def as_integer(value, what: str) -> int:
    """`operator.index(value)`, except that a bool raises TypeError too, so
    True is never read as 1."""
    if isinstance(value, bool):
        raise TypeError(f"{what} must be an integer, not {value!r}")
    return operator.index(value)


class UnknownCellError(KeyError):
    """A cell outside the network was referenced."""


class Network:
    """Finite interference graph: a cell set and the adjacency among its cells.

    Immutable after construction. `Network(cells)` derives hex adjacency from
    the cell set; `from_edges` takes an explicit edge list, for interference
    graphs the hex grid cannot realize (a chordless 5-cycle, K4). There is one
    tuple object per cell: the cell set and every neighbor tuple share it, and
    `own_cell` returns it, so records of many requests hold no copies.
    """

    def __init__(self, cells: Iterable[Cell]):
        own = {}
        for q, r in cells:
            cell = (as_integer(q, "a cell coordinate"), as_integer(r, "a cell coordinate"))
            own.setdefault(cell, cell)
        self._own = own
        self.cells = frozenset(own)
        self._adj = {
            c: tuple(
                sorted(
                    n
                    for d in AXIAL_DIRECTIONS
                    if (n := own.get((c[0] + d[0], c[1] + d[1]))) is not None
                )
            )
            for c in own
        }

    @classmethod
    def from_edges(cls, cells: Iterable, edges: Iterable) -> "Network":
        adj = {c: set() for c in cells}
        for u, v in edges:
            if u == v or u not in adj or v not in adj:
                raise ValueError(f"bad edge ({u}, {v})")
            adj[u].add(v)
            adj[v].add(u)
        network = cls.__new__(cls)
        own = network._own = {c: c for c in adj}
        network.cells = frozenset(own)
        network._adj = {c: tuple(sorted(own[n] for n in ns)) for c, ns in adj.items()}
        return network

    def __contains__(self, cell: Cell) -> bool:
        return cell in self.cells

    def own_cell(self, cell: Cell) -> Optional[Cell]:
        """The network's own object equal to `cell` (the one its cell set and
        neighbor tuples hold), or None when `cell` is not in the network."""
        return self._own.get(cell)

    def __len__(self) -> int:
        return len(self.cells)

    def __eq__(self, other) -> bool:
        return isinstance(other, Network) and self._adj == other._adj

    def __hash__(self) -> int:
        return hash(self.cells)

    def __repr__(self) -> str:
        return f"Network({sorted(self.cells)!r})"

    def sorted_cells(self) -> list[Cell]:
        return sorted(self.cells)

    def neighbors(self, cell: Cell) -> tuple[Cell, ...]:
        """Neighbors of `cell` within the network, sorted."""
        try:
            return self._adj[cell]
        except KeyError:
            raise UnknownCellError(f"cell {cell} is not in the network") from None

    def edges(self) -> list[tuple[Cell, Cell]]:
        return [(u, v) for u in self.sorted_cells() for v in self._adj[u] if u < v]


def is_triangle_free(network: Network) -> bool:
    """True iff no adjacent pair shares a common neighbor in the cell set."""
    for u, v in network.edges():
        if set(network.neighbors(u)) & set(network.neighbors(v)):
            return False
    return True


class ImproperColoringError(ValueError):
    """`color_of` does not colour the network properly."""


def proper_coloring(network: Network) -> dict:
    """Each cell's `color_of`; raises ImproperColoringError on cells that are
    not integer pairs or on an edge whose two cells share a color."""
    try:
        colors = {c: color_of(c) for c in network.cells}
    except (TypeError, ValueError):  # cells that are not integer pairs
        raise ImproperColoringError("color_of needs integer-pair cells") from None
    bad = next(((u, v) for u, v in network.edges() if colors[u] is colors[v]), None)
    if bad is not None:
        raise ImproperColoringError(f"adjacent cells {bad[0]} and {bad[1]} share a color")
    return colors


class NeighborConfig(NamedTuple):
    """A cell's neighbors split by color, relative to the cell's own color X:
    `successors` have color X.successor, `predecessors` X.predecessor, each
    sorted. Isolated: both empty. Structure A (every neighbor one color): one
    empty, k the size of the other. Structure B: one cell in each.
    """

    successors: tuple[Cell, ...]
    predecessors: tuple[Cell, ...]


def classify_neighbor_config(network: Network, cell: Cell) -> NeighborConfig:
    x = color_of(cell)
    nbrs = network.neighbors(cell)
    return NeighborConfig(
        tuple(n for n in nbrs if color_of(n) is x.successor),
        tuple(n for n in nbrs if color_of(n) is x.predecessor),
    )


def hex_patch(radius: int, center: Cell = (0, 0)) -> Network:
    """Full hexagonal patch of the given radius (radius 1 = 7-cell flower)."""
    cq, cr = center
    cells = [
        (cq + q, cr + r)
        for q in range(-radius, radius + 1)
        for r in range(-radius, radius + 1)
        if abs(q + r) <= radius
    ]
    return Network(cells)


def flower_network() -> Network:
    """A center cell with all six neighbors; the default random-traffic topology."""
    return hex_patch(1)
