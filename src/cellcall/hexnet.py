"""Finite hexagonal-grid topology: axial coordinates, 3-coloring, neighbor split by color.

An input integer is a plain `int` (`as_integer`), and a cell a pair of them in
a tuple or a list (`as_cell`); a bool, a float or an int-like is refused."""

from __future__ import annotations

from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional, Tuple

Cell = Tuple[int, int]  # axial (q, r)

# The six axial offsets of a hex grid, in lexicographic order: a translation
# keeps that order, so a cell's neighbours found by trying them in turn come
# out sorted.
AXIAL_DIRECTIONS = ((-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0))


# A colour is an index 0, 1, 2, named by its letter only where a report prints it.
COLORS = "RGB"


def color_of(cell: Cell) -> int:
    """Canonical proper 3-coloring of the hex grid: the colour index (q - r) mod 3.

    Every axial step changes (q - r) by +-1 or +2, all nonzero mod 3, so
    adjacent cells always get distinct colors. A colour x has the cyclic
    successor (x + 1) % 3 and predecessor (x - 1) % 3.
    """
    q, r = cell
    return (q - r) % 3


def as_integer(value, what: str) -> int:
    """`value` if it is a plain `int`; else TypeError naming `what`, so a
    bool, a float and an int-like are refused rather than converted."""
    if type(value) is not int:
        raise TypeError(f"{what} must be an integer, not {value!r}")
    return value


def as_cell(value) -> Optional[Cell]:
    """`value` as a tuple if it is a pair of plain `int`s in a tuple or a list, else None."""
    try:
        q, r = value
    except (TypeError, ValueError):
        return None
    if type(q) is int and type(r) is int and (type(value) is tuple or type(value) is list):
        return (q, r)
    return None


class UnknownCellError(KeyError):
    """A cell outside the network was referenced: a KeyError keyed by the
    cell, printed as a sentence rather than as a quoted key."""

    def __str__(self) -> str:
        return f"cell {self.args[0]} is not in the network"


class Network:
    """Finite interference graph: a cell set and the hex adjacency among its cells.

    Immutable after construction. There is one tuple object per cell: the
    cell set and every neighbor tuple share it, and `own_cell` returns it, so
    a run's per-cell counts key on it and hold no copies.
    """

    def __init__(self, cells: Iterable[Cell]):
        own = {}
        for value in cells:
            cell = as_cell(value)
            if cell is None:
                raise TypeError(f"a cell is not a pair of integers: {value!r}")
            own.setdefault(cell, cell)
        self._own = own
        self.cells = frozenset(own)
        self._sorted_cells = tuple(sorted(own))
        get = own.get
        self._adj = {
            c: tuple([n for dq, dr in AXIAL_DIRECTIONS if (n := get((c[0] + dq, c[1] + dr))) is not None])
            for c in own
        }

    def __contains__(self, cell: Cell) -> bool:
        return cell in self.cells

    def own_cell(self, cell: Cell) -> Optional[Cell]:
        """The network's own object equal to `cell` (the one its cell set and
        neighbor tuples hold), or None when `cell` is not in the network."""
        return self._own.get(cell)

    def __len__(self) -> int:
        return len(self.cells)

    def __eq__(self, other) -> bool:
        return isinstance(other, Network) and self.cells == other.cells

    def __hash__(self) -> int:
        return hash(self.cells)

    def __repr__(self) -> str:
        return f"Network({sorted(self.cells)!r})"

    def sorted_cells(self) -> tuple[Cell, ...]:
        """The cells in sorted order: one tuple per network, which no caller can change."""
        return self._sorted_cells

    def neighbors(self, cell: Cell) -> tuple[Cell, ...]:
        """Neighbors of `cell` within the network, sorted."""
        try:
            return self._adj[cell]
        except KeyError:
            raise UnknownCellError(cell) from None

    @cached_property
    def triangle_free(self) -> bool:
        """`is_triangle_free(self)`, computed once per network, which is immutable."""
        return is_triangle_free(self)

    @cached_property
    def neighbor_configs(self) -> Mapping[Cell, NeighborConfig]:
        """Each cell's `classify_neighbor_config`, read-only and found once per
        network, which is immutable."""
        return MappingProxyType({c: classify_neighbor_config(self, c) for c in self._adj})


def is_triangle_free(network: Network) -> bool:
    """True iff no three cells are pairwise adjacent. Each triangle of the hex
    lattice is {c, c + (1, 0), c + (0, 1)} or {c, c + (1, 0), c + (1, -1)} for
    exactly one cell c, so each cell checks those two."""
    cells = network.cells
    return not any((q + 1, r) in cells and ((q, r + 1) in cells or (q + 1, r - 1) in cells) for q, r in cells)


class NeighborConfig(NamedTuple):
    """A cell's neighbors split by color, relative to the cell's own color x:
    `successors` have color (x + 1) % 3, `predecessors` (x - 1) % 3, each
    sorted. Isolated: both empty. Structure A (every neighbor one color): one
    empty, k the size of the other. Structure B: one cell in each.
    """

    successors: tuple[Cell, ...]
    predecessors: tuple[Cell, ...]


def classify_neighbor_config(network: Network, cell: Cell) -> NeighborConfig:
    x = color_of(cell)
    nbrs = network.neighbors(cell)
    return NeighborConfig(
        tuple(n for n in nbrs if color_of(n) == (x + 1) % 3),
        tuple(n for n in nbrs if color_of(n) == (x - 1) % 3),
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
