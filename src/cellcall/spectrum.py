"""Frequency partitions and the interference-checked assignment state."""

from __future__ import annotations

from typing import NamedTuple, Optional

from .hexnet import Cell, Network, UnknownCellError, as_integer


class PartitionError(ValueError):
    """Spectrum size incompatible with the requested partition ratio."""


class FrequencyConflictError(RuntimeError):
    """An assignment violated the interference rule (algorithm bug surfaced)."""


class FrequencyPartition(NamedTuple):
    """Disjoint contiguous color ranges over {1..omega}, plus an optional shared set."""

    ranges: tuple  # range per colour index, 1-based
    shared: Optional[range] = None


def make_partition_family(omega: int, x_share: int, y_share: int) -> FrequencyPartition:
    """Per-color ranges of x parts each plus a shared range of y parts (ratio x:x:x:y)."""
    if x_share <= 0 or y_share < 0:
        raise PartitionError(f"invalid share ratio {x_share}:{y_share}")
    parts = 3 * x_share + y_share
    if omega <= 0 or omega % parts != 0:
        raise PartitionError(
            f"omega={omega} is not a positive multiple of {parts} "
            f"(required for the {x_share}:{x_share}:{x_share}:{y_share} split)"
        )
    unit = omega // parts
    per_color = x_share * unit
    ranges = tuple(range(1 + x * per_color, 1 + (x + 1) * per_color) for x in range(3))
    shared = range(1 + 3 * per_color, omega + 1) if y_share else None
    return FrequencyPartition(ranges, shared)


def _unknown(cell: Cell) -> UnknownCellError:
    return UnknownCellError(f"cell {cell} is not in the network")


class AssignmentState:
    """Per-cell in-use frequency sets for one network.

    There are two mutators, and both add a frequency only after
    `is_available` has found it free: `take_first` adds the first free
    frequency its scan finds, and `assign` adds a given frequency or raises
    FrequencyConflictError, so algorithm bugs surface in tests instead of
    corrupting counters. A frequency and omega are integers, not bools
    (`as_integer`), and a cell outside the network raises UnknownCellError;
    both are checked where a call enters, not in the per-frequency probe.
    """

    def __init__(self, network: Network, omega: int):
        omega = as_integer(omega, "omega")
        if omega <= 0:
            raise ValueError(f"omega must be positive, got {omega}")
        self.network = network
        self.omega = omega
        self._used: dict[Cell, set[int]] = {c: set() for c in network.cells}

    def _cell_used(self, cell: Cell) -> set[int]:
        """The cell's own in-use set; UnknownCellError for a cell outside the network."""
        if cell not in self._used:
            raise _unknown(cell)
        return self._used[cell]

    def used(self, cell: Cell) -> frozenset[int]:
        return frozenset(self._cell_used(cell))

    def count(self, cell: Cell) -> int:
        """A_i: total frequencies in use at the cell."""
        return len(self._cell_used(cell))

    def count_in(self, cell: Cell, freq_range: range) -> int:
        """A_x(C_i): frequencies the cell uses from one partition range."""
        return sum(1 for f in self._cell_used(cell) if f in freq_range)

    def is_available(self, cell: Cell, freq: int) -> bool:
        """True iff `freq` is unused in the cell and in every neighbor."""
        if not 1 <= freq <= self.omega:
            return False
        if freq in self._used[cell]:
            return False
        return all(freq not in self._used[n] for n in self.network.neighbors(cell))

    def first_available(self, cell: Cell, freqs: range) -> Optional[int]:
        """First available frequency of `freqs`, scanned in the range's own
        order; a descending scan is a negative-step range such as `r[::-1]`."""
        if cell not in self._used:
            raise _unknown(cell)
        for f in freqs:
            if self.is_available(cell, f):
                return f
        return None

    def take_first(self, cell: Cell, scans: tuple) -> Optional[int]:
        """Add to the cell the first available frequency of `scans`, ranges
        tried in order through `first_available`, and return it; None, and
        no change, when every range is exhausted. The check that finds the
        frequency is the one that guards its add."""
        if cell not in self._used:
            raise _unknown(cell)
        for freqs in scans:
            f = self.first_available(cell, freqs)
            if f is not None:
                self._used[cell].add(f)
                return f
        return None

    def assign(self, cell: Cell, freq: int) -> None:
        freq = as_integer(freq, "a frequency")
        used = self._cell_used(cell)
        if not self.is_available(cell, freq):
            raise FrequencyConflictError(
                f"frequency {freq} is not available at cell {cell}"
            )
        used.add(freq)

    def interference_free(self) -> bool:
        """Full rescan of the invariant; used by tests, not by the hot path."""
        for cell, used in self._used.items():
            if any(f < 1 or f > self.omega for f in used):
                return False
            for n in self.network.neighbors(cell):
                if used & self._used[n]:
                    return False
        return True
