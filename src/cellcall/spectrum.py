"""Frequency partitions and the interference-checked assignment state."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .hexnet import Cell, Color, Network


class PartitionError(ValueError):
    """Spectrum size incompatible with the requested partition ratio."""


class FrequencyConflictError(RuntimeError):
    """An assignment violated the interference rule (algorithm bug surfaced)."""


@dataclass(frozen=True)
class FrequencyPartition:
    """Disjoint contiguous color ranges over {1..omega}, plus an optional shared set."""

    ranges: dict  # Color -> range, 1-based
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
    ranges = {}
    lo = 1
    for color in (Color.R, Color.G, Color.B):
        ranges[color] = range(lo, lo + per_color)
        lo += per_color
    shared = range(lo, omega + 1) if y_share else None
    return FrequencyPartition(ranges, shared)


class AssignmentState:
    """Per-cell in-use frequency sets for one network.

    `assign` is the only mutator and rejects interfering assignments loudly,
    so algorithm bugs surface in tests instead of corrupting counters.
    """

    def __init__(self, network: Network, omega: int):
        if omega <= 0:
            raise ValueError(f"omega must be positive, got {omega}")
        self.network = network
        self.omega = omega
        self._used: dict[Cell, set[int]] = {c: set() for c in network.cells}

    def used(self, cell: Cell) -> frozenset[int]:
        return frozenset(self._used[cell])

    def count(self, cell: Cell) -> int:
        """A_i: total frequencies in use at the cell."""
        return len(self._used[cell])

    def count_in(self, cell: Cell, freq_range: range) -> int:
        """A_x(C_i): frequencies the cell uses from one partition range."""
        return sum(1 for f in self._used[cell] if f in freq_range)

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
        for f in freqs:
            if self.is_available(cell, f):
                return f
        return None

    def assign(self, cell: Cell, freq: int) -> None:
        if not self.is_available(cell, freq):
            raise FrequencyConflictError(
                f"frequency {freq} is not available at cell {cell}"
            )
        self._used[cell].add(freq)

    def interference_free(self) -> bool:
        """Full rescan of the invariant; used by tests, not by the hot path."""
        for cell, used in self._used.items():
            if any(f < 1 or f > self.omega for f in used):
                return False
            for n in self.network.neighbors(cell):
                if used & self._used[n]:
                    return False
        return True
