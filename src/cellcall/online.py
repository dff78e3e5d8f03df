"""Deterministic online admission algorithms: greedy, the partition family
(CACO is the 2:1 member), and the triangle-free directional variant CACO2.

The algorithms differ only in the order in which a cell tries frequencies:
each is a `ScanAlgorithm` whose per-cell scan list drives the one
`decide(state, cell) -> Outcome`; `run_sequence` feeds a request list through
one and accumulates the trace.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cache
from typing import Optional

from .hexnet import Cell, Color, Network, classify_neighbor_config, color_of, is_triangle_free
from .spectrum import AssignmentState, FrequencyPartition, make_partition_family


@dataclass(frozen=True)
class Outcome:
    accepted: bool
    frequency: Optional[int] = None

    def __str__(self) -> str:
        return f"accept({self.frequency})" if self.accepted else "reject"


REJECT = Outcome(accepted=False)


@cache
def accept(frequency: int) -> Outcome:
    """The one accept outcome for `frequency`, shared by every decision and run;
    outcomes are immutable, and the table grows to the largest omega used."""
    return Outcome(True, frequency)


@dataclass
class RunTrace:
    """Complete record of one run: requests, outcomes, demands, and the final state.

    Request i is `requests[i]`, the network's own cell object, and its decision
    is `outcomes[i]`, a shared `Outcome`; so a run keeps two list slots per
    request and no object of its own.
    """

    algorithm: str
    network: Network
    omega: int
    state: AssignmentState
    partition: Optional[FrequencyPartition]
    flagged_cells: tuple  # degenerate neighbor configs, see caco2
    requests: list = field(default_factory=list)  # Cell per request
    outcomes: list = field(default_factory=list)  # Outcome per request
    demands: Counter = field(default_factory=Counter)  # R_i

    @staticmethod
    def start(algorithm, network: Network, omega: int) -> RunTrace:
        """Empty trace for `algorithm`, which supplies its name, partition and flagged cells."""
        return RunTrace(
            algorithm=algorithm.name,
            network=network,
            omega=omega,
            state=AssignmentState(network, omega),
            partition=algorithm.partition,
            flagged_cells=algorithm.flagged_cells,
        )

    def accepted_at(self, cell: Cell) -> int:
        """A_i."""
        return self.state.count(cell)

    def shared_accepted_at(self, cell: Cell) -> int:
        """A_S(C_i); zero when the partition has no shared set."""
        if self.partition is None or self.partition.shared is None:
            return 0
        return self.state.count_in(cell, self.partition.shared)

    def total_accepted(self) -> int:
        return sum(self.state.count(c) for c in self.network.cells)

    def rejecting_cells(self) -> set[Cell]:
        return {cell for cell, out in zip(self.requests, self.outcomes) if not out.accepted}


class ScanAlgorithm:
    """An online algorithm given by its per-cell scan list.

    `scans[cell]` is a tuple of frequency ranges tried in order, each in its
    own order (a descending scan is `r[::-1]`). A request takes the first
    available frequency found and is rejected when every range is exhausted.
    Subclasses build `scans`, and set `partition` and `flagged_cells` when
    they have them.
    """

    name: str
    scans: dict  # Cell -> tuple of ranges
    partition: Optional[FrequencyPartition] = None
    flagged_cells: tuple = ()  # degenerate neighbor configs, see caco2

    def __init__(self, omega: int):
        self.omega = omega

    def decide(self, state: AssignmentState, cell: Cell) -> Outcome:
        for freqs in self.scans[cell]:
            f = state.first_available(cell, freqs)
            if f is not None:
                return accept(f)
        return REJECT


class GreedyAlgorithm(ScanAlgorithm):
    """Accept with the minimal available frequency from the whole spectrum."""

    name = "greedy"

    def __init__(self, network: Network, omega: int):
        super().__init__(omega)
        self.scans = dict.fromkeys(network.cells, (range(1, omega + 1),))


class PartitionReserveAlgorithm(ScanAlgorithm):
    """The x:x:x:y partition family: own color range first, shared range second.

    CACO is the 2:1 member. The own-range test reduces to a per-cell counter
    because same-colored cells are never adjacent; this equivalence is asserted
    on every decision.
    """

    def __init__(self, network: Network, omega: int, x_share: int, y_share: int):
        super().__init__(omega)
        self.partition = part = make_partition_family(omega, x_share, y_share)
        self.name = "caco" if (x_share, y_share) == (2, 1) else f"partition:{x_share}:{y_share}"
        shared = (part.shared,) if part.shared is not None else ()
        by_color = {color: (part.ranges[color],) + shared for color in Color}
        self.scans = {c: by_color[color_of(c)] for c in network.cells}

    def decide(self, state: AssignmentState, cell: Cell) -> Outcome:
        outcome = super().decide(state, cell)
        own = self.scans[cell][0]
        # own is scanned first, so it had a free frequency iff the outcome took one from it
        took_own = outcome.accepted and outcome.frequency in own
        assert took_own == (state.count_in(cell, own) < len(own)), (
            "own-color range blocked by a neighbor; coloring is not proper"
        )
        return outcome


def caco_algorithm(network: Network, omega: int) -> PartitionReserveAlgorithm:
    return PartitionReserveAlgorithm(network, omega, 2, 1)


class NotTriangleFreeError(ValueError):
    """CACO2 and its certificate require a triangle-free hex network."""


def require_triangle_free_hex(network: Network) -> None:
    """Raise NotTriangleFreeError unless `network` has the hex adjacency of its
    own cells and no triangle, the networks the 9/4 proof covers."""
    try:
        is_hex = network == Network(network.cells)
    except (TypeError, ValueError):  # cells that are not integer pairs
        is_hex = False
    if not (is_hex and is_triangle_free(network)):
        raise NotTriangleFreeError("caco2 requires a triangle-free hex network")


class Caco2Algorithm(ScanAlgorithm):
    """Thirds partition with directional overflow on triangle-free hex networks.

    Scans are computed once from each cell's neighbors of its successor and
    predecessor colors (`classify_neighbor_config`):
      - isolated cells scan the whole spectrum bottom-to-top;
      - cells with two or more neighbors, all of the successor color, overflow
        into the predecessor color's range, ascending;
      - every other cell (structure A on predecessor-colored neighbors,
        structure B, a single neighbor) overflows into the successor color's
        range, descending.
    Structure-A cells with one or two neighbors are flagged as degenerate.
    """

    name = "caco2"

    def __init__(self, network: Network, omega: int):
        require_triangle_free_hex(network)
        super().__init__(omega)
        self.partition = make_partition_family(omega, 1, 0)
        configs = {c: classify_neighbor_config(network, c) for c in network.cells}
        self.scans = {c: self._scan_for(c, *config) for c, config in configs.items()}
        self.flagged_cells = tuple(
            sorted(c for c, (s, p) in configs.items() if not (s and p) and 0 < len(s + p) < 3)
        )

    def _scan_for(self, cell: Cell, succ: tuple, pred: tuple) -> tuple:
        if not (succ or pred):
            return (range(1, self.omega + 1),)
        x = color_of(cell)
        ranges = self.partition.ranges
        if len(succ) >= 2 and not pred:
            return (ranges[x], ranges[x.predecessor])
        return (ranges[x], ranges[x.successor][::-1])


_SELECTOR_INT = re.compile(r"-?[0-9]+")


def parse_selector(selector: str, kind: str, arity: dict, error: type) -> tuple[str, tuple[int, ...]]:
    """Split a selector into its name and integer arguments.

    A selector is a name from `arity`, followed by ":<int>" once per argument
    that `arity[name]` asks for; each argument is an ASCII decimal integer
    (`-?[0-9]+`), so "+3", " 3", "1_000" and non-ASCII digits are refused.
    An unknown name, or arguments on a name that takes none (or none on one
    that does), raises `error("unknown <kind> selector ...")`; malformed or
    miscounted arguments raise `error("bad <name> selector ...")`.
    """
    name, colon, rest = selector.partition(":")
    if name not in arity or bool(colon) != (arity[name] > 0):
        raise error(f"unknown {kind} selector {selector!r}")
    args = rest.split(":") if colon else []
    try:
        if len(args) == arity[name] and all(_SELECTOR_INT.fullmatch(a) for a in args):
            return name, tuple(int(a) for a in args)
    except ValueError:  # more digits than the interpreter converts
        pass
    raise error(f"bad {name} selector {selector!r}")


class UnknownAlgorithmError(ValueError):
    pass


_ALGORITHMS = {
    "greedy": GreedyAlgorithm,
    "caco": caco_algorithm,
    "caco2": Caco2Algorithm,
    "partition": PartitionReserveAlgorithm,
}


def make_algorithm(selector: str, network: Network, omega: int):
    """Build an algorithm from its selector string.

    Selectors: "greedy", "caco", "caco2", "partition:<x>:<y>".
    """
    name, args = parse_selector(
        selector, "algorithm", {"greedy": 0, "caco": 0, "caco2": 0, "partition": 2}, UnknownAlgorithmError
    )
    return _ALGORITHMS[name](network, omega, *args)


def overflow_order_violations(trace: RunTrace) -> list:
    """Adjacent cells that both overflowed into the same foreign color range
    must have consumed it from opposite ends; returns (u, v, color) triples
    where their used frequencies in that range interleave or overlap."""
    part = trace.partition
    if part is None:
        return []
    violations = []
    for u, v in trace.network.edges():
        for color, rng in part.ranges.items():
            if color in (color_of(u), color_of(v)):
                continue
            fu = sorted(f for f in trace.state.used(u) if f in rng)
            fv = sorted(f for f in trace.state.used(v) if f in rng)
            if fu and fv and not (fu[-1] < fv[0] or fv[-1] < fu[0]):
                violations.append((u, v, color))
    return violations


class UnknownRequestCellError(ValueError):
    def __init__(self, index: int, cell: Cell):
        super().__init__(f"request {index} arrives at cell {cell}, not in the network")
        self.index = index
        self.cell = cell


def run_sequence(algorithm, network: Network, omega: int, requests) -> RunTrace:
    """Feed requests one at a time; deterministic for identical inputs."""
    trace = RunTrace.start(algorithm, network, omega)
    feed_requests(algorithm, trace, requests)
    return trace


def feed_requests(algorithm, trace: RunTrace, requests) -> None:
    """Append a batch of requests to an in-progress trace (adversary phases).

    A request may be any pair of integers, such as a `[q, r]` list; the trace
    records the network's own cell for it, so it keeps no object per request.
    """
    own_cell = trace.network.own_cell
    for request in requests:
        key = (int(request[0]), int(request[1]))
        cell = own_cell(key)
        if cell is None:
            raise UnknownRequestCellError(len(trace.requests), key)
        trace.demands[cell] += 1
        outcome = algorithm.decide(trace.state, cell)
        if outcome.accepted:
            trace.state.assign(cell, outcome.frequency)
        trace.requests.append(cell)
        trace.outcomes.append(outcome)
