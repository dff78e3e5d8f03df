"""Deterministic online admission algorithms: greedy, the partition family
(CACO is the 2:1 member), and the triangle-free directional variant CACO2.

The algorithms differ only in the order in which a cell tries frequencies:
each is a `ScanAlgorithm`, built for one network and omega, whose per-cell
scan list drives the one `decide(state, cell) -> Outcome`; `run_sequence`
feeds a request list through one and accumulates the trace.
"""

from __future__ import annotations

import operator
import re
from collections import Counter
from functools import cache
from typing import NamedTuple, Optional

from .hexnet import Cell, Network, classify_neighbor_config, color_of
from .spectrum import AssignmentState, FrequencyPartition, make_partition_family


class Outcome(NamedTuple):
    accepted: bool
    frequency: Optional[int] = None


REJECT = Outcome(accepted=False)


@cache
def accept(frequency: int) -> Outcome:
    """The one accept outcome for `frequency`, shared by every decision and run;
    outcomes are immutable, and the table grows to the largest omega used."""
    return Outcome(True, frequency)


class RunTrace:
    """Complete record of one run: requests, outcomes, demands, and the final state.

    Request i is `requests[i]`, the network's own cell object, and its decision
    is `outcomes[i]`, a shared `Outcome`; so a run keeps two list slots per
    request and no object of its own. The three growing fields have no
    default: `start` gives each trace its own, which `feed_requests` fills.
    A slotted class rather than a NamedTuple, as `feed_requests` reads its
    fields once per request, and a slot reads faster than a tuple field.
    """

    __slots__ = ("algorithm", "network", "omega", "state", "partition", "flagged_cells",
                 "requests", "outcomes", "demands")

    def __init__(
        self,
        algorithm: str,
        network: Network,
        omega: int,
        state: AssignmentState,
        partition: Optional[FrequencyPartition],
        flagged_cells: tuple,  # degenerate neighbor configs, see caco2
        requests: list,  # Cell per request
        outcomes: list,  # Outcome per request
        demands: Counter,  # R_i
    ):
        self.algorithm = algorithm
        self.network = network
        self.omega = omega
        self.state = state
        self.partition = partition
        self.flagged_cells = flagged_cells
        self.requests = requests
        self.outcomes = outcomes
        self.demands = demands

    @staticmethod
    def start(algorithm) -> RunTrace:
        """Empty trace on `algorithm`'s network and omega, with its name, partition and flagged cells."""
        return RunTrace(
            algorithm=algorithm.name,
            network=algorithm.network,
            omega=algorithm.omega,
            state=AssignmentState(algorithm.network, algorithm.omega),
            partition=algorithm.partition,
            flagged_cells=algorithm.flagged_cells,
            requests=[],
            outcomes=[],
            demands=Counter(),
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
    """An online algorithm for one network and omega, given by its per-cell scan list.

    `scans[cell]` is a tuple of frequency ranges tried in order, each in its
    own order (a descending scan is `r[::-1]`). A request takes the first
    available frequency found, which `decide` assigns, and is rejected when
    every range is exhausted.
    Subclasses build `scans`, and set `partition` and `flagged_cells` when
    they have them.
    """

    name: str
    scans: dict  # Cell -> tuple of ranges
    partition: Optional[FrequencyPartition] = None
    flagged_cells: tuple = ()  # degenerate neighbor configs, see caco2

    def __init__(self, network: Network, omega: int):
        self.network = network
        self.omega = omega

    def decide(self, state: AssignmentState, cell: Cell) -> Outcome:
        """Accept with the first available frequency of `scans[cell]`, which
        `decide` commits to `state` (`AssignmentState.take_first`) before it
        returns it, or reject and leave `state` unchanged."""
        f = state.take_first(cell, self.scans[cell])
        return REJECT if f is None else accept(f)


class GreedyAlgorithm(ScanAlgorithm):
    """Accept with the minimal available frequency from the whole spectrum."""

    name = "greedy"

    def __init__(self, network: Network, omega: int):
        super().__init__(network, omega)
        self.scans = dict.fromkeys(network.cells, (range(1, omega + 1),))


class PartitionReserveAlgorithm(ScanAlgorithm):
    """The x:x:x:y partition family: own color range first, shared range second.

    CACO is the 2:1 member. The scan takes the own range iff the cell's count in
    it is below its size, the paper's rule, because `network.coloring` is
    proper: no neighbour shares a cell's own range.
    """

    def __init__(self, network: Network, omega: int, x_share: int, y_share: int):
        super().__init__(network, omega)
        self.partition = part = make_partition_family(omega, x_share, y_share)
        self.name = "caco" if (x_share, y_share) == (2, 1) else f"partition:{x_share}:{y_share}"
        shared = (part.shared,) if part.shared is not None else ()
        by_color = [(rng,) + shared for rng in part.ranges]
        self.scans = {c: by_color[color] for c, color in network.coloring.items()}


def caco_algorithm(network: Network, omega: int) -> PartitionReserveAlgorithm:
    return PartitionReserveAlgorithm(network, omega, 2, 1)


class NotTriangleFreeError(ValueError):
    """CACO2 and its certificate require a triangle-free hex network."""


def require_triangle_free_hex(network: Network) -> None:
    """Raise NotTriangleFreeError unless `network` has no triangle: the hex
    networks the 9/4 proof covers."""
    if not network.triangle_free:
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
        super().__init__(network, omega)
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
            return (ranges[x], ranges[(x - 1) % 3])
        return (ranges[x], ranges[(x + 1) % 3][::-1])


_DECIMAL = re.compile(r"-?[0-9]+")


def parse_int(text: str) -> int:
    """`text` as an ASCII decimal integer, `-?[0-9]+`: the one integer rule
    for selector arguments and `--grid omega=` values. Raises ValueError on
    "+3", " 3", "1_000", non-ASCII digits, and more digits than the
    interpreter converts, all of which `int` would take or coerce."""
    if not _DECIMAL.fullmatch(text):
        raise ValueError(f"not an ASCII decimal integer: {text!r}")
    return int(text)


def parse_selector(selector: str, kind: str, arity: dict, error: type) -> tuple[str, tuple[int, ...]]:
    """Split a selector into its name and integer arguments.

    A selector is a name from `arity`, followed by ":<int>" once per argument
    that `arity[name]` asks for; each argument must pass `parse_int`, so "+3",
    " 3", "1_000" and non-ASCII digits are refused.
    An unknown name, or arguments on a name that takes none (or none on one
    that does), raises `error("unknown <kind> selector ...")`; malformed or
    miscounted arguments raise `error("bad <name> selector ...")`.
    """
    name, colon, rest = selector.partition(":")
    if name not in arity or bool(colon) != (arity[name] > 0):
        raise error(f"unknown {kind} selector {selector!r}")
    args = rest.split(":") if colon else []
    if len(args) == arity[name]:
        try:
            return name, tuple(parse_int(a) for a in args)
        except ValueError:
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


class UnknownRequestCellError(ValueError):
    def __init__(self, index: int, cell: Cell):
        super().__init__(f"request {index} arrives at cell {cell}, not in the network")
        self.index = index
        self.cell = cell


def run_sequence(algorithm, requests) -> RunTrace:
    """Feed requests one at a time on the algorithm's network; deterministic."""
    trace = RunTrace.start(algorithm)
    feed_requests(algorithm, trace, requests)
    return trace


def feed_requests(algorithm, trace: RunTrace, requests) -> None:
    """Append a batch of requests to an in-progress trace (adversary phases).

    A request is a pair of integers, such as a `[q, r]` list, and not of
    booleans; the trace records the network's own cell for it, so it keeps no
    object per request.
    """
    own_cell = trace.network.own_cell
    index = operator.index
    for q, r in requests:
        if type(q) is bool or type(r) is bool:  # index(True) is 1
            raise TypeError(f"request {len(trace.requests)} has a boolean coordinate: ({q!r}, {r!r})")
        key = (index(q), index(r))
        cell = own_cell(key)
        if cell is None:
            raise UnknownRequestCellError(len(trace.requests), key)
        trace.demands[cell] += 1
        outcome = algorithm.decide(trace.state, cell)
        trace.requests.append(cell)
        trace.outcomes.append(outcome)
