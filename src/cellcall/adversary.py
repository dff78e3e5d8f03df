"""Adaptive request-sequence generators: the two lower-bound star scenarios
and seeded random traffic. An adversary yields its phases one batch at a
time, and between batches sees only the live per-cell accepted counts."""

from __future__ import annotations

import random
from itertools import repeat
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .hexnet import Cell, Network, flower_network
from .online import RunTrace, feed_requests, parse_selector

# Star topology shared by both lower-bound constructions: a center cell and
# the three pairwise non-adjacent neighbors of one color class.
STAR_CENTER: Cell = (0, 0)
STAR_OUTER: tuple[Cell, ...] = ((-1, 1), (0, -1), (1, 0))

# Most requests a selector may ask for: the length of random traffic, and the
# 4*omega of a star flood. A run keeps nothing per request, so the cap bounds
# a run's time, not its memory.
MAX_RANDOM_LENGTH = 1_000_000


def star_network() -> Network:
    return Network((STAR_CENTER,) + STAR_OUTER)


class AdversaryScenario(NamedTuple):
    """A scripted/adaptive request source.

    `phases(accepted)` yields each phase's requests, an iterable read once,
    and stops when the adversary does. `accepted(cell)` is the number of calls
    accepted at `cell` so far (public outcomes only), which the adversary reads
    between phases: each batch is fed in full before the generator resumes.
    """

    name: str
    network: Network
    omega: int
    phases: Callable[[Callable[[Cell], int]], Iterator[Iterable]]


def _star_flood(name: str, omega: int, go_on: Callable[[int], bool]) -> AdversaryScenario:
    """omega requests at the center, then omega at each outer cell when
    `go_on(the center's accepted count)`; refuses 4*omega past
    MAX_RANDOM_LENGTH before any request is made."""
    if 4 * omega > MAX_RANDOM_LENGTH:
        raise ValueError(
            f"a {name} flood sends 4*omega requests, at most {MAX_RANDOM_LENGTH}; omega is {omega}"
        )

    def phases(accepted: Callable[[Cell], int]) -> Iterator[Iterable]:
        yield repeat(STAR_CENTER, omega)
        if go_on(accepted(STAR_CENTER)):
            yield (c for c in STAR_OUTER for _ in range(omega))

    return AdversaryScenario(name, star_network(), omega, phases)


def fig2_adversary(omega: int) -> AdversaryScenario:
    """Unconditional two-phase star flood: omega requests at the center, then
    omega at each outer cell."""
    return _star_flood("fig2", omega, lambda accepted: True)


def fig3_adversary(omega: int) -> AdversaryScenario:
    """Adaptive star flood: after the center phase, continue only if the
    observed center acceptance x exceeds 3*omega/5 (stop on equality)."""
    return _star_flood("fig3", omega, lambda accepted: 5 * accepted > 3 * omega)


def random_sequence(network: Network, length: int, seed: int) -> Iterator[Cell]:
    """Deterministic pseudo-random requests over the network's cells, drawn
    lazily as unweighted `random.choices` draws a list, `cells[floor(random() * n)]`
    each; a negative length raises here, not on the first draw."""
    if length < 0:
        raise ValueError("length must be nonnegative")
    cells = network.sorted_cells()
    n = len(cells)
    draw = random.Random(seed).random
    return (cells[int(draw() * n)] for _ in range(length))


def random_adversary(omega: int, seed: int, length: int, network: Optional[Network] = None) -> AdversaryScenario:
    """Single-batch random traffic; defaults to the 7-cell flower network.

    The batch is drawn request by request as the duel consumes it, so
    building the scenario to check a selector costs nothing, and a run holds
    no request list, however long the traffic is.
    """
    if not 0 <= length <= MAX_RANDOM_LENGTH:
        raise ValueError(f"length must be between 0 and {MAX_RANDOM_LENGTH}, got {length}")
    net = network if network is not None else flower_network()

    def phases(accepted: Callable[[Cell], int]) -> Iterator[Iterable]:
        yield random_sequence(net, length, seed)

    return AdversaryScenario(f"random:{seed}:{length}", net, omega, phases)


class UnknownAdversaryError(ValueError):
    pass


def make_adversary(selector: str, omega: int, network: Optional[Network] = None) -> AdversaryScenario:
    """Selectors: "fig2", "fig3", "random:<seed>:<length>"."""
    name, args = parse_selector(
        selector, "adversary", {"fig2": 0, "fig3": 0, "random": 2}, UnknownAdversaryError
    )
    if name == "random":
        return random_adversary(omega, *args, network)
    return fig2_adversary(omega) if name == "fig2" else fig3_adversary(omega)


def phase_ratios(scenario: AdversaryScenario, algorithm_factory) -> list:
    """Exact OPT/ALG after each adversary phase (the adversary may stop at any
    phase boundary, so the scenario's strength is the max of these); each is
    `ledger.ratio_report`'s, None when unbounded."""
    from .ledger import ratio_report
    from .offline import exact_optimum

    ratios = []

    def record(trace: RunTrace) -> None:
        opt = exact_optimum(trace.network, trace.omega, trace.demands)
        ratios.append(ratio_report(opt.total, trace.total_accepted()))

    run_duel(scenario, algorithm_factory(scenario.network, scenario.omega), record)
    return ratios


def run_duel(
    scenario: AdversaryScenario,
    algorithm,
    on_phase: Optional[Callable[[RunTrace], None]] = None,
) -> RunTrace:
    """Play the adversary against `algorithm`, built for its network and omega;
    pure function of its inputs. `on_phase(trace)` runs after each phase."""
    if (algorithm.omega, algorithm.network) != (scenario.omega, scenario.network):
        raise ValueError(f"the {scenario.name} adversary plays omega {scenario.omega} on {scenario.network!r}, "
                         f"but the algorithm runs at omega {algorithm.omega} on {algorithm.network!r}")
    trace = RunTrace(algorithm)
    for batch in scenario.phases(trace.state.count):
        feed_requests(algorithm, trace, batch)
        if on_phase is not None:
            on_phase(trace)
    return trace
