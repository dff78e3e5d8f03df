"""Adaptive request-sequence generators: the two lower-bound star scenarios
and seeded random traffic. Adversaries see only per-cell accepted counts."""

from __future__ import annotations

import random
from typing import Callable, NamedTuple, Optional

from .hexnet import Cell, Network, flower_network
from .online import RunTrace, feed_requests, parse_selector

# Star topology shared by both lower-bound constructions: a center cell and
# the three pairwise non-adjacent neighbors of one color class.
STAR_CENTER: Cell = (0, 0)
STAR_OUTER: tuple[Cell, ...] = ((-1, 1), (0, -1), (1, 0))

# Most requests a selector may ask for: the length of random traffic, and the
# 4*omega of a star flood. The requests are generated only when the duel runs,
# and its trace keeps two list slots per request.
MAX_RANDOM_LENGTH = 1_000_000


def star_network() -> Network:
    return Network((STAR_CENTER,) + STAR_OUTER)


class AdversaryScenario(NamedTuple):
    """A scripted/adaptive request source.

    `next_batch(phase, counts)` returns the requests of the given phase or
    None when the adversary stops; `counts` maps cells to accepted counts
    observed so far (public outcomes only).
    """

    name: str
    network: Network
    omega: int
    next_batch: Callable[[int, dict], Optional[list]]


def _star_flood(name: str, omega: int, go_on: Callable[[int], bool]) -> AdversaryScenario:
    """omega requests at the center, then omega at each outer cell when
    `go_on(the center's accepted count)`; refuses 4*omega past
    MAX_RANDOM_LENGTH before any request is made."""
    if 4 * omega > MAX_RANDOM_LENGTH:
        raise ValueError(
            f"a {name} flood sends 4*omega requests, at most {MAX_RANDOM_LENGTH}; omega is {omega}"
        )

    def next_batch(phase: int, counts: dict) -> Optional[list]:
        if phase == 0:
            return [STAR_CENTER] * omega
        if phase == 1 and go_on(counts.get(STAR_CENTER, 0)):
            return [c for c in STAR_OUTER for _ in range(omega)]
        return None

    return AdversaryScenario(name, star_network(), omega, next_batch)


def fig2_adversary(omega: int) -> AdversaryScenario:
    """Unconditional two-phase star flood: omega requests at the center, then
    omega at each outer cell."""
    return _star_flood("fig2", omega, lambda accepted: True)


def fig3_adversary(omega: int) -> AdversaryScenario:
    """Adaptive star flood: after the center phase, continue only if the
    observed center acceptance x exceeds 3*omega/5 (stop on equality)."""
    return _star_flood("fig3", omega, lambda accepted: 5 * accepted > 3 * omega)


def random_sequence(network: Network, length: int, seed: int):
    """Deterministic pseudo-random request list over the network's cells."""
    if length < 0:
        raise ValueError("length must be nonnegative")
    rng = random.Random(seed)
    return rng.choices(network.sorted_cells(), k=length)


def random_adversary(omega: int, seed: int, length: int, network: Optional[Network] = None) -> AdversaryScenario:
    """Single-batch random traffic; defaults to the 7-cell flower network.

    The batch is generated when it is asked for, so building the scenario to
    check a selector costs nothing however long the traffic is.
    """
    if not 0 <= length <= MAX_RANDOM_LENGTH:
        raise ValueError(f"length must be between 0 and {MAX_RANDOM_LENGTH}, got {length}")
    net = network if network is not None else flower_network()

    def next_batch(phase: int, counts: dict) -> Optional[list]:
        return random_sequence(net, length, seed) if phase == 0 else None

    return AdversaryScenario(f"random:{seed}:{length}", net, omega, next_batch)


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
    `ledger.ratio_report`'s ratio, None when unbounded."""
    from .ledger import ratio_report
    from .offline import exact_optimum

    ratios = []

    def record(trace: RunTrace) -> None:
        opt = exact_optimum(trace.network, trace.omega, dict(trace.demands))
        ratios.append(ratio_report(trace, opt).ratio)

    run_duel(scenario, algorithm_factory(scenario.network, scenario.omega), record)
    return ratios


def run_duel(
    scenario: AdversaryScenario,
    algorithm,
    on_phase: Optional[Callable[[RunTrace], None]] = None,
) -> RunTrace:
    """Play the adversary against `algorithm` on its network; pure function of
    its inputs. `on_phase(trace)`, when given, runs after each phase's requests."""
    trace = RunTrace.start(algorithm)
    phase = 0
    while True:
        counts = {c: trace.state.count(c) for c in trace.network.cells}
        batch = scenario.next_batch(phase, counts)
        if batch is None:
            break
        feed_requests(algorithm, trace, batch)
        if on_phase is not None:
            on_phase(trace)
        phase += 1
    return trace
