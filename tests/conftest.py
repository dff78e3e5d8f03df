import random
import time
from dataclasses import dataclass

import pytest

from cellcall.hexnet import Network, hex_patch, is_triangle_free
from cellcall.offline import exact_optimum
from cellcall.online import Caco2Algorithm, caco_algorithm
from oracles import recorded_run

# 19-cell pool all random subnetworks are drawn from
PATCH_CELLS = hex_patch(2).sorted_cells()

# the 9-cell odd hole of `hex_patch(2)`, a chordless cycle (`hex_patch(3)` has
# none of length 5 or 7): its clique ceiling is loose, 9 against an optimum of
# 8 at omega 2 with demand 2 per cell (McDiarmid & Reed, Channel assignment
# and weighted colouring, 2000)
ODD_HOLE = Network([(-2, 1), (-2, 2), (-1, 0), (-1, 2), (0, -1), (0, 2), (1, -1), (1, 0), (1, 1)])


def random_network(rng: random.Random, min_cells=1, max_cells=9, triangle_free=False) -> Network:
    while True:
        k = rng.randint(min_cells, max_cells)
        net = Network(rng.sample(PATCH_CELLS, k))
        if not triangle_free or is_triangle_free(net):
            return net


def random_requests(rng: random.Random, net: Network, length: int):
    cells = net.sorted_cells()
    return [rng.choice(cells) for _ in range(length)]


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@dataclass
class SweepInstance:
    network: Network
    omega: int
    demands: dict
    trace: object
    log: list  # (cell, frequency or None) per request
    opt: object


def _sweep(seed, size, omegas, triangle_free, factory):
    rng = random.Random(seed)
    instances = []
    start = time.perf_counter()
    for _ in range(size):
        net = random_network(rng, max_cells=9, triangle_free=triangle_free)
        omega = rng.choice(omegas)
        seq = random_requests(rng, net, rng.randint(0, 6 * omega))
        trace, log = recorded_run(factory(net, omega), seq)
        opt = exact_optimum(net, omega, dict(trace.demands))
        instances.append(SweepInstance(net, omega, dict(trace.demands), trace, log, opt))
    return instances, time.perf_counter() - start


# The two 500-instance acceptance sweeps, each `(instances, build seconds)`,
# built once per session: the acceptance criteria and the MILP cross-check
# read the same instances, and none of them changes one.
@pytest.fixture(scope="session")
def caco_sweep():
    return _sweep(2024, 500, (7, 14, 21), False, caco_algorithm)


@pytest.fixture(scope="session")
def caco2_sweep():
    return _sweep(2025, 500, (3, 9, 21), True, Caco2Algorithm)
