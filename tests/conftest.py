import random

import pytest

from cellcall.hexnet import Network, hex_patch, is_triangle_free

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
