import random

import pytest

from cellcall.hexnet import Network, hex_patch, is_triangle_free

# 19-cell pool all random subnetworks are drawn from
PATCH_CELLS = hex_patch(2).sorted_cells()

# (0, 0) and three of its hex neighbors, with only the three centre edges: the
# ring edges the hex grid has between the neighbors are left out
_STAR_CELLS = [(0, 0), (1, 0), (0, 1), (-1, 1)]
PARTIAL_HEX_STAR = Network.from_edges(_STAR_CELLS, [((0, 0), c) for c in _STAR_CELLS[1:]])


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
