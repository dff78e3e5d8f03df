import random

import pytest
from hypothesis import given, strategies as st

from cellcall.hexnet import (
    AXIAL_DIRECTIONS,
    COLORS,
    Network,
    UnknownCellError,
    classify_neighbor_config,
    color_of,
    flower_network,
    hex_patch,
    is_triangle_free,
)
from cellcall.online import caco_algorithm
from cellcall.spectrum import AssignmentState
from oracles import edge_list_triangle_free, edges

cells_st = st.tuples(st.integers(-6, 6), st.integers(-6, 6))


def test_full_grid_center_has_six_neighbors():
    net = hex_patch(2)
    assert len(net.neighbors((0, 0))) == 6


def test_neighbors_come_out_sorted_without_sorting():
    # each edge is found from its smaller end, the cells taken in sorted order
    assert list(AXIAL_DIRECTIONS) == sorted(AXIAL_DIRECTIONS)
    patch = hex_patch(20)
    cells = patch.sorted_cells()
    rng = random.Random(24)
    for net in [patch] + [Network(rng.sample(cells, rng.randint(1, len(cells)))) for _ in range(50)]:
        assert all(net.neighbors(c) == tuple(sorted(net.neighbors(c))) for c in net.cells)


def test_hex_patch_takes_a_nonnegative_integer_radius():
    assert len(hex_patch(0)) == 1 and len(hex_patch(2)) == 19
    for bad, error, message in [
        (True, TypeError, "radius must be an integer, not True"),
        (2.0, TypeError, "radius must be an integer, not 2.0"),
        (-1, ValueError, "radius must be nonnegative, got -1"),
    ]:
        with pytest.raises(error) as info:
            hex_patch(bad)
        assert str(info.value) == message


def test_cells_must_be_integer_pairs():
    for bad in [(1, 2, 3), 1, (1.5, 0), "ab", [0]]:
        with pytest.raises(TypeError) as info:
            Network([(0, 0), bad])
        assert str(info.value) == f"a cell is not a pair of integers: {bad!r}"
    assert Network([[1, 0]]).cells == {(1, 0)}


def test_boolean_coordinates_rejected():
    with pytest.raises(TypeError, match=r"^a cell is not a pair of integers: \(True, 0\)$"):
        Network([(True, 0), (0, 0)])


def test_isolated_cell_has_no_neighbors():
    net = Network([(0, 0)])
    assert net.neighbors((0, 0)) == ()


def test_neighbors_restricted_to_members():
    net = Network([(0, 0), (1, 0), (5, 5)])
    assert net.neighbors((0, 0)) == ((1, 0),)
    assert net.neighbors((5, 5)) == ()


def test_neighbors_unknown_cell_raises():
    with pytest.raises(UnknownCellError):
        Network([(0, 0)]).neighbors((1, 1))


def test_unknown_cell_error_prints_its_message_unquoted():
    # a KeyError would print its key in quotes; still caught as a KeyError
    with pytest.raises(KeyError) as err:
        Network([(0, 0)]).neighbors((5, 5))
    assert str(err.value) == "cell (5, 5) is not in the network"
    with pytest.raises(UnknownCellError) as err:
        AssignmentState(Network([(0, 0)]), 7).count((5, 5))
    assert str(err.value) == "cell (5, 5) is not in the network"


def test_neighbors_sorted_deterministically():
    net = flower_network()
    nbrs = net.neighbors((0, 0))
    assert list(nbrs) == sorted(nbrs)


def test_color_anchors():
    assert [color_of(c) for c in ((0, 0), (1, 0), (1, -1))] == [0, 1, 2]
    assert type(color_of((4, -7))) is int
    assert COLORS == "RGB"


def test_color_cyclic_order():
    # successors have colour (x + 1) % 3 and predecessors (x - 1) % 3,
    # and between them they hold every neighbour of another colour; the split
    # reads q - r mod 3, so a patch far off the origin at negative q is checked too
    for net in (hex_patch(2), hex_patch(2, center=(-1000, 37))):
        for cell in net.sorted_cells():
            x = color_of(cell)
            succ, pred = classify_neighbor_config(net, cell)
            nbrs = net.neighbors(cell)
            assert succ == tuple(n for n in nbrs if color_of(n) == (x + 1) % 3)
            assert pred == tuple(n for n in nbrs if color_of(n) == (x - 1) % 3)
            assert sorted(succ + pred) == sorted(nbrs)


@given(cells_st)
def test_coloring_proper_on_all_neighbors(cell):
    q, r = cell
    for dq, dr in AXIAL_DIRECTIONS:
        assert color_of((q, r)) != color_of((q + dq, r + dr))


def test_hex_coloring_scans_no_edges(monkeypatch):
    # `color_of` colours hex adjacency properly: nothing to check per edge
    net = hex_patch(3)
    monkeypatch.setattr(Network, "neighbors", lambda self, cell: pytest.fail("adjacency scanned"))
    alg = caco_algorithm(net, 21)
    assert alg.scans == {c: (alg.partition.ranges[color_of(c)], alg.partition.shared) for c in net.cells}


@given(st.sets(st.sampled_from(hex_patch(3).sorted_cells())))
def test_every_network_has_a_proper_coloring(cells):
    net = Network(cells)
    assert all(color_of(u) != color_of(v) for u, v in edges(net))


PATCH3_CELLS = hex_patch(3).sorted_cells()


@given(st.sets(st.sampled_from(PATCH3_CELLS), max_size=20))
def test_per_cell_triangle_test_agrees_with_the_edge_list(cells):
    net = Network(cells)
    assert is_triangle_free(net) is edge_list_triangle_free(net)


@given(st.sets(st.sampled_from(PATCH3_CELLS)))
def test_cached_neighbor_split_is_classify_neighbor_config(cells):
    net = Network(cells)
    assert net.neighbor_configs == {c: classify_neighbor_config(net, c) for c in net.cells}
    assert net.neighbor_configs is net.neighbor_configs


def test_cached_structure_is_read_only():
    net = hex_patch(2)
    cells = net.sorted_cells()
    assert cells is net.sorted_cells() and list(cells) == sorted(net.cells)
    with pytest.raises(TypeError):
        cells[0] = (9, 9)
    with pytest.raises(AttributeError):
        cells.append((9, 9))
    with pytest.raises(TypeError):
        net.neighbor_configs[(0, 0)] = ((), ())
    assert net.sorted_cells() == tuple(sorted(net.cells))


def test_triangle_detected():
    assert not is_triangle_free(Network([(0, 0), (1, 0), (0, 1)]))
    assert is_triangle_free(Network([(0, 0), (1, 0)]))


def test_honeycomb_subset_triangle_free():
    # alternating-gap honeycomb patch: brute-force pairwise check agrees
    cells = [c for c in hex_patch(2).sorted_cells() if (c[0] - c[1]) % 3 != 0]
    net = Network(cells)
    brute = all(
        not (set(net.neighbors(u)) & set(net.neighbors(v))) for u, v in edges(net)
    )
    assert is_triangle_free(net) is brute is True


@given(st.sets(cells_st, min_size=1, max_size=12))
def test_neighbors_symmetric_and_degree_bound(cells):
    net = Network(cells)
    for u in net.sorted_cells():
        for v in net.neighbors(u):
            assert u in net.neighbors(v)
    if is_triangle_free(net):
        for u in net.sorted_cells():
            nbrs = net.neighbors(u)
            assert len(nbrs) <= 3
            if len(nbrs) == 3:
                assert len({color_of(n) for n in nbrs}) == 1


def test_classify_isolated():
    assert classify_neighbor_config(Network([(0, 0)]), (0, 0)) == ((), ())


def test_classify_structure_a_three_same_color():
    net = Network([(0, 0), (-1, 1), (0, -1), (1, 0)])  # R center, G cross
    assert classify_neighbor_config(net, (0, 0)) == (((-1, 1), (0, -1), (1, 0)), ())


def test_classify_structure_b_two_colors():
    net = Network([(0, 0), (1, 0), (-1, 0)])  # R center, G and B neighbors
    assert is_triangle_free(net)
    config = classify_neighbor_config(net, (0, 0))
    assert config == (((1, 0),), ((-1, 0),))
    assert (config.successors, config.predecessors) == config


def test_classify_single_neighbor_is_structure_a():
    net = Network([(0, 0), (1, 0)])
    assert classify_neighbor_config(net, (0, 0)) == (((1, 0),), ())
    assert classify_neighbor_config(net, (1, 0)) == ((), ((0, 0),))  # G's predecessor is R


def test_classify_general_only_with_triangles():
    net = hex_patch(1)
    config = classify_neighbor_config(net, (0, 0))
    assert config == (((-1, 1), (0, -1), (1, 0)), ((-1, 0), (0, 1), (1, -1)))
    assert not is_triangle_free(net)


def test_classify_every_triangle_free_neighborhood():
    # all 64 subsets of the six neighbors of (0, 0): on a triangle-free one the
    # centre is isolated, one-sided with at most 3 cells (structure A), or has
    # one cell on each side, opposite each other (structure B)
    triangle_free = 0
    for mask in range(64):
        nbrs = [d for bit, d in enumerate(AXIAL_DIRECTIONS) if mask >> bit & 1]
        net = Network([(0, 0), *nbrs])
        if not is_triangle_free(net):
            continue
        triangle_free += 1
        succ, pred = classify_neighbor_config(net, (0, 0))
        assert sorted(succ + pred) == sorted(nbrs)
        if succ and pred:
            (cj,), (ck,) = succ, pred
            assert (cj[0] + ck[0], cj[1] + ck[1]) == (0, 0)
        else:
            assert len(succ + pred) <= 3
    assert triangle_free == 18  # the independent sets of the 6-cycle of neighbors


def test_network_equality_and_containment():
    assert Network([(0, 0), (1, 0)]) == Network([(1, 0), (0, 0)])
    assert (0, 0) in Network([(0, 0)])
    assert (2, 2) not in Network([(0, 0)])


def test_equality_compares_cells():
    # a network is its cells: equal cells, equal networks and hashes
    path = Network([(0, 0), (1, 0), (2, 0)])
    assert path == Network([(2, 0), (1, 0), (0, 0)]) and hash(path) == hash(Network(path.cells))
    assert path != Network([(0, 0), (1, 0), (3, 0)])
    assert edges(path) == [((0, 0), (1, 0)), ((1, 0), (2, 0))]


def test_neighbors_are_the_networks_own_cells():
    cells = hex_patch(3).sorted_cells()
    net = Network([(q, r) for q, r in cells])
    own = {c: c for c in net.cells}
    for c in net.cells:
        assert net.own_cell((c[0], c[1])) is c
        assert all(n is own[n] for n in net.neighbors(c))
    assert Network(cells).own_cell((99, 99)) is None
