import pytest
from hypothesis import given, strategies as st

from cellcall.hexnet import (
    AXIAL_DIRECTIONS,
    Color,
    Network,
    UnknownCellError,
    classify_neighbor_config,
    color_of,
    flower_network,
    hex_patch,
    is_triangle_free,
)

cells_st = st.tuples(st.integers(-6, 6), st.integers(-6, 6))


def test_full_grid_center_has_six_neighbors():
    net = hex_patch(2)
    assert len(net.neighbors((0, 0))) == 6


def test_cells_must_be_integer_pairs():
    with pytest.raises(TypeError):
        Network([(1.5, 0)])
    assert Network([[1, 0]]).cells == {(1, 0)}


def test_boolean_coordinates_rejected():
    with pytest.raises(TypeError, match="^a cell coordinate must be an integer, not True$"):
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


def test_neighbors_sorted_deterministically():
    net = flower_network()
    nbrs = net.neighbors((0, 0))
    assert list(nbrs) == sorted(nbrs)


def test_color_anchors():
    assert color_of((0, 0)) is Color.R
    assert color_of((1, 0)) is Color.G
    assert color_of((1, -1)) is Color.B


def test_color_cyclic_order():
    assert Color.R.successor is Color.G
    assert Color.G.successor is Color.B
    assert Color.B.successor is Color.R
    for c in Color:
        assert c.successor.predecessor is c


@given(cells_st)
def test_coloring_proper_on_all_neighbors(cell):
    q, r = cell
    for dq, dr in AXIAL_DIRECTIONS:
        assert color_of((q, r)) is not color_of((q + dq, r + dr))


def test_triangle_detected():
    assert not is_triangle_free(Network([(0, 0), (1, 0), (0, 1)]))
    assert is_triangle_free(Network([(0, 0), (1, 0)]))


def test_honeycomb_subset_triangle_free():
    # alternating-gap honeycomb patch: brute-force pairwise check agrees
    cells = [c for c in hex_patch(2).sorted_cells() if (c[0] - c[1]) % 3 != 0]
    net = Network(cells)
    brute = all(
        not (set(net.neighbors(u)) & set(net.neighbors(v))) for u, v in net.edges()
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


def test_from_edges_rejects_bad_edges():
    with pytest.raises(ValueError, match="bad edge"):
        Network.from_edges(range(3), [(0, 1), (2, 2)])
    with pytest.raises(ValueError, match="bad edge"):
        Network.from_edges(range(3), [(0, 1), (1, 7)])


def test_from_edges_equality_compares_adjacency():
    path = Network.from_edges(range(3), [(0, 1), (1, 2)])
    assert path == Network.from_edges(range(3), [(2, 1), (1, 0)])
    assert path != Network.from_edges(range(3), [(0, 1), (0, 2)])
    assert path.edges() == [(0, 1), (1, 2)]


def test_neighbors_are_the_networks_own_cells():
    cells = hex_patch(3).sorted_cells()
    for net in (
        Network([(q, r) for q, r in cells]),
        Network.from_edges([(q, r) for q, r in cells], [((0, 0), (q, r)) for q, r in cells[:5]]),
    ):
        own = {c: c for c in net.cells}
        for c in net.cells:
            assert net.own_cell((c[0], c[1])) is c
            assert all(n is own[n] for n in net.neighbors(c))
    assert Network(cells).own_cell((99, 99)) is None
