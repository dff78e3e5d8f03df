import pytest
from hypothesis import given, settings, strategies as st

from cellcall.hexnet import Color, Network, flower_network
from cellcall.spectrum import (
    AssignmentState,
    FrequencyConflictError,
    PartitionError,
    make_partition_family,
)


def test_caco_partition_omega_21():
    p = make_partition_family(21, 2, 1)
    assert list(p.ranges[Color.R]) == list(range(1, 7))
    assert list(p.ranges[Color.G]) == list(range(7, 13))
    assert list(p.ranges[Color.B]) == list(range(13, 19))
    assert list(p.shared) == [19, 20, 21]


def test_caco_partition_smallest():
    p = make_partition_family(7, 2, 1)
    assert list(p.ranges[Color.R]) == [1, 2]
    assert list(p.shared) == [7]


def test_caco_partition_divisibility():
    with pytest.raises(PartitionError):
        make_partition_family(10, 2, 1)


def test_caco2_partition_omega_9():
    p = make_partition_family(9, 1, 0)
    assert list(p.ranges[Color.R]) == [1, 2, 3]
    assert list(p.ranges[Color.G]) == [4, 5, 6]
    assert list(p.ranges[Color.B]) == [7, 8, 9]
    assert p.shared is None


def test_caco2_partition_singletons():
    p = make_partition_family(3, 1, 0)
    assert [len(p.ranges[c]) for c in Color] == [1, 1, 1]


def test_caco2_partition_divisibility():
    with pytest.raises(PartitionError):
        make_partition_family(8, 1, 0)


def test_partition_ratio_exact_up_to_10000():
    for omega in range(7, 10001, 7):
        p = make_partition_family(omega, 2, 1)
        sizes = [len(p.ranges[c]) for c in Color] + [len(p.shared)]
        assert sizes == [2 * omega // 7] * 3 + [omega // 7]
        # disjoint cover of {1..omega}
        assert sum(sizes) == omega


def test_partition_ranges_disjoint_cover():
    p = make_partition_family(30, 3, 1)
    seen = set()
    for rng in [*p.ranges.values(), p.shared]:
        assert not (seen & set(rng))
        seen |= set(rng)
    assert seen == set(range(1, 31))


def test_is_available_empty_state():
    net = flower_network()
    state = AssignmentState(net, 7)
    assert all(state.is_available((0, 0), f) for f in range(1, 8))


def test_is_available_blocked_by_self_and_neighbor():
    net = flower_network()
    state = AssignmentState(net, 7)
    state.assign((0, 0), 3)
    assert not state.is_available((0, 0), 3)
    assert not state.is_available((1, 0), 3)  # neighbor interference
    assert state.is_available((1, 0), 4)


def test_first_available_ascending():
    net = flower_network()
    state = AssignmentState(net, 21)
    assert state.first_available((0, 0), range(1, 7)) == 1


def test_first_available_skips_neighbor_usage():
    net = flower_network()
    state = AssignmentState(net, 21)
    state.assign((1, 0), 7)
    state.assign((1, 0), 8)
    assert state.first_available((0, 0), range(7, 13)) == 9


def test_first_available_descending():
    net = flower_network()
    state = AssignmentState(net, 6)
    assert state.first_available((0, 0), range(4, 7)[::-1]) == 6


def test_first_available_none_when_exhausted():
    net = Network([(0, 0)])
    state = AssignmentState(net, 3)
    for f in (1, 2, 3):
        state.assign((0, 0), f)
    assert state.first_available((0, 0), range(1, 4)) is None


def test_assign_counts():
    net = flower_network()
    state = AssignmentState(net, 7)
    state.assign((0, 0), 1)
    assert state.count((0, 0)) == 1
    assert state.count_in((0, 0), range(1, 3)) == 1
    assert state.count_in((0, 0), range(3, 8)) == 0


def test_assign_twice_same_cell_rejected():
    state = AssignmentState(Network([(0, 0)]), 7)
    state.assign((0, 0), 1)
    with pytest.raises(FrequencyConflictError):
        state.assign((0, 0), 1)


def test_assign_in_neighbor_rejected():
    state = AssignmentState(flower_network(), 7)
    state.assign((0, 0), 5)
    with pytest.raises(FrequencyConflictError):
        state.assign((1, 0), 5)


@settings(max_examples=60)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(1, 9)), max_size=40))
def test_interference_invariant_after_any_assign_sequence(ops):
    net = flower_network()
    cells = net.sorted_cells()
    state = AssignmentState(net, 9)
    for cell_idx, freq in ops:
        cell = cells[cell_idx]
        if state.is_available(cell, freq):
            state.assign(cell, freq)
        else:
            with pytest.raises(FrequencyConflictError):
                state.assign(cell, freq)
    assert state.interference_free()


@settings(max_examples=60)
@given(
    st.lists(st.tuples(st.integers(0, 6), st.integers(1, 9)), max_size=30),
    st.integers(1, 9),
    st.integers(1, 9),
)
def test_first_available_matches_exhaustive_scan(ops, lo, hi):
    net = flower_network()
    cells = net.sorted_cells()
    state = AssignmentState(net, 9)
    for cell_idx, freq in ops:
        cell = cells[cell_idx]
        if state.is_available(cell, freq):
            state.assign(cell, freq)
    lo, hi = min(lo, hi), max(lo, hi)
    rng = range(lo, hi + 1)
    for cell in cells:
        avail = [f for f in rng if state.is_available(cell, f)]
        assert state.first_available(cell, rng) == (min(avail) if avail else None)
        assert state.first_available(cell, rng[::-1]) == (
            max(avail) if avail else None
        )
