import pytest
from hypothesis import given, settings, strategies as st

from cellcall.hexnet import Network, UnknownCellError, flower_network
from cellcall.spectrum import (
    AssignmentState,
    FrequencyConflictError,
    PartitionError,
    make_partition_family,
)


def test_caco_partition_omega_21():
    p = make_partition_family(21, 2, 1)
    assert list(p.ranges[0]) == list(range(1, 7))
    assert list(p.ranges[1]) == list(range(7, 13))
    assert list(p.ranges[2]) == list(range(13, 19))
    assert list(p.shared) == [19, 20, 21]


def test_caco_partition_smallest():
    p = make_partition_family(7, 2, 1)
    assert list(p.ranges[0]) == [1, 2]
    assert list(p.shared) == [7]


@pytest.mark.parametrize(
    "args, message",
    [
        ((7.0, 2, 1), "omega must be an integer, not 7.0"),
        ((3, True, 0), "x_share must be an integer, not True"),
        ((7, 2, 1.0), "y_share must be an integer, not 1.0"),
    ],
    ids=["float-omega", "bool-share", "float-share"],
)
def test_partition_refuses_a_non_integer_argument(args, message):
    # a call at omega 7 first: no partition built at an int omega is handed to 7.0
    make_partition_family(7, 2, 1)
    with pytest.raises(TypeError, match=rf"^{message}$"):
        make_partition_family(*args)


def test_caco_partition_divisibility():
    with pytest.raises(PartitionError):
        make_partition_family(10, 2, 1)


def test_caco2_partition_omega_9():
    p = make_partition_family(9, 1, 0)
    assert list(p.ranges[0]) == [1, 2, 3]
    assert list(p.ranges[1]) == [4, 5, 6]
    assert list(p.ranges[2]) == [7, 8, 9]
    assert p.shared is None


def test_caco2_partition_singletons():
    p = make_partition_family(3, 1, 0)
    assert [len(rng) for rng in p.ranges] == [1, 1, 1]


def test_caco2_partition_divisibility():
    with pytest.raises(PartitionError):
        make_partition_family(8, 1, 0)


def test_partition_ratio_exact_up_to_10000():
    for omega in range(7, 10001, 7):
        p = make_partition_family(omega, 2, 1)
        sizes = [len(rng) for rng in p.ranges] + [len(p.shared)]
        assert sizes == [2 * omega // 7] * 3 + [omega // 7]
        # disjoint cover of {1..omega}
        assert sum(sizes) == omega


def test_partition_ranges_disjoint_cover():
    p = make_partition_family(30, 3, 1)
    seen = set()
    for rng in [*p.ranges, p.shared]:
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


def test_take_first_assigns_the_first_available_of_the_ranges():
    state = AssignmentState(flower_network(), 9)
    state.assign((1, 0), 4)
    # the first range is exhausted, so the second is scanned in its own (descending) order
    assert state.take_first((0, 0), (range(4, 5), range(7, 10)[::-1])) == 9
    assert state.used((0, 0)) == {9}
    assert state.take_first((0, 0), (range(9, 10),)) is None
    assert state.used((0, 0)) == {9}


def test_take_first_never_assigns_past_omega():
    # a scan that reaches past omega or below 1 takes only frequencies in 1..omega
    state = AssignmentState(Network([(0, 0)]), 3)
    taken = [state.take_first((0, 0), (range(-2, 7), range(10, 0, -1))) for _ in range(5)]
    assert taken == [1, 2, 3, None, None]
    assert state.used((0, 0)) == {1, 2, 3} and state.interference_free()


@pytest.mark.parametrize("freq", [True, 2.0, "2"], ids=["bool", "float", "str"])
def test_assign_refuses_a_non_integer_frequency(freq):
    state = AssignmentState(Network([(0, 0)]), 7)
    with pytest.raises(TypeError, match=rf"^a frequency must be an integer, not {freq!r}$"):
        state.assign((0, 0), freq)
    assert state.count((0, 0)) == 0


# the state and the partition keep omega under the one rule, `hexnet.as_omega`
OMEGA_KEEPERS = (
    lambda omega: AssignmentState(Network([(0, 0)]), omega),
    lambda omega: make_partition_family(omega, 1, 0),
)


@pytest.mark.parametrize("omega", [True, 7.0, "7"], ids=["bool", "float", "str"])
def test_state_refuses_a_non_integer_omega(omega):
    for build in OMEGA_KEEPERS:
        with pytest.raises(TypeError, match=rf"^omega must be an integer, not {omega!r}$"):
            build(omega)


@pytest.mark.parametrize("omega", [0, -1, -4])
def test_state_refuses_a_nonpositive_omega(omega):
    # at 0 the partition raises the rule's ValueError, not a PartitionError
    for build in OMEGA_KEEPERS:
        with pytest.raises(ValueError, match=rf"^omega must be positive, got {omega}$"):
            build(omega)


@pytest.mark.parametrize(
    "call",
    [
        lambda s, c: s.assign(c, 1),
        lambda s, c: s.take_first(c, (range(1, 8),)),
        lambda s, c: s.first_available(c, range(1, 8)),
        lambda s, c: s.count(c),
        lambda s, c: s.count_in(c, range(1, 8)),
        lambda s, c: s.used(c),
        lambda s, c: s.is_available(c, 1),
    ],
    ids=["assign", "take_first", "first_available", "count", "count_in", "used", "is_available"],
)
def test_cell_outside_the_network_is_named(call):
    state = AssignmentState(flower_network(), 7)
    with pytest.raises(UnknownCellError, match=r"cell \(5, 5\) is not in the network"):
        call(state, (5, 5))
    assert all(state.count(c) == 0 for c in state.network.cells)


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


@pytest.mark.parametrize("freq", [0, 8])
def test_assign_outside_spectrum_rejected(freq):
    state = AssignmentState(Network([(0, 0)]), 7)
    with pytest.raises(FrequencyConflictError):
        state.assign((0, 0), freq)
    assert state.count((0, 0)) == 0


@pytest.mark.parametrize(
    "used", [{(0, 0): {5}, (1, 0): {5}}, {(0, 0): {0}}, {(1, 0): {8}}], ids=["shared", "zero", "omega+1"]
)
def test_interference_free_detects_corruption(used):
    # written past `assign`, the only mutator, so only the full rescan can see it
    state = AssignmentState(Network([(0, 0), (1, 0)]), 7)
    assert state.interference_free()
    for cell, freqs in used.items():
        state._used[cell] |= freqs
    assert not state.interference_free()


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
