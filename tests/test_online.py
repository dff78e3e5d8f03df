import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from cellcall import hexnet, online
from cellcall.adversary import UnknownAdversaryError, make_adversary
from cellcall.harness import ScenarioConfig, run_experiment
from cellcall.hexnet import Network, color_of, flower_network, hex_patch
from cellcall.online import (
    Caco2Algorithm,
    GreedyAlgorithm,
    NotTriangleFreeError,
    PartitionReserveAlgorithm,
    RunTrace,
    UnknownAlgorithmError,
    UnknownRequestCellError,
    caco_algorithm,
    feed_requests,
    make_algorithm,
    run_sequence,
)
from cellcall.spectrum import AssignmentState
from conftest import random_network, random_requests
from oracles import overflow_order_violations, recorded_run, run_state

STAR = Network([(0, 0), (-1, 1), (0, -1), (1, 0)])  # R center, G outer


def accepted_freqs(log):
    return [f for _, f in log if f is not None]


def outcomes(log):
    return [f is not None for _, f in log]


# greedy

def test_greedy_accepts_minimum():
    net = Network([(0, 0)])
    _, log = recorded_run(GreedyAlgorithm(net, 7), [(0, 0)])
    assert accepted_freqs(log) == [1]


def test_greedy_rejects_when_spectrum_blocked():
    net = Network([(0, 0), (1, 0)])
    seq = [(0, 0)] * 2 + [(1, 0)] * 2
    _, log = recorded_run(GreedyAlgorithm(net, 3), seq + [(1, 0)])
    # first cell takes 1,2; neighbor takes 3 then has nothing left
    assert accepted_freqs(log) == [1, 2, 3]
    assert outcomes(log) == [True, True, True, False, False]


def test_greedy_skips_neighbor_frequencies():
    net = Network([(0, 0), (1, 0)])
    _, log = recorded_run(GreedyAlgorithm(net, 7), [(0, 0), (0, 0), (1, 0)])
    assert accepted_freqs(log) == [1, 2, 3]


def test_greedy_rejections_are_forced():
    # replay: every rejection happened with zero available frequencies
    rng = random.Random(5)
    net = random_network(rng, max_cells=7)
    omega = 5
    seq = random_requests(rng, net, 80)
    _, log = recorded_run(GreedyAlgorithm(net, omega), seq)
    replay = AssignmentState(net, omega)
    for cell, f in log:
        if f is not None:
            replay.assign(cell, f)
        else:
            assert replay.first_available(cell, range(1, omega + 1)) is None


@pytest.mark.parametrize("name", sorted(online._ALGORITHMS))
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), multiple=st.integers(1, 4), x=st.integers(1, 3), y=st.integers(0, 2))
def test_decide_commits_what_the_two_check_path_assigns(name, seed, multiple, x, y):
    # replay each request as a scan through `first_available` and then a
    # separately checked `assign`: the same outcome and the same final sets
    rng = random.Random(seed)
    net = random_network(rng, triangle_free=name == "caco2")
    args = (x, y) if name == "partition" else ()
    omega = multiple * {"greedy": 1, "caco": 7, "caco2": 3, "partition": 3 * x + y}[name]
    algorithm = online._ALGORITHMS[name](net, omega, *args)
    trace, log = recorded_run(algorithm, random_requests(rng, net, rng.randint(0, 4 * omega)))
    replay = AssignmentState(net, omega)
    for cell, taken in log:
        found = (replay.first_available(cell, freqs) for freqs in algorithm.scans[cell])
        f = next((f for f in found if f is not None), None)
        assert taken == f
        if f is not None:
            replay.assign(cell, f)
    assert all(replay.used(c) == trace.state.used(c) for c in net.cells)


@pytest.mark.parametrize("name", sorted(online._ALGORITHMS))
def test_recorded_rejects_are_the_rejecting_cells(name):
    # the recorder reads each outcome from outside the run; its rejects are
    # exactly the cells the trace keeps, and the run it drives is `run_sequence`'s
    rng = random.Random(name)
    rejected = 0
    for _ in range(20):
        net = random_network(rng, triangle_free=name == "caco2")
        args = (1, 1) if name == "partition" else ()
        omega = {"greedy": 3, "caco": 7, "caco2": 3, "partition": 4}[name]
        seq = random_requests(rng, net, rng.randint(0, 8 * omega))
        algorithm = online._ALGORITHMS[name](net, omega, *args)
        trace, log = recorded_run(algorithm, seq)
        assert {cell for cell, f in log if f is None} == trace.rejecting
        # the view rests on R_i - A_i being the count of rejects at cell i
        rejects = Counter(cell for cell, f in log if f is None)
        assert all(trace.demands[c] - trace.state.count(c) == rejects[c] for c in net.cells)
        assert run_state(trace) == run_state(run_sequence(algorithm, seq))
        rejected += bool(trace.rejecting)
    assert rejected > 0


# caco / partition family

def test_caco_single_cell_nine_then_reject():
    net = Network([(0, 0)])
    _, log = recorded_run(caco_algorithm(net, 21), [(0, 0)] * 10)
    assert accepted_freqs(log) == [1, 2, 3, 4, 5, 6, 19, 20, 21]
    assert outcomes(log)[-1] is False


def test_caco_green_cell_overflows_to_shared():
    net = STAR
    _, log = recorded_run(caco_algorithm(net, 21), [(1, 0)] * 7)
    assert accepted_freqs(log) == [7, 8, 9, 10, 11, 12, 19]


def test_caco_rejects_when_shared_taken_by_neighbor():
    net = STAR
    seq = [(0, 0)] * 21 + [(1, 0)] * 7
    trace, log = recorded_run(caco_algorithm(net, 21), seq)
    # center used its 6 own + all 3 shared; outer gets its 6 own then rejects
    assert trace.state.count((1, 0)) == 6
    assert outcomes(log)[-1] is False


def test_partition_2_1_identical_to_caco():
    rng = random.Random(7)
    net = random_network(rng, max_cells=8)
    seq = random_requests(rng, net, 100)
    _, log1 = recorded_run(caco_algorithm(net, 21), seq)
    _, log2 = recorded_run(PartitionReserveAlgorithm(net, 21, 2, 1), seq)
    assert log1 == log2


def test_partition_1_1_single_cell():
    net = Network([(0, 0)])
    _, log = recorded_run(PartitionReserveAlgorithm(net, 4, 1, 1), [(0, 0)] * 4)
    assert sum(outcomes(log)) == 2  # one own + one shared


def test_partition_3_1_single_cell():
    net = Network([(0, 0)])
    _, log = recorded_run(PartitionReserveAlgorithm(net, 10, 3, 1), [(0, 0)] * 10)
    assert sum(outcomes(log)) == 4


@pytest.mark.parametrize("x, y", [(2, 1), (1, 1), (3, 1), (1, 2)])
def test_partition_own_range_matches_counter(x, y):
    # the paper's rule: the own-color range is taken iff the cell's count in it
    # is below the range's size, which the scan matches on a proper coloring
    rng = random.Random(x * 10 + y)
    omega = 2 * (3 * x + y)
    took_own = set()
    for _ in range(20):
        net = random_network(rng)
        trace, log = recorded_run(PartitionReserveAlgorithm(net, omega, x, y), random_requests(rng, net, 60))
        replay = AssignmentState(net, omega)
        for cell, f in log:
            own = trace.algorithm.partition.ranges[color_of(cell)]
            took = f is not None and f in own
            assert took == (replay.count_in(cell, own) < len(own))
            took_own.add(took)
            if f is not None:
                replay.assign(cell, f)
    assert took_own == {True, False}


# caco2

def test_caco2_requires_triangle_free():
    with pytest.raises(NotTriangleFreeError, match="^caco2 requires a triangle-free hex network$"):
        Caco2Algorithm(hex_patch(1), 9)


def test_triangle_free_hex_is_checked_once_per_network(monkeypatch):
    checked = []
    real = hexnet.is_triangle_free
    monkeypatch.setattr(hexnet, "is_triangle_free", lambda net: checked.append(net) or real(net))
    pair = Network([(0, 0), (1, 0)])
    Caco2Algorithm(pair, 9)
    Caco2Algorithm(pair, 9)
    assert checked == [pair]
    # two equal flowers are two networks, each checked once
    for _ in range(2):
        with pytest.raises(NotTriangleFreeError):
            Caco2Algorithm(flower_network(), 9)
    assert len(checked) == 3


def test_caco2_builds_no_second_network(monkeypatch):
    # `Network(cells)` has hex adjacency by construction: nothing to compare
    net = Network(STAR.cells)
    built = []
    real = Network.__init__
    monkeypatch.setattr(Network, "__init__", lambda self, cells: built.append(cells) or real(self, cells))
    assert Caco2Algorithm(net, 9).network is net
    assert built == []


def test_caco2_isolated_cell_uses_whole_spectrum():
    net = Network([(0, 0)])
    _, log = recorded_run(Caco2Algorithm(net, 9), [(0, 0)] * 10)
    assert accepted_freqs(log) == list(range(1, 10))
    assert outcomes(log)[-1] is False


def test_caco2_structure_a_overflow_ascending():
    # R center, three G neighbors: overflow goes to F_B bottom-to-top
    _, log = recorded_run(Caco2Algorithm(STAR, 9), [(0, 0)] * 7)
    assert accepted_freqs(log) == [1, 2, 3, 7, 8, 9]


def test_caco2_structure_b_overflow_descending():
    net = Network([(0, 0), (1, 0), (-1, 0)])  # R center, G and B neighbors
    _, log = recorded_run(Caco2Algorithm(net, 9), [(0, 0)] * 7)
    assert accepted_freqs(log) == [1, 2, 3, 6, 5, 4]
    assert outcomes(log)[-1] is False


def test_caco2_single_neighbor_acts_like_structure_b():
    net = Network([(0, 0), (1, 0)])  # G cell with single R neighbor
    trace, log = recorded_run(Caco2Algorithm(net, 9), [(1, 0)] * 7)
    # G's own range then F_B top-to-bottom
    assert accepted_freqs(log) == [4, 5, 6, 9, 8, 7]
    assert (1, 0) in trace.algorithm.flagged_cells


def test_overflow_order_violations_reports_interleaving():
    net = Network([(0, 0), (1, 0)])  # R and G: both may overflow into F_B = 7..9
    trace = run_sequence(Caco2Algorithm(net, 9), [])
    for cell, f in (((0, 0), 7), ((1, 0), 8), ((0, 0), 9)):
        trace.state.assign(cell, f)
    assert overflow_order_violations(trace) == [((0, 0), (1, 0), 2)]


def test_overflow_order_violations_empty_without_partition():
    net = Network([(0, 0), (1, 0)])
    trace = run_sequence(GreedyAlgorithm(net, 9), [(0, 0), (1, 0), (0, 0)] * 3)
    assert trace.algorithm.partition is None and trace.total_accepted() == 9
    assert overflow_order_violations(trace) == []


def test_caco2_opposite_end_consumption():
    rng = random.Random(11)
    for _ in range(30):
        net = random_network(rng, max_cells=9, triangle_free=True)
        seq = random_requests(rng, net, rng.randint(0, 60))
        trace = run_sequence(Caco2Algorithm(net, 9), seq)
        assert overflow_order_violations(trace) == []


# run_sequence plumbing

def test_empty_sequence_all_zero():
    net = flower_network()
    trace = run_sequence(caco_algorithm(net, 21), [])
    assert (trace.network, trace.omega) == (net, 21)  # the algorithm's own instance
    assert trace.total_accepted() == 0
    assert not trace.demands


def test_fig2_center_phase_accepts_three_sevenths():
    trace = run_sequence(caco_algorithm(STAR, 21), [(0, 0)] * 21)
    assert trace.state.count((0, 0)) == 9  # = 3*omega/7


def test_fig2_full_run_total():
    seq = [(0, 0)] * 21 + [c for c in [(-1, 1), (0, -1), (1, 0)] for _ in range(21)]
    trace = run_sequence(caco_algorithm(STAR, 21), seq)
    assert trace.total_accepted() == 27


def test_unknown_request_cell_reports_index():
    net = Network([(0, 0)])
    with pytest.raises(UnknownRequestCellError) as err:
        run_sequence(GreedyAlgorithm(net, 7), [(0, 0), (3, 3)])
    assert err.value.index == 1


def test_unknown_request_cell_index_counts_earlier_batches():
    net = Network([(0, 0)])
    alg = GreedyAlgorithm(net, 7)
    trace = run_sequence(alg, [(0, 0), (0, 0)])
    with pytest.raises(UnknownRequestCellError) as err:
        feed_requests(alg, trace, [[0, 0], [3, 3]])
    assert (err.value.index, err.value.cell) == (3, (3, 3))
    assert sum(trace.demands.values()) == 3


@pytest.mark.parametrize("pair", [(0.9, 0.2), ("1", "0")])
def test_request_must_be_integer_pair(pair):
    net = Network([(0, 0), (1, 0)])
    with pytest.raises(TypeError):
        run_sequence(GreedyAlgorithm(net, 7), [pair])


def test_boolean_request_rejected():
    net = Network([(0, 0), (1, 0)])
    with pytest.raises(TypeError, match=r"^request 0 is not a pair of integers: \(True, False\)$"):
        run_sequence(GreedyAlgorithm(net, 3), [(True, False)])


@pytest.mark.parametrize(
    "bad, shown",
    [((0, 0, 1), r"\(0, 0, 1\)"), ((0,), r"\(0,\)"), ("ab", "'ab'"), ((1.0, 0.0), r"\(1\.0, 0\.0\)")],
    ids=["triple", "single", "string", "float_pair"],
)
def test_malformed_request_is_named_by_its_index(bad, shown):
    net = Network([(0, 0), (1, 0)])
    with pytest.raises(TypeError, match=rf"^request 1 is not a pair of integers: {shown}$"):
        run_sequence(GreedyAlgorithm(net, 3), [(0, 0), bad])


@pytest.mark.parametrize("as_lists", [False, True])
def test_trace_keeps_no_object_per_request(as_lists):
    net = hex_patch(4)
    own = {c: c for c in net.cells}
    rng = random.Random(4)
    # fresh objects equal to the network's cells, as a scenario file yields them
    requests = [
        [q, r] if as_lists else (q, r) for q, r in rng.choices(net.sorted_cells(), k=20_000)
    ]
    alg = caco_algorithm(net, 21)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = run_sequence(alg, requests)
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert growth < 32 * len(requests), growth / len(requests)
    assert sum(trace.demands.values()) == len(requests)
    # the trace keys its counts by the network's own cells, not the request objects
    assert all(cell is own[cell] for cell in trace.demands)
    assert trace.rejecting and all(cell is own[cell] for cell in trace.rejecting)
    assert trace.total_accepted() > 21


def test_run_memory_does_not_grow_with_the_request_count():
    # a run keeps its final state, not its history: the tracemalloc peak of
    # a run of 40,000 random requests is that of one of 10,000, within 4 KiB,
    # where two list slots per request would add 480 KB
    def peak(length):
        config = ScenarioConfig("flat", 21, (), "caco", f"random:1:{length}")
        tracemalloc.start()
        try:
            report = run_experiment(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.total_demand == length
        return peak

    peak(100)  # fills the caches that every run shares
    small, large = peak(10_000), peak(40_000)
    assert large - small < 4096, (small, large)


def test_determinism():
    rng = random.Random(3)
    net = random_network(rng, max_cells=8, triangle_free=True)
    seq = random_requests(rng, net, 60)
    for selector in ("greedy", "caco2"):
        a, log_a = recorded_run(make_algorithm(selector, net, 9), seq)
        b, log_b = recorded_run(make_algorithm(selector, net, 9), seq)
        assert log_a == log_b and run_state(a) == run_state(b)


def test_traces_share_no_mutable_object():
    # a record default such as `demands: Counter = Counter()` would be one Counter for
    # every trace; each run and each `RunTrace` gets its own
    alg = caco_algorithm(STAR, 21)
    first = run_sequence(alg, [(0, 0)] * 10)
    second = run_sequence(alg, [(0, 0)] * 10)
    assert run_state(second) == run_state(first)
    assert second.demands == first.demands == {(0, 0): 10}
    assert second.rejecting == first.rejecting == {(0, 0)}
    for a, b in ((first, second), (RunTrace(alg), RunTrace(alg))):
        for name in ("demands", "state"):
            assert getattr(a, name) is not getattr(b, name), name
    fresh = RunTrace(alg)
    assert fresh.rejecting == set() and not fresh.demands
    assert fresh.state.count((0, 0)) == 0


def test_make_algorithm_selectors():
    net = Network([(0, 0)])
    assert make_algorithm("greedy", net, 7).name == "greedy"
    assert make_algorithm("caco", net, 21).name == "caco"
    assert make_algorithm("partition:3:1", net, 10).name == "partition:3:1"
    assert make_algorithm("caco2", net, 9).name == "caco2"
    with pytest.raises(UnknownAlgorithmError):
        make_algorithm("magic", net, 7)
    with pytest.raises(UnknownAlgorithmError):
        make_algorithm("partition:a:b", net, 7)


@pytest.mark.parametrize("selector, good", [("greedy", 7), ("caco", 7), ("caco2", 9), ("partition:1:1", 4)])
def test_make_algorithm_refuses_an_invalid_omega(selector, good):
    # refused when the algorithm is built, not when a run first assigns; a
    # build at the same omega as an int first must not let the float through
    net = Network([(0, 0)])
    assert make_algorithm(selector, net, good).omega == good
    for bad, error, message in [
        (True, TypeError, "omega must be an integer, not True"),
        (0, ValueError, "omega must be positive, got 0"),
        (float(good), TypeError, f"omega must be an integer, not {float(good)}"),
    ]:
        with pytest.raises(error) as info:
            make_algorithm(selector, net, bad)
        assert str(info.value) == message


def _algorithm(selector):
    return make_algorithm(selector, Network([(0, 0)]), 21)


def _adversary(selector):
    return make_adversary(selector, 7)


@pytest.mark.parametrize(
    "factory, error, selector, prefix",
    [
        (_algorithm, UnknownAlgorithmError, "magic", "unknown algorithm"),
        (_algorithm, UnknownAlgorithmError, "", "unknown algorithm"),
        (_algorithm, UnknownAlgorithmError, "greedy:1", "unknown algorithm"),
        (_algorithm, UnknownAlgorithmError, "partition", "unknown algorithm"),
        (_algorithm, UnknownAlgorithmError, "partition:1", "bad partition"),
        (_algorithm, UnknownAlgorithmError, "partition:", "bad partition"),
        (_algorithm, UnknownAlgorithmError, "partition:a:b", "bad partition"),
        (_algorithm, UnknownAlgorithmError, "partition:1:2:3", "bad partition"),
        (_adversary, UnknownAdversaryError, "fig9", "unknown adversary"),
        (_adversary, UnknownAdversaryError, "fig2:1", "unknown adversary"),
        (_adversary, UnknownAdversaryError, "random", "unknown adversary"),
        (_adversary, UnknownAdversaryError, "random:", "bad random"),
        (_adversary, UnknownAdversaryError, "random:x:y", "bad random"),
        (_adversary, UnknownAdversaryError, "random:1:2:3", "bad random"),
        pytest.param(
            _adversary, UnknownAdversaryError, "random:1:" + "9" * 5000, "bad random", id="digits"
        ),
        # integer arguments that int() would coerce
        (_adversary, UnknownAdversaryError, "random:+3:\u0662\u0660", "bad random"),
        (_adversary, UnknownAdversaryError, "random: 3:20", "bad random"),
        (_adversary, UnknownAdversaryError, "random:3:20\n", "bad random"),
        (_adversary, UnknownAdversaryError, "random:1_000:5", "bad random"),
        (_algorithm, UnknownAlgorithmError, "partition: 2:1", "bad partition"),
        (_algorithm, UnknownAlgorithmError, "partition:2:+1", "bad partition"),
    ],
)
def test_bad_selector_is_named(factory, error, selector, prefix):
    with pytest.raises(error) as info:
        factory(selector)
    assert str(info.value) == f"{prefix} selector {selector!r}"


def test_trace_demand_counters():
    net = STAR
    seq = [(0, 0)] * 3 + [(1, 0)] * 2
    trace = run_sequence(caco_algorithm(net, 21), seq)
    assert trace.demands[(0, 0)] == 3
    assert trace.demands[(1, 0)] == 2
    for cell in net.sorted_cells():
        assert trace.demands.get(cell, 0) >= trace.state.count(cell)
