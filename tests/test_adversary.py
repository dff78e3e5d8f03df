import hashlib
import json
import random
from fractions import Fraction

import pytest

from cellcall.adversary import (
    STAR_CENTER,
    STAR_OUTER,
    AdversaryScenario,
    UnknownAdversaryError,
    fig2_adversary,
    fig3_adversary,
    make_adversary,
    phase_ratios,
    random_adversary,
    random_sequence,
    run_duel,
    star_network,
)
from cellcall.hexnet import Network, color_of, flower_network, hex_patch, is_triangle_free
from cellcall.offline import exact_optimum
from cellcall.online import make_algorithm, run_sequence
from oracles import run_state


def duel(adversary, selector):
    trace = run_duel(adversary, make_algorithm(selector, adversary.network, adversary.omega))
    opt = exact_optimum(trace.network, trace.omega, dict(trace.demands))
    return trace, opt


def test_star_topology_is_the_figures():
    net = star_network()
    assert is_triangle_free(net)
    assert set(net.neighbors(STAR_CENTER)) == set(STAR_OUTER)
    colors = {color_of(c) for c in STAR_OUTER}
    assert len(colors) == 1  # one color class, pairwise non-adjacent
    for i, u in enumerate(STAR_OUTER):
        for v in STAR_OUTER[i + 1 :]:
            assert v not in net.neighbors(u)


def test_fig2_vs_caco_hits_7_3():
    trace, opt = duel(fig2_adversary(21), "caco")
    assert trace.total_accepted() == 27
    assert opt.total == 63
    assert Fraction(opt.total, trace.total_accepted()) == Fraction(7, 3)


def test_fig2_vs_partition_1_1():
    trace, opt = duel(fig2_adversary(4), "partition:1:1")
    assert trace.total_accepted() == 5  # 2 at the center, 1 per outer cell
    assert opt.total == 12
    assert Fraction(opt.total, trace.total_accepted()) == Fraction(12, 5)


def test_fig2_vs_greedy_ratio_3():
    trace, opt = duel(fig2_adversary(21), "greedy")
    assert trace.state.count(STAR_CENTER) == 21
    assert all(trace.state.count(c) == 0 for c in STAR_OUTER)
    assert Fraction(opt.total, trace.total_accepted()) == 3


def test_fig3_vs_caco2():
    trace, opt = duel(fig3_adversary(9), "caco2")
    assert trace.state.count(STAR_CENTER) == 6  # x > 3*omega/5, phase 2 fires
    assert trace.total_accepted() == 15
    assert opt.total == 27
    assert Fraction(opt.total, trace.total_accepted()) == Fraction(9, 5)


def test_fig3_vs_greedy():
    trace, opt = duel(fig3_adversary(9), "greedy")
    assert trace.total_accepted() == 9
    assert Fraction(opt.total, trace.total_accepted()) == 3


def test_fig3_stops_at_threshold_boundary():
    # partition 1:2 at omega=5 accepts exactly 3*omega/5 = 3 at the center
    trace, opt = duel(fig3_adversary(5), "partition:1:2")
    assert trace.state.count(STAR_CENTER) == 3
    assert sum(trace.demands.values()) == 5  # adversary stopped after phase 1
    assert Fraction(opt.total, trace.total_accepted()) == Fraction(5, 3)


def test_fig3_at_least_5_3_for_all_algorithms():
    for omega, selectors in [
        (9, ["greedy", "caco2"]),
        (15, ["greedy", "caco2", "partition:1:2"]),
        (21, ["greedy", "caco", "caco2", "partition:2:1", "partition:1:4"]),
        (45, ["greedy", "caco2", "partition:1:2"]),
    ]:
        for selector in selectors:
            trace, opt = duel(fig3_adversary(omega), selector)
            assert 3 * opt.total >= 5 * trace.total_accepted(), (omega, selector)


def fig2_strength(x, y, omega):
    """max prefix ratio of fig2 against the x:y family member."""
    ratios = phase_ratios(
        fig2_adversary(omega), lambda net, om: make_algorithm(f"partition:{x}:{y}", net, om)
    )
    assert all(r is not None for r in ratios)
    return max(ratios)


@pytest.mark.parametrize(
    "x,y",
    [(1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (1, 2), (1, 3)],
)
def test_fig2_strength_matches_formula(x, y):
    omega = (3 * x + y) * 3
    expected = max(
        Fraction(3 * x + y, x + y), Fraction(3 * (3 * x + y), 4 * x + y)
    )
    assert fig2_strength(x, y, omega) == expected


def test_family_minimum_at_2_1():
    grid = [(1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (1, 2), (1, 3)]
    strengths = {(x, y): fig2_strength(x, y, (3 * x + y) * 3) for x, y in grid}
    best = min(strengths, key=lambda k: (strengths[k], k))
    assert best == (2, 1)
    assert strengths[(2, 1)] == Fraction(7, 3)
    assert sum(1 for v in strengths.values() if v == strengths[best]) == 1


def test_phase_ratios_follow_ratio_report():
    """An empty phase has ratio 1; a phase the algorithm wholly rejects is unbounded (None)."""
    phases = [[], [STAR_CENTER]]
    scenario = AdversaryScenario(
        "edge", star_network(), 3, lambda accepted: iter(phases)
    )

    def reject_all(net, omega):
        alg = make_algorithm("greedy", net, omega)
        alg.scans = dict.fromkeys(net.cells, ())
        return alg

    assert phase_ratios(scenario, reject_all) == [Fraction(1), None]


def test_duel_refuses_an_algorithm_built_for_another_omega_or_network():
    star = "Network([(-1, 1), (0, -1), (0, 0), (1, 0)])"
    with pytest.raises(ValueError) as err:
        run_duel(fig2_adversary(21), make_algorithm("caco", star_network(), 42))
    assert str(err.value) == (
        f"the fig2 adversary plays omega 21 on {star}, but the algorithm runs at omega 42 on {star}"
    )
    with pytest.raises(ValueError) as err:
        run_duel(fig2_adversary(21), make_algorithm("greedy", hex_patch(1), 21))
    assert str(err.value) == (
        f"the fig2 adversary plays omega 21 on {star}, but the algorithm runs at omega 21 on {hex_patch(1)!r}"
    )


@pytest.mark.parametrize(
    "build",
    [
        fig2_adversary,
        fig3_adversary,
        lambda omega: random_adversary(omega, 1, 5),
        lambda omega: make_adversary("random:1:5", omega),
        lambda omega: make_adversary("fig3", omega, star_network()),
        # a duel at omega True against an algorithm at omega 1 does not play
        lambda omega: run_duel(fig2_adversary(omega), make_algorithm("greedy", star_network(), 1)),
    ],
    ids=["fig2", "fig3", "random", "make_adversary", "make_adversary_on_star", "duel"],
)
def test_adversaries_refuse_an_invalid_omega(build):
    # the rule of `hexnet.as_omega`, as every algorithm applies it
    for bad, error, message in [
        (True, TypeError, "omega must be an integer, not True"),
        (7.0, TypeError, "omega must be an integer, not 7.0"),
        (0, ValueError, "omega must be positive, got 0"),
        (-4, ValueError, "omega must be positive, got -4"),
    ]:
        with pytest.raises(error) as info:
            build(bad)
        assert str(info.value) == message


@pytest.mark.parametrize(
    "build",
    [
        lambda seed, length: random_adversary(7, seed, length),
        lambda seed, length: random_sequence(flower_network(), length, seed),
    ],
    ids=["random_adversary", "random_sequence"],
)
def test_random_traffic_refuses_a_bad_seed_or_length(build, monkeypatch):
    # refused before the generator is seeded, where a None seed would read the OS
    monkeypatch.setattr(random, "Random", None)
    for seed, length, error, message in [
        (None, 5, TypeError, "seed must be an integer, not None"),
        (1.5, 5, TypeError, "seed must be an integer, not 1.5"),
        ("x", 5, TypeError, "seed must be an integer, not 'x'"),
        (True, 5, TypeError, "seed must be an integer, not True"),
        (1, True, TypeError, "length must be an integer, not True"),
        (1, 5.0, TypeError, "length must be an integer, not 5.0"),
        (1, -1, ValueError, "length must be between 0 and 1000000, got -1"),
        (1, 1_000_001, ValueError, "length must be between 0 and 1000000, got 1000001"),
    ]:
        with pytest.raises(error) as info:
            build(seed, length)
        assert str(info.value) == message


@pytest.mark.parametrize("selector", ["fig2", "fig3"])
def test_star_floods_run_only_on_their_star(selector):
    star = star_network()
    assert make_adversary(selector, 7, star).network == star
    assert make_adversary(selector, 7, Network(reversed(star.sorted_cells()))).network == star
    for network in (hex_patch(1), Network([STAR_CENTER]), Network(star.cells | {(5, 5)})):
        with pytest.raises(ValueError) as info:
            make_adversary(selector, 7, network)
        assert str(info.value) == (
            f"{selector} runs only on its star, cells [(-1, 1), (0, -1), (0, 0), (1, 0)], "
            f"not on {len(network)} given cells"
        )


def test_adversary_reads_the_live_count_between_phases():
    # three phases at the centre: after each, the adversary resumes only once
    # its batch is fed in full, and reads the count the trace holds
    fed = []
    seen = []

    def batch(size):
        for _ in range(size):
            fed.append(STAR_CENTER)
            yield STAR_CENTER

    def phases(accepted):
        for size in (3, 2, 4):
            before = len(fed)
            yield batch(size)
            seen.append((len(fed) - before, accepted(STAR_CENTER)))

    counts = []
    scenario = AdversaryScenario("three", star_network(), 5, phases)
    trace = run_duel(scenario, make_algorithm("greedy", scenario.network, 5),
                     lambda trace: counts.append(trace.state.count(STAR_CENTER)))
    assert counts == [3, 5, 5] and trace.rejecting == {STAR_CENTER}
    assert seen == [(3, 3), (2, 5), (4, 5)]


def test_random_sequence_empty():
    assert list(random_sequence(flower_network(), 0, 1)) == []


def test_random_sequence_deterministic():
    net = flower_network()
    assert list(random_sequence(net, 50, 9)) == list(random_sequence(net, 50, 9))
    assert list(random_sequence(net, 50, 9)) != list(random_sequence(net, 50, 10))


@pytest.mark.parametrize("cells", [1, 7, 19, 1261])
def test_random_sequence_draws_the_choices_stream(cells):
    # drawn lazily, the stream `random.choices` draws as a list
    net = hex_patch(20) if cells == 1261 else Network(hex_patch(2).sorted_cells()[:cells])
    expected = random.Random(3).choices(net.sorted_cells(), k=20_000)
    assert list(random_sequence(net, 20_000, 3)) == expected


def test_random_sequence_snapshot():
    # pinned on first run; guards the cross-version stability of seeding
    seq = list(random_sequence(flower_network(), 200, 12345))
    digest = hashlib.sha256(json.dumps(seq).encode()).hexdigest()
    assert seq[:5] == [(0, -1), (-1, 0), (1, -1), (0, -1), (0, -1)]
    assert digest == "52baee002ad8e9c4a0280d4ac41761ec7eb4609043e4f5799d4bcfe09dcdefb7"


def test_random_sequence_negative_length():
    with pytest.raises(ValueError):
        random_sequence(flower_network(), -1, 0)


def test_duel_replay_identical():
    scenario = fig3_adversary(9)
    t1 = run_duel(scenario, make_algorithm("caco2", scenario.network, 9))
    t2 = run_duel(scenario, make_algorithm("caco2", scenario.network, 9))
    assert run_state(t1) == run_state(t2) and t1.rejecting


def test_make_adversary_selectors():
    assert make_adversary("fig2", 7).name == "fig2"
    assert make_adversary("fig3", 5).name == "fig3"
    scenario = make_adversary("random:3:20", 7)
    assert scenario.name == "random:3:20"
    assert scenario.network == flower_network()
    with pytest.raises(UnknownAdversaryError):
        make_adversary("fig9", 7)
    with pytest.raises(UnknownAdversaryError):
        make_adversary("random:x:y", 7)


def test_random_adversary_single_batch():
    scenario = random_adversary(7, seed=1, length=10)
    batches = [list(batch) for batch in scenario.phases(lambda cell: 0)]
    assert batches == [list(random_sequence(flower_network(), 10, 1))]


@pytest.mark.parametrize("selector", ["greedy", "caco", "caco2"])
def test_single_batch_duel_matches_run_sequence(selector):
    net = star_network()
    scenario = random_adversary(21, seed=5, length=120, network=net)
    duel_trace = run_duel(scenario, make_algorithm(selector, net, 21))
    (batch,) = scenario.phases(lambda cell: 0)
    seq_trace = run_sequence(make_algorithm(selector, net, 21), batch)
    assert run_state(duel_trace) == run_state(seq_trace)
    assert sum(duel_trace.demands.values()) == 120 and duel_trace.rejecting
    assert bool(duel_trace.algorithm.flagged_cells) == (selector == "caco2")  # outer cells have one neighbor
