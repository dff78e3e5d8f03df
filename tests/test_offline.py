import itertools
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from cellcall import offline
from cellcall.adversary import fig2_adversary, make_adversary, phase_ratios, run_duel
from cellcall.hexnet import ImproperColoringError, Network, hex_patch, proper_coloring
from cellcall.offline import (
    InstanceTooLargeError,
    _adjacency,
    _branch_and_bound,
    _clique_bound,
    _clique_partition,
    _demand_list,
    _independent_sets,
    _maximal_cliques,
    _maximal_independent_sets,
    _serve_every_demand,
    clique_upper_bound,
    cycle_graph,
    exact_optimum,
    exhaustive_oracle,
    validate_witness,
)
from cellcall.online import caco_algorithm, make_algorithm
from conftest import PATCH_CELLS, random_network

ROOT = Path(__file__).resolve().parent.parent

STAR = Network([(0, 0), (-1, 1), (0, -1), (1, 0)])
PATCH = hex_patch(2)


def test_demands_must_be_integers():
    with pytest.raises(TypeError):
        exact_optimum(Network([(0, 0)]), 7, {(0, 0): 2.9})


def test_boolean_demand_rejected():
    net = Network([(0, 0), (1, 0)])
    with pytest.raises(TypeError, match=r"^the demand at cell \(1, 0\) must be an integer, not True$"):
        exact_optimum(net, 3, {(1, 0): True})


def test_negative_demand_rejected_by_exact_optimum():
    net = Network([(0, 0), (1, 0)])
    with pytest.raises(ValueError, match=r"^the demand at cell \(0, 0\) must be nonnegative, not -1$"):
        exact_optimum(net, 3, {(0, 0): -1})
    # checked before the cap at omega and before the early exits
    with pytest.raises(ValueError, match=r"cell \(1, 0\)"):
        exact_optimum(net, 0, {(1, 0): -5})


def test_negative_demand_rejected_by_clique_upper_bound():
    # a bound of 0 against an optimum of 3 if it were let through
    net = Network([(0, 0), (1, 0)])
    with pytest.raises(ValueError, match=r"^the demand at cell \(0, 0\) must be nonnegative, not -3$"):
        clique_upper_bound(net, 3, {(0, 0): -3, (1, 0): 5})


def test_negative_demand_rejected_by_exhaustive_oracle():
    with pytest.raises(ValueError, match=r"^the demand at cell \(1, 0\) must be nonnegative, not -2$"):
        exhaustive_oracle(Network([(0, 0), (1, 0)]), 2, {(0, 0): 1, (1, 0): -2})


def test_two_adjacent_cells_share_one_pool():
    net = Network([(0, 0), (1, 0)])
    opt = exact_optimum(net, 4, {(0, 0): 4, (1, 0): 4})
    assert opt.total == 4


def test_single_cell_capacity_bound():
    net = Network([(0, 0)])
    assert exact_optimum(net, 4, {(0, 0): 10}).total == 4


def test_demand_past_omega_takes_the_fast_path():
    # capped at omega the demand is served in full, so no branch-and-bound runs
    net = Network([(0, 0)])
    no_search = AssertionError("branch-and-bound ran")
    with mock.patch.object(offline, "_maximal_independent_sets", side_effect=no_search):
        opt = exact_optimum(net, 7, {(0, 0): 14})
    assert opt.per_cell == {(0, 0): 7}
    validate_witness(net, 7, {(0, 0): 14}, opt)


def test_fig2_star_optimum():
    demands = {c: 21 for c in STAR.sorted_cells()}
    opt = exact_optimum(STAR, 21, demands)
    assert opt.total == 63
    assert opt.per_cell[(0, 0)] == 0
    assert all(opt.per_cell[c] == 21 for c in STAR.sorted_cells() if c != (0, 0))
    validate_witness(STAR, 21, demands, opt)


def test_five_cycle_needs_exact_solver():
    c5 = cycle_graph(5)
    demands = {i: 2 for i in range(5)}
    assert exact_optimum(c5, 2, demands).total == 4
    assert clique_upper_bound(c5, 2, demands) == 5


def test_search_falls_back_when_the_ceiling_is_loose():
    # the ceiling is 5 and the optimum 4, so the pass aimed at the ceiling
    # finds nothing and the plain search runs
    c5 = cycle_graph(5)
    demands = {i: 2 for i in range(5)}
    floors = []

    def recording(*args):
        floors.append((args[-1], _branch_and_bound(*args)))
        return floors[-1][1]

    with mock.patch.object(offline, "_branch_and_bound", recording):
        opt = exact_optimum(c5, 2, demands)
    assert [(floor, mults is not None) for floor, mults in floors] == [(4, False), (-1, True)]
    assert opt.per_cell == {0: 2, 1: 0, 2: 2, 3: 0, 4: 0}
    validate_witness(c5, 2, demands, opt)


def test_size_limits_enforced():
    net = Network([(q, 0) for q in range(13)])
    with pytest.raises(InstanceTooLargeError):
        exact_optimum(net, 7, {})
    with pytest.raises(InstanceTooLargeError):
        exact_optimum(Network([(q, 0) for q in range(9)]), 65, {})
    with pytest.raises(InstanceTooLargeError):
        exhaustive_oracle(Network([(q, 0) for q in range(5)]), 2, {})
    # up to 8 cells omega is uncapped, for the CLI and the library alike
    path8 = Network([(q, 0) for q in range(8)])
    assert exact_optimum(path8, 65, {c: 65 for c in path8.cells}).total == 4 * 65
    assert phase_ratios(fig2_adversary(84), caco_algorithm) == [Fraction(7, 3), Fraction(7, 3)]


def test_oracle_single_cell():
    assert exhaustive_oracle(Network([(0, 0)]), 4, {(0, 0): 9}).total == 4


def test_oracle_path_of_three():
    net = Network([(0, 0), (1, 0), (2, 0)])
    assert exhaustive_oracle(net, 2, {c: 2 for c in net.cells}).total == 4


def test_oracle_triangle():
    net = Network([(0, 0), (1, 0), (0, 1)])
    assert exhaustive_oracle(net, 3, {c: 3 for c in net.cells}).total == 3


def test_clique_bound_trivial_pair():
    net = Network([(0, 0), (1, 0)])
    assert clique_upper_bound(net, 4, {(0, 0): 4, (1, 0): 4}) == 4


def test_clique_bound_star():
    assert clique_upper_bound(STAR, 21, {c: 21 for c in STAR.cells}) == 63
    assert clique_upper_bound(STAR, 315, {c: 315 for c in STAR.cells}) == 945


def test_exact_matches_oracle_randomized():
    rng = random.Random(42)
    for _ in range(60):
        net = random_network(rng, max_cells=4)
        omega = rng.randint(1, 6)
        demands = {c: rng.randint(0, 8) for c in net.cells}
        a = exact_optimum(net, omega, demands)
        b = exhaustive_oracle(net, omega, demands)
        assert a.total == b.total, (sorted(net.cells), omega, demands)
        validate_witness(net, omega, demands, a)


def test_exact_below_clique_bound_randomized():
    rng = random.Random(43)
    for _ in range(60):
        net = random_network(rng, max_cells=8)
        omega = rng.choice([3, 7, 9])
        demands = {c: rng.randint(0, 2 * omega) for c in net.cells}
        opt = exact_optimum(net, omega, demands)
        assert opt.total <= clique_upper_bound(net, omega, demands)
        validate_witness(net, omega, demands, opt)
        # adjacent-pair law
        for u, v in net.edges():
            assert opt.per_cell[u] + opt.per_cell[v] <= omega


def test_empty_and_zero_demand():
    net = Network([(0, 0), (1, 0)])
    assert exact_optimum(net, 5, {}).total == 0
    assert exact_optimum(net, 5, {(0, 0): 0}).total == 0
    # no frequencies to give: the cap at omega must not turn demands negative
    assert exact_optimum(net, 0, {(0, 0): 2}).per_cell == {(0, 0): 0, (1, 0): 0}
    with pytest.raises(ValueError, match=r"^omega must be nonnegative, not -1$"):
        exact_optimum(net, -1, {(0, 0): 2})


@pytest.mark.parametrize("solver", [exact_optimum, clique_upper_bound, exhaustive_oracle])
def test_every_solver_checks_omega_alike(solver):
    net = Network([(0, 0), (1, 0)])
    demands = {(0, 0): 2}
    with pytest.raises(ValueError, match=r"^omega must be nonnegative, not -1$"):
        solver(net, -1, demands)
    with pytest.raises(TypeError, match=r"^'float' object cannot be interpreted as an integer$"):
        solver(net, 7.0, demands)
    with pytest.raises(TypeError, match=r"^omega must be an integer, not True$"):
        solver(net, True, demands)
    # omega 0 stays valid: nothing is served
    result = solver(net, 0, demands)
    assert (result if solver is clique_upper_bound else result.total) == 0


def test_validate_witness_checks_under_python_optimize():
    # two neighbours sharing frequency 1; `assert` statements would let it pass under -O
    code = (
        "from cellcall.hexnet import Network\n"
        "from cellcall.offline import OptimumWitness, validate_witness\n"
        "one = frozenset({1})\n"
        "witness = OptimumWitness(2, {(0, 0): 1, (1, 0): 1}, {(0, 0): one, (1, 0): one})\n"
        "validate_witness(Network([(0, 0), (1, 0)]), 3, {(0, 0): 1, (1, 0): 1}, witness)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    result = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 1
    assert result.stderr.endswith("AssertionError: cells (0, 0) and (1, 0) share a frequency\n")


def test_unknown_demand_cell_rejected():
    with pytest.raises(ValueError):
        exact_optimum(Network([(0, 0)]), 3, {(9, 9): 1})


def test_witness_trims_to_demand():
    net = Network([(0, 0), (2, 2)])  # disconnected
    opt = exact_optimum(net, 5, {(0, 0): 2, (2, 2): 1})
    assert opt.per_cell == {(0, 0): 2, (2, 2): 1}
    assert len(opt.assignment[(0, 0)]) == 2


K4 = Network.from_edges(range(4), itertools.combinations(range(4), 2))


@st.composite
def instances(draw, max_cells=8, max_omega=21):
    """A random hex subnetwork of at most `max_cells` cells, or the 5-cycle or
    K4, with omega and demands up to twice omega."""
    net = draw(
        st.one_of(
            st.sets(st.sampled_from(PATCH_CELLS), min_size=1, max_size=max_cells).map(Network),
            st.sampled_from([cycle_graph(5), K4]),
        )
    )
    omega = draw(st.integers(1, max_omega))
    demands = {c: draw(st.integers(0, 2 * omega)) for c in net.sorted_cells()}
    return net, omega, demands


@pytest.mark.parametrize("max_cells, max_omega", [(8, 21), (4, 6)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_raising_a_demand_past_omega_changes_nothing(max_cells, max_omega, data):
    net, omega, demands = data.draw(instances(max_cells, max_omega))
    raised = {c: d + data.draw(st.integers(0, omega)) if d >= omega else d for c, d in demands.items()}
    opt, more = exact_optimum(net, omega, demands), exact_optimum(net, omega, raised)
    assert (more.per_cell, more.total) == (opt.per_cell, opt.total)
    bound = clique_upper_bound(net, omega, demands)
    assert clique_upper_bound(net, omega, raised) == bound
    validate_witness(net, omega, raised, more)
    if len(net) <= 4 and omega <= 6:
        assert exhaustive_oracle(net, omega, demands).total == opt.total
        assert exhaustive_oracle(net, omega, raised).total == opt.total
        assert bound >= opt.total


@settings(max_examples=40, deadline=None)
@given(instances(max_cells=7, max_omega=14))
def test_search_aimed_at_the_ceiling_finds_the_plain_search_node(instance):
    net, omega, demands = instance
    cells, r, omega = _demand_list(net, omega, demands)
    r = [min(d, omega) for d in r]
    adj = _adjacency(cells, net)
    members = _maximal_independent_sets(adj)
    cliques = _maximal_cliques(adj)
    parts = _clique_partition(cliques)
    ceiling = _clique_bound(omega, r, cliques)
    aimed = _branch_and_bound(r, members, parts, omega, ceiling, ceiling - 1)
    plain = _branch_and_bound(r, members, parts, omega, ceiling, -1)
    assert aimed is None or aimed == plain


def brute_clique_bound(net, omega, demands):
    """max sum x_i over x_i <= R_i with every maximal clique summing to <= omega,
    by enumeration; maximal cliques found by checking every cell subset."""
    cells = net.sorted_cells()
    adjacent = {(u, v) for u in cells for v in net.neighbors(u)}
    cliques = [
        set(sub)
        for k in range(1, len(cells) + 1)
        for sub in itertools.combinations(cells, k)
        if all((u, v) in adjacent for u, v in itertools.combinations(sub, 2))
    ]
    maximal = [K for K in cliques if not any(K < other for other in cliques)]
    # every cell lies in a maximal clique, so x_i <= omega loses nothing
    ranges = [range(min(demands.get(c, 0), omega) + 1) for c in cells]
    best = 0
    for x in itertools.product(*ranges):
        load = dict(zip(cells, x))
        if all(sum(load[c] for c in K) <= omega for K in maximal):
            best = max(best, sum(x))
    return best


def connected_network(rng, max_cells):
    """A random connected subnetwork of the 19-cell patch: dense enough that
    the bound's search meets the same frontier from several prefixes."""
    cells = {rng.choice(PATCH_CELLS)}
    size = rng.randint(1, max_cells)
    while len(cells) < size:
        cells.add(rng.choice([n for c in sorted(cells) for n in PATCH.neighbors(c) if n not in cells]))
    return Network(cells)


def test_clique_bound_matches_brute_force_randomized():
    rng = random.Random(44)
    for _ in range(120):
        net = connected_network(rng, max_cells=6)
        omega = rng.randint(1, 5)
        demands = {c: rng.randint(0, 2 * omega) for c in net.cells}
        assert clique_upper_bound(net, omega, demands) == brute_clique_bound(net, omega, demands), (
            sorted(net.cells), omega, demands,
        )
    c5 = cycle_graph(5)
    for omega, demands in ((2, {i: 2 for i in range(5)}), (5, {0: 5, 1: 1, 2: 4, 3: 3, 4: 0})):
        assert clique_upper_bound(c5, omega, demands) == brute_clique_bound(c5, omega, demands)


def test_clique_bound_on_k4_uses_the_whole_clique():
    demands = {i: 6 for i in range(4)}
    assert clique_upper_bound(K4, 6, demands) == 6
    assert exact_optimum(K4, 6, demands).total == 6


def test_clique_bound_flower_duel():
    scenario = make_adversary("random:2:126", 21)
    trace = run_duel(scenario, make_algorithm("caco", scenario.network, 21))
    assert clique_upper_bound(scenario.network, 21, dict(trace.demands)) == 63


@given(st.sets(st.sampled_from(PATCH_CELLS), min_size=1, max_size=12))
def test_maximal_independent_sets_are_complement_cliques(cells):
    net = Network(cells)
    ordered = net.sorted_cells()
    adj = _adjacency(ordered, net)
    # maximal: every cell outside the set has a neighbour inside it
    maximal = [
        m for m in _independent_sets(ordered, net)
        if all(m >> i & 1 or adj[i] & m for i in range(len(ordered)))
    ]
    assert [sum(1 << i for i in s) for s in _maximal_independent_sets(adj)] == maximal


def branch_and_bound(net, omega, demands):
    """`exact_optimum` with the served-in-full fast path switched off."""
    with mock.patch.object(offline, "_serve_every_demand", return_value=None):
        return exact_optimum(net, omega, demands)


def fast_path(net, omega, demands):
    cells, r, omega = _demand_list(net, omega, demands)
    try:
        color = proper_coloring(net)
    except ImproperColoringError:
        color = None
    return _serve_every_demand(net, omega, cells, r, color)


def test_fast_path_serves_the_slow_sweep_instance():
    # instance 314 of the seed-2025 triangle-free sweep with omega drawn from
    # (9, 18); branch-and-bound alone spends over a minute proving that every
    # request can be served
    cells = [(-2, 2), (-1, -1), (-1, 1), (0, -1), (0, 0), (0, 2), (1, 0), (1, 1), (2, -1)]
    net = Network(cells)
    demands = dict(zip(cells, (7, 7, 6, 6, 4, 8, 8, 9, 8)))
    start = time.perf_counter()
    opt = exact_optimum(net, 18, demands)
    elapsed = time.perf_counter() - start
    assert opt.total == sum(demands.values()) == 63
    assert opt.per_cell == demands
    validate_witness(net, 18, demands, opt)
    assert elapsed < 0.5


@settings(max_examples=60, deadline=None)
@given(st.sets(st.sampled_from(PATCH_CELLS), min_size=1, max_size=9), st.integers(1, 21), st.data())
def test_fast_path_witness_is_the_branch_and_bound_vector(cells, omega, data):
    net = Network(cells)
    demands = {c: data.draw(st.integers(0, omega)) for c in net.sorted_cells()}
    fast = fast_path(net, omega, demands)
    if fast is not None:
        validate_witness(net, omega, demands, fast)
        assert fast.per_cell == branch_and_bound(net, omega, demands).per_cell


def test_fast_path_tries_each_colour_in_the_middle():
    # the line B-R-G-B at omega 6: R in the middle needs 3 + 3 + 3 at (0, 0),
    # G in the middle the same at (1, 0); only B in the middle fits
    net = Network([(-1, 0), (0, 0), (1, 0), (2, 0)])
    demands = dict.fromkeys(net.cells, 3)
    fast = fast_path(net, 6, demands)
    validate_witness(net, 6, demands, fast)
    assert fast.per_cell == demands
    assert fast_path(net, 5, demands) is None


def test_graphs_without_a_proper_colouring_take_branch_and_bound():
    c5 = cycle_graph(5)  # cells are not integer pairs
    # two same-colour cells joined by an edge: a witness from colour roles
    # would give both the same frequencies and claim 4
    same = Network.from_edges([(0, 0), (3, 0)], [((0, 0), (3, 0))])
    cases = [
        (c5, 2, {i: 2 for i in range(5)}, {0: 2, 1: 0, 2: 2, 3: 0, 4: 0}),
        (c5, 5, {i: 2 for i in range(5)}, {i: 2 for i in range(5)}),  # served in full
        (K4, 6, {i: 1 for i in range(4)}, {i: 1 for i in range(4)}),
        (K4, 6, {i: 6 for i in range(4)}, {0: 6, 1: 0, 2: 0, 3: 0}),
        (same, 3, {(0, 0): 2, (3, 0): 2}, {(0, 0): 2, (3, 0): 1}),
    ]
    for net, omega, demands, per_cell in cases:
        assert fast_path(net, omega, demands) is None
        opt = exact_optimum(net, omega, demands)
        assert opt.per_cell == per_cell == branch_and_bound(net, omega, demands).per_cell
        validate_witness(net, omega, demands, opt)


def test_fast_path_per_component():
    # the (0, 0)-(1, 0) pair cannot serve its 8 requests at omega 4, the
    # path from (3, 3) can serve all of its 5
    net = Network([(0, 0), (1, 0), (3, 3), (4, 3), (5, 3)])
    demands = {(0, 0): 4, (1, 0): 4, (3, 3): 1, (4, 3): 3, (5, 3): 1}
    served = []

    def recording(*args):
        served.append(_serve_every_demand(*args))
        return served[-1]

    with mock.patch.object(offline, "_serve_every_demand", recording):
        opt = exact_optimum(net, 4, demands)
    # the whole network, then each component in turn
    assert [witness is not None for witness in served] == [False, False, True]
    assert opt.per_cell == branch_and_bound(net, 4, demands).per_cell
    assert opt.total == 4 + 5
    validate_witness(net, 4, demands, opt)


def test_one_check_and_one_colouring_per_instance():
    # the whole-network try fails on the (0, 0)-(1, 0) pair; the loop over
    # the three components reuses the checked demands and the colouring
    net = Network([(0, 0), (1, 0), (3, 3), (6, 6)])
    demands = {(0, 0): 4, (1, 0): 4, (3, 3): 2, (6, 6): 3}
    with mock.patch.object(offline, "_demand_list", wraps=_demand_list) as checked, \
            mock.patch.object(offline, "proper_coloring", wraps=proper_coloring) as coloured, \
            mock.patch.object(offline, "exact_optimum", wraps=exact_optimum) as reentered:
        opt = exact_optimum(net, 4, demands)
    assert (checked.call_count, coloured.call_count, reentered.call_count) == (1, 1, 0)
    assert opt.per_cell == {(0, 0): 4, (1, 0): 0, (3, 3): 2, (6, 6): 3}
    validate_witness(net, 4, demands, opt)


def components_of(net):
    """The connected components of `net`, each as its own network."""
    remaining = set(net.cells)
    parts = []
    while remaining:
        frontier = [remaining.pop()]
        part = set(frontier)
        while frontier:
            for n in net.neighbors(frontier.pop()):
                if n in remaining:
                    remaining.remove(n)
                    part.add(n)
                    frontier.append(n)
        parts.append(part)
    return parts


C5_AND_K4 = Network.from_edges(
    range(9),
    [(i, (i + 1) % 5) for i in range(5)] + list(itertools.combinations(range(5, 9), 2)),
)


@st.composite
def clustered_instances(draw):
    """Two or three far-apart hex clusters, or the 5-cycle beside K4, with
    omega and demands up to twice omega."""
    k = draw(st.integers(2, 3))
    cluster = st.sets(st.sampled_from(PATCH_CELLS), min_size=1, max_size=12 // k)
    clusters = draw(st.lists(cluster, min_size=k, max_size=k))
    hex_net = Network([(q + 10 * i, r) for i, cluster in enumerate(clusters) for q, r in cluster])
    net = draw(st.sampled_from([hex_net, C5_AND_K4]))
    omega = draw(st.integers(1, 14))
    demands = {c: draw(st.integers(0, 2 * omega)) for c in net.sorted_cells()}
    return net, omega, demands


@settings(max_examples=40, deadline=None)
@given(clustered_instances())
def test_components_are_solved_as_their_own_networks(instance):
    net, omega, demands = instance
    opt = exact_optimum(net, omega, demands)
    validate_witness(net, omega, demands, opt)
    alone = {}
    for part in components_of(net):
        sub = Network.from_edges(part, [(u, v) for u, v in net.edges() if u in part])
        alone.update(exact_optimum(sub, omega, {c: demands[c] for c in part}).per_cell)
    assert opt.per_cell == alone
