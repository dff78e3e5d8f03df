import inspect
import itertools
import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from cellcall import offline
from cellcall.adversary import fig2_adversary, make_adversary, phase_ratios, random_sequence, run_duel
from cellcall.hexnet import Network, color_of, hex_patch
from cellcall.offline import (
    InstanceTooLargeError,
    OptimumWitness,
    _adjacency,
    _branch_and_bound,
    _clique_ceiling,
    _clique_partition,
    _demand_list,
    _dual_floor,
    _lp_ceiling,
    _maximal_cliques,
    _maximal_independent_sets,
    _serve_every_demand,
    clique_upper_bound,
    exact_optimum,
    validate_witness,
)
from cellcall.online import caco_algorithm, make_algorithm
from conftest import ODD_HOLE, PATCH_CELLS, random_network
from oracles import ORACLE_MAX_CELLS, ORACLE_MAX_OMEGA, _independent_sets, edges, exhaustive_oracle

ROOT = Path(__file__).resolve().parent.parent

STAR = Network([(0, 0), (-1, 1), (0, -1), (1, 0)])
PATCH = hex_patch(2)
PATCH3_CELLS = hex_patch(3).sorted_cells()
TRIANGLE = Network([(0, 0), (1, 0), (0, 1)])  # the largest clique the hex grid has
RHOMBUS = Network([(0, 0), (1, 0), (0, 1), (1, -1)])  # two triangles on the edge (0, 0)-(1, 0)


def test_demands_must_be_integers():
    for solver in (exact_optimum, clique_upper_bound):
        with pytest.raises(TypeError, match=r"^the demand at cell \(0, 0\) must be an integer, not 1\.5$"):
            solver(Network([(0, 0)]), 7, {(0, 0): 1.5})


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


def test_odd_hole_needs_exact_solver():
    demands = dict.fromkeys(ODD_HOLE.cells, 2)
    assert exact_optimum(ODD_HOLE, 2, demands).total == 8
    assert clique_upper_bound(ODD_HOLE, 2, demands) == 9


def test_search_falls_back_when_the_ceiling_is_loose():
    # the ceiling is 9 and the optimum 8, so the pass aimed at the ceiling
    # finds nothing and the plain search runs
    demands = dict.fromkeys(ODD_HOLE.cells, 2)
    floors = []

    def recording(*args):
        floors.append((args[-1], _branch_and_bound(*args)))
        return floors[-1][1]

    with mock.patch.object(offline, "_branch_and_bound", recording):
        opt = exact_optimum(ODD_HOLE, 2, demands)
    assert [(floor, mults is not None) for floor, mults in floors] == [(8, False), (-1, True)]
    served = {(-2, 1), (-1, 2), (0, -1), (1, 0)}
    assert opt.per_cell == {c: 2 if c in served else 0 for c in ODD_HOLE.cells}
    validate_witness(ODD_HOLE, 2, demands, opt)


def test_size_limits_enforced():
    # every adjacent pair wants 14 of 7 frequencies: not served in full, so
    # the line goes to the search, which takes at most 12 cells
    line = Network([(q, 0) for q in range(13)])
    with pytest.raises(InstanceTooLargeError, match=r"^the component of 13 cells from cell \(0, 0\) .* cap of 12$"):
        exact_optimum(line, 7, dict.fromkeys(line.cells, 7))
    with pytest.raises(InstanceTooLargeError):
        exhaustive_oracle(Network([(q, 0) for q in range(5)]), 2, {})
    # omega is uncapped, for the CLI and the library alike
    path8 = Network([(q, 0) for q in range(8)])
    assert exact_optimum(path8, 65, {c: 65 for c in path8.cells}).total == 4 * 65
    assert phase_ratios(fig2_adversary(84), caco_algorithm) == [Fraction(7, 3), Fraction(7, 3)]


def test_a_component_served_in_full_has_no_size_limit():
    # the paper's large-bandwidth regime: 1261 cells, every demand fits
    net = hex_patch(20)
    demands = dict(Counter(random_sequence(net, 50000, 1)))
    opt = exact_optimum(net, 840, demands)
    assert opt.total == 50000 and opt.per_cell == dict.fromkeys(net.cells, 0) | demands
    validate_witness(net, 840, demands, opt)


def test_far_apart_flowers_are_searched_one_at_a_time():
    # 14 cells in all, but each searched component has 7
    flowers = [hex_patch(1), hex_patch(1, (10, 0))]
    net = Network([c for flower in flowers for c in flower.cells])
    rng = random.Random(27)
    demands = {c: rng.randint(0, 42) for c in net.sorted_cells()}
    opt = exact_optimum(net, 21, demands)
    validate_witness(net, 21, demands, opt)
    alone = {}
    for flower in flowers:
        own = {c: demands[c] for c in flower.cells}
        assert fast_path(flower, 21, own) is None
        alone.update(exact_optimum(flower, 21, own).per_cell)
    assert opt.per_cell == alone and opt.total == 113


def test_a_searched_component_takes_any_omega():
    # 9 cells at omega 65, which no clique of the flower and its two
    # neighbours can serve in full; the optimum meets the clique LP ceiling
    cells = [*hex_patch(1).sorted_cells(), (2, -1), (2, 0)]
    net = Network(cells)
    demands = dict(zip(cells, (42, 43, 31, 38, 46, 45, 42, 39, 45)))
    assert fast_path(net, 65, demands) is None
    opt = exact_optimum(net, 65, demands)
    validate_witness(net, 65, demands, opt)
    assert opt.total == clique_upper_bound(net, 65, demands) == 237


# instance 428 of the seed-2024 sweep: the sweeps' costliest search, one aimed
# search of 153,930 nodes
COSTLIEST_SWEEP_CELLS = [(-2, 2), (-1, -1), (-1, 1), (-1, 2), (0, -1), (0, 0), (0, 1), (1, -1)]
COSTLIEST_SWEEP_DEMANDS = dict(zip(COSTLIEST_SWEEP_CELLS, (7, 13, 18, 13, 14, 17, 10, 20)))


def test_node_budget_ends_the_search_with_a_named_error(monkeypatch):
    net = Network(COSTLIEST_SWEEP_CELLS)
    monkeypatch.setattr(offline, "NODE_BUDGET", 153_929)
    message = "the search of a component of 8 cells passed the node budget of 153929 nodes; its clique LP ceiling is 62"
    with pytest.raises(InstanceTooLargeError, match=f"^{message}$"):
        exact_optimum(net, 21, COSTLIEST_SWEEP_DEMANDS)
    monkeypatch.setattr(offline, "NODE_BUDGET", 153_930)
    assert exact_optimum(net, 21, COSTLIEST_SWEEP_DEMANDS).total == 62
    monkeypatch.undo()
    opt = exact_optimum(net, 21, COSTLIEST_SWEEP_DEMANDS)
    validate_witness(net, 21, COSTLIEST_SWEEP_DEMANDS, opt)
    assert opt.per_cell == dict(zip(COSTLIEST_SWEEP_CELLS, (7, 13, 10, 1, 0, 1, 10, 20)))


def test_node_budget_bounds_the_time_of_a_slow_search(monkeypatch):
    # 12 cells at omega 21 from a greedy run: within the cell cap, yet both
    # searches together take 69,436,468 nodes (134 s) to prove OPT = 79
    cells = [(-1, -1), (-1, 0), (-1, 2), (0, -2), (0, -1), (0, 1), (1, -2), (1, -1), (1, 0), (1, 1), (2, -2), (2, 0)]
    demands = dict(zip(cells, (2, 7, 12, 7, 10, 6, 11, 6, 6, 9, 4, 8)))
    monkeypatch.setattr(offline, "NODE_BUDGET", 100_000)
    start = time.perf_counter()
    message = "12 cells passed the node budget of 100000 nodes; its clique LP ceiling is 79"
    with pytest.raises(InstanceTooLargeError, match=f"{message}$"):
        exact_optimum(Network(cells), 21, demands)
    assert time.perf_counter() - start < 1


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
        for u, v in edges(net):
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
    with pytest.raises(TypeError, match=r"^omega must be an integer, not 7\.0$"):
        solver(net, 7.0, demands)
    with pytest.raises(TypeError, match=r"^omega must be an integer, not True$"):
        solver(net, True, demands)
    # omega 0 stays valid: nothing is served
    result = solver(net, 0, demands)
    assert (result if solver is clique_upper_bound else result.total) == 0
    # nothing to serve, through each solver's general code: no cells, no
    # frequencies, or no demand (the oracle stops at 4 cells, short of the hole)
    for empty in (Network([]), ODD_HOLE, TRIANGLE, Network([(0, 0), (1, 0)])):
        if solver is exhaustive_oracle and len(empty.cells) > ORACLE_MAX_CELLS:
            continue
        for omega, demand in ((0, 2), (3, 0)):
            demands = dict.fromkeys(empty.cells, demand)
            result = solver(empty, omega, demands)
            if solver is clique_upper_bound:
                assert result == 0
            else:
                assert result.total == 0 and result.per_cell == dict.fromkeys(empty.cells, 0)
                validate_witness(empty, omega, demands, result)


def test_validate_witness_checks_under_python_optimize():
    # two neighbours sharing frequency 1; `assert` statements would let it pass under -O
    code = (
        "from cellcall.hexnet import Network\n"
        "from cellcall.offline import OptimumWitness, validate_witness\n"
        "one = frozenset({1})\n"
        "witness = OptimumWitness({(0, 0): one, (1, 0): one})\n"
        "validate_witness(Network([(0, 0), (1, 0)]), 3, {(0, 0): 1, (1, 0): 1}, witness)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    result = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 1
    assert result.stderr.endswith("AssertionError: cells (0, 0) and (1, 0) share a frequency\n")


@pytest.mark.parametrize(
    "changed, message",
    [
        ({(9, 9): frozenset()}, r"witness cell \(9, 9\) not in network"),
        ({(1, 0): frozenset({3, 4})}, r"cell \(1, 0\) exceeds its demand"),
        ({(0, 0): frozenset({1, 5})}, r"cell \(0, 0\) has a frequency outside 1\.\.4"),
        ({(1, 0): frozenset({2})}, r"cells \(0, 0\) and \(1, 0\) share a frequency"),
    ],
    ids=["foreign_cell", "past_demand", "out_of_range", "shared_across_edge"],
)
def test_validate_witness_rejects_each_bad_witness(changed, message):
    # one fault each in a valid witness for demands 2 and 1 at omega 4
    net, demands = Network([(0, 0), (1, 0)]), {(0, 0): 2, (1, 0): 1}
    assignment = {(0, 0): frozenset({1, 2}), (1, 0): frozenset({3})}
    validate_witness(net, 4, demands, OptimumWitness(assignment))
    with pytest.raises(AssertionError, match=message):
        validate_witness(net, 4, demands, OptimumWitness(assignment | changed))


def test_unknown_demand_cell_rejected():
    with pytest.raises(ValueError):
        exact_optimum(Network([(0, 0)]), 3, {(9, 9): 1})


def test_witness_trims_to_demand():
    net = Network([(0, 0), (2, 2)])  # disconnected
    opt = exact_optimum(net, 5, {(0, 0): 2, (2, 2): 1})
    assert opt.per_cell == {(0, 0): 2, (2, 2): 1}
    assert len(opt.assignment[(0, 0)]) == 2


# the odd hole's loose ceiling leaves its search to the plain pass, whose
# cost grows steeply with omega: past 7, some random demands take seconds
HOLE_MAX_OMEGA = 7


def draw_instance(draw, net, max_omega):
    """`(net, omega, demands)`: omega up to `max_omega` (up to `HOLE_MAX_OMEGA`
    on a network holding the odd hole), each cell's demand up to twice omega."""
    if ODD_HOLE.cells <= net.cells:
        max_omega = min(max_omega, HOLE_MAX_OMEGA)
    omega = draw(st.integers(1, max_omega))
    return net, omega, {c: draw(st.integers(0, 2 * omega)) for c in net.sorted_cells()}


@st.composite
def instances(draw, max_cells=8, max_omega=21, pool=PATCH_CELLS):
    """A random subnetwork of at most `max_cells` cells of `pool`, or the odd
    hole, with omega and demands up to twice omega."""
    net = draw(
        st.one_of(
            st.sets(st.sampled_from(pool), min_size=1, max_size=max_cells).map(Network),
            st.just(ODD_HOLE),
        )
    )
    return draw_instance(draw, net, max_omega)


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
    ceiling = _lp_ceiling(omega, r, cliques)
    aimed = _branch_and_bound(r, members, parts, omega, ceiling, ceiling - 1)
    plain = _branch_and_bound(r, members, parts, omega, ceiling, -1)
    assert aimed is None or aimed == plain


def recomputing_branch_and_bound(r, members, parts, omega, ceiling, floor):
    """`_branch_and_bound` with every node recomputing its value and bound
    from the coverage `cov`: the reference for its incremental bookkeeping."""
    best_value, best_mults = floor, None
    maxsize_from = [0] * (len(members) + 1)
    for j in range(len(members) - 1, -1, -1):
        maxsize_from[j] = max(maxsize_from[j + 1], len(members[j]))

    def bound(j, cov, rem):
        total = sum(min(sum(max(0, r[i] - cov[i]) for i in part), rem) for part in parts)
        return min(total, rem * maxsize_from[j])

    def dfs(j, rem, cov):
        nonlocal best_value, best_mults
        value = sum(min(a, b) for a, b in zip(r, cov))
        if value > best_value:
            best_value, best_mults = value, mults[:j] + [0] * (len(members) - j)
        if best_value >= ceiling or j == len(members) or rem == 0:
            return
        if value + bound(j, cov, rem) <= best_value:
            return
        cap = max(min(rem, max((r[i] - cov[i] for i in members[j]), default=0)), 0)
        for count in range(cap, -1, -1):
            mults[j] = count
            for i in members[j]:
                cov[i] += count
            dfs(j + 1, rem - count, cov)
            for i in members[j]:
                cov[i] -= count
            mults[j] = 0
            if best_value >= ceiling:
                return

    mults = [0] * len(members)
    dfs(0, omega, [0] * len(r))
    return best_mults


def test_incremental_nodes_match_the_recomputing_search():
    rng = random.Random(46)
    instances = [(ODD_HOLE, omega, {c: rng.randint(0, 2 * omega) for c in ODD_HOLE.cells}) for omega in (1, 2, 5)]
    instances += [(TRIANGLE, omega, {c: rng.randint(0, 2 * omega) for c in TRIANGLE.cells}) for omega in (1, 6, 9)]
    for k in range(240):
        if k % 2:
            net = Network(rng.sample(PATCH3_CELLS, rng.randint(1, 7)))
        else:
            net = random_network(rng, max_cells=8)
        omega = rng.randint(1, 12)
        instances.append((net, omega, {c: rng.randint(0, 2 * omega) for c in net.cells}))
    for net, omega, demands in instances:
        cells, r, omega = _demand_list(net, omega, demands)
        r = [min(d, omega) for d in r]
        adj = _adjacency(cells, net)
        members = _maximal_independent_sets(adj)
        cliques = _maximal_cliques(adj)
        parts = _clique_partition(cliques)
        ceiling = _clique_ceiling(omega, r, cliques)
        for floor in (ceiling - 1, -1):
            args = (r, members, parts, omega, ceiling, floor)
            assert _branch_and_bound(*args) == recomputing_branch_and_bound(*args), (net, omega, demands, floor)


def ceiling_inputs(net, omega, demands):
    """`(omega, r, cliques)` as `exact_optimum` hands them to its ceiling."""
    cells, r, omega = _demand_list(net, omega, demands)
    return omega, [min(d, omega) for d in r], _maximal_cliques(_adjacency(cells, net))


@settings(max_examples=80, deadline=None)
@given(st.one_of(instances(max_cells=8, max_omega=21), instances(7, 14, pool=PATCH3_CELLS)))
@example((ODD_HOLE, 2, dict.fromkeys(ODD_HOLE.cells, 2)))
@example((ODD_HOLE, 1, dict.fromkeys(ODD_HOLE.cells, 1)))
@example((TRIANGLE, 6, dict.fromkeys(TRIANGLE.cells, 6)))
def test_lp_ceiling_bounds_the_optimum(instance):
    net, omega, demands = instance
    ceiling = _lp_ceiling(*ceiling_inputs(net, omega, demands))
    assert ceiling >= exact_optimum(net, omega, demands).total


def test_lp_ceiling_values():
    # x = 1 everywhere is integral; at omega 1 the LP's 9/2 floors to 4
    assert _lp_ceiling(*ceiling_inputs(ODD_HOLE, 2, dict.fromkeys(ODD_HOLE.cells, 2))) == 9
    assert _lp_ceiling(*ceiling_inputs(ODD_HOLE, 1, dict.fromkeys(ODD_HOLE.cells, 1))) == 4
    assert _lp_ceiling(*ceiling_inputs(TRIANGLE, 6, dict.fromkeys(TRIANGLE.cells, 6))) == 6
    assert _lp_ceiling(*ceiling_inputs(STAR, 315, {c: 315 for c in STAR.cells})) == 945
    assert _lp_ceiling(*ceiling_inputs(Network([(0, 0)]), 4, {(0, 0): 0})) == 0


def test_dual_check_rejects_an_infeasible_dual():
    # one edge at omega 3 with demands 2 and 2; rows x0 <= 2, x1 <= 2, x0 + x1 <= 3
    edge = [(0, 1)]
    assert _dual_floor(3, [2, 2], edge, [0, 0, 1], 1) == 3
    assert _dual_floor(3, [2, 2], edge, [1, 1, 1], 2) == 3  # (2 + 2 + 3) / 2, floored
    with pytest.raises(AssertionError, match="negative"):
        _dual_floor(3, [2, 2], edge, [2, 2, -1], 1)
    # would claim 2, below the optimum 3: x0 is not covered
    with pytest.raises(AssertionError, match="does not cover cell index 0"):
        _dual_floor(3, [2, 2], edge, [0, 1, 0], 1)
    with pytest.raises(AssertionError, match="does not cover"):
        _dual_floor(3, [2, 2], edge, [0, 0, 1], 2)


def test_flower_duel_optimum_at_omega_42_is_fast():
    scenario = make_adversary("random:1:252", 42)
    trace = run_duel(scenario, make_algorithm("greedy", scenario.network, 42))
    demands = dict(trace.demands)
    start = time.perf_counter()
    opt = exact_optimum(scenario.network, 42, demands)
    elapsed = time.perf_counter() - start
    assert opt.total == 126
    validate_witness(scenario.network, 42, demands, opt)
    assert elapsed < 0.1


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
    its maximal cliques overlap."""
    cells = {rng.choice(PATCH_CELLS)}
    size = rng.randint(1, max_cells)
    while len(cells) < size:
        cells.add(rng.choice([n for c in sorted(cells) for n in PATCH.neighbors(c) if n not in cells]))
    return Network(cells)


def test_clique_bound_matches_brute_force_randomized():
    rng = random.Random(44)
    fits = 0
    for _ in range(120):
        net = connected_network(rng, max_cells=6)
        omega = rng.randint(1, 5)
        demands = {c: rng.randint(0, 2 * omega) for c in net.cells}
        assert clique_upper_bound(net, omega, demands) == brute_clique_bound(net, omega, demands), (
            sorted(net.cells), omega, demands,
        )
        # the fit check gives the simplex's value whether or not it skips it
        inputs = ceiling_inputs(net, omega, demands)
        assert _clique_ceiling(*inputs) == _lp_ceiling(*inputs)
        fits += all(sum(inputs[1][i] for i in clique) <= omega for clique in inputs[2])
    assert 10 < fits < 110  # both sides of the check are taken
    hole = ODD_HOLE.sorted_cells()
    for omega, demands in ((2, dict.fromkeys(hole, 2)), (5, dict(zip(hole, (5, 1, 4, 3, 0, 2, 0, 3, 1))))):
        assert clique_upper_bound(ODD_HOLE, omega, demands) == brute_clique_bound(ODD_HOLE, omega, demands)


def fitting_instances():
    """Instances whose demands, capped at omega, fit in every maximal clique."""
    line = Network([(q, 0) for q in range(-2, 3)])
    return [
        (ODD_HOLE, 4, dict.fromkeys(ODD_HOLE.cells, 2)),  # the optimum is below the ceiling
        (TRIANGLE, 5, {(0, 0): 2, (1, 0): 2, (0, 1): 1}),
        (line, 6, dict.fromkeys(line.cells, 3)),  # no colour order serves it in full
        (STAR, 7, {(0, 0): 0, (-1, 1): 4, (0, -1): 4, (1, 0): 9}),  # fits once capped at omega
    ]


def test_fitting_demands_skip_the_simplex():
    no_simplex = AssertionError("the simplex ran")
    for net, omega, demands in fitting_instances():
        capped = sum(min(d, omega) for d in demands.values())
        with mock.patch.object(offline, "_lp_ceiling", side_effect=no_simplex):
            assert clique_upper_bound(net, omega, demands) == capped
            opt = branch_and_bound(net, omega, demands)
        assert opt.per_cell == exact_optimum(net, omega, demands).per_cell
        assert opt.total <= capped
        validate_witness(net, omega, demands, opt)
    # an over-subscribed clique takes the simplex only when some cell lies in
    # two maximal cliques, as the rhombus's shared edge does
    with mock.patch.object(offline, "_lp_ceiling", side_effect=no_simplex):
        assert clique_upper_bound(TRIANGLE, 6, dict.fromkeys(TRIANGLE.cells, 3)) == 6
        with pytest.raises(AssertionError, match="the simplex ran"):
            clique_upper_bound(RHOMBUS, 6, dict.fromkeys(RHOMBUS.cells, 3))


def test_every_ceiling_is_a_checked_dual():
    checked = []

    def dual_floor(*args):
        checked.append(_dual_floor(*args))
        return checked[-1]

    def search(*args):
        assert args[4] == checked[-1]  # the ceiling is the value just checked
        return _branch_and_bound(*args)

    over = [(TRIANGLE, 6, dict.fromkeys(TRIANGLE.cells, 3)), (STAR, 3, dict.fromkeys(STAR.cells, 3))]
    instances = fitting_instances() + over
    with mock.patch.object(offline, "_dual_floor", dual_floor):
        bounds = [clique_upper_bound(*instance) for instance in instances]
        assert checked == bounds
        checked.clear()
        # one checked ceiling per component that reaches the branch-and-bound
        with mock.patch.object(offline, "_branch_and_bound", side_effect=search) as searched:
            for instance in instances:
                branch_and_bound(*instance)
    assert checked == bounds and searched.call_count == len(instances) + 1  # the hole falls back


def test_clique_bound_on_a_triangle_uses_the_whole_clique():
    demands = dict.fromkeys(TRIANGLE.cells, 6)
    assert clique_upper_bound(TRIANGLE, 6, demands) == 6
    assert exact_optimum(TRIANGLE, 6, demands).total == 6


# every clique of 2 or 3 hex cells up to translation: the three orientations
# of a pair and the two of a triangle
CLIQUE_SHAPES = (
    ((0, 0), (1, 0)),
    ((0, 0), (0, 1)),
    ((0, 0), (1, -1)),
    ((0, 0), (1, 0), (0, 1)),
    ((0, 0), (1, 0), (1, -1)),
)


@st.composite
def clique_instances(draw):
    shape = draw(st.sampled_from(CLIQUE_SHAPES))
    dq, dr = draw(st.tuples(st.integers(-9, 9), st.integers(-9, 9)))
    net = Network([(q + dq, r + dr) for q, r in shape])
    omega = draw(st.integers(1, 40))
    return net, omega, {c: draw(st.integers(0, 2 * omega)) for c in net.sorted_cells()}


@settings(max_examples=300, deadline=None)
@given(clique_instances())
@example((TRIANGLE, 6, dict.fromkeys(TRIANGLE.cells, 3)))
@example((Network([(0, 0), (1, -1)]), 1, {(0, 0): 0, (1, -1): 2}))
def test_clique_components_take_the_closed_form(instance):
    # no independent set, simplex or search: a clique that fits is served in
    # full, and one that does not is filled up to omega with the frequencies
    # the search would give it
    net, omega, demands = instance
    no_search = AssertionError("the search ran")
    with mock.patch.object(offline, "_maximal_independent_sets", side_effect=no_search), \
            mock.patch.object(offline, "_lp_ceiling", side_effect=no_search):
        opt = exact_optimum(net, omega, demands)
    cells = net.sorted_cells()
    searched = offline._search(net, omega, cells, [min(demands[c], omega) for c in cells])
    assert opt.per_cell == searched.per_cell
    if sum(min(d, omega) for d in demands.values()) > omega:
        assert opt.assignment == searched.assignment and opt.total == omega
    validate_witness(net, omega, demands, opt)
    if omega <= ORACLE_MAX_OMEGA:
        assert opt.total == exhaustive_oracle(net, omega, demands).total


@st.composite
def separable_instances(draw):
    """Networks whose components are single cells, pairs and triangles, so
    that no cell lies in two maximal cliques: shapes placed four apart in
    both coordinates never touch."""
    slots = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=6, unique=True))
    cells = []
    for i, j in slots:
        shape = draw(st.sampled_from((((0, 0),),) + CLIQUE_SHAPES))
        cells += [(4 * i + q, 4 * j + r) for q, r in shape]
    net = Network(cells)
    omega = draw(st.integers(1, 40))
    return net, omega, {c: draw(st.integers(0, 2 * omega)) for c in net.sorted_cells()}


@settings(max_examples=200, deadline=None)
@given(separable_instances())
def test_separable_networks_skip_the_simplex(instance):
    net, omega, demands = instance
    cells, r, omega = _demand_list(net, omega, demands)
    r = [min(d, omega) for d in r]
    cliques = _maximal_cliques(_adjacency(cells, net))
    assert sum(map(len, cliques)) == len(cells)  # no cell lies in two
    with mock.patch.object(offline, "_lp_ceiling", side_effect=AssertionError("the simplex ran")):
        bound = clique_upper_bound(net, omega, demands)
    assert bound == _lp_ceiling(omega, r, cliques) == sum(min(sum(r[i] for i in k), omega) for k in cliques)


def test_clique_bound_flower_duel():
    scenario = make_adversary("random:2:126", 21)
    trace = run_duel(scenario, make_algorithm("caco", scenario.network, 21))
    assert clique_upper_bound(scenario.network, 21, dict(trace.demands)) == 63


# the statement `_lp_ceiling` runs once per step of each kind
STEP_LINES = {
    "flip": "flipped[v] = not flipped[v]",
    "pivot": "p = prow[s]",
    "leave at bound": "flipped[basis[pivot]] = not flipped[basis[pivot]]",
}


def lp_steps(omega, r, cliques, limit=10_000):
    """`_lp_ceiling`'s value, the dual (y, d) it hands `_dual_floor`, and how
    often it ran each step kind, seen by a line tracer. A flip of a column
    whose bound is 0 counts as "zero flip", and "leave at 0" is every pivot
    whose leaving variable was not first complemented at its bound. Past
    `limit` steps it raises AssertionError inside the kernel, so a cycling
    kernel fails the test instead of hanging it."""
    source, first = inspect.getsourcelines(offline._lp_ceiling)
    kinds = {stmt: kind for kind, stmt in STEP_LINES.items()}
    lines = {first + i: kinds[text.strip()] for i, text in enumerate(source) if text.strip() in kinds}
    assert len(lines) == len(STEP_LINES)
    code = offline._lp_ceiling.__code__
    steps = Counter()

    def on_line(frame, event, arg):
        kind = lines.get(frame.f_lineno) if event == "line" else None
        if kind == "flip" and frame.f_locals["r"][frame.f_locals["v"]] == 0:
            kind = "zero flip"
        if kind:
            steps[kind] += 1
            if steps["flip"] + steps["zero flip"] + steps["pivot"] > limit:
                raise AssertionError(f"no optimum after {limit} steps")
        return on_line

    duals = []

    def dual_floor(*args):
        duals.append(args[3:])
        return real_dual_floor(*args)

    real_dual_floor = offline._dual_floor
    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: on_line if frame.f_code is code else None)
    try:
        with mock.patch.object(offline, "_dual_floor", dual_floor):
            value = offline._lp_ceiling(omega, r, cliques)
    finally:
        sys.settrace(previous)
    steps["leave at 0"] = steps["pivot"] - steps["leave at bound"]
    (dual,) = duals
    return value, dual, steps


def dual_value(omega, r, cliques, dual):
    y, d = dual
    return Fraction(sum(a * v for a, v in zip(r, y)) + omega * sum(y[len(r):]), d)


FLOWER = hex_patch(1)


@pytest.mark.parametrize(
    "net, omega, demands, kinds",
    [
        # x stops at its own bound 2 below the clique's 5
        (Network([(0, 0)]), 5, {(0, 0): 2}, {"flip"}),
        # x0 flips to 3, then x1 enters and the slack leaves at 0
        (Network([(0, 0), (1, 0)]), 3, {(0, 0): 3, (1, 0): 3}, {"flip", "leave at 0"}),
        # the centre flips to 2 and each leaf enters at 0 in place of a slack;
        # lowering the centre again raises both leaves to their bound 1, and
        # the first of them leaves at that bound; the centre must sort first
        # (with these demands on the path (-1, 0), (0, 0), (1, 0), whose
        # centre sorts second, no leaf leaves at its bound)
        (
            Network([(0, 0), (0, 1), (1, -1)]), 2, {(0, 0): 2, (0, 1): 1, (1, -1): 1},
            {"flip", "leave at 0", "leave at bound"},
        ),
        # a column of demand 0 flips at step 0
        (Network([(0, 0), (1, 0)]), 3, {(0, 0): 0, (1, 0): 2}, {"zero flip", "flip"}),
        (Network([(0, 0), (1, 0), (2, 0)]), 4, {(0, 0): 3, (1, 0): 0, (2, 0): 4}, {"zero flip", "flip"}),
        # every demand omega: every clique row ties at every step
        (STAR, 3, {c: 3 for c in STAR.cells}, {"flip", "leave at 0"}),
        (FLOWER, 2, {c: 2 for c in FLOWER.cells}, {"flip", "leave at 0"}),
        (FLOWER, 3, {c: 3 for c in FLOWER.cells}, {"flip", "leave at 0"}),
    ],
    ids=[
        "bound-flip", "leave-at-0", "leave-at-bound", "zero-demand", "zero-demand-between",
        "star", "flower-2", "flower-3",
    ],
)
def test_lp_ceiling_step_kinds(net, omega, demands, kinds):
    inputs = ceiling_inputs(net, omega, demands)
    value, dual, steps = lp_steps(*inputs)
    assert {kind for kind in steps if steps[kind]} - {"pivot"} == kinds, steps
    assert value == brute_clique_bound(net, omega, demands)
    # the kernel's own dual passes the check, and the LP is integral here
    assert offline._dual_floor(*inputs, *dual) == value == dual_value(*inputs, dual)


def test_lp_ceiling_degenerate_ties_terminate_at_any_omega():
    for omega in (1, 21, 315):
        for net in (STAR, FLOWER):
            inputs = ceiling_inputs(net, omega, {c: omega for c in net.cells})
            value, dual, steps = lp_steps(*inputs)
            assert value == dual_value(*inputs, dual) == 3 * omega, steps


def test_lp_ceiling_reads_the_fractional_optimum_of_the_odd_hole():
    # at omega 1 the LP's optimum is x = 1/2 everywhere, 9/2 in all
    inputs = ceiling_inputs(ODD_HOLE, 1, dict.fromkeys(ODD_HOLE.cells, 1))
    value, dual, steps = lp_steps(*inputs)
    assert dual_value(*inputs, dual) == Fraction(9, 2)
    assert value == offline._dual_floor(*inputs, *dual) == 4
    assert steps["pivot"] >= 1


def test_lp_ceiling_duals_pass_the_check_randomized():
    rng = random.Random(45)
    for _ in range(60):
        net = connected_network(rng, max_cells=6)
        omega = rng.randint(1, 5)
        demands = {c: rng.choice([0, omega, rng.randint(0, 2 * omega)]) for c in net.cells}
        inputs = ceiling_inputs(net, omega, demands)
        value, dual, steps = lp_steps(*inputs)
        assert offline._dual_floor(*inputs, *dual) == value == brute_clique_bound(net, omega, demands)
        assert dual_value(*inputs, dual) >= value


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
    """`exact_optimum` with the served-in-full fast path and the clique fill
    switched off."""
    with mock.patch.object(offline, "_serve_every_demand", return_value=None), \
            mock.patch.object(offline, "_fill_clique", return_value=None):
        return exact_optimum(net, omega, demands)


def fast_path(net, omega, demands):
    cells, r, omega = _demand_list(net, omega, demands)
    return _serve_every_demand(net, omega, cells, r)


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


def test_fast_path_per_component():
    # the path from (0, 0) cannot serve its 8 requests at omega 4, the path
    # from (3, 3) can serve all of its 5
    net = Network([(0, 0), (1, 0), (2, 0), (3, 3), (4, 3), (5, 3)])
    demands = {(0, 0): 4, (1, 0): 4, (2, 0): 0, (3, 3): 1, (4, 3): 3, (5, 3): 1}
    served = []

    def recording(*args):
        served.append(_serve_every_demand(*args))
        return served[-1]

    with mock.patch.object(offline, "_serve_every_demand", recording):
        opt = exact_optimum(net, 4, demands)
    # one try per component, in order of its smallest cell
    assert [witness is not None for witness in served] == [False, True]
    assert opt.per_cell == branch_and_bound(net, 4, demands).per_cell
    assert opt.total == 4 + 5
    validate_witness(net, 4, demands, opt)


def test_components_served_in_full_skip_the_search():
    # two of the lines of `test_fast_path_tries_each_colour_in_the_middle` at
    # omega 6: B-R-G-B fits only with B in the middle, and R-G-B-R, shifted a
    # colour, only with R, so no one colour order serves the whole network;
    # yet each component is served in full on its own, with no branch-and-bound
    line = [(-1, 0), (0, 0), (1, 0), (2, 0)]
    net = Network(line + [(q + 10, r) for q, r in line])
    demands = dict.fromkeys(net.cells, 3)
    assert fast_path(net, 6, demands) is None
    no_search = AssertionError("branch-and-bound ran")
    with mock.patch.object(offline, "_maximal_independent_sets", side_effect=no_search):
        opt = exact_optimum(net, 6, demands)
    assert opt.per_cell == demands
    validate_witness(net, 6, demands, opt)


def test_one_check_and_one_colouring_per_instance():
    # the (0, 0)-(1, 0) pair is not served in full, and the two single cells
    # are; the loop over the three components reuses the checked demands, and
    # colours only the cells of a component served in full, once each
    net = Network([(0, 0), (1, 0), (3, 3), (6, 6)])
    demands = {(0, 0): 4, (1, 0): 4, (3, 3): 2, (6, 6): 3}
    with mock.patch.object(offline, "_demand_list", wraps=_demand_list) as checked, \
            mock.patch.object(offline, "color_of", wraps=color_of) as coloured, \
            mock.patch.object(offline, "exact_optimum", wraps=exact_optimum) as reentered, \
            mock.patch.object(offline, "as_integer", wraps=offline.as_integer) as converted:
        opt = exact_optimum(net, 4, demands)
    assert (checked.call_count, reentered.call_count) == (1, 0)
    assert sorted(call.args[0] for call in coloured.call_args_list) == [(3, 3), (6, 6)]
    # plain int demands need no conversion, and no per-cell error text
    assert [call.args[1] for call in converted.call_args_list] == ["omega"]
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


HOLE_AND_FLOWER = Network(ODD_HOLE.sorted_cells() + hex_patch(1, (10, 0)).sorted_cells())


@st.composite
def clustered_instances(draw):
    """Two or three far-apart hex clusters, or the odd hole beside a far-off
    flower, with omega and demands up to twice omega."""
    k = draw(st.integers(2, 3))
    cluster = st.sets(st.sampled_from(PATCH_CELLS), min_size=1, max_size=12 // k)
    clusters = draw(st.lists(cluster, min_size=k, max_size=k))
    hex_net = Network([(q + 10 * i, r) for i, cluster in enumerate(clusters) for q, r in cluster])
    return draw_instance(draw, draw(st.sampled_from([hex_net, HOLE_AND_FLOWER])), 14)


@settings(max_examples=40, deadline=None)
@given(clustered_instances())
def test_components_are_solved_as_their_own_networks(instance):
    net, omega, demands = instance
    opt = exact_optimum(net, omega, demands)
    validate_witness(net, omega, demands, opt)
    alone = {}
    for part in components_of(net):
        alone.update(exact_optimum(Network(part), omega, {c: demands[c] for c in part}).per_cell)
    assert opt.per_cell == alone
