import itertools
import random
from fractions import Fraction

import pytest

from cellcall.adversary import STAR_CENTER, STAR_OUTER, fig2_adversary, fig3_adversary, run_duel
from cellcall.harness import RunReport
from cellcall.hexnet import AXIAL_DIRECTIONS, Network, color_of, hex_patch
from cellcall.ledger import (
    NetworkMismatchError,
    caco2_certificate,
    caco_certificate,
    ratio_report,
)
from cellcall.offline import OptimumWitness, cycle_graph, exact_optimum
from cellcall.online import (
    Caco2Algorithm,
    NotTriangleFreeError,
    caco_algorithm,
    make_algorithm,
    run_sequence,
)
from conftest import PARTIAL_HEX_STAR, random_network, random_requests


def caco_run(net, omega, seq):
    trace = run_sequence(caco_algorithm(net, omega), seq)
    opt = exact_optimum(net, omega, dict(trace.demands))
    return trace, opt


def test_fig2_certificate_values():
    scenario = fig2_adversary(21)
    trace = run_duel(scenario, make_algorithm("caco", scenario.network, scenario.omega))
    opt = exact_optimum(trace.network, 21, dict(trace.demands))
    cert = caco_certificate(trace, opt)
    assert STAR_CENTER in cert.donors
    assert cert.b_values[STAR_CENTER] == 0
    for c in STAR_OUTER:
        assert c not in cert.donors
        assert cert.b_values[c] == 9  # 6 + (9 - 0)/3
        assert Fraction(opt.per_cell[c]) / cert.b_values[c] == Fraction(7, 3)
    assert sum(cert.b_values.values()) == 27 == trace.total_accepted()
    assert cert.status == "pass"


def test_empty_sequence_vacuous_pass():
    net = Network([(0, 0), (1, 0)])
    trace, opt = caco_run(net, 21, [])
    cert = caco_certificate(trace, opt)
    assert cert.status == "pass"
    assert all(b == 0 for b in cert.b_values.values())


def test_single_cell_dangerous():
    net = Network([(0, 0)])
    trace, opt = caco_run(net, 21, [(0, 0)] * 21)
    cert = caco_certificate(trace, opt)
    assert (0, 0) not in cert.donors  # O = 21 > 14
    assert trace.accepted_at((0, 0)) == 9  # 3*omega/7
    assert cert.b_values[(0, 0)] == 9
    assert cert.status == "pass"


def test_caco_certificate_random_sweep():
    rng = random.Random(77)
    for _ in range(40):
        net = random_network(rng, max_cells=9)
        omega = rng.choice([7, 14, 21])
        trace, opt = caco_run(net, omega, random_requests(rng, net, rng.randint(0, 4 * omega)))
        cert = caco_certificate(trace, opt)
        assert cert.status == "pass", [str(c) for c in cert.checks if not c.passed]


def test_network_mismatch_rejected():
    net = Network([(0, 0)])
    trace, _ = caco_run(net, 21, [(0, 0)])
    other = OptimumWitness(0, {(5, 5): 0}, {(5, 5): frozenset()})
    with pytest.raises(NetworkMismatchError):
        caco_certificate(trace, other)


def test_tampered_optimum_fails_with_cell_named():
    # inflate the optimum beyond 7/3 * B at one cell: check (e) must fail
    net = Network([(0, 0)])
    trace, opt = caco_run(net, 21, [(0, 0)] * 2)
    bad = OptimumWitness(22, {(0, 0): 22}, opt.assignment)
    cert = caco_certificate(trace, bad)
    failing = [c for c in cert.checks if not c.passed]
    assert failing
    assert any((0, 0) in c.failing_cells for c in failing)


def assert_fails(cert, lines):
    """The certificate prints exactly `lines`, fails, and fails its report."""
    assert [str(c) for c in cert.checks] == lines
    assert cert.status == "fail"
    report = RunReport("tampered", cert.kind, 0, [], 0, 0, None, None, certificate=cert)
    assert not report.certificate_ok


def test_safe_cell_floor_fails_on_tampered_optimum():
    # O = 7 makes the cell safe (3*7 <= 2*21), yet it accepted 2 < 3O/7
    net = Network([(0, 0)])
    trace, _ = caco_run(net, 21, [(0, 0)] * 2)
    cert = caco_certificate(trace, OptimumWitness(7, {(0, 0): 7}, {}))
    assert_fails(cert, [
        "safe_cell_floor: FAIL at [(0, 0)]",
        "dangerous_separation: pass",
        "shared_exhaustion_at_rejection: pass",
        "amortized_total: FAIL sum B = 3, sum A = 2",
        "per_cell_ratio_7_3: pass",
    ])


def test_adjacent_dangerous_cells_fail_separation():
    # O = 15 > 2*21/3 at both cells of an edge; each credits the other a
    # negative (A_k - 3O_k/7)/3, and the amortized total goes negative
    net = Network([(0, 0), (1, 0)])
    trace, _ = caco_run(net, 21, [(0, 0), (0, 0), (1, 0)])
    cert = caco_certificate(trace, OptimumWitness(30, {(0, 0): 15, (1, 0): 15}, {}))
    assert cert.h_values[((1, 0), (0, 0))] == Fraction(-38, 21)
    assert_fails(cert, [
        "safe_cell_floor: pass",
        "dangerous_separation: FAIL at [(0, 0), (1, 0)]",
        "shared_exhaustion_at_rejection: pass",
        "amortized_total: pass sum B = -2/7, sum A = 3",
        "per_cell_ratio_7_3: FAIL at [(0, 0), (1, 0)]",
    ])


def test_crowded_safe_cell_fails_separation():
    # a safe centre with four pairwise non-adjacent dangerous leaves; no hex
    # cell has more than three such neighbours, so the star is built by edges
    leaves = [(1, 0), (2, 0), (4, 0), (5, 0)]
    net = Network.from_edges([(0, 0)] + leaves, [((0, 0), c) for c in leaves])
    trace, _ = caco_run(net, 7, [(0, 0)] * 2 + [c for c in leaves for _ in range(2)])
    cert = caco_certificate(trace, OptimumWitness(28, {(0, 0): 0, **dict.fromkeys(leaves, 7)}, {}))
    assert_fails(cert, [
        "safe_cell_floor: pass",
        "dangerous_separation: FAIL at [(0, 0)]",
        "shared_exhaustion_at_rejection: pass",
        "amortized_total: FAIL sum B = 32/3, sum A = 10",
        "per_cell_ratio_7_3: FAIL at [(1, 0), (2, 0), (4, 0), (5, 0)]",
    ])


def test_greedy_trace_fails_shared_exhaustion():
    # greedy has no shared range, so a rejection finds none of it in use
    net = Network([(0, 0)])
    trace = run_sequence(make_algorithm("greedy", net, 7), [(0, 0)] * 8)
    opt = exact_optimum(net, 7, dict(trace.demands))
    assert_fails(caco_certificate(trace, opt), [
        "safe_cell_floor: pass",
        "dangerous_separation: pass",
        "shared_exhaustion_at_rejection: FAIL at [(0, 0)]",
        "amortized_total: pass sum B = 7, sum A = 7",
        "per_cell_ratio_7_3: pass",
    ])


# caco2 certificates

def caco2_run(net, omega, seq):
    trace = run_sequence(Caco2Algorithm(net, omega), seq)
    opt = exact_optimum(net, omega, dict(trace.demands))
    return trace, opt


def test_fig3_certificate_values():
    scenario = fig3_adversary(9)
    trace = run_duel(scenario, make_algorithm("caco2", scenario.network, scenario.omega))
    opt = exact_optimum(trace.network, 9, dict(trace.demands))
    cert = caco2_certificate(trace, opt)
    for c in STAR_OUTER:
        assert cert.h_values[(STAR_CENTER, c)] == 2
        assert cert.b_values[c] == 5  # 3 accepted + 2 compensation
        assert 4 * opt.per_cell[c] <= 9 * cert.b_values[c]
    assert sum(cert.b_values.values()) == 15 == trace.total_accepted()
    assert cert.status == "pass"


def test_caco2_empty_sequence():
    net = Network([(0, 0), (1, 0)])
    trace, opt = caco2_run(net, 9, [])
    assert caco2_certificate(trace, opt).status == "pass"


def test_caco2_single_isolated_cell():
    net = Network([(0, 0)])
    trace, opt = caco2_run(net, 9, [(0, 0)] * 9)
    cert = caco2_certificate(trace, opt)
    assert trace.accepted_at((0, 0)) == 9
    assert cert.b_values[(0, 0)] == 4  # 4*O/9 with O = 9
    assert Fraction(opt.per_cell[(0, 0)]) / cert.b_values[(0, 0)] == Fraction(9, 4)
    assert cert.status == "pass"


def test_caco2_random_sweep_pass_or_uncovered():
    rng = random.Random(78)
    statuses = []
    for _ in range(40):
        net = random_network(rng, max_cells=9, triangle_free=True)
        omega = rng.choice([3, 9, 21])
        trace, opt = caco2_run(net, omega, random_requests(rng, net, rng.randint(0, 4 * omega)))
        cert = caco2_certificate(trace, opt)
        assert cert.status in ("pass", "uncovered"), [str(c) for c in cert.checks]
        statuses.append(cert.status)
    assert "pass" in statuses


def structure_b_overflow_runs(omega):
    """caco2 runs, under block traffic, on 3-cell paths whose centre i has
    neighbours of both other colours (structure B); yields those where i
    donates with 3*A_i > omega while both neighbours fall short of 4O/9, the
    case that credits omega/9 to the predecessor-coloured neighbour."""
    centre = (0, 0)
    for q, r in AXIAL_DIRECTIONS[:3]:
        net = Network([centre, (q, r), (-q, -r)])  # opposite neighbours: two colours, no triangle
        x = color_of(centre)
        cj = next(n for n in net.neighbors(centre) if color_of(n) is x.successor)
        ck = next(n for n in net.neighbors(centre) if color_of(n) is x.predecessor)
        for order in itertools.permutations(net.sorted_cells()):
            for counts in itertools.product(range(omega + 1), repeat=3):
                seq = [c for c, m in zip(order, counts) for _ in range(m)]
                trace, opt = caco2_run(net, omega, seq)
                A = {c: trace.accepted_at(c) for c in net.cells}
                short = {c: 9 * A[c] < 4 * opt.per_cell[c] for c in net.cells}
                if not short[centre] and 3 * A[centre] > omega and short[cj] and short[ck]:
                    yield trace, opt, centre, cj, ck


def test_caco2_structure_b_overflow_credit_found_by_search():
    omega = 3
    trace, opt, i, cj, ck = next(structure_b_overflow_runs(omega))
    cert = caco2_certificate(trace, opt)
    assert cert.h_values[(i, cj)] == Fraction(4 * opt.per_cell[cj], 9) - trace.accepted_at(cj)
    assert cert.h_values[(i, ck)] == Fraction(omega, 9)
    assert cert.status in ("pass", "uncovered")


def test_donor_budget_fails_on_tampered_optimum():
    # O = 30 at C_j makes its shortfall credit exceed the donor's spare
    trace, opt, i, cj, ck = next(structure_b_overflow_runs(3))
    per_cell = {**opt.per_cell, cj: 30}
    cert = caco2_certificate(trace, OptimumWitness(sum(per_cell.values()), per_cell, opt.assignment))
    assert (i, cj) == ((0, 0), (1, 0))
    assert cert.uncovered == [((0, 0), "compensation exceeds the donor's budget")]
    assert_fails(cert, [
        "donor_budget: FAIL at [(0, 0)]",
        "amortized_total: FAIL sum B = 44/3, sum A = 4",
        "per_cell_ratio_9_4: pass",
        "global_ratio_9_4: FAIL sum O = 33, sum A = 4",
    ])


def test_caco2_certificate_requires_triangle_free():
    net = hex_patch(1)
    trace = run_sequence(make_algorithm("greedy", net, 9), [])
    trace.algorithm = "caco2"
    opt = exact_optimum(net, 9, {})
    with pytest.raises(NotTriangleFreeError):
        caco2_certificate(trace, opt)


@pytest.mark.parametrize(
    "net, requests",
    [(cycle_graph(4), []), (PARTIAL_HEX_STAR, [(0, 0)] * 3 + [(1, 0)] * 9)],
    ids=["cycle4", "partial_star"],
)
def test_caco2_certificate_requires_hex_network(net, requests):
    trace = run_sequence(make_algorithm("greedy", net, 9), requests)
    trace.algorithm = "caco2"
    opt = exact_optimum(net, 9, dict(trace.demands))
    with pytest.raises(NotTriangleFreeError, match="caco2 requires a triangle-free hex network"):
        caco2_certificate(trace, opt)


def test_caco2_flags_degenerate_structure_cells():
    net = Network([(0, 0), (1, 0)])
    trace, _ = caco2_run(net, 9, [(0, 0)] * 9 + [(1, 0)] * 9)
    assert trace.flagged_cells == ((0, 0), (1, 0))  # single-neighbor cells are flagged


# ratio report

def test_ratio_fig2_values():
    assert ratio_report_from_totals(27, 63) == Fraction(7, 3)
    assert ratio_report_from_totals(15, 27) == Fraction(9, 5)


def ratio_report_from_totals(alg_total, opt_total):
    net = Network([(0, 0)])
    trace = run_sequence(make_algorithm("greedy", net, max(alg_total, 1)), [(0, 0)] * alg_total)
    opt = OptimumWitness(opt_total, {(0, 0): opt_total}, {(0, 0): frozenset(range(1, opt_total + 1))})
    return ratio_report(trace, opt).ratio


def test_ratio_empty_convention():
    assert ratio_report_from_totals(0, 0) == Fraction(1)


def test_ratio_infinite():
    net = Network([(0, 0)])
    trace = run_sequence(make_algorithm("greedy", net, 3), [])
    opt = OptimumWitness(5, {(0, 0): 5}, {(0, 0): frozenset({1, 2, 3, 4, 5})})
    report = ratio_report(trace, opt)
    assert report.ratio is None
    assert report.render() == "inf"


def test_ratio_rendering():
    net = Network([(0, 0)])
    trace = run_sequence(make_algorithm("greedy", net, 9), [(0, 0)] * 3)
    opt = OptimumWitness(7, {(0, 0): 7}, {(0, 0): frozenset(range(1, 8))})
    assert ratio_report(trace, opt).render() == "7/3 (~2.3333)"
