import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cellcall.adversary import STAR_CENTER, STAR_OUTER, fig2_adversary, fig3_adversary, run_duel
from cellcall.harness import RunReport, render_ratio
from cellcall.hexnet import AXIAL_DIRECTIONS, Network, classify_neighbor_config, color_of, hex_patch
from cellcall.ledger import (
    NetworkMismatchError,
    caco2_certificate,
    caco_certificate,
    ratio_report,
)
from cellcall.offline import exact_optimum
from cellcall.online import (
    Caco2Algorithm,
    NotTriangleFreeError,
    caco_algorithm,
    make_algorithm,
    run_sequence,
)
from conftest import random_network, random_requests

ROOT = Path(__file__).resolve().parents[1]


# Reference ledgers: B and h recomputed in Fractions straight from the proofs'
# formulas, for comparison with the certificates' integer arithmetic. Each
# takes the per-cell optimum O, as the certificates do.

def reference_caco(trace, O):
    net, omega = trace.network, trace.omega
    A = {c: trace.state.count(c) for c in net.cells}
    donors = {c for c in net.cells if O[c] <= Fraction(2 * omega, 3)}
    h = {
        (k, c): (A[k] - Fraction(3, 7) * O[k]) / 3
        for c in net.cells
        if c not in donors
        for k in net.neighbors(c)
    }
    return donors, h, reference_b(net, O, A, donors, h, Fraction(3, 7))


def reference_caco2(trace, O):
    net, omega = trace.network, trace.omega
    A = {c: trace.state.count(c) for c in net.cells}
    floor = Fraction(4, 9)
    donors = {c for c in net.cells if A[c] >= floor * O[c]}
    h = {}

    def credit(i, j, amount):
        assert amount >= 0
        if amount:
            h[(i, j)] = h.get((i, j), 0) + amount

    for i in donors:
        spare = A[i] - floor * O[i]
        succ, pred = classify_neighbor_config(net, i)
        if not (succ and pred):
            for j in succ + pred:
                credit(i, j, spare / len(succ + pred))
        elif 3 * A[i] > omega:
            (cj,), (ck,) = succ, pred
            if cj not in donors:
                credit(i, cj, floor * O[cj] - A[cj])
                if ck not in donors:
                    credit(i, ck, Fraction(omega, 9))
            elif ck not in donors:
                credit(i, ck, spare)
        elif pred[0] not in donors:
            credit(i, pred[0], spare)
    return donors, h, reference_b(net, O, A, donors, h, floor)


def reference_b(net, O, A, donors, h, floor):
    return {
        c: floor * O[c] if c in donors else A[c] + sum(v for (_, r), v in h.items() if r == c)
        for c in net.cells
    }


def assert_matches_reference(cert, trace, O):
    """The certificate's donors, B and h equal the reference ledger's, and its
    balance checks give the reference verdicts."""
    donors, h, b = {"caco": reference_caco, "caco2": reference_caco2}[cert.kind](trace, O)
    assert cert.donors == donors
    assert cert.h_values == h
    assert cert.b_values == b
    assert all(isinstance(v, Fraction) for v in [*cert.b_values.values(), *cert.h_values.values()])
    floor = Fraction(3, 7) if cert.kind == "caco" else Fraction(4, 9)
    checks = {c.name: c for c in cert.checks}
    total_a = trace.total_accepted()
    assert checks["amortized_total"].passed == (sum(b.values()) <= total_a)
    assert checks["amortized_total"].detail == f"sum B = {sum(b.values())}, sum A = {total_a}"
    short = tuple(c for c in trace.network.sorted_cells() if not O[c] <= b[c] / floor)
    ratio = checks[f"per_cell_ratio_{floor.denominator}_{floor.numerator}"]
    assert ratio.failing_cells == short and ratio.passed == (not short)
    if cert.kind == "caco2":
        given = {i: sum(v for (g, _), v in h.items() if g == i) for i in donors}
        over = tuple(
            i for i in trace.network.sorted_cells()
            if i in donors and floor * O[i] + given[i] > trace.state.count(i)
        )
        assert checks["donor_budget"].failing_cells == over


def tampered(rng, O, omega):
    """The per-cell optimum `O` with every cell's O redrawn from 0..2*omega."""
    return {c: rng.randint(0, 2 * omega) for c in O}


def caco_run(net, omega, seq):
    trace = run_sequence(caco_algorithm(net, omega), seq)
    opt = exact_optimum(net, omega, dict(trace.demands))
    return trace, opt


def test_fig2_certificate_values():
    scenario = fig2_adversary(21)
    trace = run_duel(scenario, make_algorithm("caco", scenario.network, scenario.omega))
    opt = exact_optimum(trace.network, 21, dict(trace.demands))
    cert = caco_certificate(trace, opt.per_cell)
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
    cert = caco_certificate(trace, opt.per_cell)
    assert cert.status == "pass"
    assert all(b == 0 for b in cert.b_values.values())


def test_single_cell_dangerous():
    net = Network([(0, 0)])
    trace, opt = caco_run(net, 21, [(0, 0)] * 21)
    cert = caco_certificate(trace, opt.per_cell)
    assert (0, 0) not in cert.donors  # O = 21 > 14
    assert trace.state.count((0, 0)) == 9  # 3*omega/7
    assert cert.b_values[(0, 0)] == 9
    assert cert.status == "pass"


def test_caco_certificate_random_sweep():
    rng = random.Random(77)
    negative_credits = failed = 0
    for _ in range(40):
        net = random_network(rng, max_cells=9)
        omega = rng.choice([7, 14, 21])
        trace, opt = caco_run(net, omega, random_requests(rng, net, rng.randint(0, 4 * omega)))
        cert = caco_certificate(trace, opt.per_cell)
        assert cert.status == "pass", [str(c) for c in cert.checks if not c.passed]
        assert_matches_reference(cert, trace, opt.per_cell)
        bad = tampered(rng, opt.per_cell, omega)
        cert = caco_certificate(trace, bad)
        assert_matches_reference(cert, trace, bad)
        negative_credits += any(v < 0 for v in cert.h_values.values())
        failed += cert.status == "fail"
    assert negative_credits and failed


def test_network_mismatch_rejected():
    net = Network([(0, 0)])
    trace, _ = caco_run(net, 21, [(0, 0)])
    with pytest.raises(NetworkMismatchError):
        caco_certificate(trace, {(5, 5): 0})


def test_tampered_optimum_fails_with_cell_named():
    # inflate the optimum beyond 7/3 * B at one cell: check (e) must fail
    net = Network([(0, 0)])
    trace, _ = caco_run(net, 21, [(0, 0)] * 2)
    cert = caco_certificate(trace, {(0, 0): 22})
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
    cert = caco_certificate(trace, {(0, 0): 7})
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
    cert = caco_certificate(trace, {(0, 0): 15, (1, 0): 15})
    assert cert.h_values[((1, 0), (0, 0))] == Fraction(-38, 21)
    assert_fails(cert, [
        "safe_cell_floor: pass",
        "dangerous_separation: FAIL at [(0, 0), (1, 0)]",
        "shared_exhaustion_at_rejection: pass",
        "amortized_total: pass sum B = -2/7, sum A = 3",
        "per_cell_ratio_7_3: FAIL at [(0, 0), (1, 0)]",
    ])


def test_crowded_safe_cell_fails_separation():
    # a safe centre with four dangerous leaves; adjacent leaves fail the
    # separation themselves, and only the `crowded` term adds the centre
    leaves = [(1, 0), (1, -1), (0, -1), (-1, 1)]
    net = Network([(0, 0)] + leaves)
    trace, _ = caco_run(net, 7, [(0, 0)] * 2 + [c for c in leaves for _ in range(2)])
    cert = caco_certificate(trace, {(0, 0): 0, **dict.fromkeys(leaves, 7)})
    assert_fails(cert, [
        "safe_cell_floor: pass",
        "dangerous_separation: FAIL at [(0, -1), (1, -1), (1, 0), (0, 0)]",
        "shared_exhaustion_at_rejection: pass",
        "amortized_total: pass sum B = 28/3, sum A = 10",
        "per_cell_ratio_7_3: FAIL at [(-1, 1), (0, -1), (1, -1), (1, 0)]",
    ])


def test_balance_checks_fail_by_one_twenty_first():
    # O = 6 at (1, 0) needs B >= 18/7 = 54/21, and B is 2 + (2 - 3/7)/3 = 53/21
    net = Network([(0, 0), (1, 0)])
    trace, _ = caco_run(net, 7, [(0, 0), (0, 0), (1, 0), (1, 0)])
    cert = caco_certificate(trace, {(0, 0): 1, (1, 0): 6})
    assert cert.b_values[(1, 0)] == Fraction(53, 21)
    assert_fails(cert, [
        "safe_cell_floor: pass",
        "dangerous_separation: pass",
        "shared_exhaustion_at_rejection: pass",
        "amortized_total: pass sum B = 62/21, sum A = 4",
        "per_cell_ratio_7_3: FAIL at [(1, 0)]",
    ])
    # sum B exceeds sum A = 1 by 1/21
    net = Network([(-1, 0), (0, 0), (1, 0)])
    trace, _ = caco_run(net, 7, [(1, 0)])
    cert = caco_certificate(trace, {(-1, 0): 4, (0, 0): 5, (1, 0): 5})
    assert_fails(cert, [
        "safe_cell_floor: FAIL at [(-1, 0)]",
        "dangerous_separation: FAIL at [(0, 0), (1, 0)]",
        "shared_exhaustion_at_rejection: pass",
        "amortized_total: FAIL sum B = 22/21, sum A = 1",
        "per_cell_ratio_7_3: FAIL at [(0, 0), (1, 0)]",
    ])


def test_greedy_trace_fails_shared_exhaustion():
    # greedy has no shared range, so a rejection finds none of it in use
    net = Network([(0, 0)])
    trace = run_sequence(make_algorithm("greedy", net, 7), [(0, 0)] * 8)
    opt = exact_optimum(net, 7, dict(trace.demands))
    assert_fails(caco_certificate(trace, opt.per_cell), [
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
    cert = caco2_certificate(trace, opt.per_cell)
    for c in STAR_OUTER:
        assert cert.h_values[(STAR_CENTER, c)] == 2
        assert cert.b_values[c] == 5  # 3 accepted + 2 compensation
        assert 4 * opt.per_cell[c] <= 9 * cert.b_values[c]
    assert sum(cert.b_values.values()) == 15 == trace.total_accepted()
    assert cert.status == "pass"


def test_caco2_empty_sequence():
    net = Network([(0, 0), (1, 0)])
    trace, opt = caco2_run(net, 9, [])
    assert caco2_certificate(trace, opt.per_cell).status == "pass"


def test_caco2_single_isolated_cell():
    net = Network([(0, 0)])
    trace, opt = caco2_run(net, 9, [(0, 0)] * 9)
    cert = caco2_certificate(trace, opt.per_cell)
    assert trace.state.count((0, 0)) == 9
    assert cert.b_values[(0, 0)] == 4  # 4*O/9 with O = 9
    assert Fraction(opt.per_cell[(0, 0)]) / cert.b_values[(0, 0)] == Fraction(9, 4)
    assert cert.status == "pass"


def test_caco2_random_sweep_pass_or_uncovered():
    rng = random.Random(78)
    statuses = []
    failed_checks = 0
    for _ in range(40):
        net = random_network(rng, max_cells=9, triangle_free=True)
        omega = rng.choice([3, 9, 21])
        trace, opt = caco2_run(net, omega, random_requests(rng, net, rng.randint(0, 4 * omega)))
        cert = caco2_certificate(trace, opt.per_cell)
        assert cert.status in ("pass", "uncovered"), [str(c) for c in cert.checks]
        assert_matches_reference(cert, trace, opt.per_cell)
        statuses.append(cert.status)
        bad = tampered(rng, opt.per_cell, omega)
        cert = caco2_certificate(trace, bad)
        assert_matches_reference(cert, trace, bad)
        failed_checks += not all(c.passed for c in cert.checks)
    assert "pass" in statuses and failed_checks


def structure_b_overflow_runs(omega):
    """caco2 runs, under block traffic, on 3-cell paths whose centre i has
    neighbours of both other colours (structure B); yields those where i
    donates with 3*A_i > omega while both neighbours fall short of 4O/9, the
    case that credits omega/9 to the predecessor-coloured neighbour."""
    centre = (0, 0)
    for q, r in AXIAL_DIRECTIONS[:3]:
        net = Network([centre, (q, r), (-q, -r)])  # opposite neighbours: two colours, no triangle
        x = color_of(centre)
        cj = next(n for n in net.neighbors(centre) if color_of(n) == (x + 1) % 3)
        ck = next(n for n in net.neighbors(centre) if color_of(n) == (x - 1) % 3)
        for order in itertools.permutations(net.sorted_cells()):
            for counts in itertools.product(range(omega + 1), repeat=3):
                seq = [c for c, m in zip(order, counts) for _ in range(m)]
                trace, opt = caco2_run(net, omega, seq)
                A = {c: trace.state.count(c) for c in net.cells}
                short = {c: 9 * A[c] < 4 * opt.per_cell[c] for c in net.cells}
                if not short[centre] and 3 * A[centre] > omega and short[cj] and short[ck]:
                    yield trace, opt, centre, cj, ck


def test_caco2_structure_b_overflow_credit_found_by_search():
    omega = 3
    trace, opt, i, cj, ck = next(structure_b_overflow_runs(omega))
    cert = caco2_certificate(trace, opt.per_cell)
    assert cert.h_values[(i, cj)] == Fraction(4 * opt.per_cell[cj], 9) - trace.state.count(cj)
    assert cert.h_values[(i, ck)] == Fraction(omega, 9)
    assert cert.status in ("pass", "uncovered")


def test_donor_budget_fails_on_tampered_optimum():
    # O = 30 at C_j makes its shortfall credit exceed the donor's spare
    trace, opt, i, cj, ck = next(structure_b_overflow_runs(3))
    cert = caco2_certificate(trace, {**opt.per_cell, cj: 30})
    assert (i, cj) == ((0, 0), (1, 0))
    assert cert.uncovered == [((0, 0), "compensation exceeds the donor's budget")]
    assert_fails(cert, [
        "donor_budget: FAIL at [(0, 0)]",
        "amortized_total: FAIL sum B = 44/3, sum A = 4",
        "per_cell_ratio_9_4: pass",
        "global_ratio_9_4: FAIL sum O = 33, sum A = 4",
    ])


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_caco2_straight_path_uncovered_at_every_scale(k):
    # block traffic 2k, k, 3k along a straight path at omega 3k: the run keeps
    # the global 9/4 ratio, but the case tree leaves the far end (1, 0) short
    net = Network([(-1, 0), (0, 0), (1, 0)])
    trace, opt = caco2_run(net, 3 * k, [(-1, 0)] * (2 * k) + [(0, 0)] * k + [(1, 0)] * (3 * k))
    cert = caco2_certificate(trace, opt.per_cell)
    assert (trace.total_accepted(), opt.total) == (4 * k, 5 * k)
    assert cert.uncovered == [((1, 0), "compensation left the cell below 4O/9")]
    assert cert.status == "uncovered"
    assert next(c for c in cert.checks if c.name == "global_ratio_9_4").passed
    assert_matches_reference(cert, trace, opt.per_cell)


def test_caco2_split_check_runs_under_python_optimize():
    # claim structure A with four receivers for the centre's spare
    # 54*1 - 24*1 = 30, which 4 does not divide, through the network's cached
    # split, which the certificate reads; an `assert` would let it pass under -O
    code = (
        "from cellcall import ledger\n"
        "from cellcall.hexnet import Network\n"
        "from cellcall.offline import exact_optimum\n"
        "from cellcall.online import Caco2Algorithm, run_sequence\n"
        "net = Network([(-1, 0), (0, 0), (1, 0)])\n"
        "trace = run_sequence(Caco2Algorithm(net, 9), [(0, 0)])\n"
        "opt = exact_optimum(net, 9, dict(trace.demands))\n"
        "net.neighbor_configs = {c: (net.neighbors(c) * 2, ()) for c in net.cells}\n"
        "ledger.caco2_certificate(trace, opt.per_cell)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    result = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 1
    assert result.stderr.endswith("AssertionError: spare of (0, 0) does not split over 4 neighbors\n")


def test_caco2_certificate_requires_triangle_free():
    net = hex_patch(1)
    trace = run_sequence(make_algorithm("greedy", net, 9), [])
    opt = exact_optimum(net, 9, {})
    with pytest.raises(NotTriangleFreeError, match="^caco2 requires a triangle-free hex network$"):
        caco2_certificate(trace, opt.per_cell)


def test_caco2_flags_degenerate_structure_cells():
    net = Network([(0, 0), (1, 0)])
    trace, _ = caco2_run(net, 9, [(0, 0)] * 9 + [(1, 0)] * 9)
    assert trace.algorithm.flagged_cells == ((0, 0), (1, 0))  # single-neighbor cells are flagged


# ratio report

def test_ratio_fig2_values():
    assert ratio_report(63, 27) == Fraction(7, 3)
    assert ratio_report(27, 15) == Fraction(9, 5)


def test_ratio_empty_convention():
    assert ratio_report(0, 0) == Fraction(1)


def test_ratio_infinite():
    assert ratio_report(5, 0) is None
    assert render_ratio(None) == "inf"


def test_ratio_rendering():
    assert render_ratio(ratio_report(7, 3)) == "7/3 (~2.3333)"
    assert render_ratio(Fraction(3)) == "3 (~3.0000)"
