"""End-to-end acceptance gate.

Each test prints one verdict line through the terminal reporter so the
pass/fail record survives pytest's output capturing. The two big random
sweeps are built once per module and shared by the bound, certificate,
solver, and invariant checks.
"""

import hashlib
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import pytest
from click.testing import CliRunner

from cellcall.adversary import fig2_adversary, fig3_adversary, phase_ratios, run_duel
from cellcall.cli import main
from cellcall.hexnet import Network
from cellcall.ledger import caco2_certificate, caco_certificate
from cellcall.offline import clique_upper_bound, exact_optimum
from cellcall.online import Caco2Algorithm, caco_algorithm, make_algorithm
from conftest import ODD_HOLE, random_network, random_requests
from oracles import exhaustive_oracle, overflow_order_violations, recorded_run

CACO_SWEEP_SIZE = 500
CACO2_SWEEP_SIZE = 500
ORACLE_SWEEP_SIZE = 200
# `_sweep`'s arguments for each sweep: seed, size, omegas, triangle-free, algorithm
CACO_SWEEP = (2024, CACO_SWEEP_SIZE, (7, 14, 21), False, caco_algorithm)
CACO2_SWEEP = (2025, CACO2_SWEEP_SIZE, (3, 9, 21), True, Caco2Algorithm)


@pytest.fixture(scope="module")
def announce(request):
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def _announce(line):
        if reporter is not None:
            reporter.write_line(line)
        else:
            print(line)

    return _announce


def verdict(announce, number, label, ok, extra=""):
    announce(f"acceptance {number} [{label}]: {'PASS' if ok else 'FAIL'}{extra}")
    assert ok, f"criterion {number} ({label}) failed"


@dataclass
class SweepInstance:
    network: Network
    omega: int
    demands: dict
    trace: object
    log: list  # (cell, frequency or None) per request
    opt: object


def _sweep(seed, size, omegas, triangle_free, factory):
    rng = random.Random(seed)
    instances = []
    start = time.perf_counter()
    for _ in range(size):
        net = random_network(rng, max_cells=9, triangle_free=triangle_free)
        omega = rng.choice(omegas)
        seq = random_requests(rng, net, rng.randint(0, 6 * omega))
        trace, log = recorded_run(factory(net, omega), seq)
        opt = exact_optimum(net, omega, dict(trace.demands))
        instances.append(SweepInstance(net, omega, dict(trace.demands), trace, log, opt))
    return instances, time.perf_counter() - start


@pytest.fixture(scope="module")
def caco_sweep():
    return _sweep(*CACO_SWEEP)


@pytest.fixture(scope="module")
def caco2_sweep():
    return _sweep(*CACO2_SWEEP)


def test_criterion_1_fig2_reproduction(announce):
    start = time.perf_counter()
    result = CliRunner().invoke(
        main, ["duel", "--adversary", "fig2", "--alg", "caco", "--omega", "21"]
    )
    elapsed = time.perf_counter() - start
    scenario = fig2_adversary(21)
    trace = run_duel(scenario, make_algorithm("caco", scenario.network, 21))
    opt = exact_optimum(trace.network, 21, dict(trace.demands))
    ok = (
        result.exit_code == 0
        and "online=27 opt=63" in result.output
        and "7/3" in result.output
        and trace.total_accepted() == 27
        and opt.total == 63
        and Fraction(opt.total, trace.total_accepted()) == Fraction(7, 3)
        and elapsed < 1.0
    )
    verdict(announce, 1, "fig2 duel 27/63 = 7/3, under 1 s", ok, f" ({elapsed:.2f}s)")


def test_criterion_2_partition_family_balance(announce):
    points = [(1, 1), (2, 1), (3, 1), (4, 1), (1, 2)]
    strengths = {}
    ok = True
    for x, y in points:
        omega = 3 * (3 * x + y)
        ratios = phase_ratios(
            fig2_adversary(omega),
            lambda net, om, x=x, y=y: make_algorithm(f"partition:{x}:{y}", net, om),
        )
        strength = max(ratios)
        expected = max(Fraction(3 * x + y, x + y), Fraction(3 * (3 * x + y), 4 * x + y))
        ok = ok and strength == expected
        strengths[(x, y)] = strength
    minimizers = [p for p, s in strengths.items() if s == min(strengths.values())]
    ok = ok and minimizers == [(2, 1)] and strengths[(2, 1)] == Fraction(7, 3)
    # at 2:1 the two branch ratios coincide
    ok = ok and Fraction(7, 3) == Fraction(21, 9) == Fraction(3 * 7, 9)
    verdict(announce, 2, "family balance, unique minimum 2:1 at 7/3", ok)


def test_criterion_3_fig3_reproduction(announce):
    result = CliRunner().invoke(
        main, ["duel", "--adversary", "fig3", "--alg", "caco2", "--omega", "9"]
    )
    ok = (
        result.exit_code == 0
        and "online=15 opt=27" in result.output
        and "9/5" in result.output
    )
    checked = 0
    for omega in (9, 15, 45):
        selectors = ["greedy", "caco2"]
        if omega % 7 == 0:
            selectors.append("caco")
        for x, y in ((1, 1), (2, 1), (1, 2)):
            if omega % (3 * x + y) == 0:
                selectors.append(f"partition:{x}:{y}")
        for selector in selectors:
            scenario = fig3_adversary(omega)
            trace = run_duel(scenario, make_algorithm(selector, scenario.network, omega))
            opt = exact_optimum(trace.network, omega, dict(trace.demands))
            ok = ok and 3 * opt.total >= 5 * trace.total_accepted()
            checked += 1
    ok = ok and checked >= 8
    verdict(announce, 3, "fig3 duel 15/27 = 9/5, all ratios >= 5/3", ok)


def test_criterion_4_upper_bound_sweeps(announce, caco_sweep, caco2_sweep):
    caco_instances, caco_time = caco_sweep
    caco2_instances, caco2_time = caco2_sweep
    ok = len(caco_instances) >= 500 and len(caco2_instances) >= 500
    for inst in caco_instances:
        # OPT/ALG <= 7/3 exactly; OPT = 0 forces ALG = 0 too, which is in bound
        ok = ok and 3 * inst.opt.total <= 7 * inst.trace.total_accepted()
    for inst in caco2_instances:
        ok = ok and 4 * inst.opt.total <= 9 * inst.trace.total_accepted()
    total_time = caco_time + caco2_time
    ok = ok and total_time < 60
    verdict(
        announce,
        4,
        "random sweeps within 7/3 and 9/4",
        ok,
        f" ({len(caco_instances)}+{len(caco2_instances)} instances, {total_time:.1f}s)",
    )


def test_criterion_5_certificates(announce, caco_sweep, caco2_sweep):
    ok = True
    for inst in caco_sweep[0]:
        cert = caco_certificate(inst.trace, inst.opt.per_cell)
        ok = ok and cert.status == "pass" and len(cert.checks) == 5
    uncovered = 0
    for inst in caco2_sweep[0]:
        cert = caco2_certificate(inst.trace, inst.opt.per_cell)
        ok = ok and cert.status in ("pass", "uncovered")
        ok = ok and all(c.passed for c in cert.checks if c.name == "global_ratio_9_4")
        uncovered += cert.status == "uncovered"
    rate = uncovered / len(caco2_sweep[0])
    verdict(
        announce,
        5,
        "certificates valid on both sweeps",
        ok,
        f" (uncovered rate {rate:.1%})",
    )


def test_criterion_6_solver_correctness(announce, caco_sweep, caco2_sweep):
    rng = random.Random(606)
    ok = True
    for _ in range(ORACLE_SWEEP_SIZE):
        net = random_network(rng, max_cells=4)
        omega = rng.randint(1, 6)
        demands = {c: rng.randint(0, 2 * omega) for c in net.cells}
        exact = exact_optimum(net, omega, demands)
        ok = ok and exact.total == exhaustive_oracle(net, omega, demands).total
        ok = ok and clique_upper_bound(net, omega, demands) >= exact.total
    for inst in caco_sweep[0] + caco2_sweep[0]:
        ok = ok and clique_upper_bound(inst.network, inst.omega, inst.demands) >= inst.opt.total
    hole_demands = dict.fromkeys(ODD_HOLE.cells, 2)
    ok = ok and exact_optimum(ODD_HOLE, 2, hole_demands).total == 8
    ok = ok and clique_upper_bound(ODD_HOLE, 2, hole_demands) == 9
    verdict(announce, 6, "exact solver matches oracle, bounds ordered", ok)


# sha256 over both sweeps' per-cell optimum vectors: reports print O, so a
# solver change that alters any of them fails here
SWEEP_OPTIMA_SHA256 = "f23eaeff32d9f01de889c59fc145605b2682ccdd493d84735f6f57dd38313b48"


def test_sweep_optima_are_pinned(caco_sweep, caco2_sweep):
    digest = hashlib.sha256()
    for inst in caco_sweep[0] + caco2_sweep[0]:
        digest.update(repr(sorted(inst.opt.per_cell.items())).encode() + b"\n")
    assert digest.hexdigest() == SWEEP_OPTIMA_SHA256


# sha256 over each sweep instance's per-request outcomes, in request order:
# the frequency taken, or None for a reject
SWEEP_OUTCOMES_SHA256 = "d2a4474035adb9eba66ac136496057cb98cd6117445686f084996562a3d0c468"


def test_sweep_outcomes_are_pinned(caco_sweep, caco2_sweep):
    digest = hashlib.sha256()
    for inst in caco_sweep[0] + caco2_sweep[0]:
        digest.update(repr([f for _, f in inst.log]).encode() + b"\n")
    assert digest.hexdigest() == SWEEP_OUTCOMES_SHA256


def test_criterion_7_greedy_separation(announce):
    scenario = fig2_adversary(21)
    trace = run_duel(scenario, make_algorithm("greedy", scenario.network, 21))
    opt = exact_optimum(trace.network, 21, dict(trace.demands))
    ratio = Fraction(opt.total, trace.total_accepted())
    ok = ratio == 3 and ratio > Fraction(7, 3)
    verdict(announce, 7, "greedy loses 3 vs 7/3 on star traffic", ok)


def test_criterion_8_trace_invariants(announce, caco_sweep, caco2_sweep):
    ok = True
    for inst in caco_sweep[0]:
        omega = inst.omega
        trace = inst.trace
        for cell in inst.network.sorted_cells():
            # own range holds 2*omega/7 frequencies and is never blocked
            if 7 * inst.demands.get(cell, 0) >= 2 * omega:
                ok = ok and 7 * trace.state.count(cell) >= 2 * omega
        # A_S from the state, at the cells the recorded run saw reject
        shared_range = trace.algorithm.partition.shared
        for cell in {cell for cell, f in inst.log if f is None}:
            shared = sum(trace.state.count_in(c, shared_range) for c in (cell, *inst.network.neighbors(cell)))
            ok = ok and 7 * shared >= omega
    for inst in caco2_sweep[0]:
        ok = ok and overflow_order_violations(inst.trace) == []
    verdict(announce, 8, "acceptance floors, shared exhaustion, overflow order", ok)
