"""An independent exact check of every printed optimum: a mixed-integer
program solved by SciPy's HiGHS, which shares no code with `cellcall.offline`.

A binary x[cell, f] says that the cell serves a call on frequency f of
1..omega. One row per cell keeps its calls within its demand, and one row per
edge and frequency keeps two adjacent cells off one frequency; the most calls
served is OPT. The module is skipped where SciPy is not installed.
"""

from pathlib import Path

import pytest

from cellcall.adversary import fig2_adversary, fig3_adversary, run_duel
from cellcall.harness import load_scenario, validate_scenario
from cellcall.offline import exact_optimum
from cellcall.online import make_algorithm, run_sequence
from test_acceptance import CACO2_SWEEP, CACO_SWEEP, _sweep

np = pytest.importorskip("numpy")
optimize = pytest.importorskip("scipy.optimize")
sparse = pytest.importorskip("scipy.sparse")

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# each selector with the number of parts its partition splits omega into
PARTS = {"greedy": 1, "caco": 7, "caco2": 3, "partition:1:1": 4, "partition:1:2": 5}


def milp_optimum(network, omega: int, demands: dict) -> int:
    """OPT of the instance as HiGHS proves it, gap 0; x[i, f] is variable
    i * omega + f for the i-th sorted cell and f in 0..omega-1."""
    cells = network.sorted_cells()
    size = len(cells) * omega
    if not size:
        return 0
    index = {c: i for i, c in enumerate(cells)}
    rows, cols, upper = [], [], []
    for i, c in enumerate(cells):
        rows += [len(upper)] * omega
        cols += range(i * omega, (i + 1) * omega)
        upper.append(demands.get(c, 0))
    for i, c in enumerate(cells):
        for j in (index[n] for n in network.neighbors(c) if index[n] > i):
            for f in range(omega):
                rows += [len(upper)] * 2
                cols += [i * omega + f, j * omega + f]
                upper.append(1)
    matrix = sparse.coo_array((np.ones(len(rows)), (rows, cols)), shape=(len(upper), size))
    result = optimize.milp(
        -np.ones(size),
        constraints=optimize.LinearConstraint(matrix, -np.inf, upper),
        integrality=np.ones(size),
        bounds=optimize.Bounds(0, 1),
        options={"mip_rel_gap": 0},
    )
    assert result.success, result.message
    return round(-result.fun)


@pytest.mark.parametrize("sweep", [CACO_SWEEP, CACO2_SWEEP], ids=["caco", "caco2"])
def test_milp_agrees_on_the_acceptance_sweep(sweep):
    instances, _ = _sweep(*sweep)
    found = [milp_optimum(inst.network, inst.omega, inst.demands) for inst in instances]
    wrong = [(k, inst.opt.total, f) for k, (inst, f) in enumerate(zip(instances, found)) if f != inst.opt.total]
    assert not wrong, f"(instance, exact_optimum, MILP): {wrong}"


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")), ids=lambda path: path.stem)
def test_milp_agrees_on_the_bundled_scenarios(path):
    config = load_scenario(path)
    adversary, algorithm = validate_scenario(config)
    trace = run_sequence(algorithm, config.traffic) if adversary is None else run_duel(adversary, algorithm)
    demands = dict(trace.demands)
    assert milp_optimum(trace.network, trace.omega, demands) == exact_optimum(trace.network, trace.omega, demands).total


@pytest.mark.parametrize("adversary", [fig2_adversary, fig3_adversary], ids=["fig2", "fig3"])
def test_milp_agrees_on_the_star_duels(adversary):
    checked, wrong = 0, []
    for omega in range(1, 22):
        for selector in (s for s, parts in PARTS.items() if omega % parts == 0):
            scenario = adversary(omega)
            trace = run_duel(scenario, make_algorithm(selector, scenario.network, omega))
            demands = dict(trace.demands)
            expected = exact_optimum(trace.network, omega, demands).total
            found = milp_optimum(trace.network, omega, demands)
            checked += 1
            if found != expected:
                wrong.append((selector, omega, expected, found))
    assert not wrong, f"(selector, omega, exact_optimum, MILP): {wrong}"
    assert checked == 21 + 3 + 7 + 5 + 4  # greedy at every omega, each partition where it divides
