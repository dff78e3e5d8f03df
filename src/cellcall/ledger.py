"""Mechanical checkers for the amortized accounting behind the 7/3 and 9/4
competitive bounds.

Each proof is checked in plain integers on one fixed scale L: a value x of
its ledger (a credit h, a charge B) is held as the integer L*x. The caco
proof (floor 3/7, credits divided by 3) uses L = 21, so its credit
(A_k - 3O_k/7)/3 is 7A_k - 3O_k and a donor's B = 3O/7 is 9O. The caco2
proof (floor 4/9, a spare split over at most 3 neighbors, omega/9 credits)
uses L = 54, so a spare (9A - 4O)/9 is 54A - 24O and omega/9 is 6*omega.
Every pass/fail decision is an integer comparison. Fractions are built only
for `Certificate.b_values` and `h_values` and the `sum B` detail text;
floats appear only in decimal renderings of ratios."""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .hexnet import Cell, classify_neighbor_config
from .offline import OptimumWitness
from .online import RunTrace, require_triangle_free_hex

SCALE = {"caco": 21, "caco2": 54}  # L per certificate kind


class NetworkMismatchError(ValueError):
    """Trace and optimum witness were computed over different networks."""


class CheckResult(NamedTuple):
    name: str
    passed: bool
    failing_cells: tuple = ()
    detail: str = ""

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        extra = f" {self.detail}" if self.detail else ""
        cells = f" at {list(self.failing_cells)}" if self.failing_cells else ""
        return f"{self.name}: {status}{extra}{cells}"


class Certificate(NamedTuple):
    """The amortized ledger of one run, shared by the 7/3 and 9/4 proofs.

    Donor cells are charged B = floor * O; every other cell is charged its own
    A plus the credits h[(giver, receiver)] it receives. The run is certified
    when sum B <= sum A and O <= B / floor at every cell, along with the
    preconditions of its proof. B and h are stored scaled by `SCALE[kind]`.
    """

    kind: str  # "caco" or "caco2"
    donors: frozenset  # cells charged floor * O
    b_scaled: dict  # Cell -> int, L * B
    h_scaled: dict  # (Cell, Cell) -> int, L * h, giver -> receiver
    checks: list
    uncovered: list  # (cell, reason) the proof's case tree does not cover

    @property
    def b_values(self) -> dict:
        """Cell -> B as an exact Fraction."""
        return {c: Fraction(v, SCALE[self.kind]) for c, v in self.b_scaled.items()}

    @property
    def h_values(self) -> dict:
        """(giver, receiver) -> h as an exact Fraction."""
        return {k: Fraction(v, SCALE[self.kind]) for k, v in self.h_scaled.items()}

    @property
    def status(self) -> str:
        """The verdict: "fail" if a global check fails, else "uncovered" if a
        case is uncovered, else "pass" when every check passes and "fail" if not."""
        if not all(c.passed for c in self.checks if c.name.startswith("global_")):
            return "fail"
        if self.uncovered:
            return "uncovered"
        return "pass" if all(c.passed for c in self.checks) else "fail"


def _tallies(trace: RunTrace, opt: OptimumWitness) -> tuple:
    """Sorted cells, O and A per cell, of a trace and a witness over the same cells."""
    if set(opt.per_cell) != set(trace.network.cells):
        raise NetworkMismatchError(
            "trace and optimum cover different cell sets: "
            f"{sorted(trace.network.cells)} vs {sorted(opt.per_cell)}"
        )
    cells = trace.network.sorted_cells()
    return cells, {c: opt.per_cell[c] for c in cells}, {c: trace.accepted_at(c) for c in cells}


def _balance(cells, O, A, donors, h, scale: int, floor: tuple, checks: list) -> dict:
    """L * B per cell, with L = `scale`, appending the amortized_total and
    per-cell ratio checks for `floor` = (num, den): (3, 7) checks the 7/3
    ratio, (4, 9) the 9/4 ratio. `h` holds L * h."""
    rate = scale * floor[0] // floor[1]  # L * floor
    received = dict.fromkeys(cells, 0)
    for (_, receiver), amount in h.items():
        received[receiver] += amount
    b = {c: rate * O[c] if c in donors else scale * A[c] + received[c] for c in cells}
    total_b = sum(b.values())
    total_a = sum(A.values())
    checks.append(
        CheckResult(
            "amortized_total",
            total_b <= scale * total_a,
            detail=f"sum B = {Fraction(total_b, scale)}, sum A = {total_a}",
        )
    )
    # O <= B / floor, so B = 0 forces O = 0
    bad = tuple(c for c in cells if rate * O[c] > b[c])
    checks.append(CheckResult(f"per_cell_ratio_{floor[1]}_{floor[0]}", not bad, bad))
    return b


def caco_certificate(trace: RunTrace, opt: OptimumWitness) -> Certificate:
    """Evaluate the safe/dangerous amortization of a 2:2:2:1 partition run.

    The donors are the safe cells, O <= 2*omega/3; each dangerous cell is
    credited (A_k - 3O_k/7)/3 by every neighbor k, which may be negative.
    Checks: (a) safe cells accept at least 3O/7; (b) dangerous cells are
    pairwise non-adjacent and safe cells have at most 3 dangerous neighbors;
    (c) every rejecting cell's shared-set usage, own plus neighbors, covers
    the whole shared range; (d) the amortized total never exceeds the real
    total; (e) per-cell O <= 7/3 * B, with B = 0 forcing O = 0.
    """
    cells, O, A = _tallies(trace, opt)
    net, omega = trace.network, trace.omega
    donors = frozenset(c for c in cells if 3 * O[c] <= 2 * omega)
    h = {
        (k, c): 7 * A[k] - 3 * O[k]  # 21 * (A_k - 3O_k/7)/3
        for c in cells
        if c not in donors
        for k in net.neighbors(c)
    }

    checks = []

    bad = tuple(c for c in cells if c in donors and 7 * A[c] < 3 * O[c])
    checks.append(CheckResult("safe_cell_floor", not bad, bad))

    adj_dangerous = tuple(
        u
        for u in cells
        if u not in donors and any(v not in donors for v in net.neighbors(u))
    )
    crowded = tuple(
        u
        for u in cells
        if u in donors and sum(1 for v in net.neighbors(u) if v not in donors) > 3
    )
    checks.append(
        CheckResult("dangerous_separation", not (adj_dangerous or crowded), adj_dangerous + crowded)
    )

    A_S = {c: trace.shared_accepted_at(c) for c in cells}
    bad = tuple(
        c
        for c in sorted(trace.rejecting_cells())
        if 7 * (A_S[c] + sum(A_S[k] for k in net.neighbors(c))) < omega
    )
    checks.append(CheckResult("shared_exhaustion_at_rejection", not bad, bad))

    b = _balance(cells, O, A, donors, h, SCALE["caco"], (3, 7), checks)
    return Certificate("caco", donors, b, h, checks, [])


def caco2_certificate(trace: RunTrace, opt: OptimumWitness) -> Certificate:
    """Evaluate the compensation accounting of a thirds-partition run.

    The donors are the cells with A >= 4O/9; each donates its surplus along
    the proof's case tree. Cells the tree does not cover for the given
    optimum witness are reported as uncovered rather than guessed. The global
    9/4 ratio check is independent of the case tree and always enforced.
    """
    cells, O, A = _tallies(trace, opt)
    net, omega = trace.network, trace.omega
    require_triangle_free_hex(net)
    donors = frozenset(c for c in cells if 9 * A[c] >= 4 * O[c])

    h: dict = {}
    uncovered: list = []

    def credit(i: Cell, j: Cell, amount: int) -> None:
        # each branch below credits a surplus donor's spare, a deficient
        # receiver's shortfall or omega/9, so no amount is negative; raised
        # rather than asserted so the check also runs under `python -O`
        if amount < 0:
            raise AssertionError(f"negative compensation from {i} toward {j}")
        if amount:
            h[(i, j)] = h.get((i, j), 0) + amount

    # all amounts are 54 times the proof's: 54 * 4O/9 = 24O, 54 * omega/9 = 6 omega
    for i in cells:
        if i not in donors:
            continue
        spare = 54 * A[i] - 24 * O[i]
        succ, pred = classify_neighbor_config(net, i)
        if not (succ and pred):
            # structure A: each of the k <= 3 neighbors gets spare/k; isolated: nothing
            receivers = succ + pred
            share, rest = divmod(spare, len(receivers) or 1)
            if rest:
                raise AssertionError(f"spare of {i} does not split over {len(receivers)} neighbors")
            for j in receivers:
                credit(i, j, share)
            continue
        # structure B: C_j has the successor color of i, C_k the predecessor
        (cj,), (ck,) = succ, pred
        if 3 * A[i] > omega:
            if cj not in donors:
                credit(i, cj, 24 * O[cj] - 54 * A[cj])
                if ck not in donors:
                    credit(i, ck, 6 * omega)
            elif ck not in donors:
                credit(i, ck, spare)
        else:
            if ck not in donors:
                credit(i, ck, spare)

    checks = []

    given = dict.fromkeys(cells, 0)
    for (giver, _), amount in h.items():
        given[giver] += amount
    over_budget = tuple(i for i in cells if i in donors and 24 * O[i] + given[i] > 54 * A[i])
    for i in over_budget:
        uncovered.append((i, "compensation exceeds the donor's budget"))
    checks.append(CheckResult("donor_budget", not over_budget, over_budget))

    b = _balance(cells, O, A, donors, h, SCALE["caco2"], (4, 9), checks)
    for i in checks[-1].failing_cells:  # per_cell_ratio_9_4
        if i not in donors:
            uncovered.append((i, "compensation left the cell below 4O/9"))

    total_o = sum(O.values())
    total_a = sum(A.values())
    checks.append(
        CheckResult(
            "global_ratio_9_4",
            4 * total_o <= 9 * total_a,
            detail=f"sum O = {total_o}, sum A = {total_a}",
        )
    )

    return Certificate("caco2", donors, b, h, checks, sorted(set(uncovered)))


class RatioReport(NamedTuple):
    ratio: Optional[Fraction]  # None means infinite

    def render(self) -> str:
        if self.ratio is None:
            return "inf"
        r = self.ratio
        if r.denominator == 1:
            return f"{r.numerator} (~{float(r):.4f})"
        return f"{r.numerator}/{r.denominator} (~{float(r):.4f})"


def ratio_report(trace: RunTrace, opt: OptimumWitness) -> RatioReport:
    """Exact OPT/ALG ratio; 1 for the empty instance, infinite when the
    algorithm accepted nothing but the optimum is positive."""
    alg = trace.total_accepted()
    if alg == 0:
        return RatioReport(Fraction(1) if opt.total == 0 else None)
    return RatioReport(Fraction(opt.total, alg))
