"""Mechanical checkers for the amortized accounting behind the 7/3 and 9/4
competitive bounds. Every pass/fail decision uses exact integer/rational
arithmetic; floats appear only in decimal renderings."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .hexnet import (
    Cell,
    Isolated,
    StructureA,
    classify_neighbor_config,
    color_of,
    is_triangle_free,
)
from .offline import OptimumWitness
from .online import NotTriangleFreeError, RunTrace


class NetworkMismatchError(ValueError):
    """Trace and optimum witness were computed over different networks."""


@dataclass
class CheckResult:
    name: str
    passed: bool
    failing_cells: tuple = ()
    detail: str = ""

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        extra = f" {self.detail}" if self.detail else ""
        cells = f" at {list(self.failing_cells)}" if self.failing_cells else ""
        return f"{self.name}: {status}{extra}{cells}"


def _require_same_network(trace: RunTrace, opt: OptimumWitness) -> None:
    if set(opt.per_cell) != set(trace.network.cells):
        raise NetworkMismatchError(
            "trace and optimum cover different cell sets: "
            f"{sorted(trace.network.cells)} vs {sorted(opt.per_cell)}"
        )


@dataclass
class CacoCertificate:
    omega: int
    classification: dict  # Cell -> "safe" | "dangerous"
    b_values: dict  # Cell -> Fraction
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def caco_certificate(trace: RunTrace, opt: OptimumWitness, omega: int) -> CacoCertificate:
    """Evaluate the safe/dangerous amortization of a 2:2:2:1 partition run.

    Checks: (a) safe cells accept at least 3O/7; (b) dangerous cells are
    pairwise non-adjacent and safe cells have at most 3 dangerous neighbors;
    (c) every rejecting cell's shared-set usage, own plus neighbors, covers
    the whole shared range; (d) the amortized total never exceeds the real
    total; (e) per-cell O <= 7/3 * B, with B = 0 forcing O = 0.
    """
    _require_same_network(trace, opt)
    net = trace.network
    cells = net.sorted_cells()
    O = {c: opt.per_cell[c] for c in cells}
    A = {c: trace.accepted_at(c) for c in cells}
    A_S = {c: trace.shared_accepted_at(c) for c in cells}

    classification = {
        c: "safe" if 3 * O[c] <= 2 * omega else "dangerous" for c in cells
    }
    b = {}
    for c in cells:
        if classification[c] == "safe":
            b[c] = Fraction(3 * O[c], 7)
        else:
            b[c] = A[c] + sum(
                (Fraction(A[k]) - Fraction(3 * O[k], 7)) / 3 for k in net.neighbors(c)
            )

    checks = []

    bad = tuple(c for c in cells if classification[c] == "safe" and 7 * A[c] < 3 * O[c])
    checks.append(CheckResult("safe_cell_floor", not bad, bad))

    adj_dangerous = tuple(
        u
        for u in cells
        if classification[u] == "dangerous"
        and any(classification[v] == "dangerous" for v in net.neighbors(u))
    )
    crowded = tuple(
        u
        for u in cells
        if classification[u] == "safe"
        and sum(1 for v in net.neighbors(u) if classification[v] == "dangerous") > 3
    )
    checks.append(
        CheckResult("dangerous_separation", not (adj_dangerous or crowded), adj_dangerous + crowded)
    )

    rejecting = sorted(trace.rejecting_cells())
    bad = tuple(
        c
        for c in rejecting
        if 7 * (A_S[c] + sum(A_S[k] for k in net.neighbors(c))) < omega
    )
    checks.append(CheckResult("shared_exhaustion_at_rejection", not bad, bad))

    total_b = sum(b.values())
    total_a = sum(A.values())
    checks.append(
        CheckResult(
            "amortized_total",
            total_b <= total_a,
            detail=f"sum B = {total_b}, sum A = {total_a}",
        )
    )

    bad = tuple(
        c for c in cells if (O[c] > 0 if b[c] == 0 else 3 * O[c] > 7 * b[c])
    )
    checks.append(CheckResult("per_cell_ratio_7_3", not bad, bad))

    return CacoCertificate(omega, classification, b, checks)


@dataclass
class Caco2Certificate:
    omega: int
    h_values: dict  # (Cell, Cell) -> Fraction, donor -> receiver
    b_values: dict  # Cell -> Fraction
    checks: list
    uncovered: list = field(default_factory=list)  # (cell, reason)
    flagged_cells: tuple = ()  # structure-A cells with fewer than 3 neighbors

    @property
    def status(self) -> str:
        global_ok = all(c.passed for c in self.checks if c.name == "global_ratio_9_4")
        if not global_ok:
            return "fail"
        if self.uncovered:
            return "uncovered"
        return "pass" if all(c.passed for c in self.checks) else "fail"


def caco2_certificate(trace: RunTrace, opt: OptimumWitness, omega: int) -> Caco2Certificate:
    """Evaluate the compensation accounting of a thirds-partition run.

    Cells with A >= 4O/9 donate their surplus along the proof's case tree;
    cells the tree does not cover for the given optimum witness are reported
    as uncovered rather than guessed. The global 9/4 ratio check is
    independent of the case tree and always enforced.
    """
    _require_same_network(trace, opt)
    net = trace.network
    if not is_triangle_free(net):
        raise NotTriangleFreeError("caco2 certificate requires a triangle-free network")
    cells = net.sorted_cells()
    O = {c: opt.per_cell[c] for c in cells}
    A = {c: trace.accepted_at(c) for c in cells}
    surplus = {c: 9 * A[c] >= 4 * O[c] for c in cells}
    configs = {c: classify_neighbor_config(net, c) for c in cells}

    h: dict = {}
    uncovered: list = []
    flagged = []

    def credit(i: Cell, j: Cell, amount: Fraction) -> None:
        # each branch below credits a surplus donor's spare, a deficient
        # receiver's shortfall or omega/9, so no amount is negative
        assert amount >= 0, f"negative compensation from {i} toward {j}"
        if amount:
            h[(i, j)] = h.get((i, j), Fraction(0)) + amount

    for i in cells:
        if not surplus[i]:
            continue
        spare = Fraction(A[i]) - Fraction(4 * O[i], 9)
        config = configs[i]
        if isinstance(config, Isolated):
            continue
        if isinstance(config, StructureA):
            if config.k < 3:
                flagged.append(i)
            for j in net.neighbors(i):
                credit(i, j, spare / config.k)
            continue
        # structure B: relabel so C_j carries the successor color of i
        x = color_of(i)
        nbrs = net.neighbors(i)
        cj = next((n for n in nbrs if color_of(n) is x.successor), None)
        ck = next((n for n in nbrs if color_of(n) is x.predecessor), None)
        if cj is None or ck is None:
            uncovered.append((i, "structure B without both successor colors"))
            continue
        if 3 * A[i] > omega:
            if not surplus[cj]:
                credit(i, cj, Fraction(4 * O[cj], 9) - A[cj])
                if not surplus[ck]:
                    credit(i, ck, Fraction(omega, 9))
            elif not surplus[ck]:
                credit(i, ck, spare)
        else:
            if not surplus[ck]:
                credit(i, ck, spare)

    b = {}
    for i in cells:
        if surplus[i]:
            b[i] = Fraction(4 * O[i], 9)
        else:
            b[i] = A[i] + sum(v for (d, r), v in h.items() if r == i)

    checks = []

    over_budget = tuple(
        i
        for i in cells
        if surplus[i]
        and Fraction(4 * O[i], 9) + sum(v for (d, r), v in h.items() if d == i) > A[i]
    )
    for i in over_budget:
        uncovered.append((i, "compensation exceeds the donor's budget"))
    checks.append(CheckResult("donor_budget", not over_budget, over_budget))

    total_b = sum(b.values())
    total_a = sum(A.values())
    checks.append(
        CheckResult(
            "amortized_total",
            total_b <= total_a,
            detail=f"sum B = {total_b}, sum A = {total_a}",
        )
    )

    bad = tuple(
        i for i in cells if (O[i] > 0 if b[i] == 0 else 4 * O[i] > 9 * b[i])
    )
    for i in bad:
        if not surplus[i]:
            uncovered.append((i, "compensation left the cell below 4O/9"))
    checks.append(CheckResult("per_cell_ratio_9_4", not bad, bad))

    total_o = sum(O.values())
    global_ok = 4 * total_o <= 9 * total_a or (total_a == 0 and total_o == 0)
    checks.append(
        CheckResult(
            "global_ratio_9_4",
            global_ok,
            detail=f"sum O = {total_o}, sum A = {total_a}",
        )
    )

    return Caco2Certificate(
        omega, h, b, checks, uncovered=sorted(set(uncovered)), flagged_cells=tuple(flagged)
    )


@dataclass
class RatioReport:
    opt_total: int
    alg_total: int
    ratio: Optional[Fraction]  # None means infinite

    @property
    def infinite(self) -> bool:
        return self.ratio is None

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
    best = opt.total
    if alg == 0:
        ratio = Fraction(1) if best == 0 else None
    else:
        ratio = Fraction(best, alg)
    return RatioReport(opt_total=best, alg_total=alg, ratio=ratio)
