"""Brute-force cross-checks the tests hold the program to; no CLI path runs them.

`exhaustive_oracle` is a pruning-free optimum for tiny instances, and
`overflow_order_violations` checks the caco2 overflow rule on a finished run.
"""

import itertools

from cellcall.hexnet import Network, color_of
from cellcall.offline import (
    InstanceTooLargeError,
    OptimumWitness,
    _adjacency,
    _build_witness,
    _demand_list,
)
from cellcall.online import RunTrace

# `exhaustive_oracle` enumerates every multiset of independent sets.
ORACLE_MAX_CELLS = 4
ORACLE_MAX_OMEGA = 6


def _independent_sets(cells: list, network: Network) -> list[int]:
    """Every nonempty independent set as a bitmask over `cells`, lexicographic
    order; the brute-force scan behind `exhaustive_oracle`."""
    n = len(cells)
    adj = _adjacency(cells, network)
    sets = []
    for mask in range(1, 1 << n):
        if not any(mask >> i & 1 and adj[i] & mask for i in range(n)):
            sets.append(mask)
    # lexicographic by member cell indices
    sets.sort(key=lambda m: tuple(i for i in range(n) if m >> i & 1))
    return sets


def exhaustive_oracle(network: Network, omega: int, demands: dict) -> OptimumWitness:
    """Brute-force optimum by enumerating every multiset of independent sets
    (including non-maximal and empty); test-time cross-check for exact_optimum."""
    cells, r, omega = _demand_list(network, omega, demands)
    n = len(cells)
    if n > ORACLE_MAX_CELLS or omega > ORACLE_MAX_OMEGA:
        raise InstanceTooLargeError(
            f"oracle limited to {ORACLE_MAX_CELLS} cells and omega {ORACLE_MAX_OMEGA}; "
            f"got {n} cells, omega={omega}"
        )
    sets = [0] + _independent_sets(cells, network)
    best_value = -1
    best_combo = None
    for combo in itertools.combinations_with_replacement(sets, omega):
        cov = [0] * n
        for mask in combo:
            for i in range(n):
                if mask >> i & 1:
                    cov[i] += 1
        value = sum(min(a, b) for a, b in zip(r, cov))
        if value > best_value:
            best_value = value
            best_combo = combo
    mult = {m: best_combo.count(m) for m in set(best_combo)}
    ordered = sorted(mult)
    return _build_witness(cells, r, ordered, [mult[m] for m in ordered])


def overflow_order_violations(trace: RunTrace) -> list:
    """Adjacent cells that both overflowed into the same foreign color range
    must have consumed it from opposite ends; returns (u, v, color) triples
    where their used frequencies in that range interleave or overlap."""
    part = trace.partition
    if part is None:
        return []
    violations = []
    for u, v in trace.network.edges():
        for color, rng in enumerate(part.ranges):
            if color in (color_of(u), color_of(v)):
                continue
            fu = sorted(f for f in trace.state.used(u) if f in rng)
            fv = sorted(f for f in trace.state.used(v) if f in rng)
            if fu and fv and not (fu[-1] < fv[0] or fv[-1] < fu[0]):
                violations.append((u, v, color))
    return violations
