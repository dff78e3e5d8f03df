"""Exact offline optimum for small instances.

The offline problem assigns each of the omega frequencies to an independent
set of cells; cell i serves min(R_i, m_i) requests where m_i counts the sets
containing it, so no cell serves more than omega. `exact_optimum` caps each
demand at omega, first tries a three-colour witness that serves every capped
demand, and otherwise runs branch-and-bound over maximal independent set
multiplicities; `exhaustive_oracle` is the brute-force cross-check and
`clique_upper_bound` the cheap relaxation used for pruning and sanity checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .hexnet import Color, ImproperColoringError, Network, as_integer, proper_coloring


class InstanceTooLargeError(ValueError):
    pass


# `exact_optimum` takes at most MAX_CELLS cells, and omega at most MAX_OMEGA
# past ANY_OMEGA_CELLS cells: tiny topologies stay tractable at any omega.
MAX_CELLS = 12
MAX_OMEGA = 64
ANY_OMEGA_CELLS = 8
# `exhaustive_oracle` enumerates every multiset of independent sets.
ORACLE_MAX_CELLS = 4
ORACLE_MAX_OMEGA = 6


def cycle_graph(n: int) -> Network:
    """The chordless n-cycle, which the hex grid cannot realize for n > 3."""
    return Network.from_edges(range(n), [(i, (i + 1) % n) for i in range(n)])


@dataclass
class OptimumWitness:
    total: int
    per_cell: dict  # Cell -> O_i
    assignment: dict  # Cell -> frozenset of frequencies, |set| == O_i


def validate_witness(network: Network, omega: int, demands: dict, witness: OptimumWitness) -> None:
    """Independent re-check of a witness: interference-free, in range, within
    demand. Raises AssertionError itself rather than by `assert`, so the check
    also runs under `python -O`."""
    for cell, freqs in witness.assignment.items():
        if cell not in network:
            raise AssertionError(f"witness cell {cell} not in network")
        if len(freqs) != witness.per_cell[cell]:
            raise AssertionError(f"cell {cell} has {len(freqs)} frequencies, not its O")
        if len(freqs) > demands.get(cell, 0):
            raise AssertionError(f"cell {cell} exceeds its demand")
        if not all(1 <= f <= omega for f in freqs):
            raise AssertionError(f"cell {cell} has a frequency outside 1..{omega}")
        for n in network.neighbors(cell):
            if freqs & witness.assignment.get(n, frozenset()):
                raise AssertionError(f"cells {cell} and {n} share a frequency")
    if witness.total != sum(witness.per_cell.values()):
        raise AssertionError(f"witness total {witness.total} is not the sum of its per-cell O")


def _demand_list(network: Network, omega: int, demands: dict) -> tuple[list, list, int]:
    """The sorted cells, their demands and omega, each checked to be a
    nonnegative integer."""
    omega = as_integer(omega, "omega")
    if omega < 0:
        raise ValueError(f"omega must be nonnegative, not {omega}")
    cells = network.sorted_cells()
    unknown = set(demands) - set(cells)
    if unknown:
        raise ValueError(f"demand given for cells outside the network: {sorted(unknown)}")
    r = [as_integer(demands.get(c, 0), f"the demand at cell {c}") for c in cells]
    for c, d in zip(cells, r):
        if d < 0:
            raise ValueError(f"the demand at cell {c} must be nonnegative, not {d}")
    return cells, r, omega


def _adjacency(cells: list, network: Network) -> list[int]:
    """Neighbour bitmask of each cell over the index of `cells`."""
    index = {c: i for i, c in enumerate(cells)}
    return [sum(1 << index[v] for v in network.neighbors(c)) for c in cells]


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


def _maximal_independent_sets(adj: list[int]) -> list[tuple[int, ...]]:
    """Maximal independent sets as increasing index tuples, lexicographic
    order: the maximal cliques of the complement graph."""
    full = (1 << len(adj)) - 1
    return sorted(_maximal_cliques([full ^ a ^ (1 << i) for i, a in enumerate(adj)]))


def _maximal_cliques(adj: list[int]) -> list[tuple[int, ...]]:
    """Maximal cliques as increasing index tuples, given each vertex's
    neighbour bitmask (Bron-Kerbosch)."""
    cliques = []

    def expand(clique: tuple, candidates: int, excluded: int) -> None:
        if not candidates and not excluded:
            cliques.append(clique)
        while candidates:
            v = (candidates & -candidates).bit_length() - 1
            expand(clique + (v,), candidates & adj[v], excluded & adj[v])
            candidates ^= 1 << v
            excluded |= 1 << v

    expand((), (1 << len(adj)) - 1, 0)
    return cliques


def _clique_partition(cliques: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Greedy partition of the cells into disjoint cliques (for the B&B bound);
    every cell lies in some maximal clique, so every cell is covered."""
    taken = set()
    parts = []
    for clique in sorted(cliques, key=lambda k: (-len(k), k)):
        members = tuple(i for i in clique if i not in taken)
        if members:
            parts.append(members)
            taken.update(members)
    return parts


def clique_upper_bound(network: Network, omega: int, demands: dict) -> int:
    """Exact optimum of: max sum x_i, 0 <= x_i <= R_i, sum over each maximal
    clique <= omega. Always >= the true optimum; loose on odd cycles.

    Every cell lies in some maximal clique, so x_i <= omega anyway: the
    search runs on the demands capped at omega, with the same value.
    """
    cells, r, omega = _demand_list(network, omega, demands)
    if not cells:
        return 0
    return _clique_bound(omega, [min(d, omega) for d in r], _maximal_cliques(_adjacency(cells, network)))


def _clique_bound(omega: int, r: list[int], cliques: list[tuple[int, ...]]) -> int:
    """`clique_upper_bound` over cell indices, given the maximal cliques."""
    n = len(r)
    touching = [[k for k, K in enumerate(cliques) if i in K] for i in range(n)]
    # The search from cell i on sees the caps only through the cliques with
    # members on both sides of i, and a cap above the demand still to come
    # inside its clique never binds; so those caps, clamped to that demand,
    # make an exact memo key.
    frontier = [
        [(k, sum(r[j] for j in K if j >= i)) for k, K in enumerate(cliques) if K[0] < i <= K[-1]]
        for i in range(n)
    ]
    best = 0

    def upper(i: int, caps: list[int]) -> int:
        total = 0
        for j in range(i, n):
            cap = min((caps[k] for k in touching[j]), default=omega)
            total += min(r[j], cap)
        return total

    memo = {}

    def dfs(i: int, caps: list[int], value: int) -> None:
        nonlocal best
        if i == n:
            best = max(best, value)
            return
        key = (i, tuple(min(caps[k], rest) for k, rest in frontier[i]))
        seen = memo.get(key)
        if seen is not None and seen >= value:
            return
        memo[key] = value
        ceiling = value + upper(i, caps)
        if ceiling <= best:
            return
        hi = min([r[i]] + [caps[k] for k in touching[i]])
        for x in range(hi, -1, -1):
            new_caps = list(caps)
            for k in touching[i]:
                new_caps[k] -= x
            dfs(i + 1, new_caps, value + x)
            if best == ceiling:
                return

    dfs(0, [omega] * len(cliques), 0)
    return best


def _components(cells: list, network: Network) -> list[frozenset]:
    remaining = set(cells)
    comps = []
    while remaining:
        seed = min(remaining)
        seen = {seed}
        stack = [seed]
        while stack:
            u = stack.pop()
            for v in network.neighbors(u):
                if v in remaining and v not in seen:
                    seen.add(v)
                    stack.append(v)
        comps.append(frozenset(seen))
        remaining -= seen
    return comps


def _value(r: list[int], cov: list[int]) -> int:
    return sum(min(a, b) for a, b in zip(r, cov))


def _build_witness(cells: list, r: list[int], sets: list[int], mults: list[int]) -> OptimumWitness:
    freq = 1
    per_cell_freqs = {c: [] for c in cells}
    for mask, count in zip(sets, mults):
        for _ in range(count):
            for i, c in enumerate(cells):
                if mask >> i & 1:
                    per_cell_freqs[c].append(freq)
            freq += 1
    assignment = {}
    per_cell = {}
    for i, c in enumerate(cells):
        keep = per_cell_freqs[c][: r[i]]  # trim surplus coverage to the demand
        assignment[c] = frozenset(keep)
        per_cell[c] = len(keep)
    return OptimumWitness(total=sum(per_cell.values()), per_cell=per_cell, assignment=assignment)


_COLOR_INDEX = {k: i for i, k in enumerate(Color)}


def _serve_every_demand(
    network: Network, omega: int, cells: list, r: list[int], color: Optional[dict]
) -> Optional[OptimumWitness]:
    """A witness serving every demand of `cells` in full, or None when this
    colouring finds none; `cells` hold every neighbour of their cells.

    `color` is the network's `proper_coloring`, or None when `color_of` does
    not colour it properly. With one colour in the middle, a low-colour cell
    takes frequencies 1..R_i, a high-colour cell omega-R_i+1..omega, and a
    middle cell the R_i frequencies just above its low neighbours' largest
    demand. That fits iff every cell has R_i + (largest low-neighbour demand)
    + (largest high-neighbour demand) <= omega, which does not depend on which
    side is low, so trying each colour in the middle tries all six role
    orders. The borrowing idea is Narayanan & Shende's (Static frequency
    assignment in cellular networks, Algorithmica 29, 2001). No optimum
    exceeds the total demand, so O = R is then the only optimal vector.
    """
    if color is None:
        return None
    kind = [_COLOR_INDEX[color[c]] for c in cells]
    position = {c: i for i, c in enumerate(cells)}
    # each cell's largest neighbour demand per colour index; its own colour stays 0
    peak = [[0, 0, 0] for _ in cells]
    for c, top in zip(cells, peak):
        for n in network.neighbors(c):
            j = position[n]
            if r[j] > top[kind[j]]:
                top[kind[j]] = r[j]
    for middle in range(3):
        low, high = (k for k in range(3) if k != middle)
        if all(d + top[low] + top[high] <= omega for d, top in zip(r, peak)):
            assignment = {}
            for c, d, k, top in zip(cells, r, kind, peak):
                start = 0 if k == low else omega - d if k == high else top[low]
                assignment[c] = frozenset(range(start + 1, start + d + 1))
            return OptimumWitness(sum(r), dict(zip(cells, r)), assignment)
    return None


def exact_optimum(network: Network, omega: int, demands: dict) -> OptimumWitness:
    """Exact offline optimum with a realizing assignment.

    Caps each demand at omega, which no cell can serve past; that changes
    neither the optimum nor the clique bound, only how early the search may
    stop. Returns `_serve_every_demand`'s witness when it finds one for the
    capped demands: O = min(R, omega) is then the only optimal per-cell
    vector. Otherwise each connected component, with the full spectrum, tries
    that witness (when there are several) and then branches on multiplicities
    of maximal independent sets in lexicographic order, pruning with a
    disjoint-clique bound; the first optimum under that deterministic order is
    kept. The maximal cliques are enumerated once, for that bound and for the
    clique-bound ceiling. A first search aims at the ceiling: it prunes every
    subtree that cannot reach it and stops at the first node that does, which
    is the node the plain search returns. Only when no node reaches the
    ceiling (a loose bound, as on `cycle_graph(5)`) does the plain search run.
    """
    cells, r, omega = _demand_list(network, omega, demands)
    n = len(cells)
    if n > MAX_CELLS or (omega > MAX_OMEGA and n > ANY_OMEGA_CELLS):
        raise InstanceTooLargeError(
            f"instance with {n} cells, omega={omega} exceeds limits ({MAX_CELLS} cells, "
            f"omega {MAX_OMEGA} past {ANY_OMEGA_CELLS} cells)"
        )
    if n == 0 or omega == 0 or not any(r):
        return OptimumWitness(0, {c: 0 for c in cells}, {c: frozenset() for c in cells})
    r = [min(d, omega) for d in r]
    try:
        color = proper_coloring(network)
    except ImproperColoringError:
        color = None
    served = _serve_every_demand(network, omega, cells, r, color)
    if served is not None:
        return served

    demand = dict(zip(cells, r))
    components = _components(cells, network)
    per_cell: dict = {}
    assignment: dict = {}
    for comp in components:
        # a component holds every neighbour of its cells: no subnetwork needed
        cells = sorted(comp)
        r = [demand[c] for c in cells]
        sub = _serve_every_demand(network, omega, cells, r, color) if len(components) > 1 else None
        if sub is None:
            adj = _adjacency(cells, network)
            members = _maximal_independent_sets(adj)
            cliques = _maximal_cliques(adj)
            parts = _clique_partition(cliques)
            ceiling = _clique_bound(omega, r, cliques)
            mults = _branch_and_bound(r, members, parts, omega, ceiling, ceiling - 1)
            if mults is None:
                mults = _branch_and_bound(r, members, parts, omega, ceiling, -1)
            sub = _build_witness(cells, r, [sum(1 << i for i in m) for m in members], mults)
        per_cell.update(sub.per_cell)
        assignment.update(sub.assignment)
    return OptimumWitness(sum(per_cell.values()), per_cell, assignment)


def _branch_and_bound(
    r: list[int], members: list[tuple], parts: list[tuple], omega: int, ceiling: int, floor: int
) -> Optional[list[int]]:
    """Multiplicities of the maximal independent sets `members` that reach the
    best value above `floor`, the first such in DFS order, or None when no
    assignment beats `floor`. Stops at the first node that reaches `ceiling`.

    A subtree is pruned only when no node in it beats the incumbent, so the
    nodes that raise the incumbent, and the first node of the best value,
    do not depend on `floor` as long as `floor` is below that value.
    """
    best_value = floor
    best_mults = None

    # max set size among members[j:], for the trivial per-frequency bound
    maxsize_from = [0] * (len(members) + 1)
    for j in range(len(members) - 1, -1, -1):
        maxsize_from[j] = max(maxsize_from[j + 1], len(members[j]))

    def bound(j: int, cov: list[int], rem: int) -> int:
        # each remaining frequency adds at most one unit per disjoint clique,
        # and at most max-set-size units overall
        total = 0
        for part in parts:
            deficit = sum(max(0, r[i] - cov[i]) for i in part)
            total += min(deficit, rem)
        return min(total, rem * maxsize_from[j])

    def dfs(j: int, rem: int, cov: list[int]) -> None:
        nonlocal best_value, best_mults
        value = _value(r, cov)
        if value > best_value:
            best_value = value
            best_mults = mults[:j] + [0] * (len(members) - j)
        if best_value >= ceiling:
            return
        if j == len(members) or rem == 0:
            return
        if value + bound(j, cov, rem) <= best_value:
            return
        cap = min(rem, max((r[i] - cov[i] for i in members[j]), default=0))
        cap = max(cap, 0)
        for count in range(cap, -1, -1):
            mults[j] = count
            if count:
                for i in members[j]:
                    cov[i] += count
            dfs(j + 1, rem - count, cov)
            if count:
                for i in members[j]:
                    cov[i] -= count
            mults[j] = 0
            if best_value >= ceiling:
                return

    mults = [0] * len(members)
    dfs(0, omega, [0] * len(r))
    return best_mults


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
    if n == 0 or omega == 0:
        return OptimumWitness(0, {c: 0 for c in cells}, {c: frozenset() for c in cells})

    sets = [0] + _independent_sets(cells, network)
    best_value = -1
    best_combo = None
    for combo in itertools.combinations_with_replacement(sets, omega):
        cov = [0] * n
        for mask in combo:
            for i in range(n):
                if mask >> i & 1:
                    cov[i] += 1
        value = _value(r, cov)
        if value > best_value:
            best_value = value
            best_combo = combo
    mult = {m: best_combo.count(m) for m in set(best_combo)}
    ordered = sorted(mult)
    return _build_witness(cells, r, ordered, [mult[m] for m in ordered])
