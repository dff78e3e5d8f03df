"""Exact offline optimum for small instances.

The offline problem assigns each of the omega frequencies to an independent
set of cells; cell i serves min(R_i, m_i) requests where m_i counts the sets
containing it, so no cell serves more than omega. `exact_optimum` caps each
demand at omega and solves each connected component on its own: it takes a
three-colour witness that serves every capped demand of the component, fills
a clique of 2 or 3 cells that cannot be served in full up to omega, or else
runs branch-and-bound over maximal independent set multiplicities, whose
nodes update the search's value and bound incrementally, aimed at a ceiling:
the floor of the clique LP. That floor needs no simplex when the demands fit
in every maximal clique or no cell lies in two; otherwise an exact
bounded-variable simplex in integers solves the LP, one tableau row per
maximal clique and each bound x_i <= R_i kept by complementing x_i rather
than by a row. Either way the dual is checked before use.
`clique_upper_bound` is that floor for any network, never below the integer
clique bound and equal to it wherever measured. The brute-force cross-check,
`exhaustive_oracle`, lives with the tests in `tests/oracles.py`.
Omega and every demand must be nonnegative plain `int`s (`hexnet.as_integer`).
An `OptimumWitness` is its assignment: O_i (`per_cell`) and OPT (`total`)
are read off the sizes of its per-cell frequency sets.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Optional

from .hexnet import Network, as_integer, color_of


class InstanceTooLargeError(ValueError):
    pass


# A component served in full has no size limit; a searched one takes at most
# MAX_CELLS cells and NODE_BUDGET branch-and-bound nodes per search.
MAX_CELLS = 12
NODE_BUDGET = 10_000_000


class OptimumWitness(NamedTuple):
    assignment: dict  # Cell -> frozenset of frequencies

    @property
    def per_cell(self) -> dict:  # Cell -> O_i, the size of its set
        return {c: len(freqs) for c, freqs in self.assignment.items()}

    @property
    def total(self) -> int:  # OPT
        return sum(map(len, self.assignment.values()))


def validate_witness(network: Network, omega: int, demands: dict, witness: OptimumWitness) -> None:
    """Independent re-check of a witness: interference-free, in range, within
    demand. Raises AssertionError itself rather than by `assert`, so the check
    also runs under `python -O`."""
    for cell, freqs in witness.assignment.items():
        if cell not in network:
            raise AssertionError(f"witness cell {cell} not in network")
        if len(freqs) > demands.get(cell, 0):
            raise AssertionError(f"cell {cell} exceeds its demand")
        if not all(1 <= f <= omega for f in freqs):
            raise AssertionError(f"cell {cell} has a frequency outside 1..{omega}")
        for n in network.neighbors(cell):
            if freqs & witness.assignment.get(n, frozenset()):
                raise AssertionError(f"cells {cell} and {n} share a frequency")


def _demand_list(network: Network, omega: int, demands: dict) -> tuple[tuple, list, int]:
    """The sorted cells, their demands and omega, each checked to be a
    nonnegative integer."""
    omega = as_integer(omega, "omega")
    if omega < 0:
        raise ValueError(f"omega must be nonnegative, not {omega}")
    cells = network.sorted_cells()
    if not network.cells.issuperset(demands):
        raise ValueError(f"demand given for cells outside the network: {sorted(set(demands) - network.cells)}")
    r = [demands.get(c, 0) for c in cells]
    for c, d in zip(cells, r):
        if type(d) is not int or d < 0:
            as_integer(d, f"the demand at cell {c}")  # raises unless d is an int
            raise ValueError(f"the demand at cell {c} must be nonnegative, not {d}")
    return cells, r, omega


def _adjacency(cells: list, network: Network) -> list[int]:
    """Neighbour bitmask of each cell over the index of `cells`."""
    index = {c: i for i, c in enumerate(cells)}
    return [sum(1 << index[v] for v in network.neighbors(c)) for c in cells]


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
    """floor of the clique LP: max sum x_i, 0 <= x_i <= R_i, sum over each
    maximal clique <= omega, proven by `_clique_ceiling`'s checked dual. Never
    below the integer optimum of that relaxation and equal to it wherever
    measured; always >= the true optimum, loose on odd cycles.

    Every cell lies in some maximal clique, so x_i <= omega anyway: the LP
    runs on the demands capped at omega, with the same value.
    """
    cells, r, omega = _demand_list(network, omega, demands)
    return _clique_ceiling(omega, [min(d, omega) for d in r], _maximal_cliques(_adjacency(cells, network)))


def _clique_ceiling(omega: int, r: list[int], cliques: list[tuple[int, ...]]) -> int:
    """floor of the clique LP, as `_lp_ceiling`, whose simplex runs only when
    some clique is over-subscribed and some cell lies in two maximal cliques
    (the clique sizes then sum past the cell count). Otherwise a dual of 1 on
    each over-subscribed clique's row and on the bound row of every other
    cell proves the value. Either way `_dual_floor` checks that dual."""
    over = [sum(r[i] for i in clique) > omega for clique in cliques]
    if any(over) and sum(map(len, cliques)) != len(r):
        return _lp_ceiling(omega, r, cliques)
    y = [1] * len(r)
    for clique in itertools.compress(cliques, over):
        for i in clique:
            y[i] = 0
    return _dual_floor(omega, r, cliques, y + over, 1)


def _lp_ceiling(omega: int, r: list[int], cliques: list[tuple[int, ...]]) -> int:
    """floor of the clique LP: max sum x_i, 0 <= x_i <= r_i, each clique in
    `cliques` summing to at most omega. Never below the integer optimum of
    that relaxation, and equal to it on every instance measured (both
    acceptance sweeps and thousands of random small networks).

    An exact bounded-variable simplex in integers on a condensed (Tucker)
    tableau: one row per clique, holding a basic variable, and one column per
    nonbasic variable, plus the right-hand side. Variable j < n is x_j and
    n + k is clique k's slack, so the origin, with every slack basic, is a
    feasible start. The bounds x_j <= r_j take no rows: a variable that
    reaches its bound is complemented, standing for r_j - x_j from then on.
    An entering x_j whose own bound is the smallest step just flips (a tie
    with a row goes to the flip, so a column of bound 0 never enters the
    basis); a basic x_j that would pass its bound is complemented, then
    pivoted out. Bland's rule picks the smallest entering variable and, among
    tied rows, the smallest leaving one. Pivots are integer-preserving: every
    entry is kept times the basis determinant d, the last pivot, so each
    update (a*p - f*q) // d divides exactly. The value is `_dual_floor` of the
    dual read off the objective row: checked feasible, that dual bounds every
    feasible x by weak duality, whatever the pivots did.
    """
    n, m = len(r), len(cliques)
    # row k: clique k's slack = omega - its x; the last row, the objective,
    # has its value in the right-hand side and starts at -1 per x
    tab = [[int(j in clique) for j in range(n)] + [omega] for clique in cliques]
    tab.append([-1] * n + [0])
    basis = list(range(n, n + m))  # the variable of each row
    column = list(range(n))  # the variable of each column
    flipped = [False] * n  # x_j stands for r_j - x_j
    d = 1
    while True:
        s = min((j for j in range(n) if tab[m][j] < 0), key=column.__getitem__, default=None)
        if s is None:
            break
        # the smallest step: a basic variable reaching 0 (a > 0) or its
        # bound (a < 0), ties to the smallest basic variable
        pivot, num, den = None, 0, 1
        for i, (row, v) in enumerate(zip(tab, basis)):
            a = row[s]
            if a > 0:
                step = row[n], a
            elif a < 0 and v < n:
                step = r[v] * d - row[n], -a
            else:
                continue
            lhs, rhs = step[0] * den, num * step[1]
            if pivot is None or lhs < rhs or (lhs == rhs and v < basis[pivot]):
                pivot, (num, den) = i, step
        v = column[s]
        if v < n and (pivot is None or r[v] * den <= num):
            for row in tab:
                row[n] -= row[s] * r[v]
                row[s] = -row[s]
            flipped[v] = not flipped[v]
            continue
        prow = tab[pivot]
        if prow[s] < 0:
            prow = tab[pivot] = [-a for a in prow]
            prow[n] += r[basis[pivot]] * d
            flipped[basis[pivot]] = not flipped[basis[pivot]]
        p = prow[s]
        for i, row in enumerate(tab):
            if i != pivot:
                f = row[s]
                tab[i] = [(a * p - f * q) // d for a, q in zip(row, prow)]
                tab[i][s] = -f
        prow[s] = d
        basis[pivot], column[s] = v, basis[pivot]
        d = p
    # clique k's dual is its slack's objective entry while the slack is
    # nonbasic; x_j's bound row's is x_j's entry while x_j is nonbasic and
    # flipped; every other entry is 0
    y = [0] * (n + m)
    for j, v in enumerate(column):
        if v >= n or flipped[v]:
            y[v] = tab[m][j]
    return _dual_floor(omega, r, cliques, y, d)


def _dual_floor(omega: int, r: list[int], cliques: list[tuple[int, ...]], y: list[int], d: int) -> int:
    """floor(b.y / d) for y / d, a dual of the clique LP with one entry per
    row (the rows x_i <= r_i, then the cliques), once checked in integers to
    be feasible: y >= 0, and y covers every column, sum_i A_ij y_i >= d.
    Raises AssertionError itself when it is not, as `validate_witness` does.
    """
    n = len(r)
    if any(v < 0 for v in y):
        raise AssertionError(f"clique LP dual {y} has a negative entry")
    cover = y[:n]
    for k, clique in enumerate(cliques):
        for j in clique:
            cover[j] += y[n + k]
    for j in range(n):
        if cover[j] < d:
            raise AssertionError(f"clique LP dual {y} does not cover cell index {j}")
    return (sum(a * v for a, v in zip(r, y)) + omega * sum(y[n:])) // d


def _components(cells: list, network: Network) -> list[list]:
    """The connected components of the sorted `cells`, which hold every
    neighbour of their cells: each a sorted list, in order of its smallest
    cell."""
    seen = set()
    comps = []
    for seed in cells:
        if seed not in seen:
            seen.add(seed)
            comp = [seed]
            for u in comp:  # breadth first: the list grows as it is read
                for v in network.neighbors(u):
                    if v not in seen:
                        seen.add(v)
                        comp.append(v)
            comp.sort()
            comps.append(comp)
    return comps


def _build_witness(cells: list, r: list[int], sets: list[int], mults: list[int]) -> OptimumWitness:
    """Each set of `sets` in turn takes the next block of frequencies from 1
    up, as many as its entry in `mults`; a cell keeps its lowest ones, up to
    its demand."""
    freqs = {c: [] for c in cells}
    start = 1
    for mask, count in zip(sets, mults):
        for i, c in enumerate(cells):
            if mask >> i & 1:
                freqs[c] += range(start, start + count)
        start += count
    return OptimumWitness({c: frozenset(freqs[c][:d]) for c, d in zip(cells, r)})


def _serve_every_demand(network: Network, omega: int, cells: list, r: list[int]) -> Optional[OptimumWitness]:
    """A witness serving every demand of `cells` in full, or None when the
    colouring `color_of` finds none; `cells` hold every neighbour of their
    cells.

    With one colour in the middle, a low-colour cell takes frequencies
    1..R_i, a high-colour cell omega-R_i+1..omega, and a middle cell the R_i
    frequencies just above its low neighbours' largest demand. That fits iff
    every cell has R_i + (largest low-neighbour demand) + (largest
    high-neighbour demand) <= omega, which does not depend on which side is
    low, so trying each colour in the middle tries all six role orders. The
    borrowing idea is Narayanan & Shende's (Static frequency assignment in
    cellular networks, Algorithmica 29, 2001). No optimum exceeds the total
    demand, so O = R is then the only optimal vector.
    """
    color = {c: color_of(c) for c in cells}
    demand = dict(zip(cells, r))
    # each cell's largest neighbour demand per colour; its own colour stays 0
    peak = []
    for c in cells:
        top = [0, 0, 0]
        for n in network.neighbors(c):
            if demand[n] > top[color[n]]:
                top[color[n]] = demand[n]
        peak.append(top)
    for low, middle, high in ((1, 0, 2), (0, 1, 2), (0, 2, 1)):
        if all(d + top[low] + top[high] <= omega for d, top in zip(r, peak)):
            assignment = {}
            for c, d, top in zip(cells, r, peak):
                start = 0 if color[c] == low else omega - d if color[c] == high else top[low]
                assignment[c] = frozenset(range(start + 1, start + d + 1))
            return OptimumWitness(assignment)
    return None


def exact_optimum(network: Network, omega: int, demands: dict) -> OptimumWitness:
    """Exact offline optimum with a realizing assignment.

    Caps each demand at omega, which no cell can serve past; that changes
    neither the optimum nor the clique bound, only how early the search may
    stop. Then solves each connected component, with the full spectrum, on
    its own. A component takes `_serve_every_demand`'s witness when that
    finds one for its capped demands: O = min(R, omega) is then its only
    optimal per-cell vector. A clique of 2 or 3 cells that it cannot serve
    takes `_fill_clique`'s. Otherwise it branches on multiplicities of
    maximal independent sets in lexicographic order, pruning with a disjoint-
    clique bound; the first optimum under that deterministic order is kept.
    The maximal cliques are enumerated once, for that bound and for the
    ceiling, `_clique_ceiling`: the floor of the clique LP, proven by its
    integer-checked dual. A first search aims at the ceiling: it prunes every
    subtree that cannot reach it and stops at the first node that does, which
    is the node the plain search returns. Only when no node reaches the
    ceiling (a loose bound, as on an odd hole) does the plain search run.
    A searched component past `MAX_CELLS` cells, or a search past `NODE_BUDGET`
    nodes (a count, not a time), raises InstanceTooLargeError naming the bound.
    """
    cells, r, omega = _demand_list(network, omega, demands)
    demand = {c: min(d, omega) for c, d in zip(cells, r)}
    assignment: dict = {}
    for cells in _components(cells, network):
        # a component holds every neighbour of its cells: no subnetwork needed
        r = [demand[c] for c in cells]
        sub = _fill_clique(network, omega, cells, r) or _serve_every_demand(network, omega, cells, r)
        assignment.update((sub or _search(network, omega, cells, r)).assignment)
    return OptimumWitness(assignment)


def _search(network: Network, omega: int, cells: list, r: list[int]) -> OptimumWitness:
    """The branch-and-bound witness of a component: `cells`, sorted, hold
    every neighbour of their cells, and `r` their demands, capped at omega."""
    if len(cells) > MAX_CELLS:
        raise InstanceTooLargeError(f"the component of {len(cells)} cells from cell {cells[0]} is not "
                                    f"served in full and is past the search's cell cap of {MAX_CELLS}")
    adj = _adjacency(cells, network)
    members = _maximal_independent_sets(adj)
    cliques = _maximal_cliques(adj)
    parts = _clique_partition(cliques)
    ceiling = _clique_ceiling(omega, r, cliques)
    mults = _branch_and_bound(r, members, parts, omega, ceiling, ceiling - 1)
    if mults is None:
        mults = _branch_and_bound(r, members, parts, omega, ceiling, -1)
    return _build_witness(cells, r, [sum(1 << i for i in m) for m in members], mults)


def _fill_clique(network: Network, omega: int, cells: list, r: list[int]) -> Optional[OptimumWitness]:
    """The optimum omega of a component of 2 or 3 pairwise adjacent cells whose
    demands sum past omega, else None: the sorted cells take min(R_i, what is
    left of omega) in turn, as the search does over its independent sets, the
    single cells in order."""
    if len(cells) > 3 or sum(r) <= omega or any(len(network.neighbors(c)) < len(cells) - 1 for c in cells):
        return None
    mults = []
    for d in r:
        mults.append(min(d, omega - sum(mults)))
    return _build_witness(cells, r, [1 << i for i in range(len(cells))], mults)


def _branch_and_bound(
    r: list[int], members: list[tuple], parts: list[tuple], omega: int, ceiling: int, floor: int
) -> Optional[list[int]]:
    """Multiplicities of the maximal independent sets `members` that reach the
    best value above `floor`, the first such in DFS order, or None when no
    assignment beats `floor`. Stops at the first node that reaches `ceiling`.

    A subtree is pruned only when no node in it beats the incumbent, so the
    nodes that raise the incumbent, and the first node of the best value,
    do not depend on `floor` as long as `floor` is below that value.

    A node costs O(|set|), not O(cells): with cov_i the frequencies covering
    cell i, `dfs` carries the value sum min(R_i, cov_i) and keeps each cell's
    need max(0, R_i - cov_i) and each disjoint clique's deficit, the sum of
    its cells' needs, up to date as it adds and removes a set's count.
    """
    best_value = floor
    best_mults = None
    nodes = NODE_BUDGET  # nodes left to this search

    # max set size among members[j:], for the trivial per-frequency bound
    maxsize_from = [0] * (len(members) + 1)
    for j in range(len(members) - 1, -1, -1):
        maxsize_from[j] = max(maxsize_from[j + 1], len(members[j]))
    need = list(r)
    part_of = [0] * len(r)
    for k, part in enumerate(parts):
        for i in part:
            part_of[i] = k
    deficit = [sum(r[i] for i in part) for part in parts]

    def dfs(j: int, rem: int, value: int) -> None:
        nonlocal best_value, best_mults, nodes
        nodes -= 1
        if nodes < 0:
            raise InstanceTooLargeError(f"the search of a component of {len(r)} cells passed the node "
                                        f"budget of {NODE_BUDGET} nodes; its clique LP ceiling is {ceiling}")
        if value > best_value:
            best_value = value
            best_mults = mults[:j] + [0] * (len(members) - j)
        if best_value >= ceiling:
            return
        if j == len(members) or rem == 0:
            return
        # each remaining frequency adds at most max-set-size units overall,
        # and at most one unit per disjoint clique
        slack = best_value - value
        if rem * maxsize_from[j] <= slack or sum(d if d < rem else rem for d in deficit) <= slack:
            return
        # the set's cells that still need frequencies: (cell, need, clique)
        wanting = [(i, need[i], part_of[i]) for i in members[j] if need[i]]
        cap = min(rem, max((s for _, s, _ in wanting), default=0))
        for count in range(cap, 0, -1):
            mults[j] = count
            gain = 0
            for i, s, k in wanting:
                g = count if count < s else s
                need[i] = s - g
                deficit[k] -= g
                gain += g
            dfs(j + 1, rem - count, value + gain)
            for i, s, k in wanting:
                need[i] = s
                deficit[k] += count if count < s else s
            mults[j] = 0
            if best_value >= ceiling:
                return
        dfs(j + 1, rem, value)

    mults = [0] * len(members)
    dfs(0, omega, 0)
    return best_mults
