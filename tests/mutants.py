"""The mutant catalogue: each mutant breaks one check in `src/cellcall`, and
the tests named with it must notice.

A mutant is an exact (file, old text, new text) triple, plus the pytest
selections that must kill it. The script copies `src` to a temporary
directory, first runs every selection there unchanged, and then applies one
triple at a time and runs that mutant's selections against the copy. A mutant
is killed when a test fails. The script prints one line per mutant and exits
1 when a mutant survives, when a triple's old text is not found exactly once,
or when the selections fail on the unchanged copy.

Run it from anywhere: `python tests/mutants.py`. pytest does not collect it,
as its name does not start with `test_`. A change that adds or alters a check
adds its mutant here.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # under src/cellcall
    old: str
    new: str
    tests: tuple  # pytest selections, relative to the repository root


MUTANTS = (
    # the omega rule, `hexnet.as_omega`, and each object that applies it
    Mutant("as_omega takes omega 0", "hexnet.py",
           'if as_integer(value, "omega") <= 0:', 'if as_integer(value, "omega") < 0:',
           ("tests/test_spectrum.py",)),
    Mutant("star floods skip as_omega", "adversary.py",
           "if 4 * as_omega(omega) > MAX_RANDOM_LENGTH:", "if 4 * omega > MAX_RANDOM_LENGTH:",
           ("tests/test_adversary.py",)),
    Mutant("random traffic skips as_omega", "adversary.py",
           "    as_omega(omega)\n    net = network", "    net = network",
           ("tests/test_adversary.py",)),
    Mutant("an algorithm skips as_omega", "online.py",
           "self.omega = as_omega(omega)", "self.omega = omega",
           ("tests/test_online.py",)),
    Mutant("an assignment state skips as_omega", "spectrum.py",
           "self.omega = as_omega(omega)", "self.omega = omega",
           ("tests/test_spectrum.py",)),
    Mutant("a partition skips as_omega", "spectrum.py",
           "    as_omega(omega)\n    as_integer(x_share", "    as_integer(x_share",
           ("tests/test_spectrum.py",)),
    # an adversary runs on the network it is given, and random traffic's seed and length rule
    Mutant("a star flood takes any network", "adversary.py",
           "if network not in (None, star_network()):", "if False:",
           ("tests/test_adversary.py",)),
    Mutant("random traffic takes any seed", "adversary.py",
           '    as_integer(seed, "seed")\n', "",
           ("tests/test_adversary.py",)),
    Mutant("random traffic takes a length that is not an int", "adversary.py",
           'if not 0 <= as_integer(length, "length") <= MAX_RANDOM_LENGTH:',
           "if not 0 <= length <= MAX_RANDOM_LENGTH:",
           ("tests/test_adversary.py",)),
    # `hexnet`: the patch radius, the triangle test and the neighbour split
    Mutant("hex_patch takes a radius that is not an int", "hexnet.py",
           'if as_integer(radius, "radius") < 0:', "if radius < 0:",
           ("tests/test_hexnet.py",)),
    Mutant("hex_patch takes a negative radius", "hexnet.py",
           'if as_integer(radius, "radius") < 0:', 'if as_integer(radius, "radius") < -1:',
           ("tests/test_hexnet.py",)),
    Mutant("the triangle test misses the (q + 1, r - 1) orientation", "hexnet.py",
           "if (q + 1, r) in cells and ((q, r + 1) in cells or (q + 1, r - 1) in cells):",
           "if (q + 1, r) in cells and (q, r + 1) in cells:",
           ("tests/test_hexnet.py",)),
    Mutant("the neighbour split takes every other colour as a successor", "hexnet.py",
           "(succ if (n[0] - n[1] - d) % 3 == 1 else pred)", "(succ if (n[0] - n[1] - d) % 3 != 0 else pred)",
           ("tests/test_hexnet.py",)),
    # the exact optimum's solver: the node budget, the clique closed forms, the fast path
    Mutant("the search never counts a node", "offline.py",
           "        nodes -= 1\n", "        nodes -= 0\n",
           ("tests/test_offline.py::test_node_budget_ends_the_search_with_a_named_error",)),
    Mutant("_fill_clique fills from the last cell", "offline.py",
           "    for d in r:\n        mults.append(min(d, omega - sum(mults)))",
           "    for d in reversed(r):\n        mults.insert(0, min(d, omega - sum(mults)))",
           ("tests/test_offline.py::test_clique_components_take_the_closed_form",)),
    Mutant("the closed-form ceiling on overlapping cliques", "offline.py",
           "if any(over) and sum(map(len, cliques)) != len(r):", "if False:",
           ("tests/test_offline.py::test_clique_bound_matches_brute_force_randomized",)),
    Mutant("_serve_every_demand tries one middle colour only", "offline.py",
           "for low, middle, high in ((1, 0, 2), (0, 1, 2), (0, 2, 1)):",
           "for low, middle, high in ((1, 0, 2),):",
           ("tests/test_offline.py::test_fast_path_tries_each_colour_in_the_middle",)),
    Mutant("_serve_every_demand drops the high-neighbour term", "offline.py",
           "if all(d + top[low] + top[high] <= omega", "if all(d + top[low] <= omega",
           ("tests/test_offline.py::test_fast_path_witness_is_the_branch_and_bound_vector",)),
    Mutant("_serve_every_demand offsets a middle cell by its high neighbours", "offline.py",
           "omega - d if color[c] == high else top[low]", "omega - d if color[c] == high else top[high]",
           ("tests/test_offline.py::test_fast_path_witness_is_the_branch_and_bound_vector",)),
    # the two ledgers and the caco2 scans they certify
    Mutant("the caco ledger drops the crowded term", "ledger.py",
           "crowded = tuple(u for u in cells if u in donors and sum(v not in donors for v in net.neighbors(u)) > 3)",
           "crowded = ()",
           ("tests/test_ledger.py::test_crowded_safe_cell_fails_separation",)),
    Mutant("the caco2 ledger credits omega/8 for omega/9", "ledger.py",
           "credit(i, ck, 6 * omega)", "credit(i, ck, 54 * omega // 8)",
           ("tests/test_ledger.py::test_caco2_structure_b_overflow_credit_found_by_search",)),
    Mutant("caco2's structure-B overflow ascending", "online.py",
           "                self.scans[c] = descending[color_of(c)]\n",
           "                self.scans[c] = descending[color_of(c)] if not s or not p else "
           "(part.ranges[color_of(c)], part.ranges[(color_of(c) + 1) % 3])\n",
           ("tests/test_online.py::test_caco2_structure_b_overflow_descending",)),
    # AssignmentState's cell and spectrum checks
    Mutant("is_available lets a bare KeyError out", "spectrum.py",
           "raise UnknownCellError(cell) from None", "raise",
           ("tests/test_spectrum.py",)),
    Mutant("interference_free misses frequency 0", "spectrum.py",
           "if any(f < 1 or f > self.omega for f in used):", "if any(f > self.omega for f in used):",
           ("tests/test_spectrum.py",)),
    Mutant("interference_free misses omega + 1", "spectrum.py",
           "if any(f < 1 or f > self.omega for f in used):", "if any(f < 1 for f in used):",
           ("tests/test_spectrum.py",)),
    Mutant("interference_free misses a shared frequency", "spectrum.py",
           "if used & self._used[n]:", "if False:",
           ("tests/test_spectrum.py",)),
    # each check of `offline.validate_witness`
    Mutant("validate_witness takes a foreign cell", "offline.py",
           "if cell not in network:", "if False:",
           ("tests/test_offline.py::test_validate_witness_rejects_each_bad_witness",)),
    Mutant("validate_witness takes one call past demand", "offline.py",
           "if len(freqs) > demands.get(cell, 0):", "if len(freqs) > demands.get(cell, 0) + 1:",
           ("tests/test_offline.py::test_validate_witness_rejects_each_bad_witness",)),
    Mutant("validate_witness takes frequency 0", "offline.py",
           "if not all(1 <= f <= omega for f in freqs):", "if not all(0 <= f <= omega for f in freqs):",
           ("tests/test_offline.py::test_validate_witness_rejects_each_bad_witness",)),
    Mutant("validate_witness takes omega + 1", "offline.py",
           "if not all(1 <= f <= omega for f in freqs):", "if not all(1 <= f <= omega + 1 for f in freqs):",
           ("tests/test_offline.py::test_validate_witness_rejects_each_bad_witness",)),
    Mutant("validate_witness takes a frequency shared across an edge", "offline.py",
           "if freqs & witness.assignment.get(n, frozenset()):", "if False:",
           ("tests/test_offline.py::test_validate_witness_rejects_each_bad_witness",)),
    # each check of `offline._dual_floor`
    Mutant("_dual_floor takes a dual entry of -1", "offline.py",
           "if any(v < 0 for v in y):", "if any(v < -1 for v in y):",
           ("tests/test_offline.py::test_dual_check_rejects_an_infeasible_dual",)),
    Mutant("_dual_floor takes a cover one short", "offline.py",
           "if cover[j] < d:", "if cover[j] < d - 1:",
           ("tests/test_offline.py::test_dual_check_rejects_an_infeasible_dual",)),
    # the two request checks of `online.feed_requests`
    Mutant("feed_requests takes a request that is not a pair", "online.py",
           "if key is None:", "if False:",
           ("tests/test_online.py",)),
    Mutant("feed_requests takes a request outside the network", "online.py",
           "if cell is None:", "if False:",
           ("tests/test_online.py",)),
)


def run_tests(src: Path, tests) -> int:
    """pytest's exit status for `tests` against the package under `src`."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main() -> int:
    start = time.perf_counter()
    faults = 0
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src" / "cellcall", src / "cellcall", ignore=shutil.ignore_patterns("__pycache__"))
        selections = sorted({test for mutant in MUTANTS for test in mutant.tests})
        if run_tests(src, selections) != 0:
            print("the selected tests fail on the unchanged source; no mutant can be judged")
            return 1
        for mutant in MUTANTS:
            path = src / "cellcall" / mutant.file
            original = path.read_text()
            if original.count(mutant.old) != 1:
                faults += 1
                print(f"stale     {mutant.file}: {mutant.name} (old text found {original.count(mutant.old)} times)")
                continue
            path.write_text(original.replace(mutant.old, mutant.new))
            began = time.perf_counter()
            try:
                status = run_tests(src, mutant.tests)
            finally:
                path.write_text(original)
            # 1: a test failed; any other status (a collection error, no
            # test selected) judges the mutant or its selection, not the tests
            verdict = {0: "SURVIVED", 1: "killed"}.get(status, f"error {status}")
            faults += status != 1
            print(f"{verdict:<9} {mutant.file}: {mutant.name} ({time.perf_counter() - began:.1f} s)")
    print(f"{len(MUTANTS)} mutants, {faults} not killed, {time.perf_counter() - start:.0f} s")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
