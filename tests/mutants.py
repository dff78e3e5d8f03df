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
           "    as_omega(omega)\n    if not 0 <= length", "    if not 0 <= length",
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
