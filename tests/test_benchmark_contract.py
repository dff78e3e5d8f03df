"""Every workload that BENCHMARK.json declares runs through `perfbench/run.py`
and reproduces its pinned seed-1 digest, so a renamed hook or a changed
report byte fails here and not only in the benchmark."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_workload_is_correct_and_matches_digest(workload):
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1", "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    lines = [json.loads(line) for line in result.stdout.splitlines() if line.startswith("{")]
    assert lines[0]["provenance"]["digest_status"] == "match"
    assert lines[-1]["correct"] is True
