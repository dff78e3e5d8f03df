"""Quick self-check of the benchmark: every workload at a tiny size, untraced
and traced, must pass its output checks, match the digest recorded for seed 1,
and print every metric that BENCHMARK.json names, with its unit.

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


def check(workload: str, trace: int, expected: dict) -> list:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = out.stdout.strip().splitlines()
    where = f"{workload} trace={trace}"
    if out.returncode != 0 or len(lines) < 2:
        return [f"{where}: exit {out.returncode}: {out.stderr[-2000:]}"]
    result = json.loads(lines[-1])
    provenance = json.loads(lines[-2])["provenance"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
    if provenance["digest_status"] != "match":
        problems.append(f"{where}: digest {provenance['digest_status']}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        problems.append(f"{where}: metrics {got} differ from BENCHMARK.json {expected}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check(workload, trace, units[trace])
            print(f"{workload} trace={trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
