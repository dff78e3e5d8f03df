"""cellcall benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload certify_sweep --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the program from `src/`.
A run sets the workload up several times (reporting the median set-up time),
then replays the workload's operations in whole passes, one operation at a
time, until `--seconds` have passed. An operation's or a request's latency is
its median over the passes, and throughput uses the median pass; times are
scaled to a reference host speed by a probe timed around each operation. With
`--trace 1` the run first times one untraced pass, then traces passes and
reports the per-layer metrics (per pass) and the tracing overhead.

Outputs are checked on every pass: independent checks on every operation, and
a hash of everything the program emitted, compared between passes and with
the digest recorded for the seed in `digests.json` (`--record-digest` writes
it). The last line of standard output is the JSON result; details and the
provenance of the run go to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from array import array
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
DIGESTS = BENCH / "digests.json"
LAYERS = ("spectrum", "online", "offline", "ledger", "adversary", "harness", "cli", "hexnet")
SETUP_REPEATS = 5

sys.path.insert(0, str(BENCH))
import tracing  # noqa: E402
from workloads import WORKLOADS, Captured  # noqa: E402


def import_program() -> SimpleNamespace:
    """Fresh import of every cellcall module (earlier imports are dropped)."""
    for name in [n for n in sys.modules if n == "cellcall" or n.startswith("cellcall.")]:
        del sys.modules[name]
    modules = ("hexnet", "spectrum", "online", "offline", "adversary", "ledger", "harness", "cli")
    m = SimpleNamespace(**{n: importlib.import_module(f"cellcall.{n}") for n in modules})
    if Path(m.hexnet.__file__).resolve().parent != SRC / "cellcall":
        raise ImportError(f"cellcall imported from {m.hexnet.__file__}, not from {SRC}")
    return m


class RequestTimer:
    """Feeds requests one at a time through `online.feed_requests`, the path
    `run_sequence` and the adversaries use, and times each request."""

    def __init__(self, m):
        self.samples = array("d")
        self.tracer = None  # set for a traced run, to number the requests
        feed = m.online.feed_requests
        samples = self.samples

        def feed_one_at_a_time(algorithm, trace, requests):
            for cell in requests:
                if self.tracer is not None:
                    self.tracer.request_id += 1
                t0 = perf_counter()
                feed(algorithm, trace, (cell,))
                samples.append(perf_counter() - t0)
            if self.tracer is not None:
                self.tracer.request_id = -1

        m.online.feed_requests = m.adversary.feed_requests = feed_one_at_a_time


def setup(workload: str, seed: int, scale: str):
    m = import_program()
    captured = Captured()
    captured.install(m)
    timer = RequestTimer(m)
    ops = WORKLOADS[workload](m, seed, scale, captured)
    return m, captured, timer, ops


def tail(values):
    """The highest percentile with at least 10 samples beyond it; the maximum
    when that percentile would fall below the median (fewer than 21 samples)."""
    ordered = sorted(values)
    return ordered[-11] if len(ordered) > 20 else ordered[-1]


# A shared host changes speed by up to 1.5x for minutes at a time. A fixed
# probe of interpreter work shaped like the program's runs between operations
# (every PROBE_INTERVAL_S) and after each set-up, and every end-to-end time is
# scaled by PROBE_REFERENCE_S over the probe time measured around it, so the
# reported times are those of a host whose probe takes PROBE_REFERENCE_S
# (about this probe's time on a 2-vCPU Intel Xeon host in its faster minutes). The unscaled
# figures and the run's median probe time go to the details file.
PROBE_INTERVAL_S = 0.25
PROBE_WINDOW = 8
PROBE_REFERENCE_S = 0.0025
PROBE_CELLS = [(q, r) for q in range(-6, 7) for r in range(-6, 7) if abs(q + r) <= 6]
PROBE_DIRECTIONS = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))


def _probe_bound(i: int, caps: tuple, weights: list, memo: dict) -> int:
    """Capacity-constrained search in the style of the solver's clique bound."""
    if i == len(weights):
        return 0
    key = (i, caps)
    if key in memo:
        return memo[key]
    best = 0
    for x in range(min(weights[i], min(caps)), -1, -3):
        rest = tuple(c - x if (k + i) % 2 else c for k, c in enumerate(caps))
        best = max(best, x + _probe_bound(i + 1, rest, weights, memo))
    memo[key] = best
    return best


def probe() -> float:
    """Wall time of fixed interpreter work: set scans over a hex neighbourhood,
    a memoized capacity search, and text formatting."""
    t0 = perf_counter()
    used = {c: set() for c in PROBE_CELLS}
    for k in range(300):
        cell = PROBE_CELLS[k * 7 % len(PROBE_CELLS)]
        neighbours = [
            used[n] for dq, dr in PROBE_DIRECTIONS if (n := (cell[0] + dq, cell[1] + dr)) in used
        ]
        free = next(
            (f for f in range(1, 40) if f not in used[cell] and all(f not in s for s in neighbours)),
            None,
        )
        if free is not None:
            used[cell].add(free)
    _probe_bound(0, (9, 9, 9), [4, 7, 3, 8, 5, 6, 2, 7], {})
    "\n".join(f"{q:>4} {r:>4} {len(s):>6}" for (q, r), s in sorted(used.items()))
    return perf_counter() - t0


def freeze_inputs() -> None:
    """Keep the benchmark's own inputs out of the garbage collector's scans."""
    gc.collect()
    gc.freeze()


def run_pass(ops, captured, timer, tracer=None) -> dict:
    """One pass over the operations; times are aligned with `ops` (None where one raised).
    Each pass starts the collector from the same state."""
    gc.collect()
    op_times, requests, failures = [], [], []
    del timer.samples[:]
    digest = hashlib.sha256()
    probes = [probe()]
    last_probe = perf_counter()
    before = []  # index of the probe taken last before each operation
    for op in ops:
        captured.clear()
        if tracer is not None:
            tracer.instance_id += 1
        first_request = len(timer.samples)
        t0 = perf_counter()
        try:
            result = op.run()
        except Exception:
            op_times.append(None)
            requests.append([])
            before.append(len(probes) - 1)
            failures.append(f"{op.label}: {traceback.format_exc()}")
            continue
        op_times.append(perf_counter() - t0)
        requests.append(timer.samples[first_request:])
        before.append(len(probes) - 1)
        try:
            parts, bad = op.verify(result)
        except Exception:
            parts, bad = (), [f"{op.label}: check raised {traceback.format_exc()}"]
        digest.update(op.label.encode() + b"\0")
        for part in parts:
            digest.update(str(part).encode() + b"\0")
        if bad:
            failures.append("; ".join(bad))
        if perf_counter() - last_probe >= PROBE_INTERVAL_S:
            probes.append(probe())
            last_probe = perf_counter()
    probes.append(probe())
    return {
        "digest": digest.hexdigest(),
        "attempted": len(ops),
        "failures": failures,
        "busy_s": sum(t for t in op_times if t is not None),
        "op_times": op_times,
        "requests": requests,
        "probes": probes,
        "before": before,
    }


def host_scaled(result: dict) -> dict:
    """The pass with each operation's times scaled by PROBE_REFERENCE_S over the
    median of the PROBE_WINDOW probes around it."""
    probes = result["probes"]
    half = PROBE_WINDOW // 2
    factors = [
        PROBE_REFERENCE_S / statistics.median(probes[max(i + 1 - half, 0):i + 1 + half])
        for i in result["before"]
    ]
    op_times = [None if t is None else t * f for t, f in zip(result["op_times"], factors)]
    return dict(
        result,
        op_times=op_times,
        requests=[array("d", (t * f for t in r)) for r, f in zip(result["requests"], factors)],
        busy_s=sum(t for t in op_times if t is not None),
    )


def end_to_end(passes) -> dict:
    """Every pass replays the same inputs, so each operation and each request
    has one time per pass. Its latency is the median of those times, which keeps
    what recurs (the program's own work, its garbage collections) and drops
    what hits one pass only (the host pausing the process). Throughput uses the
    median pass."""
    per_op = [[t for t in ts if t is not None] for ts in zip(*(p["op_times"] for p in passes))]
    op_latency = [statistics.median(ts) for ts in per_op if ts]
    per_request = zip(*(
        [t for op in p["requests"] for t in op] for p in passes
    ))
    request_latency = [statistics.median(ts) for ts in per_request]
    busy = statistics.median(p["busy_s"] for p in passes)
    return {
        "instances_per_s": len(op_latency) / busy,
        "instance_p50_ms": statistics.median(op_latency) * 1e3,
        "instance_tail_ms": tail(op_latency) * 1e3,
        "requests_per_s": len(request_latency) / busy,
        "decision_p50_us": statistics.median(request_latency) * 1e6,
        "decision_tail_us": tail(request_latency) * 1e6,
    }


def layer_metrics(tracer, first_span, setup_spans, passes, reference_s) -> tuple:
    agg = tracer.aggregate(first_span)
    spans = agg["spans"]

    def get(name, key="s", table=spans):
        return table.get(name, {}).get(key, 0)

    def per_pass(value):
        return value / len(passes)

    busy = sum(p["busy_s"] for p in passes)
    counts = tracer.counts
    searches = get("spectrum.first_available", "calls")
    decisions = get("online.decide", "calls")
    metrics = {
        "spectrum.first_available.calls": per_pass(searches),
        "spectrum.first_available.s": per_pass(get("spectrum.first_available")),
        "spectrum.is_available.calls": per_pass(counts["is_available"]),
        "spectrum.probes_per_search": counts["probes"] / searches if searches else 0,
        "spectrum.assign.calls": per_pass(get("spectrum.assign", "calls")),
        "spectrum.assign.s": per_pass(get("spectrum.assign")),
        "spectrum.count_in.s": per_pass(get("spectrum.count_in")),
        "online.decide.calls": per_pass(decisions),
        "online.decide.self_s": per_pass(get("online.decide", "self_s")),
        "online.accept_share": counts["accepted"] / decisions if decisions else 0,
        "offline.clique_upper_bound.calls": per_pass(get("offline.clique_upper_bound", "calls")),
        "offline.clique_upper_bound.s": per_pass(get("offline.clique_upper_bound")),
        "offline.exact_optimum.calls": per_pass(get("offline.exact_optimum", "calls")),
        "offline.exact_optimum.self_s": per_pass(get("offline.exact_optimum", "self_s")),
        "offline.ceiling_tight_share": (
            counts["ceiling_tight"] / counts["ceiling_used"] if counts["ceiling_used"] else 0
        ),
        "ledger.caco_certificate.s": per_pass(get("ledger.caco_certificate")),
        "ledger.caco2_certificate.s": per_pass(get("ledger.caco2_certificate")),
        "ledger.ratio_report.s": per_pass(get("ledger.ratio_report")),
        "adversary.run_duel.self_s": per_pass(get("adversary.run_duel", "self_s")),
        "adversary.phase_ratios.self_s": per_pass(get("adversary.phase_ratios", "self_s")),
        "harness.run_experiment.self_s": per_pass(get("harness.run_experiment", "self_s")),
        "harness.emit_report.s": per_pass(get("harness.emit_report")),
        "harness.emit_report.bytes": per_pass(counts["report_bytes"]),
        "cli.invoke.self_s": per_pass(get("cli.invoke", "self_s")),
        # network building in one set-up plus one pass
        "hexnet.network.s": get("hexnet.network", table=setup_spans["spans"])
        + get("hexnet.hex_patch", "self_s", table=setup_spans["spans"])
        + per_pass(get("hexnet.network") + get("hexnet.hex_patch", "self_s")),
    }
    for layer in LAYERS:
        own = sum(v["self_s"] for k, v in spans.items() if k.split(".")[0] == layer)
        metrics[f"layer.{layer}.share"] = own / busy
    metrics["layer.bench.share"] = (busy - agg["root_s"]) / busy
    traced = statistics.mean(host_scaled(p)["busy_s"] for p in passes)
    metrics["tracing.overhead_share"] = traced / reference_s - 1
    return metrics, spans


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git failed)"
    return out.stdout.strip() or "unknown (git failed)"


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--record-digest", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "cellcall" / "__init__.py").is_file():
        print(f"benchmark: no program source at {SRC / 'cellcall'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup_times, setup_scaled = [], []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        m, captured, timer, ops = setup(args.workload, args.seed, args.scale)
        setup_times.append(perf_counter() - t0)
        setup_scaled.append(setup_times[-1] * PROBE_REFERENCE_S / probe())
    freeze_inputs()

    start = perf_counter()
    tracer = None
    if args.trace:
        reference = run_pass(ops, captured, timer)
        tracer = tracing.Tracer()
        tracing.install(tracer, m)
        timer.tracer = tracer
        ops = WORKLOADS[args.workload](m, args.seed, args.scale, captured)
        freeze_inputs()
        setup_spans = tracer.aggregate(0)
        first_span = len(tracer)
        for key in tracer.counts:
            tracer.counts[key] = 0
    passes = []
    while not passes or perf_counter() - start < args.seconds:
        passes.append(run_pass(ops, captured, timer, tracer))
    wall = perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probe_s = statistics.median(t for p in passes for t in p["probes"])

    key = f"{args.workload}/{args.scale}/{args.seed}"
    checked = passes + [reference] if args.trace else passes
    digests = {p["digest"] for p in checked}
    failures = [f for p in checked for f in p["failures"]]
    recorded = load_digests().get(key)
    digest = min(digests)
    if len(digests) != 1:
        failures.append("outputs differ between passes over the same inputs")
        digest_status = "passes disagree"
    elif recorded is None:
        digest_status = "not recorded for this seed: independent checks only"
    elif recorded in digests:
        digest_status = "match"
    else:
        failures.append(f"output digest differs from the one recorded for {key}")
        digest_status = "MISMATCH"
    if args.record_digest and not failures:
        table = load_digests()
        table[key] = digest
        DIGESTS.write_text(json.dumps(dict(sorted(table.items())), indent=1) + "\n")
        digest_status = "recorded"

    if args.trace:
        metrics, spans = layer_metrics(
            tracer, first_span, setup_spans, passes, host_scaled(reference)["busy_s"]
        )
        units = {k: ("count" if k.endswith((".calls", ".bytes")) else "share" if "share" in k
                     else "ratio" if k.endswith("per_search") else "s") for k in metrics}
        raw_metrics = None
    else:
        raw_metrics = end_to_end(passes)
        raw_metrics["setup_s"] = statistics.median(setup_times)
        metrics = end_to_end([host_scaled(p) for p in passes])
        metrics["setup_s"] = statistics.median(setup_scaled)
        metrics["peak_rss_mb"] = peak_rss_mb
        units = {
            "instances_per_s": "1/s", "instance_p50_ms": "ms", "instance_tail_ms": "ms",
            "requests_per_s": "1/s", "decision_p50_us": "us", "decision_tail_us": "us",
            "setup_s": "s", "peak_rss_mb": "MB",
        }
        spans = None

    provenance = {
        "workload": args.workload,
        "scale": args.scale,
        "seed": args.seed,
        "fixed_input_seeds": [2024, 2025] if args.workload == "certify_sweep" else [],
        "traced": bool(args.trace),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "seconds": args.seconds,
        "wall_s": wall,
        "passes": len(passes),
        # latency sample counts: one sample per instance and per request of a pass
        "instances_per_pass": sum(t is not None for t in passes[0]["op_times"]),
        "requests_per_pass": sum(len(r) for r in passes[0]["requests"]),
        "setup_s_samples": setup_times,
        "probe_median_s": probe_s,
        "digest": digest,
        "digest_status": digest_status,
    }
    print(json.dumps({"provenance": provenance}))
    for f in failures[:20]:
        print(f"FAILED: {f}", file=sys.stderr)

    stem = f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    detail = {
        "provenance": provenance,
        "metrics": metrics,
        "pass_busy_s": [p["busy_s"] for p in passes],
        "raw_metrics": raw_metrics,
        "failures": failures[:100],
        "spans": spans,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1, default=str) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.bin")

    correct = not failures
    attempted = sum(p["attempted"] for p in checked)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
