"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the program: each public function is
replaced, at the name its caller looks it up by, with a wrapper that records
the span's name, start, end, parent span, and the instance and request it
belongs to. Self time is a span's duration minus the time its children cover.
`AssignmentState.is_available` runs dozens of times per request, so it is only
counted, never given a span.
"""

from __future__ import annotations

import json
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.instance = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.instance_id = -1
        self.request_id = -1
        # is_available calls, is_available calls made by first_available,
        # accepted decisions, optima that met their clique ceiling, optima
        # computed under a ceiling, bytes of emitted reports
        self.counts = {
            "is_available": 0,
            "probes": 0,
            "accepted": 0,
            "ceiling_tight": 0,
            "ceiling_used": 0,
            "report_bytes": 0,
        }
        self._ceiling: dict[int, int] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, observe=None):
        """Wrapper recording one span per call; `observe(index, result)` sees the result."""
        nid = self.name_id(name)
        names, parents, instances, requests = self.name, self.parent, self.instance, self.request
        starts, ends, stack = self.start, self.end, self.stack

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            instances.append(self.instance_id)
            requests.append(self.request_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(idx, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count_probes(self, fn):
        """Count-only wrapper for is_available; calls made inside first_available are probes."""
        first_available = self.name_id("spectrum.first_available")
        names, stack, counts = self.name, self.stack, self.counts

        def counted(*args):
            counts["is_available"] += 1
            if stack and names[stack[-1]] == first_available:
                counts["probes"] += 1
            return fn(*args)

        counted.__wrapped__ = fn
        return counted

    # observers -------------------------------------------------------------

    def observe_decision(self, idx, outcome) -> None:
        if outcome.accepted:
            self.counts["accepted"] += 1

    def observe_ceiling(self, idx, bound) -> None:
        parent = self.parent[idx]
        if parent >= 0 and self.names[self.name[parent]] == "offline.exact_optimum":
            self._ceiling[parent] = bound

    def observe_optimum(self, idx, witness) -> None:
        ceiling = self._ceiling.pop(idx, None)
        if ceiling is not None:
            self.counts["ceiling_used"] += 1
            self.counts["ceiling_tight"] += witness.total == ceiling

    def observe_report(self, idx, text) -> None:
        self.counts["report_bytes"] += len(text.encode())

    # analysis --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def aggregate(self, first: int = 0) -> dict:
        """Per span name: calls, total duration and self time of spans[first:]."""
        n = len(self.start)
        child = defaultdict(float)
        for i in range(first, n):
            p = self.parent[i]
            if p >= first:
                child[p] += self.end[i] - self.start[i]
        totals: dict = {}
        roots = 0.0
        for i in range(first, n):
            dur = self.end[i] - self.start[i]
            agg = totals.setdefault(self.names[self.name[i]], [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - child.get(i, 0.0)
            if self.parent[i] < first:
                roots += dur
        return {
            "spans": {k: {"calls": c, "s": s, "self_s": ss} for k, (c, s, ss) in totals.items()},
            "root_s": roots,
        }

    def write(self, path: Path) -> None:
        """One JSON header line, then the six span columns as raw arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = ("name", "parent", "instance", "request", "start", "end")
        header = {
            "names": self.names,
            "spans": len(self),
            "columns": [[c, getattr(self, c).typecode, getattr(self, c).itemsize] for c in columns],
            "counts": self.counts,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for c in columns:
                getattr(self, c).tofile(fh)


def install(tracer: Tracer, m) -> None:
    """Wrap every public entry point of the program's layers at its binding site."""
    t = tracer

    def rebind(name, fn, *sites, observe=None):
        wrapped = t.wrap(name, fn, observe)
        for module, attr in sites:
            setattr(module, attr, wrapped)

    h, o, off, adv, led, hx, sp, cli = (
        m.harness, m.online, m.offline, m.adversary, m.ledger, m.hexnet, m.spectrum, m.cli,
    )
    rebind("harness.run_experiment", h.run_experiment, (h, "run_experiment"), (cli, "run_experiment"))
    rebind("harness.emit_report", h.emit_report, (h, "emit_report"), (cli, "emit_report"),
           observe=t.observe_report)
    rebind("harness.duel_config", h.duel_config, (h, "duel_config"), (cli, "duel_config"))
    rebind("harness.validate_scenario", h.validate_scenario, (h, "validate_scenario"))
    rebind("adversary.make_adversary", h.make_adversary, (h, "make_adversary"))
    rebind("adversary.run_duel", h.run_duel, (h, "run_duel"), (adv, "run_duel"))
    rebind("adversary.phase_ratios", adv.phase_ratios, (adv, "phase_ratios"))
    rebind("online.make_algorithm", h.make_algorithm, (h, "make_algorithm"), (o, "make_algorithm"))
    rebind("online.run_sequence", h.run_sequence, (h, "run_sequence"), (o, "run_sequence"))
    # exact_optimum recurses through its module global, so both names share one wrapper
    rebind("offline.exact_optimum", h.exact_optimum, (h, "exact_optimum"), (off, "exact_optimum"),
           observe=t.observe_optimum)
    rebind("offline.clique_upper_bound", off.clique_upper_bound, (off, "clique_upper_bound"),
           observe=t.observe_ceiling)
    rebind("ledger.caco_certificate", h.caco_certificate, (h, "caco_certificate"))
    rebind("ledger.caco2_certificate", h.caco2_certificate, (h, "caco2_certificate"))
    rebind("ledger.ratio_report", h.ratio_report, (h, "ratio_report"))
    rebind("hexnet.hex_patch", hx.hex_patch, (hx, "hex_patch"))
    rebind("hexnet.is_triangle_free", hx.is_triangle_free, (hx, "is_triangle_free"),
           (o, "is_triangle_free"), (led, "is_triangle_free"))
    rebind("hexnet.classify_neighbor_config", hx.classify_neighbor_config,
           (hx, "classify_neighbor_config"), (o, "classify_neighbor_config"),
           (led, "classify_neighbor_config"))
    from click.testing import CliRunner

    # methods are class attributes
    CliRunner.invoke = t.wrap("cli.invoke", CliRunner.invoke)
    hx.Network.__init__ = t.wrap("hexnet.network", hx.Network.__init__)
    for cls in (o.GreedyAlgorithm, o.PartitionReserveAlgorithm, o.Caco2Algorithm):
        cls.decide = t.wrap("online.decide", cls.decide, t.observe_decision)
    state = sp.AssignmentState
    for method in ("first_available", "assign", "count_in"):
        setattr(state, method, t.wrap(f"spectrum.{method}", getattr(state, method)))
    state.is_available = t.count_probes(state.is_available)
