"""The benchmark's four workloads.

Each workload builds its inputs from the seed with the benchmark's own
generators, so the program receives only the generated inputs. A workload is
a fixed list of operations (one "instance" each); a pass runs the whole list
once, and every pass of a run replays the same inputs, so each pass must
produce the same outputs. An operation has a timed part (`run`) and an
untimed part (`verify`) that returns the bytes to hash and any failed checks.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

AXIAL_DIRECTIONS = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))
ACCEPTANCE_CACO = (2024, (7, 14, 21), False, "caco")
ACCEPTANCE_CACO2 = (2025, (3, 9, 21), True, "caco2")


@dataclass
class Operation:
    label: str
    run: Callable[[], object]
    verify: Callable[[object], tuple]  # result -> (digest parts, failed checks)


class Captured:
    """Optima and traces the program produced during one operation.

    The hooks sit on the names the harness calls, so the benchmark can check
    witnesses and assignment states that the reports do not expose.
    """

    def __init__(self):
        self.optima: list = []  # (network, omega, demands, witness)
        self.traces: list = []

    def clear(self) -> None:
        self.optima.clear()
        self.traces.clear()

    def install(self, m) -> None:
        h, off = m.harness, m.offline
        exact, run_sequence, run_duel = off.exact_optimum, h.run_sequence, h.run_duel

        def exact_optimum(network, omega, demands, **kwargs):
            witness = exact(network, omega, demands, **kwargs)
            self.optima.append((network, omega, dict(demands), witness))
            return witness

        def sequence(*args):
            trace = run_sequence(*args)
            self.traces.append(trace)
            return trace

        def duel(*args):
            trace = run_duel(*args)
            self.traces.append(trace)
            return trace

        h.exact_optimum = off.exact_optimum = exact_optimum
        h.run_sequence = sequence
        h.run_duel = duel

    def failures(self, m) -> list:
        bad = []
        for network, omega, demands, witness in self.optima:
            try:
                m.offline.validate_witness(network, omega, demands, witness)
            except AssertionError as exc:
                bad.append(f"invalid optimum witness: {exc}")
        for trace in self.traces:
            if not trace.state.interference_free():
                bad.append(f"{trace.algorithm}: assignment state interferes")
        return bad


# ---------------------------------------------------------------- generators


def hex_cells(radius: int) -> list:
    """The cells of the hexagonal patch of the given radius, sorted."""
    return sorted(
        (q, r)
        for q in range(-radius, radius + 1)
        for r in range(-radius, radius + 1)
        if abs(q + r) <= radius
    )


PATCH2 = hex_cells(2)  # the 19-cell pool the acceptance sweeps draw from


def _adjacent(a, b) -> bool:
    return (b[0] - a[0], b[1] - a[1]) in AXIAL_DIRECTIONS


def _triangle_free(cells) -> bool:
    cs = set(cells)
    for u in cs:
        for v in cs:
            if u < v and _adjacent(u, v):
                if any(_adjacent(u, w) and _adjacent(v, w) for w in cs if w not in (u, v)):
                    return False
    return True


def sweep_instances(seed, count, omegas, triangle_free, max_cells=9):
    """The acceptance-sweep generator: a random subnetwork of the 19-cell patch,
    a random omega, and up to 6*omega uniform requests. Yields (cells, omega, requests)."""
    rng = random.Random(seed)
    for _ in range(count):
        while True:
            cells = rng.sample(PATCH2, rng.randint(1, max_cells))
            if not triangle_free or _triangle_free(cells):
                break
        cells = sorted(cells)
        omega = rng.choice(omegas)
        length = rng.randint(0, 6 * omega)
        yield cells, omega, [rng.choice(cells) for _ in range(length)]


# ---------------------------------------------------------------- checks


def _ratio_failures(label, algorithm, opt, acc) -> list:
    """The proven competitive bounds: caco 7/3 on any network, caco2 9/4 on triangle-free ones."""
    if algorithm == "caco" and 3 * opt > 7 * acc:
        return [f"{label}: OPT/ALG {opt}/{acc} exceeds 7/3"]
    if algorithm == "caco2" and 4 * opt > 9 * acc:
        return [f"{label}: OPT/ALG {opt}/{acc} exceeds 9/4"]
    return []


# ---------------------------------------------------------------- certify_sweep


@dataclass(frozen=True)
class CertifySize:
    light: int  # seeded instances per algorithm, at most LIGHT_MAX_CELLS cells
    panel: int  # leading instances of each acceptance sweep


CERTIFY_SIZES = {"full": CertifySize(light=250, panel=60), "tiny": CertifySize(light=10, panel=5)}
LIGHT_MAX_CELLS = 3


def certify_sweep(m, seed: int, scale: str, captured: Captured) -> list:
    """Acceptance-sweep traffic: certify each instance against the exact optimum.

    Two parts, both from the acceptance-sweep generator. The seeded part draws
    subnetworks of at most 3 cells, whose cost is light-tailed, so it varies
    little from seed to seed. The panel is the first instances of the real
    acceptance sweeps (seeds 2024 and 2025), the same for every seed; it
    carries the solver's heavy tail. Later sweep instances cost up to a minute
    each, so the panel stops well before them to bound the run.
    """
    size = CERTIFY_SIZES[scale]
    streams = []
    for sweep_seed, omegas, tf, alg in (ACCEPTANCE_CACO, ACCEPTANCE_CACO2):
        light = sweep_instances(f"certify:{seed}:{alg}", size.light, omegas, tf, LIGHT_MAX_CELLS)
        streams += [(f"seed{seed}/{alg}/{i}", alg, inst) for i, inst in enumerate(light)]
        panel = sweep_instances(sweep_seed, size.panel, omegas, tf)
        streams += [(f"sweep{sweep_seed}/{i}", alg, inst) for i, inst in enumerate(panel)]

    h, off, hexnet = m.harness, m.offline, m.hexnet
    ops = []
    for label, alg, (cells, omega, requests) in streams:
        config = h.ScenarioConfig(
            scenario_id=label,
            omega=omega,
            cells=tuple(cells),
            algorithm=alg,
            traffic=tuple(requests),
            verify_certificate=True,
            compute_opt=True,
        )

        def run(config=config):
            report = h.run_experiment(config)
            text = h.emit_report(report, "text")
            table = h.emit_report(report, "csv")
            demands = {(q, r): d for q, r, _, d, _, _ in report.rows}
            bound = off.clique_upper_bound(hexnet.Network(config.cells), config.omega, demands)
            return report, text, table, bound

        def verify(result, label=label, alg=alg):
            report, text, table, bound = result
            bad = captured.failures(m)
            if report.error:
                bad.append(f"{label}: {report.error}")
            if report.certificate is None or not report.certificate_ok:
                bad.append(f"{label}: certificate failed or missing")
            if bound < report.total_opt:
                bad.append(f"{label}: clique bound {bound} below optimum {report.total_opt}")
            # the top-level optimum returns last, after its per-component calls
            if [w.total for *_, w in captured.optima[-1:]] != [report.total_opt]:
                bad.append(f"{label}: optimum witness does not match the report")
            bad += _ratio_failures(label, alg, report.total_opt, report.total_accepted)
            parts = (text, table, report.total_accepted, report.total_opt)
            return parts, bad

        ops.append(Operation(label, run, verify))
    return ops


# ---------------------------------------------------------------- duel_ladder


@dataclass(frozen=True)
class DuelSize:
    ladder: tuple  # omegas of the fig2/fig3 CLI duels
    phases: tuple  # omegas of the phase_ratios calls (at most 63)
    flower: tuple  # omegas of the fixed random flower duels
    seeded: int  # seeded random flower duels per algorithm, at omega 7


DUEL_SIZES = {
    "full": DuelSize(
        ladder=(9, 21, 42, 84, 105, 210, 315), phases=(20, 21, 42, 60, 63), flower=(14, 21), seeded=5
    ),
    "tiny": DuelSize(ladder=(9, 21), phases=(21,), flower=(), seeded=1),
}
PARTITIONS = ((1, 1), (3, 1), (1, 2))  # (2, 1) is caco itself


def _selectors(omega: int) -> list:
    """Every algorithm whose partition divides omega."""
    selectors = ["greedy"]
    if omega % 7 == 0:
        selectors.append("caco")
    if omega % 3 == 0:
        selectors.append("caco2")
    selectors += [f"partition:{x}:{y}" for x, y in PARTITIONS if omega % (3 * x + y) == 0]
    return selectors


TOTALS = re.compile(r"^totals: demand=(\d+) online=(\d+) opt=(\d+)$", re.M)
RATIO = re.compile(r"^ratio OPT/ALG: (\S+)", re.M)


def _fig2_ratios(selector: str) -> list:
    """Exact OPT/ALG after each fig2 phase for greedy and the x:x:x:y partition
    family (caco is 2:1). caco2 is not a member: its overflow is directional."""
    if selector == "greedy":
        return [Fraction(1), Fraction(3)]
    x, y = (2, 1) if selector == "caco" else map(int, selector.split(":")[1:])
    return [Fraction(3 * x + y, x + y), Fraction(3 * (3 * x + y), 4 * x + y)]


# The paper's duel values: (adversary, algorithm, omega) -> (online, opt, ratio)
PAPER_DUELS = {
    ("fig2", "caco", 21): (27, 63, "7/3"),
    ("fig3", "caco2", 9): (15, 27, "9/5"),
    ("fig2", "greedy", 21): (21, 63, "3"),
}


def duel_ladder(m, seed: int, scale: str, captured: Captured) -> list:
    """Adversary duels through the `cellcall duel` entry point, plus phase ratios.

    Everything but the seeded omega-7 flower duels is the same for every seed.
    """
    from click.testing import CliRunner

    size = DUEL_SIZES[scale]
    runner = CliRunner()
    rng = random.Random(f"duel:{seed}")
    duels = [
        (adversary, selector, omega)
        for omega in size.ladder
        for adversary in ("fig2", "fig3")
        for selector in _selectors(omega)
    ]
    # Random flower duels of 6*omega requests. Their optimum costs 0.8-1.4 s at
    # omega 21 depending on the sequence, so those at omega 14 and 21 use fixed
    # sequences and only the cheap omega-7 ones follow the seed. The flower is
    # not triangle-free, so caco2 cannot join.
    duels += [
        (f"random:{stream}:{6 * omega}", selector, omega)
        for omega in size.flower
        for stream, selector in enumerate(("greedy", "caco"), start=1)
    ]
    duels += [
        (f"random:{rng.randrange(1 << 30)}:42", selector, 7)
        for _ in range(size.seeded)
        for selector in ("greedy", "caco")
    ]

    ops = []
    for adversary, selector, omega in duels:
        label = f"duel:{adversary}:{selector}:{omega}"
        args = ["duel", "--adversary", adversary, "--alg", selector, "--omega", str(omega)]

        def run(args=args):
            return runner.invoke(m.cli.main, args)

        def verify(result, key=(adversary, selector, omega), label=label):
            adversary, selector, omega = key
            bad = captured.failures(m)
            if result.exit_code != 0:
                bad.append(f"{label}: exit code {result.exit_code} ({result.exception!r})")
            totals, ratio = TOTALS.search(result.output), RATIO.search(result.output)
            if totals is None or ratio is None:
                return (result.output,), bad + [f"{label}: no totals or ratio in the report"]
            acc, opt = int(totals.group(2)), int(totals.group(3))
            if [w.total for *_, w in captured.optima] != [opt]:
                bad.append(f"{label}: optimum witness does not match the report")
            bad += _ratio_failures(label, selector, opt, acc)
            if adversary == "fig2" and selector != "caco2" and Fraction(opt, acc) != _fig2_ratios(selector)[1]:
                bad.append(f"{label}: fig2 ratio {opt}/{acc} differs from the family's")
            if adversary == "fig3" and 3 * opt < 5 * acc:
                bad.append(f"{label}: fig3 ratio {opt}/{acc} below 5/3")
            paper = PAPER_DUELS.get(key)
            if paper is not None and (acc, opt, ratio.group(1)) != paper:
                bad.append(f"{label}: expected online/opt/ratio {paper}, got {acc}/{opt}/{ratio.group(1)}")
            return (result.output, result.exit_code), bad

        ops.append(Operation(label, run, verify))

    adv, online = m.adversary, m.online
    for omega in size.phases:
        for name in ("fig2", "fig3"):
            for selector in _selectors(omega):
                label = f"phases:{name}:{selector}:{omega}"

                def run(name=name, selector=selector, omega=omega):
                    scenario = getattr(adv, f"{name}_adversary")(omega)
                    return adv.phase_ratios(
                        scenario, lambda net, om: online.make_algorithm(selector, net, om)
                    )

                def verify(ratios, name=name, selector=selector, label=label):
                    bad = captured.failures(m)
                    if None in ratios:
                        bad.append(f"{label}: unbounded ratio")
                    elif name == "fig2" and selector != "caco2" and ratios != _fig2_ratios(selector):
                        bad.append(f"{label}: phase ratios {ratios} differ from the family's")
                    elif name == "fig3" and 3 * ratios[-1] < 5:
                        bad.append(f"{label}: fig3 ratio {ratios[-1]} below 5/3")
                    return (str(ratios),), bad

                ops.append(Operation(label, run, verify))
    return ops


# ---------------------------------------------------------------- online floods


@dataclass(frozen=True)
class OnlineSize:
    radius: int  # hex_patch radius of the network
    requests: int  # uniform requests per algorithm


ONLINE_SIZES = {"full": OnlineSize(radius=20, requests=50_000), "tiny": OnlineSize(radius=4, requests=600)}


def online_flood(omega: int):
    def build(m, seed: int, scale: str, captured: Captured) -> list:
        """Network-scale admission: greedy and caco on hex_patch(radius), caco2
        on its triangle-free honeycomb (colour class (q - r) = 0 mod 3 removed)."""
        size = ONLINE_SIZES[scale]
        h = m.harness
        patch = hex_cells(size.radius)
        honeycomb = [c for c in patch if (c[0] - c[1]) % 3]
        rng = random.Random(f"online:{omega}:{seed}")
        ops = []
        for cells, selectors in ((patch, ("greedy", "caco")), (honeycomb, ("caco2",))):
            traffic = tuple(rng.choices(cells, k=size.requests))
            for selector in selectors:
                config = h.ScenarioConfig(
                    scenario_id=f"online:{selector}:{omega}",
                    omega=omega,
                    cells=tuple(cells),
                    algorithm=selector,
                    traffic=traffic,
                )
                h.validate_scenario(config)

                def run(config=config):
                    report = h.run_experiment(config)
                    return report, h.emit_report(report, "text"), h.emit_report(report, "csv")

                def verify(result, label=config.scenario_id):
                    report, text, table = result
                    bad = captured.failures(m)
                    if [t.total_accepted() for t in captured.traces] != [report.total_accepted]:
                        bad.append(f"{label}: report and trace disagree on accepted calls")
                    return (text, table, report.total_accepted), bad

                ops.append(Operation(config.scenario_id, run, verify))
        return ops

    return build


WORKLOADS = {
    "certify_sweep": certify_sweep,
    "duel_ladder": duel_ladder,
    "online_overload": online_flood(84),
    "online_underload": online_flood(840),
}
