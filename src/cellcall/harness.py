"""Scenario loading, experiment orchestration, and report emission."""

from __future__ import annotations

import itertools
import json
import reprlib
import sys
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, Optional, Union

from . import __version__
from .adversary import make_adversary, run_duel
from .hexnet import COLORS, Cell, Network, as_cell, color_of
from .ledger import Certificate, caco2_certificate, caco_certificate, ratio_report
from .offline import InstanceTooLargeError, exact_optimum
from .online import RunTrace, UnknownRequestCellError, make_algorithm, run_sequence


class ScenarioError(ValueError):
    """A scenario file failed validation; message pinpoints the offending field."""


# echoes a scenario value in an error message, cut short however large or
# deeply nested it is: `_brief.repr([[[[[0]]]]])` is '[[[[...]]]]'
_brief = reprlib.Repr()
_brief.maxlevel = 3
_brief.maxlist = _brief.maxtuple = 12
_brief.maxstring = 80


def _clip(exc: ValueError) -> str:
    """The message of an error from building an algorithm or an adversary,
    which may echo its selector whole, cut to at most 160 characters."""
    text = str(exc)
    return text if len(text) <= 160 else f"{text[:157]}..."


class ScenarioConfig(NamedTuple):
    scenario_id: str
    omega: int
    cells: tuple  # sorted tuple of Cell; () with a selector: the adversary's own network
    algorithm: str
    traffic: Union[tuple, str]  # explicit request tuple or adversary selector
    verify_certificate: bool = False
    compute_opt: bool = False


def _as_flag(data: dict, name: str) -> bool:
    value = data.get(name, False)
    if not isinstance(value, bool):
        raise ScenarioError(f"{name} must be true or false, got {_brief.repr(value)}")
    return value


def _as_cell(value, what: str) -> Cell:
    cell = as_cell(value)
    if cell is None:
        raise ScenarioError(f"{what} must be an integer pair [q, r], got {_brief.repr(value)}")
    return cell


_FIELDS = ScenarioConfig._fields[1:]  # every field but the id, which the file name gives


def parse_scenario(data: dict, scenario_id: str) -> ScenarioConfig:
    """Read a scenario's shape: its fields, their types, and its cells.
    Its values (selectors, omega, cells the traffic needs) are checked when
    it runs, so a sweep template need not be valid at its own values."""
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a JSON object")
    unknown = sorted(set(data) - set(_FIELDS), key=str)
    if unknown:
        raise ScenarioError(
            f"unknown scenario fields {_brief.repr(unknown)}; "
            f"a scenario has only {', '.join(_FIELDS)}"
        )
    omega = data.get("omega")
    if type(omega) is not int:  # JSON true and false load as bool, not int
        raise ScenarioError(f"omega must be a positive integer, got {_brief.repr(omega)}")
    raw_cells = data.get("cells")
    if not isinstance(raw_cells, list) or not raw_cells:
        raise ScenarioError("cells must be a non-empty list of [q, r] pairs")
    cells = tuple(sorted(_as_cell(c, "cell") for c in raw_cells))
    if len(set(cells)) != len(cells):
        raise ScenarioError("cells contains duplicates")
    algorithm = data.get("algorithm")
    if not isinstance(algorithm, str):
        raise ScenarioError("algorithm must be a selector string")
    traffic = data.get("traffic")
    if isinstance(traffic, str):
        parsed_traffic: Union[tuple, str] = traffic
    elif isinstance(traffic, list):
        parsed_traffic = tuple(_as_cell(c, "traffic request") for c in traffic)
    else:
        raise ScenarioError("traffic must be a request list or an adversary selector")
    return ScenarioConfig(
        scenario_id=scenario_id,
        omega=omega,
        cells=cells,
        algorithm=algorithm,
        traffic=parsed_traffic,
        verify_certificate=_as_flag(data, "verify_certificate"),
        compute_opt=_as_flag(data, "compute_opt"),
    )


def validate_scenario(config: ScenarioConfig) -> tuple:
    """Check a scenario's values and build what it runs: `(adversary,
    algorithm)`, the adversary None for a request list. `parse_scenario`
    checks only its shape. An adversary is built on the scenario's cells,
    which `make_adversary` may refuse. A request list's cells are not
    checked here: `run_experiment` refuses a request outside the network
    when the run reaches it, from `feed_requests`' own lookup of each one."""
    if config.omega <= 0:
        raise ScenarioError(f"omega must be a positive integer, got {_brief.repr(config.omega)}")
    network = Network(config.cells)
    adversary = None
    if isinstance(config.traffic, str):
        try:  # a duel lists no cells, and runs on the adversary's own network
            adversary = make_adversary(config.traffic, config.omega, network if config.cells else None)
        except ValueError as exc:
            raise ScenarioError(f"traffic selector {_brief.repr(config.traffic)}: {_clip(exc)}") from exc
        network = adversary.network
    try:
        algorithm = make_algorithm(config.algorithm, network, config.omega)
    except ValueError as exc:
        raise ScenarioError(f"algorithm {_brief.repr(config.algorithm)}: {_clip(exc)}") from exc
    return adversary, algorithm


def _unique_keys(pairs: list) -> dict:
    """`json.loads` object hook: a key given twice is an error, not the last value."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ScenarioError(f"scenario key {_brief.repr(key)} is given twice")
        data[key] = value
    return data


def load_scenario(path) -> ScenarioConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except ScenarioError:  # from `_unique_keys`, inside the decoder
        raise
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not UTF-8 text: byte {exc.start} cannot be decoded") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ScenarioError(f"{path}: JSON nested too deeply to decode") from exc
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        raise ScenarioError(f"{path}: an integer has more than {sys.get_int_max_str_digits()} digits") from exc
    return parse_scenario(data, scenario_id=path.stem)


class RunReport(NamedTuple):
    scenario_id: str
    algorithm: str
    omega: int
    rows: list  # (q, r, color, demand, online_accepted, opt_accepted or None)
    total_demand: int
    total_accepted: int
    total_opt: Optional[int]
    ratio: Optional[Fraction]  # OPT/ALG; None when infinite or without an optimum
    certificate: Optional[Certificate] = None
    flagged_cells: tuple = ()
    error: Optional[str] = None

    @property
    def certificate_ok(self) -> bool:
        """True when no requested check failed (uncovered cases are tolerated)."""
        return self.certificate is None or self.certificate.status != "fail"


def _certificate_for(trace: RunTrace, O: dict) -> Optional[Certificate]:
    # by resolved name, so "partition:2:1" (which builds caco) is certified too;
    # called through this module's globals, which perfbench/tracing.py rebinds
    if trace.algorithm.name == "caco":
        return caco_certificate(trace, O)
    if trace.algorithm.name == "caco2":
        return caco2_certificate(trace, O)
    return None


def run_experiment(config: ScenarioConfig) -> RunReport:
    """Check and run a scenario, and report it. A ScenarioError names what is
    wrong: a value `validate_scenario` refuses, or else the first request of
    a request list outside the network, found as the run reaches it."""
    adversary, algorithm = validate_scenario(config)
    if adversary is None:
        try:
            trace = run_sequence(algorithm, config.traffic)
        except UnknownRequestCellError as exc:
            raise ScenarioError(
                f"traffic request {exc.index} at cell {exc.cell} is outside the network"
            ) from exc
    else:
        trace = run_duel(adversary, algorithm)

    opt = error = None
    if config.compute_opt or config.verify_certificate:
        try:
            opt = exact_optimum(trace.network, trace.omega, trace.demands)
        except InstanceTooLargeError as exc:
            error = f"optimum not computed: {exc}"

    per_cell = {} if opt is None else opt.per_cell
    certificate = None
    if config.verify_certificate and opt is not None:
        certificate = _certificate_for(trace, per_cell)

    rows = [
        (c[0], c[1], COLORS[color_of(c)], trace.demands.get(c, 0), trace.state.count(c), per_cell.get(c))
        for c in trace.network.sorted_cells()
    ]
    total_accepted = sum(r[4] for r in rows)
    total_opt = None if opt is None else sum(r[5] for r in rows)
    return RunReport(
        scenario_id=config.scenario_id,
        algorithm=trace.algorithm.name,
        omega=config.omega,
        rows=rows,
        total_demand=sum(r[3] for r in rows),
        total_accepted=total_accepted,
        total_opt=total_opt,
        ratio=None if opt is None else ratio_report(total_opt, total_accepted),
        certificate=certificate,
        flagged_cells=trace.algorithm.flagged_cells,
        error=error,
    )


CSV_COLUMNS = ("q", "r", "color", "demand", "online_accepted", "opt_accepted")


def render_ratio(ratio: Optional[Fraction]) -> str:
    """An OPT/ALG ratio as the text report prints it: exact, then to four
    decimals; "inf" for None, the infinite ratio."""
    if ratio is None:
        return "inf"
    return f"{ratio} (~{float(ratio):.4f})"


def emit_report(report: RunReport, fmt: str = "text") -> str:
    if fmt == "csv":
        # no field ever needs quoting: integers, one colour letter, and an
        # empty opt among six fields
        lines = [",".join(CSV_COLUMNS)]
        for q, r, color, demand, acc, opt in report.rows:
            lines.append(f"{q},{r},{color},{demand},{acc},{'' if opt is None else opt}")
        return "\n".join(lines) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown report format {fmt!r}")

    lines = [
        f"scenario: {report.scenario_id}",
        f"algorithm: {report.algorithm}",
        f"omega: {report.omega}",
        f"suite: cellcall {__version__}",
        "",
        f"{'q':>4} {'r':>4} {'color':>5} {'demand':>6} {'online':>6} {'opt':>5}",
    ]
    for q, r, color, demand, acc, opt in report.rows:
        opt_s = "-" if opt is None else str(opt)
        lines.append(f"{q:>4} {r:>4} {color:>5} {demand:>6} {acc:>6} {opt_s:>5}")
    opt_total = "-" if report.total_opt is None else str(report.total_opt)
    lines.append("")
    lines.append(
        f"totals: demand={report.total_demand} online={report.total_accepted} opt={opt_total}"
    )
    if report.total_opt is not None:
        lines.append(f"ratio OPT/ALG: {render_ratio(report.ratio)}")
    if report.flagged_cells:
        lines.append(f"flagged degenerate-structure cells: {list(report.flagged_cells)}")
    cert = report.certificate
    if cert is not None:
        lines.append("")
        lines.append(f"certificate ({cert.kind}):")
        for check in cert.checks:
            lines.append(f"  {check}")
        # a caco verdict is just its checks; a caco2 verdict may be "uncovered"
        if cert.kind == "caco2":
            lines.append(f"  status: {cert.status}")
            for cell, reason in cert.uncovered:
                lines.append(f"  uncovered: {cell} ({reason})")
    if report.error:
        lines.append(f"error: {report.error}")
    return "\n".join(lines) + "\n"


def failure_lines(report: RunReport) -> list:
    """The text report's lines that say why a run fails: its scenario line,
    each failing check and its error line; [] when nothing requested failed."""
    if not report.error and report.certificate_ok:
        return []
    lines = [f"scenario: {report.scenario_id}"]
    if report.certificate is not None:
        lines += [f"  {check}" for check in report.certificate.checks if not check.passed]
    if report.error:
        lines.append(f"error: {report.error}")
    return lines


class SweepSummary(NamedTuple):
    reports: list
    ratio_range: dict  # algorithm -> (min Fraction, max Fraction)
    failures: list  # (scenario_id, message)

    def best_by_ratio(self) -> Optional[str]:
        """Algorithm with the smallest worst-case ratio over the sweep."""
        return min(((hi, alg) for alg, (lo, hi) in self.ratio_range.items()), default=(None, None))[1]


def sweep(template: ScenarioConfig, grid: dict) -> SweepSummary:
    """Run the template once per grid point (cartesian product, given order).

    Each point is checked as it runs; points the scenario checks reject are
    recorded and the sweep continues; any other exception is a bug and
    propagates.
    """
    if not grid:
        return SweepSummary(reports=[], ratio_range={}, failures=[])
    names = list(grid)
    reports = []
    failures = []
    for values in itertools.product(*(grid[n] for n in names)):
        overrides = dict(zip(names, values))
        point_id = template.scenario_id + "[" + ",".join(
            f"{k}={v}" for k, v in overrides.items()
        ) + "]"
        try:
            config = template._replace(scenario_id=point_id, **overrides)
            reports.append(run_experiment(config))
        except ScenarioError as exc:
            failures.append((point_id, str(exc)))
    ratio_range: dict = {}
    for r in reports:
        if r.ratio is not None:
            lo, hi = ratio_range.get(r.algorithm, (r.ratio, r.ratio))
            ratio_range[r.algorithm] = (min(lo, r.ratio), max(hi, r.ratio))
    return SweepSummary(reports=reports, ratio_range=ratio_range, failures=failures)


def duel_config(adversary: str, algorithm: str, omega: int) -> ScenarioConfig:
    """Config for an adversary duel on the adversary's own network (no cells
    listed), with the optimum and the certificate requested; `run_experiment`
    builds the adversary, and checks a certificate only when the algorithm
    resolves to caco or caco2."""
    return ScenarioConfig(
        scenario_id=f"duel:{adversary}:{algorithm}:{omega}",
        omega=omega,
        cells=(),
        algorithm=algorithm,
        traffic=adversary,
        verify_certificate=True,
        compute_opt=True,
    )
