"""Command-line interface: run scenarios, play adversary duels, sweep
parameter grids, and verify certificates. Exit code is nonzero whenever a
requested certificate or bound check fails, or a requested optimum is past the
solver's limits; with `--format csv` the reason goes to stderr."""

from __future__ import annotations

import sys
from pathlib import Path

import click

from .harness import (
    ScenarioError,
    _brief,
    duel_config,
    emit_report,
    failure_lines,
    load_scenario,
    run_experiment,
    sweep,
)
from .online import parse_int


def _write(text: str, out: str | None) -> None:
    if out:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise click.ClickException(f"cannot write {out}: {exc.strerror or exc}") from exc
    else:
        click.echo(text, nl=False)


def _exit_if_failed(reasons: list, fmt: str) -> None:
    """Exit 1 when there are reasons to; a CSV report has no line for them,
    so they go to stderr as the text report words them."""
    if reasons:
        if fmt == "csv":
            click.echo("\n".join(reasons), err=True)
        sys.exit(1)


def _finish(report, out, fmt) -> None:
    _write(emit_report(report, fmt), out)
    _exit_if_failed(failure_lines(report), fmt)


format_option = click.option(
    "--format", "fmt", type=click.Choice(["csv", "text"]), default="text", show_default=True
)
out_option = click.option("--out", type=click.Path(dir_okay=False), default=None)


class _Group(click.Group):
    """Ends every command's `ScenarioError` as one `Error:` line and exit 1."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except ScenarioError as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Group)
def main() -> None:
    """Online call admission control: simulation, duels, and proof-ledger checks."""


@main.command()
@click.argument("scenario", type=click.Path(exists=True, dir_okay=False))
@out_option
@format_option
def run(scenario: str, out: str | None, fmt: str) -> None:
    """Execute one scenario file."""
    _finish(run_experiment(load_scenario(scenario)), out, fmt)


@main.command()
@click.option("--adversary", required=True, help='"fig2", "fig3", or "random:<seed>:<length>"')
@click.option("--alg", required=True, help='"greedy", "caco", "caco2", or "partition:<x>:<y>"')
@click.option("--omega", required=True, help="an ASCII decimal integer, -?[0-9]+")
@out_option
@format_option
def duel(adversary: str, alg: str, omega: str, out: str | None, fmt: str) -> None:
    """Play an adversary against an online algorithm and report the exact ratio."""
    try:
        value = parse_int(omega)
    except ValueError:
        raise click.ClickException(f"bad --omega {_brief.repr(omega)}; omega must be an integer")
    _finish(run_experiment(duel_config(adversary, alg, value)), out, fmt)


@main.command(name="sweep")
@click.argument("template", type=click.Path(exists=True, dir_okay=False))
@click.option(
    "--grid",
    "grid_specs",
    multiple=True,
    required=True,
    help='repeatable, e.g. --grid "algorithm=partition:1:1|partition:2:1" --grid "omega=21|42"',
)
@out_option
@format_option
def sweep_cmd(template: str, grid_specs: tuple, out: str | None, fmt: str) -> None:
    """Run a scenario template over a parameter grid and summarize ratios."""
    base = load_scenario(template)
    grid: dict = {}
    for spec in grid_specs:
        if "=" not in spec:
            raise click.ClickException(f"bad grid spec {_brief.repr(spec)}; expected name=v1|v2")
        name, _, raw = spec.partition("=")
        if name not in ("algorithm", "omega", "traffic"):
            raise click.ClickException(f"cannot sweep field {_brief.repr(name)}")
        if name in grid:
            raise click.ClickException(f"grid field {name!r} given twice; join its values with |")
        values = raw.split("|")
        if name == "omega":
            try:
                values = [parse_int(v) for v in values]
            except ValueError:
                raise click.ClickException(
                    f"bad grid spec {_brief.repr(spec)}; omega values must be integers"
                )
        grid[name] = values
    summary = sweep(base, grid)

    pieces = [emit_report(r, fmt) for r in summary.reports]
    failed = [f"  failed: {point}: {message}" for point, message in summary.failures]
    if fmt == "text":
        lines = ["", "sweep summary:"]
        for alg, (lo, hi) in sorted(summary.ratio_range.items()):
            lines.append(f"  {alg}: min ratio {lo}, max ratio {hi}")
        best = summary.best_by_ratio()
        if best is not None:
            lines.append(f"  best worst-case ratio: {best}")
        pieces.append("\n".join(lines + failed) + "\n")
    _write("".join(pieces), out)
    _exit_if_failed([line for r in summary.reports for line in failure_lines(r)] + failed, fmt)


@main.command()
@click.argument("scenario", type=click.Path(exists=True, dir_okay=False))
@out_option
@format_option
def verify(scenario: str, out: str | None, fmt: str) -> None:
    """Run a scenario with optimum computation and certificate checks forced on."""
    config = load_scenario(scenario)
    _finish(run_experiment(config._replace(verify_certificate=True, compute_opt=True)), out, fmt)


if __name__ == "__main__":
    main()
