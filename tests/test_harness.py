import csv
import io
import json
import shlex
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import pytest
from click.testing import CliRunner
from hypothesis import given, strategies as st

from cellcall import adversary, harness
from cellcall.adversary import MAX_RANDOM_LENGTH
from cellcall.cli import main
from cellcall.hexnet import hex_patch
from cellcall.harness import (
    RunReport,
    ScenarioConfig,
    ScenarioError,
    duel_config,
    emit_report,
    load_scenario,
    parse_scenario,
    run_experiment,
    sweep,
)
from cellcall.ledger import Certificate, CheckResult
from cellcall.offline import OptimumWitness

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def test_bundled_fig2_scenario_loads():
    config = load_scenario(SCENARIOS / "fig2_caco.json")
    assert config.omega == 21
    assert config.algorithm == "caco"
    assert config.traffic == "fig2"


def test_request_at_absent_cell_named(tmp_path):
    bad = {
        "omega": 7,
        "cells": [[0, 0]],
        "algorithm": "greedy",
        "traffic": [[0, 0], [4, 4]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(ScenarioError, match=r"\(4, 4\)"):
        load_scenario(path)


def test_divisibility_mismatch_rejected(tmp_path):
    bad = {"omega": 10, "cells": [[0, 0]], "algorithm": "caco", "traffic": []}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(ScenarioError, match="caco"):
        load_scenario(path)


def test_parse_error_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "omega": 21,\n')
    with pytest.raises(ScenarioError, match="line"):
        load_scenario(path)


def test_unknown_algorithm_rejected():
    with pytest.raises(ScenarioError, match="algorithm"):
        parse_scenario(
            {"omega": 7, "cells": [[0, 0]], "algorithm": "nope", "traffic": []},
            scenario_id="x",
        )


@pytest.mark.parametrize(
    "field, value",
    [
        ("omega", True),
        ("omega", 21.0),
        ("cells", [[0, 0], [True, 0]]),
        ("cells", [[0, 0], [1, False]]),
        ("traffic", [[0, True]]),
        ("verify_certificate", "false"),
        ("verify_certificate", 1),
        ("compute_opt", "true"),
        ("compute_opt", None),
    ],
)
def test_coerced_fields_rejected(field, value):
    data = {"omega": 7, "cells": [[0, 0], [1, 0]], "algorithm": "greedy", "traffic": [[1, 0]]}
    data[field] = value
    with pytest.raises(ScenarioError, match={"cells": "cell must", "traffic": "request must"}.get(field, field)):
        parse_scenario(data, scenario_id="x")


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 64)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=10,
)
algorithms = st.sampled_from(
    ["greedy", "caco", "caco2", "partition:2:1", "partition:1:1", "partition:0:0", "partition:x:1"]
)
adversaries = st.sampled_from(["fig2", "fig3", "random", "random:x:y", "random:1:2:3"]) | st.builds(
    lambda seed, length: f"random:{seed}:{length}", st.integers(-2, 1 << 40), st.integers(-5, 1000)
)
selectors = algorithms | adversaries
cell_pairs = st.lists(st.integers(-2, 2), min_size=2, max_size=2)
pairs = st.lists(cell_pairs | json_values, max_size=12)
well_typed = st.lists(cell_pairs, min_size=1, max_size=8, unique_by=tuple).flatmap(
    lambda cells: st.fixed_dictionaries(
        {
            "omega": st.integers(-1, 42),
            "cells": st.just(cells),
            "algorithm": algorithms,
            "traffic": adversaries | st.lists(st.sampled_from(cells), max_size=20),
        },
        optional={"verify_certificate": st.booleans(), "compute_opt": st.booleans()},
    )
)
any_fields = st.fixed_dictionaries(
    {},
    optional={
        "omega": st.integers(-3, 64) | json_values,
        "cells": pairs | json_values,
        "algorithm": selectors | json_values,
        "traffic": selectors | pairs | json_values,
        "verify_certificate": json_values,
        "compute_opt": json_values,
    },
)


@given(well_typed | any_fields | json_values)
def test_parse_scenario_raises_only_scenario_error(data):
    try:
        config = parse_scenario(data, scenario_id="fuzz")
    except ScenarioError:
        return
    assert config.omega > 0 and config.cells


def test_random_traffic_length_checked_without_generating(tmp_path, monkeypatch):
    def generate(*args):
        raise AssertionError("requests generated while checking a selector")

    monkeypatch.setattr(adversary, "random_sequence", generate)
    flower = json.loads((SCENARIOS / "flower_greedy_random.json").read_text())
    parse_scenario(dict(flower, traffic=f"random:1:{MAX_RANDOM_LENGTH}"), scenario_id="at-cap")
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(dict(flower, traffic="random:0:1000000000")))
    start = perf_counter()
    with pytest.raises(ScenarioError, match=f"between 0 and {MAX_RANDOM_LENGTH}"):
        load_scenario(huge)
    for args in (
        ["run", str(huge)],
        ["sweep", str(huge), "--grid", "omega=7"],
        ["duel", "--adversary", "random:0:1000000000", "--alg", "greedy", "--omega", "7"],
    ):
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 1 and "Error:" in result.output, result.output
    assert perf_counter() - start < 0.5


def test_fixed_network_adversary_needs_exactly_its_cells():
    flower = json.loads((SCENARIOS / "flower_greedy_random.json").read_text())
    flower_cells = sorted(tuple(c) for c in flower["cells"])
    # caco2 would run on the triangle-free star, so the cells, not the
    # algorithm, are what is wrong
    for algorithm in ("greedy", "caco2"):
        with pytest.raises(ScenarioError) as info:
            parse_scenario(dict(flower, traffic="fig2", algorithm=algorithm), scenario_id="x")
        message = str(info.value)
        assert "[(-1, 1), (0, -1), (0, 0), (1, 0)]" in message
        assert str(flower_cells) in message


def test_certificate_by_resolved_name():
    config = replace(load_scenario(SCENARIOS / "fig2_caco.json"), algorithm="partition:2:1")
    report = run_experiment(config)
    assert report.algorithm == "caco"
    assert report.certificate.kind == "caco" and report.certificate.status == "pass"


def _too_large_scenario(tmp_path, **fields):
    cells = [list(c) for c in hex_patch(3).sorted_cells()]  # 37 cells, solver limit 12
    data = {"omega": 21, "cells": cells, "algorithm": "caco", "traffic": cells, "compute_opt": True}
    data.update(fields)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(data))
    return path


def test_optimum_past_solver_limit_named_in_report(tmp_path):
    report = run_experiment(load_scenario(_too_large_scenario(tmp_path)))
    assert report.total_opt is None and report.certificate is None
    assert "37 cells" in report.error
    assert "error: optimum not computed" in emit_report(report, "text")


@pytest.mark.parametrize(
    "fields", [{"algorithm": "nope"}, {"traffic": ((0, 0), (4, 4))}, {"traffic": "fig2"}]
)
def test_run_experiment_checks_unvalidated_config(fields):
    flower = load_scenario(SCENARIOS / "flower_greedy_random.json")
    config = replace(flower, **fields)
    data = json.loads(json.dumps({k: v for k, v in vars(config).items() if k != "scenario_id"}))
    with pytest.raises(ScenarioError) as parsed:
        parse_scenario(data, scenario_id="x")
    with pytest.raises(ScenarioError) as ran:
        run_experiment(config)
    assert str(ran.value) == str(parsed.value)


def test_fig2_experiment_report():
    report = run_experiment(load_scenario(SCENARIOS / "fig2_caco.json"))
    assert report.total_accepted == 27
    assert report.total_opt == 63
    assert report.ratio.ratio == Fraction(7, 3)
    assert report.certificate.status == "pass"


def test_fig3_experiment_report():
    report = run_experiment(load_scenario(SCENARIOS / "fig3_caco2.json"))
    assert report.total_accepted == 15
    assert report.total_opt == 27
    assert report.ratio.ratio == Fraction(9, 5)
    assert report.certificate.status == "pass"


def test_reports_are_deterministic():
    config = load_scenario(SCENARIOS / "flower_greedy_random.json")
    a = emit_report(run_experiment(config), "text")
    b = emit_report(run_experiment(config), "text")
    assert a == b
    assert emit_report(run_experiment(config), "csv") == emit_report(
        run_experiment(config), "csv"
    )


def test_csv_columns_and_totals_roundtrip():
    report = run_experiment(load_scenario(SCENARIOS / "fig2_caco.json"))
    text = emit_report(report, "csv")
    rows = list(csv.DictReader(io.StringIO(text)))
    assert list(rows[0]) == ["q", "r", "color", "demand", "online_accepted", "opt_accepted"]
    assert sum(int(r["online_accepted"]) for r in rows) == report.total_accepted
    assert sum(int(r["opt_accepted"]) for r in rows) == report.total_opt
    assert [(r["q"], r["r"]) for r in rows] == sorted((r["q"], r["r"]) for r in rows)


def test_text_report_contains_exact_ratio():
    report = run_experiment(load_scenario(SCENARIOS / "fig2_caco.json"))
    text = emit_report(report, "text")
    assert "7/3" in text
    assert "totals: demand=84 online=27 opt=63" in text


def test_empty_run_header_only_csv():
    config = parse_scenario(
        {"omega": 7, "cells": [[0, 0]], "algorithm": "greedy", "traffic": []},
        scenario_id="empty",
    )
    text = emit_report(run_experiment(config), "csv")
    assert text.splitlines()[0] == "q,r,color,demand,online_accepted,opt_accepted"


def test_failing_certificate_listed_in_text():
    report = RunReport(
        scenario_id="fabricated",
        algorithm="caco",
        omega=21,
        rows=[(0, 0, "R", 1, 0, 1)],
        total_demand=1,
        total_accepted=0,
        total_opt=1,
        ratio=None,
        certificate=Certificate(
            "caco", frozenset(), {}, {}, [CheckResult("per_cell_ratio_7_3", False, ((0, 0),))], []
        ),
    )
    text = emit_report(report, "text")
    assert "per_cell_ratio_7_3: FAIL" in text
    assert "(0, 0)" in text


def test_sweep_omega_grid():
    template = load_scenario(SCENARIOS / "sweep_template.json")
    summary = sweep(template, {"omega": [21, 42, 84]})
    assert len(summary.reports) == 3
    assert not summary.failures
    assert summary.ratio_range["caco"] == (Fraction(7, 3), Fraction(7, 3))


def test_sweep_empty_grid():
    template = load_scenario(SCENARIOS / "sweep_template.json")
    summary = sweep(template, {})
    assert summary.reports == [] and summary.failures == []


def test_sweep_continues_past_failures():
    template = load_scenario(SCENARIOS / "sweep_template.json")
    summary = sweep(template, {"omega": [10, 21]})  # 10 breaks caco divisibility
    assert len(summary.reports) == 1
    assert len(summary.failures) == 1
    assert "omega=10" in summary.failures[0][0]


def test_duel_config_includes_certificate():
    config = duel_config("fig2", "caco", 21)
    assert config.verify_certificate and config.compute_opt
    report = run_experiment(duel_config("fig2", "greedy", 21))
    assert report.certificate is None
    assert "certificate (" not in emit_report(report)


# CLI

def test_cli_duel_fig2():
    result = CliRunner().invoke(
        main, ["duel", "--adversary", "fig2", "--alg", "caco", "--omega", "21"]
    )
    assert result.exit_code == 0, result.output
    assert "online=27 opt=63" in result.output
    assert "7/3" in result.output


def test_cli_run_csv(tmp_path):
    out = tmp_path / "report.csv"
    result = CliRunner().invoke(
        main,
        ["run", str(SCENARIOS / "fig2_caco.json"), "--format", "csv", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    assert out.read_text().startswith("q,r,color,demand")


def test_cli_verify_exit_zero():
    result = CliRunner().invoke(main, ["verify", str(SCENARIOS / "fig3_caco2.json")])
    assert result.exit_code == 0, result.output
    assert "status: pass" in result.output


def test_cli_sweep():
    result = CliRunner().invoke(
        main,
        ["sweep", str(SCENARIOS / "sweep_template.json"), "--grid", "omega=21|42"],
    )
    assert result.exit_code == 0, result.output
    assert "min ratio 7/3, max ratio 7/3" in result.output


def test_cli_bad_scenario_is_clean_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{}")
    result = CliRunner().invoke(main, ["run", str(path)])
    assert result.exit_code != 0
    assert "omega" in result.output


@pytest.mark.parametrize("command", ["run", "verify"])
def test_cli_optimum_past_solver_limit_exits_nonzero(tmp_path, command):
    result = CliRunner().invoke(main, [command, str(_too_large_scenario(tmp_path))])
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "error: optimum not computed" in result.output


@pytest.mark.parametrize("compute_opt", [False, True])
def test_cli_run_honours_compute_opt_for_selector_traffic(tmp_path, compute_opt):
    path = _too_large_scenario(tmp_path, traffic="random:1:500", compute_opt=compute_opt)
    result = CliRunner().invoke(main, ["run", str(path)])
    if compute_opt:
        assert result.exit_code == 1
        assert "error: optimum not computed" in result.output
    else:
        assert result.exit_code == 0, result.output
        assert "opt=-" in result.output and "error:" not in result.output


def test_cli_verify_tampered_optimum_fails(monkeypatch):
    exact_optimum = harness.exact_optimum

    def tampered(network, omega, demands):
        # 7 more calls at one outer star cell than fig3's true optimum of 9 there
        opt = exact_optimum(network, omega, demands)
        per_cell = {**opt.per_cell, (1, 0): opt.per_cell[(1, 0)] + 7}
        return OptimumWitness(opt.total + 7, per_cell, opt.assignment)

    monkeypatch.setattr(harness, "exact_optimum", tampered)
    result = CliRunner().invoke(main, ["verify", str(SCENARIOS / "fig3_caco2.json")])
    assert result.exit_code == 1
    assert "per_cell_ratio_9_4: FAIL at [(1, 0)]" in result.output
    assert "global_ratio_9_4: FAIL" in result.output
    assert "status: fail" in result.output


def test_cli_verify_uncovered_case_exits_zero(tmp_path):
    # a 3-cell path at omega 3 whose optimum leaves (1, 0) outside the case tree
    traffic = [[-1, 0]] * 2 + [[0, 0]] + [[1, 0]] * 3
    data = {"omega": 3, "cells": [[-1, 0], [0, 0], [1, 0]], "algorithm": "caco2", "traffic": traffic}
    path = tmp_path / "uncovered.json"
    path.write_text(json.dumps(data))
    result = CliRunner().invoke(main, ["verify", str(path)])
    assert result.exit_code == 0, result.output
    assert "status: uncovered" in result.output
    assert "  uncovered: (1, 0) (compensation left the cell below 4O/9)\n" in result.output


def test_cli_readme_commands_exit_zero(tmp_path, monkeypatch):
    readme = (SCENARIOS.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [
        shlex.split(line)
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("cellcall ")
    ]
    assert len(commands) == 6
    monkeypatch.chdir(SCENARIOS.parent)
    for command in commands:
        args = command[1:]
        if "--out" in args:
            i = args.index("--out") + 1
            args[i] = str(tmp_path / args[i])
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0, (command, result.output)


def test_cli_duel_builds_algorithm_once(monkeypatch):
    calls = Counter()
    for name in ("make_algorithm", "make_adversary"):
        def counted(*args, real=getattr(harness, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(harness, name, counted)
    result = CliRunner().invoke(
        main, ["duel", "--adversary", "fig2", "--alg", "caco", "--omega", "21"]
    )
    assert result.exit_code == 0, result.output
    assert calls["make_algorithm"] == 1 and calls["make_adversary"] <= 2


def test_cli_unknown_adversary():
    result = CliRunner().invoke(
        main, ["duel", "--adversary", "fig7", "--alg", "caco", "--omega", "21"]
    )
    assert result.exit_code != 0


def test_cli_duel_certificate_by_resolved_name():
    result = CliRunner().invoke(
        main, ["duel", "--adversary", "fig2", "--alg", "partition:2:1", "--omega", "21"]
    )
    assert result.exit_code == 0, result.output
    assert "algorithm: caco" in result.output
    assert "certificate (caco):" in result.output


@pytest.mark.parametrize(
    "args",
    [
        ["duel", "--adversary", "fig9", "--alg", "caco", "--omega", "21"],
        ["duel", "--adversary", "random", "--alg", "greedy", "--omega", "21"],
        ["duel", "--adversary", "random:x:y", "--alg", "greedy", "--omega", "21"],
        ["duel", "--adversary", "fig2", "--alg", "greedy", "--omega", "0"],
        ["duel", "--adversary", "fig2", "--alg", "greedy", "--omega", "-7"],
        ["sweep", str(SCENARIOS / "sweep_template.json"), "--grid", "omega=abc"],
        ["duel", "--adversary", "fig2", "--seed", "5", "--alg", "greedy", "--omega", "21"],
        ["duel", "--adversary", "random", "--seed", "5", "--alg", "greedy", "--omega", "21"],
        ["duel", "--adversary", "random:+3:20", "--alg", "greedy", "--omega", "21"],
        ["duel", "--adversary", "fig2", "--alg", "partition: 2:1", "--omega", "21"],
        ["sweep", str(SCENARIOS / "sweep_template.json"), "--grid", "omega"],
        ["sweep", str(SCENARIOS / "sweep_template.json"), "--grid", "cells=1"],
    ],
)
def test_cli_bad_input_is_named_error(args):
    result = CliRunner().invoke(main, args)
    assert result.exit_code != 0
    assert "Error:" in result.output and "Traceback" not in result.output
    assert isinstance(result.exception, SystemExit), result.exception
