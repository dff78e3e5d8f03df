import csv
import io
import json
import shlex
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import pytest
from click.testing import CliRunner
from hypothesis import given, strategies as st

from cellcall import adversary, harness, hexnet, online
from cellcall.adversary import MAX_RANDOM_LENGTH, make_adversary
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
    validate_scenario,
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
    config = load_scenario(path)  # the file's shape is sound; its values are checked when it runs
    with pytest.raises(ScenarioError, match=r"\(4, 4\)"):
        run_experiment(config)


def test_divisibility_mismatch_rejected(tmp_path):
    bad = {"omega": 10, "cells": [[0, 0]], "algorithm": "caco", "traffic": []}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(ScenarioError, match="caco"):
        run_experiment(load_scenario(path))


def test_parse_error_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "omega": 21,\n')
    with pytest.raises(ScenarioError, match="line"):
        load_scenario(path)


def test_non_utf8_file_is_named_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{")
    with pytest.raises(ScenarioError, match="not UTF-8") as info:
        load_scenario(path)
    assert str(path) in str(info.value)
    result = CliRunner().invoke(main, ["run", str(path)])
    assert result.exit_code == 1 and "Error:" in result.output, result.output
    assert isinstance(result.exception, SystemExit), result.exception


@pytest.mark.parametrize(
    "text",
    [
        "[" * 100000 + "]" * 100000,
        '{"omega": 7, "cells": [[0, 0]], "algorithm": "greedy", "traffic": '
        + "[" * 5000 + "]" * 5000 + "}",
    ],
    ids=["bare", "in-traffic"],
)
def test_deeply_nested_file_is_named_error(tmp_path, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    with pytest.raises(ScenarioError, match="nested too deeply") as info:
        load_scenario(path)
    assert str(path) in str(info.value)
    result = CliRunner().invoke(main, ["run", str(path)])
    assert result.exit_code == 1, result.output
    assert result.output.count("Error:") == 1 and "Traceback" not in result.output
    assert isinstance(result.exception, SystemExit), result.exception


def test_nested_cell_error_stays_short(tmp_path):
    # a cell nested 600 deep decodes (with room under the decoder's recursion
    # limit for the test runner's frames), and its error echoes only the first levels
    path = tmp_path / "nested_cell.json"
    path.write_text(
        '{"omega": 7, "cells": ' + "[" * 600 + "]" * 600 + ', "algorithm": "greedy", "traffic": []}'
    )
    result = CliRunner().invoke(main, ["run", str(path)])
    assert result.exit_code == 1, result.output
    assert result.output == "Error: cell must be an integer pair [q, r], got [[[[...]]]]\n"


@pytest.mark.parametrize(
    "field, value, start",
    [
        ("traffic", "random:" + "x" * 3000 + ":5", "traffic selector 'random:xxx"),
        ("traffic", "random:1:" + "9" * 3000, "traffic selector 'random:1:999"),
        ("algorithm", "partition:" + "1" * 3000 + ":1", "algorithm 'partition:111"),
        ("cells", [[0, 0], list(range(5000))], "cell must be an integer pair [q, r], got [0, 1, 2,"),
    ],
    ids=["bad-seed", "long-length", "huge-partition", "long-cell"],
)
def test_long_scenario_values_echoed_short(field, value, start):
    data = {"omega": 7, "cells": [[0, 0], [1, 0]], "algorithm": "greedy", "traffic": []}
    data[field] = value
    with pytest.raises(ScenarioError) as info:
        validate_scenario(parse_scenario(data, scenario_id="x"))
    assert str(info.value).startswith(start) and len(str(info.value)) < 300, str(info.value)


def test_grid_omegas_take_the_selector_integer_rule():
    template = str(SCENARIOS / "sweep_template.json")
    result = CliRunner().invoke(main, ["sweep", template, "--grid", "omega=1_4| \u0662\u0661"])
    assert result.exit_code == 1, result.output
    assert "Error: bad grid spec 'omega=1_4| \u0662\u0661'; omega values must be integers" in result.output
    assert "t[omega=14]" not in result.output


def test_repeated_scenario_key_is_named_error(tmp_path):
    path = tmp_path / "dup.json"
    path.write_text('{"omega": 7, "cells": [[0, 0]], "algorithm": "greedy", "traffic": [], "omega": 8}')
    with pytest.raises(ScenarioError, match="^scenario key 'omega' is given twice$"):
        load_scenario(path)
    result = CliRunner().invoke(main, ["run", str(path)])
    assert result.exit_code == 1, result.output
    assert "Error: scenario key 'omega' is given twice" in result.output
    assert isinstance(result.exception, SystemExit), result.exception


def test_unknown_algorithm_rejected():
    config = parse_scenario(
        {"omega": 7, "cells": [[0, 0]], "algorithm": "nope", "traffic": []},
        scenario_id="x",
    )
    with pytest.raises(ScenarioError, match="algorithm"):
        validate_scenario(config)


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
    message = {"cells": "^cell must", "traffic": "^traffic request must"}.get(field, f"^{field} must")
    with pytest.raises(ScenarioError, match=message):
        parse_scenario(data, scenario_id="x")


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("cells", [], "^cells must"),
        ("cells", [[0, 0], [0, 0]], "^cells contains"),
        ("algorithm", 7, "^algorithm must"),
        ("traffic", {"fig2": True}, "^traffic must"),
        ("verify_certifcate", True, r"^unknown scenario fields \['verify_certifcate'\]"),
    ],
)
def test_malformed_fields_rejected(field, value, message):
    data = {"omega": 7, "cells": [[0, 0], [1, 0]], "algorithm": "greedy", "traffic": [[1, 0]]}
    data[field] = value
    with pytest.raises(ScenarioError, match=message):
        parse_scenario(data, scenario_id="x")


def test_traffic_outside_network_names_first_request():
    data = {"omega": 7, "cells": [[0, 0], [1, 0]], "algorithm": "greedy"}
    data["traffic"] = [[1, 0], [0, 0], [5, 5], [6, 6]]
    with pytest.raises(ScenarioError, match=r"^traffic request 2 at cell \(5, 5\) is outside the network$"):
        validate_scenario(parse_scenario(data, scenario_id="x"))


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
    # parsing reads the shape, building checks the values: neither stage
    # raises anything but ScenarioError, and what passes both can run
    try:
        config = parse_scenario(data, scenario_id="fuzz")
        validate_scenario(config)
    except ScenarioError:
        return
    assert config.omega > 0 and config.cells


def test_random_traffic_length_checked_without_generating(tmp_path, monkeypatch):
    def generate(*args):
        raise AssertionError("requests generated while checking a selector")

    monkeypatch.setattr(adversary, "random_sequence", generate)
    flower = json.loads((SCENARIOS / "flower_greedy_random.json").read_text())
    validate_scenario(
        parse_scenario(dict(flower, traffic=f"random:1:{MAX_RANDOM_LENGTH}"), scenario_id="at-cap")
    )
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(dict(flower, traffic="random:0:1000000000")))
    start = perf_counter()
    with pytest.raises(ScenarioError, match=f"between 0 and {MAX_RANDOM_LENGTH}"):
        validate_scenario(load_scenario(huge))
    for args in (
        ["run", str(huge)],
        ["duel", "--adversary", "random:0:1000000000", "--alg", "greedy", "--omega", "7"],
    ):
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 1 and "Error:" in result.output, result.output
    # a sweep checks each point as it runs it, and records the point as failed
    result = CliRunner().invoke(main, ["sweep", str(huge), "--grid", "omega=7"])
    assert result.exit_code == 1, result.output
    assert (
        "  failed: huge[omega=7]: traffic selector 'random:0:1000000000': "
        f"length must be between 0 and {MAX_RANDOM_LENGTH}"
    ) in result.output
    assert perf_counter() - start < 0.5


def test_fixed_network_adversary_needs_exactly_its_cells():
    flower = json.loads((SCENARIOS / "flower_greedy_random.json").read_text())
    flower_cells = sorted(tuple(c) for c in flower["cells"])
    # caco2 would run on the triangle-free star, so the cells, not the
    # algorithm, are what is wrong
    for algorithm in ("greedy", "caco2"):
        config = parse_scenario(dict(flower, traffic="fig2", algorithm=algorithm), scenario_id="x")
        with pytest.raises(ScenarioError) as info:
            validate_scenario(config)
        message = str(info.value)
        assert "[(-1, 1), (0, -1), (0, 0), (1, 0)]" in message
        assert str(flower_cells) in message


def test_certificate_by_resolved_name():
    config = load_scenario(SCENARIOS / "fig2_caco.json")._replace(algorithm="partition:2:1")
    report = run_experiment(config)
    assert report.algorithm == "caco"
    assert report.certificate.kind == "caco" and report.certificate.status == "pass"


def _too_large_scenario(tmp_path, **fields):
    # 37 cells, each requested 8 times: no triangle of cells fits in omega 21,
    # so the one component goes to the search, whose cell cap is 12
    cells = [list(c) for c in hex_patch(3).sorted_cells()]
    data = {"omega": 21, "cells": cells, "algorithm": "caco", "traffic": cells * 8, "compute_opt": True}
    data.update(fields)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(data))
    return path


def test_optimum_past_solver_limit_named_in_report(tmp_path):
    report = run_experiment(load_scenario(_too_large_scenario(tmp_path)))
    assert report.total_opt is None and report.certificate is None
    assert "component of 37 cells" in report.error and "cell cap of 12" in report.error
    assert "error: optimum not computed" in emit_report(report, "text")


@pytest.mark.parametrize(
    "fields", [{"algorithm": "nope"}, {"traffic": ((0, 0), (4, 4))}, {"traffic": "fig2"}]
)
def test_run_experiment_checks_unvalidated_config(fields):
    # a config built in code and the same config read from JSON are refused
    # alike, by the run's one check
    flower = load_scenario(SCENARIOS / "flower_greedy_random.json")
    config = flower._replace(**fields)
    data = json.loads(json.dumps({k: v for k, v in config._asdict().items() if k != "scenario_id"}))
    with pytest.raises(ScenarioError) as parsed:
        run_experiment(parse_scenario(data, scenario_id="x"))
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
    for path in sorted(SCENARIOS.glob("*.json")):
        config = load_scenario(path)
        for fmt in ("text", "csv"):
            assert emit_report(run_experiment(config), fmt) == emit_report(run_experiment(config), fmt), path


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")), ids=lambda path: path.stem)
def test_bundled_reports_match_their_pinned_text(path):
    result = CliRunner().invoke(main, ["verify", str(path)])
    assert result.exit_code == 0, result.output
    assert result.output == (SCENARIOS / "expected" / f"{path.stem}.txt").read_text()


def test_csv_columns_and_totals_roundtrip():
    report = run_experiment(load_scenario(SCENARIOS / "fig2_caco.json"))
    text = emit_report(report, "csv")
    rows = list(csv.DictReader(io.StringIO(text)))
    assert list(rows[0]) == ["q", "r", "color", "demand", "online_accepted", "opt_accepted"]
    assert sum(int(r["online_accepted"]) for r in rows) == report.total_accepted
    assert sum(int(r["opt_accepted"]) for r in rows) == report.total_opt
    assert [(r["q"], r["r"]) for r in rows] == sorted((r["q"], r["r"]) for r in rows)


def csv_module_report(report):
    """The CSV report as `csv.writer` writes it: the reference for `emit_report`."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(harness.CSV_COLUMNS)
    for *fields, opt in report.rows:
        writer.writerow([*fields, "" if opt is None else opt])
    return buf.getvalue()


def test_csv_is_byte_identical_to_the_csv_module():
    reports = [run_experiment(load_scenario(path)) for path in sorted(SCENARIOS.glob("*.json"))]
    # negative coordinates, and no optimum to print
    no_opt = parse_scenario(
        {"omega": 7, "cells": [[-2, 1], [-1, 1], [0, -3]], "algorithm": "caco", "traffic": "random:4:30"},
        scenario_id="no-opt",
    )
    reports.append(run_experiment(no_opt))
    assert all(row[-1] is None for row in reports[-1].rows)
    assert any(row[0] < 0 for row in reports[-1].rows) and any(row[1] < 0 for row in reports[-1].rows)
    for report in reports:
        assert emit_report(report, "csv") == csv_module_report(report)


def test_reports_name_colours_r_g_b():
    # colour index (q - r) mod 3 is printed as R, G, B in text and CSV alike
    config = parse_scenario(
        {"omega": 7, "cells": [[0, 0], [1, 0], [1, -1]], "algorithm": "greedy", "traffic": []},
        scenario_id="colours",
    )
    report = run_experiment(config)
    expected = {(0, 0): "R", (1, 0): "G", (1, -1): "B"}
    rows = csv.DictReader(io.StringIO(emit_report(report, "csv")))
    assert {(int(r["q"]), int(r["r"])): r["color"] for r in rows} == expected
    table = emit_report(report, "text").split("\n\n")[1].splitlines()[1:]
    assert {(int(q), int(r)): color for q, r, color, *_ in map(str.split, table)} == expected


def test_text_report_contains_exact_ratio():
    report = run_experiment(load_scenario(SCENARIOS / "fig2_caco.json"))
    text = emit_report(report, "text")
    assert "7/3" in text
    assert "totals: demand=84 online=27 opt=63" in text


def test_unknown_report_format_rejected():
    report = run_experiment(load_scenario(SCENARIOS / "fig2_caco.json"))
    with pytest.raises(ValueError, match="unknown report format 'json'"):
        emit_report(report, "json")


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


def _bug(*args, **kwargs):
    raise KeyError("a bug")


@pytest.mark.parametrize(
    "target, name",
    [(online.PartitionReserveAlgorithm, "__init__"), (harness, "make_adversary")],
)
def test_bug_is_not_reported_as_bad_input(monkeypatch, target, name):
    # only ValueError (every named input error) becomes a ScenarioError
    monkeypatch.setattr(target, name, _bug)
    config = duel_config("fig2", "caco", 21)
    with pytest.raises(KeyError, match="a bug"):
        run_experiment(config)
    with pytest.raises(KeyError, match="a bug"):
        sweep(config, {"omega": [21]})


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


@pytest.mark.parametrize(
    "args",
    [
        ["run", str(SCENARIOS / "fig2_caco.json")],
        ["duel", "--adversary", "fig2", "--alg", "caco", "--omega", "21"],
        ["sweep", str(SCENARIOS / "sweep_template.json"), "--grid", "omega=21"],
    ],
)
def test_cli_out_into_missing_directory_is_named_error(tmp_path, args):
    out = tmp_path / "missing" / "x.txt"
    result = CliRunner().invoke(main, [*args, "--out", str(out)])
    assert result.exit_code == 1, result.output
    assert f"Error: cannot write {out}: " in result.output
    assert isinstance(result.exception, SystemExit), result.exception


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


def test_cli_sweep_failed_point_exits_nonzero():
    result = CliRunner().invoke(
        main,
        ["sweep", str(SCENARIOS / "sweep_template.json"), "--grid", "omega=20|21"],
    )
    assert result.exit_code == 1, result.output
    assert "failed: sweep_template[omega=20]: algorithm 'caco': omega=20" in result.output
    assert "min ratio 7/3, max ratio 7/3" in result.output


def _omega_20_template(tmp_path):
    # caco needs omega a multiple of 7, so the template is invalid at its own omega
    path = tmp_path / "omega20.json"
    path.write_text(json.dumps(dict(json.loads((SCENARIOS / "sweep_template.json").read_text()), omega=20)))
    return path


def test_cli_sweep_checks_each_point_not_the_template(tmp_path):
    result = CliRunner().invoke(main, ["sweep", str(_omega_20_template(tmp_path)), "--grid", "omega=21|42"])
    assert result.exit_code == 0, result.output
    assert result.output.count("scenario: omega20[omega=") == 2
    assert "scenario: omega20[omega=21]\n" in result.output
    assert "scenario: omega20[omega=42]\n" in result.output
    assert "  caco: min ratio 7/3, max ratio 7/3\n" in result.output
    assert "failed:" not in result.output


def test_cli_sweep_records_the_template_omega_as_a_failed_point(tmp_path):
    result = CliRunner().invoke(main, ["sweep", str(_omega_20_template(tmp_path)), "--grid", "omega=20|21"])
    assert result.exit_code == 1, result.output
    assert (
        "  failed: omega20[omega=20]: algorithm 'caco': omega=20 is not a positive multiple of 7 "
        "(required for the 2:2:2:1 split)\n"
    ) in result.output
    assert "scenario: omega20[omega=21]\n" in result.output
    assert "scenario: omega20[omega=20]" not in result.output
    assert "Error:" not in result.output


def test_cli_sweep_without_optimum_has_no_ratio_line(tmp_path):
    # no optimum, no ratio: each point is reported, the summary ranks nothing
    path = tmp_path / "no_opt.json"
    path.write_text(json.dumps(
        {"omega": 21, "cells": [[-1, 1], [0, -1], [0, 0], [1, 0]], "algorithm": "caco", "traffic": "fig2"}
    ))
    result = CliRunner().invoke(main, ["sweep", str(path), "--grid", "omega=21|42"])
    assert result.exit_code == 0, result.output
    assert result.output.count("totals: ") == 2
    assert result.output.endswith("totals: demand=168 online=54 opt=-\n\nsweep summary:\n")


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
    assert "error: optimum not computed: the component of 37 cells" in result.output


def test_cli_verify_serves_a_large_network_in_full(tmp_path):
    # 1261 cells at omega 840: past the search's cell cap, but every demand fits
    cells = [list(c) for c in hex_patch(20).sorted_cells()]
    path = tmp_path / "patch20.json"
    path.write_text(json.dumps({"omega": 840, "cells": cells, "algorithm": "caco", "traffic": "random:1:50000"}))
    result = CliRunner().invoke(main, ["verify", str(path)])
    assert result.exit_code == 0, result.output
    assert "opt=50000" in result.output and "error:" not in result.output
    assert "certificate (caco):" in result.output and "FAIL" not in result.output


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


def test_cli_csv_optimum_past_solver_limit_says_why_on_stderr(tmp_path):
    # 13 cells, one past the search's cell cap, each requested 8 times
    cells = [list(c) for c in hex_patch(2).sorted_cells()][:13]
    path = tmp_path / "big13.json"
    data = {"omega": 21, "cells": cells, "algorithm": "caco", "traffic": cells * 8, "compute_opt": True}
    path.write_text(json.dumps(data))
    result = CliRunner().invoke(main, ["run", str(path), "--format", "csv"])
    assert result.exit_code == 1
    assert result.stdout == emit_report(run_experiment(load_scenario(path)), "csv")
    assert result.stderr == (
        "scenario: big13\n"
        "error: optimum not computed: the component of 13 cells from cell (-2, 0) is not served in full "
        "and is past the search's cell cap of 12\n"
    )


def test_cli_csv_sweep_failed_point_on_stderr():
    template = SCENARIOS / "sweep_template.json"
    result = CliRunner().invoke(main, ["sweep", str(template), "--grid", "algorithm=caco|nope", "--format", "csv"])
    assert result.exit_code == 1
    caco = sweep(load_scenario(template), {"algorithm": ["caco"]}).reports[0]
    assert result.stdout == emit_report(caco, "csv")
    assert result.stderr == (
        "  failed: sweep_template[algorithm=nope]: algorithm 'nope': unknown algorithm selector 'nope'\n"
    )


def test_cli_csv_success_writes_nothing_to_stderr():
    for args in (
        ["verify", str(SCENARIOS / "fig3_caco2.json")],
        ["sweep", str(SCENARIOS / "sweep_template.json"), "--grid", "omega=21|42"],
    ):
        result = CliRunner().invoke(main, [*args, "--format", "csv"])
        assert result.exit_code == 0, result.output
        assert result.stdout.startswith("q,r,color,") and result.stderr == ""


def _tampered_optimum(monkeypatch):
    exact_optimum = harness.exact_optimum

    def tampered(network, omega, demands):
        # 7 more calls at one outer star cell than fig3's true optimum of 9 there
        opt = exact_optimum(network, omega, demands)
        per_cell = {**opt.per_cell, (1, 0): opt.per_cell[(1, 0)] + 7}
        return OptimumWitness(opt.total + 7, per_cell, opt.assignment)

    monkeypatch.setattr(harness, "exact_optimum", tampered)


@pytest.mark.parametrize(
    "args, scenario",
    [
        (["verify", str(SCENARIOS / "fig3_caco2.json")], "fig3_caco2"),
        (["duel", "--adversary", "fig3", "--alg", "caco2", "--omega", "9"], "duel:fig3:caco2:9"),
    ],
)
def test_cli_csv_failing_checks_on_stderr(monkeypatch, args, scenario):
    _tampered_optimum(monkeypatch)
    text = CliRunner().invoke(main, args)
    result = CliRunner().invoke(main, [*args, "--format", "csv"])
    assert text.exit_code == result.exit_code == 1
    assert result.stdout.startswith("q,r,color,") and "FAIL" not in result.stdout
    failing = [line for line in text.stdout.splitlines() if ": FAIL" in line]
    assert failing and result.stderr == "\n".join([f"scenario: {scenario}", *failing]) + "\n"


def test_cli_verify_tampered_optimum_fails(monkeypatch):
    _tampered_optimum(monkeypatch)
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
    # each command builds a run's algorithm and adversary once, and a sweep
    # once per point: reading a scenario file builds neither
    calls = Counter()
    for name in ("make_algorithm", "make_adversary"):
        def counted(*args, real=getattr(harness, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(harness, name, counted)
    for args, runs in (
        (["duel", "--adversary", "fig2", "--alg", "caco", "--omega", "21"], 1),
        (["run", str(SCENARIOS / "fig2_caco.json")], 1),
        (["verify", str(SCENARIOS / "fig3_caco2.json")], 1),
        (["sweep", str(SCENARIOS / "sweep_template.json"), "--grid", "omega=21|42"], 2),
    ):
        calls.clear()
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0, result.output
        assert calls == {"make_algorithm": runs, "make_adversary": runs}, (args, calls)


def test_certified_caco2_duel_checks_its_network_once(monkeypatch):
    # once when caco2 is built and once in its certificate, for one network
    checked = []
    real = hexnet.is_triangle_free
    monkeypatch.setattr(hexnet, "is_triangle_free", lambda net: checked.append(net) or real(net))
    result = CliRunner().invoke(
        main, ["duel", "--adversary", "fig3", "--alg", "caco2", "--omega", "9"]
    )
    assert result.exit_code == 0, result.output
    assert "certificate (caco2):" in result.output and "status: pass" in result.output
    assert len(checked) == 1


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
        ["sweep", str(SCENARIOS / "sweep_template.json"), "--grid", "omega=7", "--grid", "omega=21"],
        ["sweep", str(SCENARIOS / "sweep_template.json"), "--grid", "omega=1_4"],
        ["sweep", str(SCENARIOS / "sweep_template.json"), "--grid", "omega=+7"],
        ["sweep", str(SCENARIOS / "sweep_template.json"), "--grid", "omega= 7"],
        ["sweep", str(SCENARIOS / "sweep_template.json"), "--grid", "omega=\u0662\u0661"],
        ["duel", "--adversary", "fig2", "--alg", "greedy", "--omega", "1_4"],
        ["duel", "--adversary", "fig2", "--alg", "greedy", "--omega", "+7"],
        ["duel", "--adversary", "fig2", "--alg", "greedy", "--omega", " 7"],
        ["duel", "--adversary", "fig2", "--alg", "greedy", "--omega", "\u0667"],
        ["duel", "--adversary", "fig2", "--alg", "greedy", "--omega", "10000000000000000000"],
        ["duel", "--adversary", "fig2", "--alg", "partition:0:1", "--omega", "21"],
        ["duel", "--adversary", "fig2", "--alg", "partition:1:-1", "--omega", "21"],
    ],
)
def test_cli_bad_input_is_named_error(args):
    result = CliRunner().invoke(main, args)
    assert result.exit_code != 0
    assert "Error:" in result.output and "Traceback" not in result.output
    assert isinstance(result.exception, SystemExit), result.exception


@pytest.mark.parametrize(
    "spec, message",
    [
        ("omega=" + "x" * 3000, "Error: bad grid spec 'omega=xxx"),
        ("y" * 3000, "Error: bad grid spec 'yyy"),
        ("z" * 3000 + "=1", "Error: cannot sweep field 'zzz"),
    ],
)
def test_long_grid_spec_errors_are_cut_short(spec, message):
    result = CliRunner().invoke(main, ["sweep", str(SCENARIOS / "sweep_template.json"), "--grid", spec])
    assert result.exit_code == 1, result.output
    assert result.output.startswith(message) and "..." in result.output
    assert result.output.count("\n") == 1 and len(result.output) < 200


def test_duel_omega_takes_the_selector_integer_rule():
    for omega in ("1_4", "+7", " 7", "\u0667", "abc"):
        result = CliRunner().invoke(main, ["duel", "--adversary", "fig2", "--alg", "greedy", "--omega", omega])
        assert result.exit_code == 1, result.output
        assert result.output == f"Error: bad --omega {omega!r}; omega must be an integer\n"


@pytest.mark.parametrize("flood", ["fig2", "fig3"])
def test_star_flood_length_checked_without_generating(flood):
    # 4*omega requests: omega at the center, then omega at each outer cell;
    # building the flood makes none of them
    star = json.loads((SCENARIOS / "fig2_caco.json").read_text())
    omega = MAX_RANDOM_LENGTH // 4
    assert make_adversary(flood, omega).omega == omega
    validate_scenario(
        parse_scenario(dict(star, traffic=flood, omega=omega, algorithm="greedy"), scenario_id="at-cap")
    )
    message = f"a {flood} flood sends 4\\*omega requests, at most {MAX_RANDOM_LENGTH}; omega is {omega + 1}$"
    with pytest.raises(ValueError, match="^" + message):
        make_adversary(flood, omega + 1)
    past_cap = parse_scenario(dict(star, traffic=flood, omega=omega + 1), scenario_id="past-cap")
    with pytest.raises(ScenarioError, match=f"^traffic selector '{flood}': " + message):
        validate_scenario(past_cap)
