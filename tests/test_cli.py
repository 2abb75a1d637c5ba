"""Tests for the command-line interface: formats, exit codes, round trips."""

import csv
import io
import json
import math
import os
import stat
import textwrap
import threading
from dataclasses import replace
from pathlib import Path

import pytest

import seqgap.calibrate
import seqgap.engine
from seqgap import (
    CalibrationSettings,
    ErrorBudget,
    asymptotic_sweep,
    calibrate_gap_c,
    load_config,
    reproduce_table,
)
from seqgap.cli import RUN_CSV_COLUMNS, main, write_report
from seqgap.engine import rule_to_dict

SHIPPED_CONFIGS = sorted((Path(__file__).parent.parent / "configs").glob("*.yaml"))

GAP_CONFIG = textwrap.dedent(
    """
    streams:
      family: gaussian-mean
      "null": 0.0
      alt: 0.5
      count: 10
    truth:
      count: 5
    rule:
      type: gap
      num_signals: 5
      threshold: 2.1
    budget:
      alpha: 0.05
      beta: 0.05
    run:
      replications: 300
      seed: 42
      metrics: [fdr, fnr]
    """
)


def read_run_csv(path) -> list[dict]:
    """Parse a run CSV back; numeric fields come back as int/float."""
    numeric_int = {"J", "reps", "seed", "n_effective", "horizon_hits"}
    numeric_float = {"ET", "ET_se", "value", "se"}
    with open(path, "r", encoding="utf-8", newline="") as handle:
        rows = []
        for row in csv.DictReader(handle):
            parsed = {}
            for key, cell in row.items():
                if key in numeric_int:
                    parsed[key] = int(cell)
                elif key in numeric_float:
                    parsed[key] = float(cell)
                else:
                    parsed[key] = cell
            rows.append(parsed)
    return rows


@pytest.fixture
def gap_config_path(tmp_path):
    path = tmp_path / "gap.yaml"
    path.write_text(GAP_CONFIG)
    return str(path)


def test_run_text_to_stdout(gap_config_path, capsys):
    assert main(["run", "--config", gap_config_path]) == 0
    out = capsys.readouterr().out
    assert "experiment report" in out
    assert "mean stopping time" in out
    assert "fdr" in out and "%" in out
    assert "wall time" in out


def test_run_csv_header_and_round_trip(gap_config_path, tmp_path):
    out_path = str(tmp_path / "report.csv")
    code = main(
        ["run", "--config", gap_config_path, "--format", "csv", "--out", out_path]
    )
    assert code == 0
    with open(out_path, encoding="utf-8") as handle:
        header = handle.readline().strip()
    assert header == (
        "rule,J,m_or_bounds,threshold,reps,seed,ET,ET_se,metric,value,se,"
        "n_effective,horizon_hits"
    )
    rows = read_run_csv(out_path)
    assert len(rows) == 2
    assert [r["metric"] for r in rows] == ["fdr", "fnr"]
    assert rows[0]["rule"] == "gap"
    assert rows[0]["J"] == 10
    assert rows[0]["m_or_bounds"] == "m=5"
    assert rows[0]["reps"] == 300 and rows[0]["seed"] == 42


def test_run_csv_numeric_fields_exact(gap_config_path, tmp_path):
    """17-significant-digit serialization reproduces every float exactly."""
    from seqgap import load_config, run_experiment

    out_path = str(tmp_path / "report.csv")
    main(["run", "--config", gap_config_path, "--format", "csv", "--out", out_path])
    report = run_experiment(load_config(gap_config_path).experiment)
    rows = read_run_csv(out_path)
    for row in rows:
        assert row["ET"] == report.mean_stopping_time.value
        assert row["ET_se"] == report.mean_stopping_time.se
    by_metric = {row["metric"]: row for row in rows}
    for kind, est in report.metrics.items():
        assert by_metric[kind.value]["value"] == est.value
        assert by_metric[kind.value]["se"] == est.se
        assert by_metric[kind.value]["n_effective"] == est.n_effective


def test_run_csv_rerun_identical_bytes(gap_config_path, tmp_path):
    """No wall time in machine formats: reruns give identical files."""
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    main(["run", "--config", gap_config_path, "--format", "csv", "--out", a])
    main(["run", "--config", gap_config_path, "--format", "csv", "--out", b])
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_run_json_payload(gap_config_path, tmp_path):
    out_path = str(tmp_path / "report.json")
    code = main(
        ["run", "--config", gap_config_path, "--format", "json", "--out", out_path]
    )
    assert code == 0
    doc = json.loads(Path(out_path).read_text())
    assert doc["config"]["rule"]["type"] == "gap"
    assert "wall_time" not in doc
    assert doc["metrics"]["fdr"]["n_effective"] == 300
    assert doc["horizon_hits"] == 0


def test_run_overrides_reps_and_seed(gap_config_path, tmp_path):
    out_path = str(tmp_path / "r.json")
    main(
        [
            "run",
            "--config",
            gap_config_path,
            "--reps",
            "50",
            "--seed",
            "7",
            "--format",
            "json",
            "--out",
            out_path,
        ]
    )
    doc = json.loads(Path(out_path).read_text())
    assert doc["config"]["replications"] == 50
    assert doc["config"]["master_seed"] == 7


def test_workers_env_var_invariance(gap_config_path, tmp_path, monkeypatch):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    main(["run", "--config", gap_config_path, "--format", "json", "--out", a])
    monkeypatch.setenv("SEQGAP_WORKERS", "4")
    main(["run", "--config", gap_config_path, "--format", "json", "--out", b])
    assert json.loads(Path(a).read_text()) == json.loads(Path(b).read_text())


def test_workers_env_var_validated(gap_config_path, monkeypatch, capsys):
    monkeypatch.setenv("SEQGAP_WORKERS", "zero?")
    assert main(["run", "--config", gap_config_path]) == 2
    assert "SEQGAP_WORKERS" in capsys.readouterr().err


_SUBCOMMANDS = {
    "run": ["run"],
    "calibrate": ["calibrate"],
    "sweep": ["sweep", "--alphas", "1e-2"],
    "reproduce": ["reproduce", "--which", "table1", "--rows", "1"],
}


@pytest.mark.parametrize(
    "flags",
    [
        ["--reps", "0"],
        ["--reps", "-3"],
        ["--seed", "-1"],
        ["--seed", str(2**64)],
        ["--workers", "0"],
    ],
    ids=" ".join,
)
@pytest.mark.parametrize("command", sorted(_SUBCOMMANDS))
def test_bad_override_exit_2_naming_the_flag(command, flags, gap_config_path, capsys):
    argv = _SUBCOMMANDS[command] + flags
    if command != "reproduce":
        argv += ["--config", gap_config_path]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {flags[0]} must be ")


@pytest.mark.parametrize(
    "line",
    [
        "threshold_cap: .nan",
        "threshold_cap: 0",
        "grid_step: .inf",
        "sample_size_cap: 0",
    ],
)
def test_bad_calibrate_setting_exit_2(line, tmp_path, capsys):
    path = tmp_path / "cal.yaml"
    path.write_text(GAP_CONFIG + f"calibrate:\n  {line}\n")
    assert main(["calibrate", "--config", str(path)]) == 2
    key = line.split(":")[0]
    assert f"configuration error: calibrate.{key} must be" in capsys.readouterr().err


def test_config_error_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text(GAP_CONFIG.replace("alpha: 0.05", "alpha: 1.5"))
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "budget.alpha" in err


def test_repeated_truth_label_exit_2(tmp_path, capsys):
    """A label listed twice is a typo, not a smaller signal set."""
    path = tmp_path / "repeated.yaml"
    path.write_text(GAP_CONFIG.replace("count: 5", "indices: [2, 3, 3, 7]", 1))
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        "configuration error: truth.indices: repeated [3]\n"
    )


def test_missing_config_file_exit_2(capsys):
    assert main(["run", "--config", "/no/such/file.yaml"]) == 2


def test_runtime_error_exit_1(tmp_path, capsys):
    """Semantically impossible experiment: conditional metric with a bracket
    that can reject nothing."""
    path = tmp_path / "pfdr.yaml"
    path.write_text(
        textwrap.dedent(
            """
            streams: {family: gaussian-mean, "null": 0.0, alt: 0.5, count: 10}
            truth: {count: 5}
            rule:
              type: gap-intersection
              min_signals: 0
              max_signals: 10
              thresholds:
                accept_barrier: 5.0
                reject_barrier: 5.0
                accept_gap: 7.0
                reject_gap: 7.0
            run: {replications: 50, seed: 1, metrics: [pfdr]}
            """
        )
    )
    assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "min_signals >= 1" in err


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_auto_rule_without_control_constants_exit_2(command, tmp_path, capsys):
    """"auto" thresholds under a control metric that has no bound constants
    for the rule are a configuration error naming rule.control."""
    shipped = Path(__file__).parent.parent / "configs" / "gap-intersection.yaml"
    text = shipped.read_text().replace("min_signals: 2", "min_signals: 0")
    path = tmp_path / "pfdr.yaml"
    path.write_text(text.replace("control: fdr", "control: pfdr"))
    argv = [command, "--config", str(path), "--reps", "20"]
    if command == "sweep":
        argv += ["--alphas", "0.01:0.02"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: rule.control: pfdr bounds need")


def test_explicit_rule_without_control_constants_sweep_exit_2(tmp_path, capsys):
    """The sweep derives thresholds under rule.control even when the file
    spells them out, so a control without bound constants for the rule is a
    configuration error there; run does not use the control."""
    shipped = Path(__file__).parent.parent / "configs" / "gap-intersection.yaml"
    text = shipped.read_text().replace("min_signals: 2", "min_signals: 0")
    text = text.replace("control: fdr", "control: pfdr").replace(
        "thresholds: auto",
        "thresholds:\n    accept_barrier: 5.3\n    reject_barrier: 7.4\n"
        "    accept_gap: 7.4\n    reject_gap: 7.2",
    )
    path = tmp_path / "pfdr.yaml"
    path.write_text(text)
    argv = ["--config", str(path), "--reps", "20"]
    assert main(["sweep", *argv, "--alphas", "0.01"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: rule.control: pfdr bounds need")
    assert main(["run", *argv]) == 0


@pytest.mark.parametrize("name", ["bh", "top-m"])
def test_sweep_of_a_fixed_sample_rule_exit_2(name, capsys):
    """The sweep needs formula thresholds; a fixed-sample rule is a
    configuration error naming rule.type and the rule's config tag."""
    path = Path(__file__).parent.parent / "configs" / f"{name}.yaml"
    assert main(["sweep", "--config", str(path), "--alphas", "0.01"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: rule.type: ")
    assert err.rstrip().endswith(f"got {name!r}")


def test_calibrate_gap(gap_config_path, tmp_path):
    out_path = str(tmp_path / "cal.json")
    code = main(
        [
            "calibrate",
            "--config",
            gap_config_path,
            "--reps",
            "150",
            "--format",
            "json",
            "--out",
            out_path,
        ]
    )
    assert code == 0
    doc = json.loads(Path(out_path).read_text())
    assert doc["chosen"] > 0
    assert doc["probes"]
    assert doc["achieved"]["fdr"]["n_effective"] == 150


def test_calibrate_honours_run_horizon(tmp_path):
    """run.horizon reaches the calibration search (the paths are censored at
    step 3, which moves the chosen threshold off its uncensored value)."""
    path = tmp_path / "horizon.yaml"
    path.write_text(
        GAP_CONFIG.replace("0.05", "0.35").replace("seed: 42", "seed: 42\n  horizon: 3")
    )
    out_path = str(tmp_path / "cal.json")
    argv = ["calibrate", "--config", str(path), "--reps", "100"]
    assert main(argv + ["--format", "json", "--out", out_path]) == 0
    doc = json.loads(Path(out_path).read_text())
    loaded = load_config(str(path))
    experiment = loaded.experiment
    assert experiment.horizon == 3
    want = calibrate_gap_c(
        replace(experiment, replications=100), CalibrationSettings(), loaded.budget
    )
    assert doc["chosen"] == want.chosen
    assert doc["probes"] == want.payload()["probes"]


def test_calibrate_csv_contains_trace(gap_config_path, tmp_path):
    out_path = str(tmp_path / "cal.csv")
    main(
        [
            "calibrate",
            "--config",
            gap_config_path,
            "--reps",
            "100",
            "--format",
            "csv",
            "--out",
            out_path,
        ]
    )
    with open(out_path, encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    kinds = {row["row_type"] for row in rows}
    assert kinds == {"achieved", "probe"}


def test_calibrate_cap_exit_1_with_trace(tmp_path, capsys):
    path = tmp_path / "cap.yaml"
    path.write_text(
        GAP_CONFIG.replace("alpha: 0.05", "alpha: 0.000001").replace(
            "beta: 0.05", "beta: 0.000001"
        )
        + "\ncalibrate:\n  threshold_cap: 1.0\n"
    )
    assert main(["calibrate", "--config", str(path), "--reps", "100"]) == 1
    err = capsys.readouterr().err
    assert "cap" in err
    assert "probed" in err  # the grid trace is printed


def test_calibrate_cap_below_grid_step_exit_2(tmp_path, capsys):
    """A cap below the first grid point is a configuration error naming both
    keys, not a search that fails at run time."""
    path = tmp_path / "cal.yaml"
    path.write_text(GAP_CONFIG + "calibrate: {grid_step: 0.5, threshold_cap: 0.3}\n")
    assert main(["calibrate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert "calibrate.threshold_cap" in err and "calibrate.grid_step" in err


def test_calibrate_grid_step_rounding_to_zero_exit_2(tmp_path, capsys):
    """A grid step whose first threshold rounds to 0 is a configuration
    error, not a probe that fails at run time."""
    path = tmp_path / "cal.yaml"
    path.write_text(GAP_CONFIG + "calibrate: {grid_step: 1.0e-13}\n")
    assert main(["calibrate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: calibrate.grid_step (1e-13) ")


def test_calibrate_bh_full_scan(tmp_path):
    """calibrate.full_scan makes the bh search probe 1, 2, ... up to the first
    size meeting budget.beta, in order; here it picks what bracketing picks."""
    bh = (Path(__file__).parent.parent / "configs" / "bh.yaml").read_text()
    chosen = {}
    for full_scan in (False, True):
        path = tmp_path / f"bh-{full_scan}.yaml"
        setting = f"  full_scan: {str(full_scan).lower()}\n"
        path.write_text(bh.replace("calibrate:\n", "calibrate:\n" + setting))
        out = tmp_path / f"bh-{full_scan}.json"
        argv = ["calibrate", "--config", str(path), "--reps", "20"]
        assert main(argv + ["--format", "json", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        chosen[full_scan] = report["chosen"]
    points = [probe["point"] for probe in report["probes"]]
    assert points == list(range(1, len(points) + 1))
    fnr = [probe["estimates"]["fnr"]["value"] for probe in report["probes"]]
    assert fnr[-1] <= 0.05 and all(value > 0.05 for value in fnr[:-1])
    assert chosen[True] == chosen[False]


def test_calibrate_bh_requires_target(tmp_path, capsys):
    """The bh search aims its FNR at budget.beta, so it needs a budget."""
    path = tmp_path / "bh.yaml"
    path.write_text(
        textwrap.dedent(
            """
            streams: {family: gaussian-mean, "null": 0.0, alt: 0.5, count: 10}
            truth: {count: 5}
            rule: {type: bh, sample_size: 52, level: 0.05}
            run: {replications: 100, seed: 1}
            """
        )
    )
    assert main(["calibrate", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        "configuration error: calibrating a bh rule needs a budget section\n"
    )


def test_calibrate_target_fnr_is_an_unknown_key(tmp_path, capsys):
    """The bh search aims at budget.beta, so calibrate.target_fnr is an
    unknown key."""
    bh = (Path(__file__).parent.parent / "configs" / "bh.yaml").read_text()
    path = tmp_path / "bh.yaml"
    path.write_text(bh.replace("calibrate:\n", "calibrate:\n  target_fnr: 0.08\n"))
    assert main(["calibrate", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        "configuration error: unknown key(s) under calibrate: target_fnr\n"
    )


def test_calibrate_unsupported_rule(tmp_path, capsys):
    path = tmp_path / "gi.yaml"
    path.write_text(
        textwrap.dedent(
            """
            streams: {family: gaussian-mean, "null": 0.0, alt: 0.5, count: 10}
            truth: {count: 5}
            rule:
              type: gap-intersection
              min_signals: 2
              max_signals: 7
              thresholds: auto
            budget: {alpha: 0.05, beta: 0.05}
            run: {replications: 100, seed: 1}
            """
        )
    )
    assert main(["calibrate", "--config", str(path)]) == 2


def test_reproduce_row_subset_csv(tmp_path):
    out_path = str(tmp_path / "t.csv")
    code = main(
        [
            "reproduce",
            "--which",
            "table1",
            "--rows",
            "5",
            "--reps",
            "200",
            "--seed",
            "3",
            "--format",
            "csv",
            "--out",
            out_path,
        ]
    )
    assert code == 0
    with open(out_path, encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 1
    assert rows[0]["num_signals"] == "5"
    assert float(rows[0]["threshold"]) == 2.1
    assert rows[0]["bh_n"] == "52"


def test_reproduce_empty_rows_header_only(capsys):
    assert main(["reproduce", "--which", "table1", "--rows", "", "--format", "csv"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1
    assert out[0].startswith("num_signals,threshold,gap_et")


def test_reproduce_unknown_table_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["reproduce", "--which", "table3"])


@pytest.mark.parametrize(
    "rows,problem",
    [("0", "no such rows [0]"), ("5,5", "repeated [5]"), ("1,10", "no such rows [10]")],
)
def test_reproduce_bad_rows_exit_2(rows, problem, capsys):
    """A row the study lacks, or a row listed twice, is a configuration error
    that lists the study's rows; nothing runs."""
    assert main(["reproduce", "--which", "table1", "--rows", rows]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"configuration error: --rows {rows}: {problem}; "
        "table1 has rows [1, 2, 3, 4, 5, 6, 7, 8, 9]\n"
    )


def test_reproduce_text_table(capsys):
    assert (
        main(["reproduce", "--which", "table1", "--rows", "5", "--reps", "100"]) == 0
    )
    out = capsys.readouterr().out
    assert "benchmark study table1" in out
    assert "FDR%" in out


# The csv columns of the table reports that are not named after a json key.
RENAMED_COLUMNS = {
    "bh_n": "bh_sample_size",
    "topm_n": "topm_sample_size",
    "ET": "mean_stopping_time",
}


def _csv_and_json_rows(report):
    """The csv header, the csv rows and the json rows of a table report."""
    csv_out, json_out = io.StringIO(), io.StringIO()
    write_report(report, "csv", csv_out)
    write_report(report, "json", json_out)
    header, *rows = csv.reader(io.StringIO(csv_out.getvalue()))
    return header, rows, json.loads(json_out.getvalue())["rows"]


def _table_report(case):
    if case.startswith("reproduce"):
        rows = [] if case == "reproduce-no-rows" else [1, 5]
        return reproduce_table("table1", rows=rows, replications=10)
    name = case.removeprefix("sweep-")
    loaded = load_config(str(SHIPPED_CONFIGS[0].parent / f"{name}.yaml"))
    base = replace(loaded.experiment, replications=10)
    return asymptotic_sweep(base, [ErrorBudget(0.01, 0.01)], control=loaded.control)


@pytest.mark.parametrize(
    "case",
    ["reproduce-rows", "reproduce-no-rows", "sweep-gap", "sweep-gap-intersection"],
)
def test_table_csv_row_is_the_json_row_flattened(case):
    """Every csv row has a cell per header name, and the header names are
    the json row keys, in order, a metric estimate's with its ``_se``
    column, the rule's as ``rule`` and ``thresholds``, and three renamed."""
    header, rows, json_rows = _csv_and_json_rows(_table_report(case))
    assert len(rows) == len(json_rows)
    assert all(len(row) == len(header) for row in rows)
    if not json_rows:  # the header comes from the row class, not from a row
        assert header == _csv_and_json_rows(_table_report("reproduce-rows"))[0]
        return
    keys = []
    for name in header:
        base = "rule" if name == "thresholds" else name.removesuffix("_se")
        key = RENAMED_COLUMNS.get(base, base)
        assert key in json_rows[0], name
        if key not in keys:
            keys.append(key)
    assert keys == list(json_rows[0])


def test_sweep_csv(gap_config_path, tmp_path):
    out_path = str(tmp_path / "sweep.csv")
    code = main(
        [
            "sweep",
            "--config",
            gap_config_path,
            "--alphas",
            "1e-2,1e-3",
            "--reps",
            "150",
            "--format",
            "csv",
            "--out",
            out_path,
        ]
    )
    assert code == 0
    with open(out_path, encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 2
    assert [float(r["alpha"]) for r in rows] == [0.01, 0.001]
    for row in rows:
        assert float(row["ratio"]) == float(row["ET"]) / float(row["kappa"])


def test_sweep_alpha_beta_pairs(gap_config_path, capsys):
    code = main(
        [
            "sweep",
            "--config",
            gap_config_path,
            "--alphas",
            "1e-2:2e-2",
            "--reps",
            "100",
            "--format",
            "json",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rows"][0]["alpha"] == 0.01
    assert doc["rows"][0]["beta"] == 0.02


@pytest.mark.parametrize("control", ["fdr", "pfer", "pcer"])
@pytest.mark.parametrize(
    "rule_yaml",
    [
        "{type: gap, num_signals: 4, threshold: auto",
        "{type: gap-intersection, min_signals: 2, max_signals: 7, thresholds: auto",
        "{type: intersection, thresholds: auto",
    ],
    ids=["gap", "gap-intersection", "intersection"],
)
def test_sweep_uses_the_auto_rule_and_control(rule_yaml, control, tmp_path, capsys):
    """At the config's own budget, the sweep row's rule is the rule that
    "auto" resolves to, under the configured control metric."""
    path = tmp_path / "sweep.yaml"
    path.write_text(
        textwrap.dedent(
            f"""
            streams: {{family: gaussian-mean, "null": 0.0, alt: 0.5, count: 10}}
            truth: {{indices: [2, 3, 5, 7]}}
            rule: {rule_yaml}, control: {control}}}
            budget: {{alpha: 0.01, beta: 0.02}}
            run: {{replications: 3, seed: 5}}
            """
        )
    )
    argv = ["sweep", "--config", str(path), "--alphas", "0.01:0.02", "--format", "json"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["control"] == control
    rule = load_config(str(path)).experiment.rule
    assert doc["rows"][0]["rule"] == rule_to_dict(rule)


@pytest.mark.parametrize(
    "name,old,new",
    [
        ("gap", "threshold: 2.1\n  # control: fdr", "threshold: auto\n  control: pfer"),
        ("gap-intersection", "control: fdr", "control: pfer"),
    ],
)
def test_pfer_sweep_at_the_smallest_alpha(name, old, new, tmp_path, capsys):
    """The formula thresholds take log(alpha) - log(c1), so alpha = 5e-324
    under pfer (c1 = 5 for the gap rule at J=10, m=5) does not underflow
    alpha / c1 to 0."""
    shipped = Path(__file__).parent.parent / "configs" / f"{name}.yaml"
    path = tmp_path / f"{name}.yaml"
    path.write_text(shipped.read_text().replace(old, new))
    argv = ["sweep", "--config", str(path), "--alphas", "5e-324", "--reps", "2"]
    assert main([*argv, "--format", "json"]) == 0
    rule = json.loads(capsys.readouterr().out)["rows"][0]["rule"]
    if name == "gap":
        assert rule["threshold"] == abs(math.log(5e-324)) + math.log(5) + math.log(25)


def test_sweep_malformed_alphas_exit_2(gap_config_path):
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--config", gap_config_path, "--alphas", "nope"])
    assert err.value.code == 2


def test_output_defaults_from_config(tmp_path, capsys):
    """The config's output section supplies format and path."""
    out_file = tmp_path / "from_config.csv"
    path = tmp_path / "cfg.yaml"
    path.write_text(
        GAP_CONFIG
        + textwrap.dedent(
            f"""
            output:
              format: csv
              path: {out_file}
            """
        )
    )
    assert main(["run", "--config", str(path)]) == 0
    assert capsys.readouterr().out == ""
    header = out_file.read_text().splitlines()[0]
    assert header.split(",") == RUN_CSV_COLUMNS


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
def test_shipped_configs_run(path, fmt, tmp_path):
    out_path = str(tmp_path / f"report.{fmt}")
    argv = ["run", "--config", str(path), "--reps", "20", "--format", fmt]
    assert main(argv + ["--out", out_path]) == 0
    rule = load_config(str(path)).experiment.rule
    if fmt == "json":
        doc = json.loads(Path(out_path).read_text())
        assert doc["config"]["rule"] == rule_to_dict(rule)
    else:
        cells = {(row["rule"], row["threshold"]) for row in read_run_csv(out_path)}
        assert cells == {(rule.name, rule.threshold_cell())}


def test_sweep_checks_every_point_before_running(tmp_path, capsys, monkeypatch):
    """A truth outside the bracket fails before any experiment, and any
    range of trials, runs."""
    path = tmp_path / "outside.yaml"
    path.write_text(
        textwrap.dedent(
            """
            streams: {family: gaussian-mean, "null": 0.0, alt: 0.5, count: 10}
            truth: {count: 1}
            rule:
              type: gap-intersection
              min_signals: 2
              max_signals: 7
              thresholds: auto
            budget: {alpha: 0.05, beta: 0.05}
            run: {replications: 2000, seed: 1}
            """
        )
    )
    calls = []
    for name in ("run_experiment", "_run_range"):
        monkeypatch.setattr(seqgap.engine, name, lambda *a, **k: calls.append(a))
    monkeypatch.delenv("SEQGAP_WORKERS", raising=False)
    assert main(["sweep", "--config", str(path), "--alphas", "1e-2,1e-4"]) == 1
    err = capsys.readouterr().err
    assert err == "error: signal_count must lie in the bracket 2..7, got 1\n"
    assert calls == []


@pytest.mark.parametrize(
    "command,source",
    [
        ("run", "--out"),
        ("run", "output.path"),
        ("calibrate", "--out"),
        ("calibrate", "output.path"),
        ("sweep", "--out"),
        ("reproduce", "--out"),
    ],
)
@pytest.mark.parametrize("case", ["empty", "missing directory", "a directory"])
def test_an_unwritable_output_path_fails_before_any_trial(
    command, source, case, tmp_path, capsys, monkeypatch
):
    """An empty output path, a directory, or a path in a directory that does
    not exist, is a configuration error that names the flag or key that gave
    it, before any trial runs, and leaves no file behind."""
    out = {
        "empty": "",
        "missing directory": str(tmp_path / "missing" / "report.json"),
        "a directory": str(tmp_path),
    }[case]
    config = tmp_path / "cfg.yaml"
    text = GAP_CONFIG
    if source == "output.path":
        text += f"output:\n  path: {json.dumps(out)}\n"
    config.write_text(text)
    argv = list(_SUBCOMMANDS[command])
    if command != "reproduce":
        argv += ["--config", str(config)]
    if source == "--out":
        argv += ["--out", out]
    calls = []
    monkeypatch.setattr(seqgap.engine, "_run_range", lambda *a: calls.append(a))
    monkeypatch.setattr(seqgap.calibrate, "draw_batches", lambda *a: calls.append(a))
    monkeypatch.delenv("SEQGAP_WORKERS", raising=False)
    assert main(argv) == 2
    if case == "empty":
        problem = "is empty; name a file, or omit it for stdout"
    elif case == "a directory":
        problem = f"{out!r} is a directory; name a file"
    else:
        problem = f"{out!r}: no such directory {os.path.dirname(out)!r}"
    assert capsys.readouterr().err == f"configuration error: {source} {problem}\n"
    assert calls == []
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize("earlier", [None, "earlier report\n"])
def test_failed_write_leaves_no_partial_output(
    earlier, gap_config_path, tmp_path, monkeypatch
):
    out_path = tmp_path / "report.csv"
    if earlier is not None:
        out_path.write_text(earlier)

    def failing_writer(report, fmt, out):
        out.write("rule,J,m_or_bounds\n")
        raise RuntimeError("disk full")

    monkeypatch.setattr("seqgap.cli.write_report", failing_writer)
    argv = ["run", "--config", gap_config_path, "--reps", "5", "--out", str(out_path)]
    assert main(argv) == 1
    if earlier is None:
        assert not out_path.exists()
    else:
        assert out_path.read_text() == earlier
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["gap.yaml"] + ([] if earlier is None else ["report.csv"])
    )


def _csv_report(config_path, out_path):
    argv = ["run", "--config", config_path, "--reps", "5", "--format", "csv"]
    assert main(argv + ["--out", str(out_path)]) == 0


def test_out_through_symlink_writes_the_target(gap_config_path, tmp_path):
    _csv_report(gap_config_path, tmp_path / "plain.csv")
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("earlier report\n")
    link.symlink_to(target)
    _csv_report(gap_config_path, link)
    assert link.is_symlink() and link.resolve() == target
    assert target.read_bytes() == (tmp_path / "plain.csv").read_bytes()


def test_out_hard_linked_file_is_written_in_place(gap_config_path, tmp_path):
    _csv_report(gap_config_path, tmp_path / "plain.csv")
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    first.write_text("earlier report\n")
    os.link(first, second)
    _csv_report(gap_config_path, first)
    assert os.path.samefile(first, second)
    assert second.read_bytes() == (tmp_path / "plain.csv").read_bytes()


def test_out_replacing_a_file_keeps_its_mode(gap_config_path, tmp_path):
    out_path = tmp_path / "report.csv"
    out_path.write_text("earlier report\n")
    out_path.chmod(0o640)
    _csv_report(gap_config_path, out_path)
    assert stat.S_IMODE(out_path.stat().st_mode) == 0o640
    assert out_path.read_text() != "earlier report\n"


def test_out_to_a_fifo_writes_through_it(gap_config_path, tmp_path):
    _csv_report(gap_config_path, tmp_path / "plain.csv")
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(
        target=lambda: received.append(fifo.read_bytes()), daemon=True
    )
    reader.start()
    _csv_report(gap_config_path, fifo)
    reader.join(timeout=30)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert received == [(tmp_path / "plain.csv").read_bytes()]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gap.yaml", "pipe", "plain.csv"]
