"""Tests for the YAML configuration schema."""

import math
import textwrap

import pytest
import yaml

from seqgap import ConfigError, MetricKind, load_config
from seqgap.config import build_config
from seqgap.rules import BhRule, GapIntersectionRule, GapRule, IntersectionRule, TopMRule

BASE = """
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
  replications: 500
  seed: 42
"""


def parse(text):
    return build_config(yaml.safe_load(textwrap.dedent(text)))


def test_minimal_gap_config():
    loaded = parse(BASE)
    experiment = loaded.experiment
    assert isinstance(experiment.rule, GapRule)
    assert experiment.rule.threshold == 2.1
    assert experiment.profile.j == 10
    assert experiment.truth == frozenset(range(1, 6))
    assert experiment.replications == 500
    assert experiment.metrics == (MetricKind.FDR, MetricKind.FNR)
    assert loaded.budget.alpha == 0.05


def test_unquoted_null_key_accepted():
    """YAML turns a bare `null:` key into None; the parser maps it back."""
    loaded = parse(BASE.replace('"null"', "null"))
    assert loaded.experiment.profile.models[0].null == 0.0


def test_auto_gap_threshold_resolves_formula():
    loaded = parse(BASE.replace("threshold: 2.1", "threshold: auto"))
    expected = abs(math.log(0.05)) + math.log(25)
    assert loaded.experiment.rule.threshold == pytest.approx(expected, abs=1e-12)


def test_auto_threshold_with_pfer_control_rescales():
    """Expected-count control inflates C1, pushing the threshold up."""
    text = BASE.replace("threshold: 2.1", "threshold: auto\n  control: pfer")
    loaded = parse(text)
    plain = abs(math.log(0.05)) + math.log(25)
    assert loaded.experiment.rule.threshold == pytest.approx(
        plain + math.log(5), abs=1e-12
    )


def test_auto_threshold_without_budget_fails():
    text = BASE.replace("threshold: 2.1", "threshold: auto")
    text = text.replace("budget:\n  alpha: 0.05\n  beta: 0.05\n", "")
    with pytest.raises(ConfigError, match="budget"):
        parse(text)


def test_gap_intersection_config_auto():
    text = """
    streams: {family: gaussian-mean, "null": 0.0, alt: 0.5, count: 10}
    truth: {count: 4}
    rule:
      type: gap-intersection
      min_signals: 2
      max_signals: 7
      thresholds: auto
    budget: {alpha: 0.05, beta: 0.05}
    run: {replications: 100, seed: 1}
    """
    rule = parse(text).experiment.rule
    assert isinstance(rule, GapIntersectionRule)
    log05 = abs(math.log(0.05))
    assert rule.accept_barrier == pytest.approx(log05 + math.log(10), abs=1e-12)
    assert rule.accept_gap == pytest.approx(log05 + math.log(80), abs=1e-12)
    assert rule.reject_gap == pytest.approx(log05 + math.log(70), abs=1e-12)


def test_gap_intersection_explicit_thresholds():
    text = """
    streams: {family: gaussian-mean, "null": 0.0, alt: 0.5, count: 10}
    truth: {count: 4}
    rule:
      type: gap-intersection
      min_signals: 2
      max_signals: 7
      thresholds:
        accept_barrier: 5.0
        reject_barrier: 5.5
        accept_gap: 7.0
        reject_gap: 7.5
    run: {replications: 100, seed: 1}
    """
    rule = parse(text).experiment.rule
    assert rule.reject_barrier == 5.5
    assert rule.reject_gap == 7.5


def test_intersection_and_fixed_rules_parse():
    text = """
    streams: {family: gaussian-mean, "null": 0.0, alt: 0.5, count: 6}
    truth: {indices: [2, 4]}
    rule:
      type: intersection
      thresholds: {accept_barrier: 4.0, reject_barrier: 4.5}
    run: {replications: 100, seed: 1}
    """
    loaded = parse(text)
    assert isinstance(loaded.experiment.rule, IntersectionRule)
    assert loaded.experiment.truth == frozenset({2, 4})

    bh = parse(
        """
        streams: {family: gaussian-mean, "null": 0.0, alt: 0.5, count: 6}
        truth: {count: 2}
        rule: {type: bh, sample_size: 40}
        budget: {alpha: 0.03, beta: 0.05}
        run: {replications: 100, seed: 1}
        """
    )
    assert isinstance(bh.experiment.rule, BhRule)
    assert bh.experiment.rule.level == 0.03  # defaults to budget.alpha

    topm = parse(
        """
        streams: {family: gaussian-mean, "null": 0.0, alt: 0.5, count: 6}
        truth: {count: 2}
        rule: {type: top-m, sample_size: 40, num_signals: 2}
        run: {replications: 100, seed: 1}
        """
    )
    assert isinstance(topm.experiment.rule, TopMRule)


def test_heterogeneous_stream_list():
    text = """
    streams:
      - {family: gaussian-mean, "null": 0.0, alt: 0.5}
      - {family: gaussian-mean, "null": 0.0, alt: 1.0}
      - {family: bernoulli, "null": 0.3, alt: 0.7}
    truth: {count: 1}
    rule:
      type: intersection
      thresholds: {accept_barrier: 4.0, reject_barrier: 4.0}
    run: {replications: 10, seed: 0}
    """
    profile = parse(text).experiment.profile
    assert profile.j == 3
    assert profile.models[1].alt == 1.0
    assert profile.models[2].family == "bernoulli"


def test_unknown_keys_are_named():
    with pytest.raises(ConfigError, match="rule"):
        parse(BASE.replace("threshold: 2.1", "threshold: 2.1\n  extra: 1"))
    with pytest.raises(ConfigError, match="top-level"):
        parse(BASE + "\nbogus_section: {}\n")


def test_missing_sections_are_named():
    text = BASE.replace("run:\n  replications: 500\n  seed: 42\n", "")
    with pytest.raises(ConfigError, match="run"):
        parse(text)


def test_field_type_errors_are_named():
    with pytest.raises(ConfigError, match="run.replications"):
        parse(BASE.replace("replications: 500", "replications: many"))
    with pytest.raises(ConfigError, match="budget.alpha"):
        parse(BASE.replace("alpha: 0.05", "alpha: 1.5"))
    with pytest.raises(ConfigError, match="streams.count"):
        parse(BASE.replace("count: 10", "count: 1"))
    with pytest.raises(ConfigError, match="truth"):
        parse(BASE.replace("truth:\n  count: 5", "truth:\n  count: 5\n  indices: [1]"))


def test_metric_names_validated():
    with pytest.raises(ConfigError, match="run.metrics"):
        parse(BASE.replace("seed: 42", "seed: 42\n  metrics: [fdr, nope]"))


def test_rule_type_validated():
    with pytest.raises(ConfigError, match="rule.type"):
        parse(BASE.replace("type: gap", "type: sprt"))


def test_calibrate_section_parsed():
    text = BASE + textwrap.dedent(
        """
        calibrate:
          grid_step: 0.2
          threshold_cap: 9.0
          target_fnr: 0.04
          full_scan: true
        """
    )
    settings = parse(text).calibration
    assert settings.grid_step == 0.2
    assert settings.threshold_cap == 9.0
    assert settings.target_fnr == 0.04
    assert settings.full_scan is True


@pytest.mark.parametrize(
    "line",
    [
        "threshold_cap: .nan",
        "threshold_cap: .inf",
        "threshold_cap: 0",
        "threshold_cap: -1",
        "grid_step: .nan",
        "grid_step: .inf",
        "grid_step: 0",
        "sample_size_cap: 0",
    ],
)
def test_calibrate_section_validated(line):
    key = line.split(":")[0]
    with pytest.raises(ConfigError, match=f"^calibrate.{key} must be"):
        parse(BASE + f"calibrate:\n  {line}\n")


@pytest.mark.parametrize(
    "old,new,key",
    [
        ("replications: 500", "replications: 0", "run.replications"),
        ("seed: 42", "seed: -1", "run.seed"),
        ("seed: 42", f"seed: {2**64}", "run.seed"),
        ("seed: 42", "seed: 42\n  horizon: 0", "run.horizon"),
    ],
)
def test_run_section_validated(old, new, key):
    with pytest.raises(ConfigError, match=f"^{key} must be"):
        parse(BASE.replace(old, new))


def test_output_section_validated():
    text = BASE + "\noutput:\n  format: xml\n"
    with pytest.raises(ConfigError, match="output.format"):
        parse(text)


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/path.yaml")


def test_load_config_invalid_yaml(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("streams: [unclosed\n")
    with pytest.raises(ConfigError, match="invalid YAML"):
        load_config(str(path))


def test_load_config_reads_file(tmp_path):
    path = tmp_path / "ok.yaml"
    path.write_text(BASE)
    loaded = load_config(str(path))
    assert loaded.experiment.replications == 500
